"""Engine tests: hand-computed timelines and structural guarantees of
``simulate`` and the :class:`~repro.sim.fastpath.FastEngine` behind it."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import make_chunk
from repro.core.ops import MsgKind
from repro.platform.model import Platform
from repro.sim.engine import simulate
from repro.sim.fastpath import FastEngine
from repro.sim.plan import Plan
from repro.sim.policies import ReadyPolicy, StrictOrderPolicy, demand_priority
from repro.sim.validate import validate_result
from tests.reference_engine import post_next


class TestHandComputedTimeline:
    """One worker, c=1, w=2, chunk 1x1 with t=2: every instant by hand."""

    def _run(self):
        plat = Platform.homogeneous(1, c=1.0, w=2.0, m=50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 2)
        plan = Plan(
            assignments=[[ch]],
            policy=StrictOrderPolicy([0, 0, 0, 0]),
            depths=[2],
        )
        return simulate(plat, plan, BlockGrid(r=1, t=2, s=1))

    def test_port_events(self):
        res = self._run()
        spans = [(e.kind, e.start, e.end) for e in res.port_events]
        # C_SEND: 1 block [0,1]; round0: 2 blocks [1,3]; round1: [3,5];
        # C_RETURN waits for round1 compute (starts max(5, comp) ...)
        assert spans[0] == (MsgKind.C_SEND, 0.0, 1.0)
        assert spans[1] == (MsgKind.ROUND, 1.0, 3.0)
        assert spans[2] == (MsgKind.ROUND, 3.0, 5.0)
        # round0 computes [3,5]; round1 computes [5,7]; return [7,8]
        assert spans[3] == (MsgKind.C_RETURN, 7.0, 8.0)

    def test_compute_events(self):
        res = self._run()
        spans = [(e.start, e.end) for e in res.compute_events]
        assert spans == [(3.0, 5.0), (5.0, 7.0)]

    def test_makespan(self):
        assert self._run().makespan == pytest.approx(8.0)

    def test_stats(self):
        res = self._run()
        st = res.worker_stats[0]
        assert st.blocks_in == 1 + 2 + 2
        assert st.blocks_out == 1
        assert st.updates == 2
        assert st.compute_busy == pytest.approx(4.0)
        assert res.port_busy == pytest.approx(1 + 2 + 2 + 1)


class TestOverlapTimeline:
    def test_double_buffering_overlaps(self):
        """With depth 2, round k+1 is on the wire while round k computes."""
        plat = Platform.homogeneous(1, c=1.0, w=3.0, m=100)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 3)
        plan = Plan(assignments=[[ch]], policy=StrictOrderPolicy([0] * 5), depths=[2])
        res = simulate(plat, plan)
        rounds = [e for e in res.port_events if e.kind is MsgKind.ROUND]
        comps = res.compute_events
        # round1 transfer [3,5] overlaps round0 compute [3,6]
        assert rounds[1].start < comps[0].end and rounds[1].end > comps[0].start

    def test_depth1_no_overlap(self):
        """With depth 1 (Toledo) communication and computation alternate."""
        plat = Platform.homogeneous(1, c=1.0, w=3.0, m=100)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 3)
        plan = Plan(assignments=[[ch]], policy=StrictOrderPolicy([0] * 5), depths=[1])
        res = simulate(plat, plan)
        rounds = [e for e in res.port_events if e.kind is MsgKind.ROUND]
        comps = res.compute_events
        for rd, cp in zip(rounds[1:], comps):
            assert rd.start >= cp.end - 1e-12  # next round only after compute


class TestEngineMechanics:
    def test_assign_wrong_worker_rejected(self):
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        eng = FastEngine(plat)
        with pytest.raises(ValueError):
            eng.assign_chunk(0, make_chunk(0, 1, 0, 1, 0, 1, 1))

    def test_post_without_pending_raises(self):
        plat = Platform.homogeneous(1, 1.0, 1.0, 50)
        eng = FastEngine(plat)
        with pytest.raises(RuntimeError, match="has no pending message"):
            post_next(eng, 0)

    def test_strict_policy_wrong_worker_raises(self):
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 1)
        plan = Plan(assignments=[[ch], []], policy=StrictOrderPolicy([1]), depths=[2, 2])
        with pytest.raises(RuntimeError):
            simulate(plat, plan)

    def test_incomplete_strict_order_raises(self):
        plat = Platform.homogeneous(1, 1.0, 1.0, 50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 2)
        plan = Plan(assignments=[[ch]], policy=StrictOrderPolicy([0]), depths=[2])
        with pytest.raises(RuntimeError, match="pending"):
            simulate(plat, plan)

    def test_depths_length_checked(self):
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        with pytest.raises(ValueError):
            FastEngine(plat, depths=[2])

    def test_result_without_grid(self):
        plat = Platform.homogeneous(1, 1.0, 1.0, 50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 1)
        plan = Plan(assignments=[[ch]], policy=StrictOrderPolicy([0] * 3), depths=[2])
        res = simulate(plat, plan)
        assert res.grid is None
        assert res.total_updates == 1



class TestReadyPolicyEngine:
    def test_two_workers_interleave(self):
        plat = Platform.homogeneous(2, c=1.0, w=4.0, m=50)
        chunks = [make_chunk(0, 0, 0, 1, 0, 1, 2), make_chunk(1, 1, 0, 1, 1, 1, 2)]
        plan = Plan(
            assignments=[[chunks[0]], [chunks[1]]],
            policy=ReadyPolicy(demand_priority),
            depths=[2, 2],
        )
        res = simulate(plat, plan, BlockGrid(r=1, t=2, s=2))
        validate_result(res)
        order = [(e.worker, e.kind) for e in res.port_events]
        # worker 1 is served before worker 0's chunk comes back
        first_w1 = order.index((1, MsgKind.C_SEND))
        w0_return = order.index((0, MsgKind.C_RETURN))
        assert first_w1 < w0_return

    def test_makespan_shorter_than_serial(self):
        """Two workers in parallel beat the sum of their serial times."""
        plat = Platform.homogeneous(2, c=1.0, w=4.0, m=50)

        def run(n_workers):
            chs = [make_chunk(i, i, 0, 1, i, 1, 4) for i in range(n_workers)]
            plan = Plan(
                assignments=[[c] for c in chs] + [[] for _ in range(2 - n_workers)],
                policy=ReadyPolicy(demand_priority),
                depths=[2, 2],
            )
            return simulate(plat, plan).makespan

        one = run(1)
        two = run(2)
        assert two < 2 * one
