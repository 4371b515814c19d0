"""SimResult / WorkerStats property edges not covered elsewhere."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import make_chunk
from repro.platform.model import Platform, Worker
from repro.sim.engine import WorkerStats, simulate
from repro.sim.fastpath import FastEngine
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy


def _result(p=2):
    plat = Platform.homogeneous(p, c=1.0, w=2.0, m=50)
    chunks = [make_chunk(i, i, 0, 1, i, 1, 2) for i in range(p)]
    plan = Plan(
        assignments=[[ch] for ch in chunks],
        policy=StrictOrderPolicy([i for _ in range(4) for i in range(p)]),
        depths=[2] * p,
    )
    return simulate(plat, plan, BlockGrid(r=1, t=2, s=p))


class TestSimResultProperties:
    def test_work_metric(self):
        res = _result()
        assert res.work == pytest.approx(res.makespan * 2)

    def test_throughput(self):
        res = _result()
        assert res.throughput == pytest.approx(res.total_updates / res.makespan)

    def test_empty_result_throughput_infinite(self):
        empty = FastEngine(Platform.homogeneous(1, 1.0, 1.0, 50)).result()
        assert empty.throughput == float("inf")
        assert empty.port_utilization == 0.0

    def test_port_utilization_bounded(self):
        res = _result()
        assert 0 < res.port_utilization <= 1.0

    def test_summary_mentions_enrollment(self):
        text = _result().summary()
        assert "enrolled workers" in text and "2/2" in text

    def test_enrolled_excludes_idle_workers(self):
        plat = Platform.homogeneous(3, c=1.0, w=2.0, m=50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 1)
        plan = Plan(
            assignments=[[ch], [], []],
            policy=StrictOrderPolicy([0, 0, 0]),
            depths=[2, 2, 2],
        )
        res = simulate(plat, plan)
        assert res.enrolled == [0]
        assert res.n_enrolled == 1


class TestWorkerStats:
    def test_enrolled_flag(self):
        st = WorkerStats(0, 0, 0, 0, 0, 0.0, 0.0)
        assert not st.enrolled
        st2 = WorkerStats(0, 1, 5, 1, 2, 1.0, 3.0)
        assert st2.enrolled

    def test_stats_match_chunk_arithmetic(self):
        res = _result()
        for st in res.worker_stats:
            # chunk 1x1, t=2: C in 1, rounds 2x2, C out 1
            assert st.blocks_in == 1 + 4
            assert st.blocks_out == 1
            assert st.updates == 2
            assert st.chunks == 1


class TestGanttWidths:
    @pytest.mark.parametrize("width", [10, 37, 200])
    def test_fixed_width_respected(self, width):
        from repro.sim.trace import gantt_ascii

        art = gantt_ascii(_result(), width=width)
        for line in art.splitlines()[:-1]:  # last line is the time axis
            # 8-char label + ' |' + width cells + '|'
            assert len(line) == 8 + 2 + width + 1
