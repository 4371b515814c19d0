"""The coded-redundancy scheduler family: stripes, decode, wasted work.

Covers the stripe geometry helpers, the fixed-rate (``Coded``) and
rateless (``CodedRL``) schedulers through all engines, the decode-aware
dynamic runner (makespan = decode time, abandoned shares killed), the
decode-threshold boundary cases of the issue (k-of-n exactly met at the
final event boundary; every spare of a stripe crashed must raise
``DynamicStall``, not hang; reference vs fast agreement on empty
timelines), the validator's decode audit, and the completion wall: native
decode stops equal the test-side per-message driver loop.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.core.blocks import BlockGrid
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.coded import (
    CodedDemandAllocator,
    CodedScheduler,
    DecodeTracker,
    RatelessCodedScheduler,
    build_stripes,
    decode_threshold,
)
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.dynamic import DynamicStall, PlatformTimeline, random_timeline
from repro.sim.engine import simulate
from repro.sim.fastpath import FastEngine, fast_simulate
from repro.sim.kernels import available_backends
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy
from repro.sim.validate import validate_dynamic, validate_result
from tests.dynamic_oracle import on_engine, per_message, reference_engine
from tests.per_mode import kernel_env


def _platform(p: int = 3, m: int = 21) -> Platform:
    return Platform([Worker(i, c=1.0, w=4.0, m=m) for i in range(p)])


GRID = BlockGrid(r=6, t=4, s=12, q=2)


# ----------------------------------------------------------------------
# geometry helpers
# ----------------------------------------------------------------------
class TestGeometry:
    def test_decode_threshold_default_and_clamp(self):
        assert decode_threshold(20, None) == 4
        assert decode_threshold(2, None) == 2
        assert decode_threshold(20, 7) == 7
        assert decode_threshold(3, 7) == 3  # clamped to t
        with pytest.raises(ValueError):
            decode_threshold(20, 0)

    def test_build_stripes_tiles_grid_exactly(self):
        for side in (1, 2, 3, 5, 7):
            stripes = build_stripes(GRID, side)
            cells = [[False] * GRID.s for _ in range(GRID.r)]
            for i0, h, j0, w in stripes:
                for i in range(i0, i0 + h):
                    for j in range(j0, j0 + w):
                        assert not cells[i][j], "stripes overlap"
                        cells[i][j] = True
            assert all(all(row) for row in cells), "stripes do not cover C"

    def test_build_stripes_rejects_bad_side(self):
        with pytest.raises(ValueError):
            build_stripes(GRID, 0)


# ----------------------------------------------------------------------
# decode tracker
# ----------------------------------------------------------------------
class TestDecodeTracker:
    def test_k_of_n_decode(self):
        tracker = DecodeTracker([(0, 2, 0, 2), (2, 2, 0, 2)], k=2)
        for cid, sid in ((0, 0), (1, 0), (2, 0), (3, 1), (4, 1)):
            tracker.register(cid, sid)
        tracker.on_return(0, 1.0)
        tracker.on_return(3, 2.0)
        assert not tracker.satisfied
        tracker.on_return(1, 3.0)  # stripe 0 decodes
        assert not tracker.satisfied
        tracker.on_return(4, 4.0)  # stripe 1 decodes -> done
        assert tracker.satisfied
        assert tracker.decode_time == 4.0
        # late extra return does not move the decode time
        tracker.on_return(2, 9.0)
        assert tracker.decode_time == 4.0
        assert tracker.total_returns == 5

    def test_unregistered_return_raises(self):
        tracker = DecodeTracker([(0, 1, 0, 1)], k=1)
        with pytest.raises(KeyError):
            tracker.on_return(42, 1.0)


# ----------------------------------------------------------------------
# static plans through the engines
# ----------------------------------------------------------------------
class TestStaticPlans:
    @pytest.mark.parametrize("name", ["Coded", "CodedRL"])
    def test_plan_is_fast_path_eligible_and_valid(self, name):
        platform = _platform()
        sched = make_scheduler(name)
        plan = sched.plan(platform, GRID)
        FastEngine(platform, depths=plan.depths, c_mode=plan.c_mode).run_plan(plan)
        traced = sched.plan(platform, GRID)
        validate_result(simulate(platform, traced, GRID))

    def test_fixed_rate_share_counts(self):
        platform = _platform()
        sched = CodedScheduler(redundancy=2, k=2)
        plan = sched.plan(platform, GRID)
        ann = plan.meta["coded"]
        assert ann["k"] == 2 and ann["redundancy"] == 2
        per_stripe: dict[tuple, int] = {}
        workers_of: dict[tuple, set[int]] = {}
        for widx, chunks in enumerate(plan.assignments):
            for ch in chunks:
                rect = (ch.i0, ch.h, ch.j0, ch.w)
                per_stripe[rect] = per_stripe.get(rect, 0) + 1
                workers_of.setdefault(rect, set()).add(widx)
        assert set(per_stripe.values()) == {4}  # k + redundancy everywhere
        # n <= p here, so one stripe's shares land on distinct workers
        assert all(len(ws) == 4 - 1 or len(ws) == min(4, platform.p) for ws in workers_of.values())

    def test_no_enrollable_worker_raises(self):
        tiny = Platform([Worker(0, c=1.0, w=4.0, m=2)])  # below mu=1 floor
        with pytest.raises(SchedulingError):
            CodedScheduler().plan(tiny, GRID)

    def test_signature_carries_parameters(self):
        assert CodedScheduler(redundancy=3, k=2).signature == "Coded(r=3,k=2)"
        assert RatelessCodedScheduler().signature == "CodedRL(r=1,k=None)"

    def test_registry_exposes_family(self):
        assert isinstance(SCHEDULERS["Coded"](), CodedScheduler)
        assert isinstance(SCHEDULERS["CodedRL"](), RatelessCodedScheduler)


# ----------------------------------------------------------------------
# decode-aware dynamic runs
# ----------------------------------------------------------------------
class TestDecodeRuns:
    @pytest.mark.parametrize("name", ["Coded", "CodedRL"])
    def test_reference_and_fast_agree_on_empty_timeline(self, name):
        platform = _platform()
        sched = make_scheduler(name)
        runs = {}
        for eng in ("fast", "reference"):
            with on_engine(eng):
                runs[eng] = sched.run_dynamic(platform, GRID)
        assert runs["fast"].makespan == runs["reference"].makespan
        assert (
            runs["fast"].meta["dynamic"]["coded"]
            == runs["reference"].meta["dynamic"]["coded"]
        )

    def test_decode_exactly_at_final_return(self):
        """redundancy=0: the threshold is met only by the very last
        C_RETURN, so the decode time equals the full static drain."""
        platform = _platform()
        sched = CodedScheduler(redundancy=0)
        static = fast_simulate(platform, sched.plan(platform, GRID), GRID)
        dyn = sched.run_dynamic(platform, GRID)
        coded = dyn.meta["dynamic"]["coded"]
        assert dyn.makespan == static.makespan
        assert coded["decode_time"] == dyn.makespan
        assert coded["shares_returned"] == coded["k"] * coded["stripes"]
        assert coded["wasted_updates"] == 0
        assert coded["wasted_blocks"] == 0

    def test_redundancy_wastes_work_on_calm_platform(self):
        platform = _platform()
        dyn = CodedScheduler(redundancy=2).run_dynamic(platform, GRID)
        coded = dyn.meta["dynamic"]["coded"]
        assert coded["wasted_updates"] >= 0
        assert coded["useful_updates"] + coded["wasted_updates"] == dyn.total_updates
        assert coded["useful_blocks"] + coded["wasted_blocks"] == dyn.blocks_through_port

    def test_all_spares_of_a_stripe_crashed_raises_stall(self):
        """Every share of some stripe on permanently-crashed workers must
        surface as DynamicStall, not a hang or a silent decode."""
        platform = _platform(p=2)
        sched = CodedScheduler(redundancy=0)
        tl = PlatformTimeline().crash(0.5, 0).crash(0.5, 1)  # no joins
        with pytest.raises(DynamicStall):
            sched.run_dynamic(platform, GRID, tl)

    def test_crash_of_redundant_share_is_absorbed(self):
        """With spare shares on surviving workers, a permanent crash costs
        time but the decode still completes — the whole point of coding."""
        platform = _platform(p=3)
        sched = CodedScheduler(redundancy=2, k=2)
        horizon = fast_simulate(platform, sched.plan(platform, GRID), GRID).makespan
        tl = PlatformTimeline().crash(horizon / 4, 0)  # never rejoins
        dyn = sched.run_dynamic(platform, GRID, tl)
        assert dyn.meta["dynamic"]["coded"]["decode_time"] == dyn.makespan

    def test_rateless_streams_until_decode_under_straggler(self):
        platform = _platform(p=3)
        sched = RatelessCodedScheduler(redundancy=1, k=2)
        calm = sched.run_dynamic(platform, GRID)
        tl = PlatformTimeline().straggle(calm.makespan / 4, 0, 32.0)
        slow = sched.run_dynamic(platform, GRID, tl)
        assert slow.meta["dynamic"]["coded"]["decode_time"] == slow.makespan
        # the straggler forces extra shares (or at least never fewer)
        assert (
            slow.meta["dynamic"]["coded"]["shares_returned"]
            >= calm.meta["dynamic"]["coded"]["shares_returned"]
        )

    @pytest.mark.parametrize("name", ["Coded", "CodedRL"])
    def test_decode_audit_validates(self, name):
        platform = _platform(p=3)
        sched = make_scheduler(name)
        horizon = sched.run_dynamic(platform, GRID).makespan
        tl = (
            PlatformTimeline()
            .straggle(horizon / 4, 0, 16.0)
            .crash(horizon / 3, 1)
            .join(horizon * 0.8, 1)
        )
        dyn = sched.run_dynamic(platform, GRID, tl, record_events=True)
        # raises InvariantViolation on any breach of the decode audit
        validate_dynamic(dyn, tl, grid=GRID)

    @pytest.mark.parametrize("mode", ["adaptive", "reselect"])
    def test_replanning_modes_reject_coded_bases(self, mode):
        from repro.schedulers.adaptive import AdaptiveScheduler

        platform = _platform()
        wrapper = AdaptiveScheduler(make_scheduler("Coded"), mode)
        with pytest.raises(SchedulingError, match="coded"):
            wrapper.run_dynamic(platform, GRID, PlatformTimeline().straggle(1.0, 0, 2.0))

    def test_killed_shares_recorded(self):
        platform = _platform(p=3)
        dyn = CodedScheduler(redundancy=2, k=2).run_dynamic(
            platform, GRID, record_events=True
        )
        meta = dyn.meta["dynamic"]
        # in-flight spares at decode time are abandoned, not replanned
        assert "killed_cids" in meta or meta["coded"]["wasted_updates"] >= 0


# ----------------------------------------------------------------------
# rateless allocator unit behavior
# ----------------------------------------------------------------------
class TestCodedAllocator:
    def test_static_cap_terminates_issuance(self):
        alloc = CodedDemandAllocator([(0, 2, 0, 2)], seg=2, enrolled=[0], p=1, cap=3)
        issued = []
        for _ in range(10):
            alloc.refill_via(lambda w: False, lambda w, ch: issued.append(ch))
        assert len(issued) == 3
        assert alloc.exhausted

    def test_tracker_redirects_away_from_decoded_stripes(self):
        stripes = [(0, 2, 0, 2), (2, 2, 0, 2)]
        alloc = CodedDemandAllocator(stripes, seg=2, enrolled=[0], p=1, cap=2)
        tracker = DecodeTracker(stripes, k=1)
        alloc.attach(tracker)
        got = []
        alloc.refill_via(lambda w: False, lambda w, ch: got.append(ch))
        tracker.on_return(got[0].cid, 1.0)  # stripe of first share decodes
        sid0 = tracker.stripe_of(got[0].cid)
        for _ in range(4):
            alloc.refill_via(lambda w: False, lambda w, ch: got.append(ch))
        later = {tracker.stripe_of(ch.cid) for ch in got[1:]}
        assert sid0 not in later
        tracker.on_return(got[1].cid, 2.0)
        assert tracker.satisfied
        assert alloc.exhausted

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            CodedDemandAllocator([(0, 1, 0, 1)], seg=1, enrolled=[0], p=1, cap=0)


# ----------------------------------------------------------------------
# completion wall: native decode stops vs the per-message driver loop
# ----------------------------------------------------------------------
class _StrictCoded(CodedScheduler):
    """Fixed-rate coding posted in the strict order of its own static
    ready replay, so the decode stop also cuts a strict order short."""

    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        plan = super().plan(platform, grid)
        plan.policy = StrictOrderPolicy([ev.worker for ev in simulate(platform, plan).port_events])
        return plan


_COMPLETION_WALL = {
    "Coded-ready": lambda: CodedScheduler(redundancy=2, k=2),
    "Coded-strict": lambda: _StrictCoded(redundancy=2, k=2),
    "CodedRL-ready": lambda: RatelessCodedScheduler(redundancy=1, k=2),
}


def _decode_outcome(sched, platform, timeline, driver) -> tuple:
    """Everything a recorded decode-stopped run must reproduce on another
    driver: result, kills, decode annex and both event traces."""
    with driver:
        sim = sched.run_dynamic(platform, GRID, timeline, record_events=True)
    dyn = sim.meta["dynamic"]
    return (
        sim.makespan,
        sim.worker_stats,
        sim.port_busy,
        [ch.cid for ch in sim.chunks],
        dyn["kills"],
        dyn["killed_cids"],
        dyn["coded"],
        sim.port_events,
        sim.compute_events,
    )


class TestCompletionWall:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("variant", sorted(_COMPLETION_WALL))
    @pytest.mark.parametrize("family", ["straggler", "crash", "mixed"])
    def test_native_decode_stop_matches_per_message_loop(self, kernel, variant, family):
        """Native windows stop at the decode threshold exactly where the
        per-message loop does, on a ``FastEngine`` and on the reference
        event engine: same kills, killed cids, decode time and events."""
        platform = _platform(p=4)
        killed = 0
        with kernel_env(kernel):
            for seed in range(4):
                sched = _COMPLETION_WALL[variant]()
                horizon = fast_simulate(platform, sched.plan(platform, GRID), GRID).makespan
                tl = random_timeline(random.Random(seed), family, platform, horizon, rate=4.0)
                native = _decode_outcome(sched, platform, tl, nullcontext())
                stepped = _decode_outcome(sched, platform, tl, per_message())
                ref = _decode_outcome(sched, platform, tl, reference_engine())
                assert native == stepped, f"{variant} {family} seed {seed}"
                assert native == ref, f"{variant} {family} seed {seed}"
                assert native[6]["decode_time"] == native[0]
                killed += len(native[5])
        assert killed > 0  # the decode stop really abandons in-flight shares

    def test_tracker_sees_each_return_before_the_refill(self, monkeypatch):
        """The rateless allocator issues from the decode state, so every
        ``C_RETURN`` reaches the tracker before the refill it triggers: at
        each refill the tracker has counted every chunk the engine
        completed."""
        seen: list[tuple[int, int]] = []
        refill = CodedDemandAllocator.refill_via

        def spy(self, has_pending, assign_chunk):
            engine = has_pending.__self__
            seen.append((self.tracker.total_returns, sum(engine._chunks_done)))
            return refill(self, has_pending, assign_chunk)

        monkeypatch.setattr(CodedDemandAllocator, "refill_via", spy)
        platform = _platform(p=3)
        sched = RatelessCodedScheduler(redundancy=1, k=2)
        tl = PlatformTimeline().straggle(5.0, 0, 8.0)
        dyn = sched.run_dynamic(platform, GRID, tl)
        assert dyn.meta["dynamic"]["coded"]["shares_returned"] > 1
        assert sum(done for _returns, done in seen) > 0
        assert all(returns == done for returns, done in seen), seen
