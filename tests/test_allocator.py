"""Unit tests for the demand-driven panel allocator."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import assert_partition
from repro.platform.model import Platform
from repro.schedulers.registry import make_scheduler
from repro.sim.allocator import PanelDemandAllocator
from repro.sim.dynamic import PlatformTimeline, simulate_dynamic
from repro.sim.engine import simulate
from repro.sim.fastpath import FastEngine, fast_simulate
from repro.sim.plan import Plan
from repro.sim.policies import ReadyPolicy, demand_priority, selection_order_priority
from tests.dynamic_oracle import simulate_dynamic_reference
from tests.reference_engine import Engine, assert_same_run, simulate_reference


class TestPanelDemandAllocator:
    def test_refill_assigns_one_chunk_per_idle_worker(self):
        grid = BlockGrid(r=4, t=2, s=8)
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        eng = Engine(plat)
        alloc = PanelDemandAllocator(grid, sides=[2, 2])
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1
        assert len(eng.workers[1].chunks) == 1
        # no double assignment while the pipeline is pending
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1

    def test_excluded_worker_gets_nothing(self):
        grid = BlockGrid(r=4, t=2, s=8)
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        eng = Engine(plat)
        alloc = PanelDemandAllocator(grid, sides=[2, 0])
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1
        assert len(eng.workers[1].chunks) == 0

    def test_heterogeneous_sides_partition(self):
        grid = BlockGrid(r=5, t=3, s=11)
        plat = Platform.homogeneous(3, 1.0, 1.0, 60)
        alloc = PanelDemandAllocator(grid, sides=[2, 3, 4])
        plan = Plan(
            assignments=[[], [], []],
            policy=ReadyPolicy(demand_priority),
            depths=[2, 2, 2],
            allocator=alloc,
        )
        res = simulate(plat, plan, grid)
        assert_partition(res.chunks, grid)
        assert res.total_updates == grid.total_updates

    def test_toledo_chunks(self):
        grid = BlockGrid(r=4, t=7, s=6)
        plat = Platform.homogeneous(1, 1.0, 1.0, 30)
        alloc = PanelDemandAllocator(grid, sides=[3], toledo=True)
        plan = Plan(
            assignments=[[]],
            policy=ReadyPolicy(demand_priority),
            depths=[1],
            allocator=alloc,
        )
        res = simulate(plat, plan, grid)
        assert_partition(res.chunks, grid)
        # Toledo rounds cover sigma-wide k ranges
        assert all(len(ch.rounds) == 3 for ch in res.chunks)  # ceil(7/3)

    def test_no_usable_worker_never_exhausts(self):
        grid = BlockGrid(r=2, t=2, s=2)
        alloc = PanelDemandAllocator(grid, sides=[0])
        assert not alloc.exhausted


# ----------------------------------------------------------------------
# FastEngine's ready replay refills the allocator only when a worker drains
# ----------------------------------------------------------------------
def _count_refills(monkeypatch) -> list[int]:
    """Count every ``PanelDemandAllocator.refill_via`` call (replays refill
    a clone of the plan's allocator); returns the live call count."""
    calls = [0]
    inner = PanelDemandAllocator.refill_via

    def counted(self, has_pending, assign_chunk):
        calls[0] += 1
        inner(self, has_pending, assign_chunk)

    monkeypatch.setattr(PanelDemandAllocator, "refill_via", counted)
    return calls


@pytest.mark.parametrize("name", ["ODDOML", "BMM"])
@pytest.mark.parametrize(
    "priority",
    [None, selection_order_priority],
    ids=["registry-spec", "selection-order"],
)
@pytest.mark.parametrize("grid", [BlockGrid(r=7, t=6, s=13, q=3), BlockGrid(r=12, t=5, s=31)])
def test_fast_ready_replay_refills_once_per_drain(
    name, priority, grid, het_platform, monkeypatch
):
    plan = make_scheduler(name).plan(het_platform, grid)
    if priority is not None:
        plan.policy = ReadyPolicy(priority)
    ref = simulate_reference(het_platform, plan, grid)
    calls = _count_refills(monkeypatch)
    eng = FastEngine(het_platform, depths=plan.depths, c_mode=plan.c_mode)
    eng.run_plan(plan)
    fast = eng.result(grid=grid, meta=dict(plan.meta))
    assert_same_run(fast, ref, events=False)
    chunks_done = sum(ws.chunks for ws in fast.worker_stats)
    assert chunks_done == len(fast.chunks) > 1
    assert 1 <= calls[0] <= 1 + chunks_done


def test_dynamic_crash_window_floors_match_reference(het_platform, ragged_grid, monkeypatch):
    """A crash window feeds non-zero start floors into the native ready
    windows of an allocator-driven plan; the result stays exactly the
    reference interpretation's."""
    sched = make_scheduler("ODDOML")
    nominal = simulate(het_platform, sched.plan(het_platform, ragged_grid), ragged_grid).makespan
    tl = PlatformTimeline().crash(0.1 * nominal, 0).join(0.6 * nominal, 0)
    seen_floors: list[float] = []
    drain = FastEngine._drain

    def spy(self, order, floors, until, *args, **kwargs):
        if order is None:  # a ready window (per-message posts pass an order)
            seen_floors.extend(floors)
        return drain(self, order, floors, until, *args, **kwargs)

    monkeypatch.setattr(FastEngine, "_drain", spy)
    fast = simulate_dynamic(het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid)
    ref = simulate_dynamic_reference(
        het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid
    )
    assert any(0.0 < f < float("inf") for f in seen_floors)
    assert_same_run(fast, ref, events=False)
    assert fast.makespan > nominal


@pytest.mark.parametrize("name", ["ODDOML", "BMM", "CodedRL"])
def test_allocator_plan_replays_alike(name, het_platform, small_grid):
    """A replay drives a clone of the plan's demand allocator, so a second
    replay of the same plan -- on any entry point -- sees the same grants
    instead of an exhausted allocator (which ran nothing: makespan 0)."""
    plan = make_scheduler(name).plan(het_platform, small_grid)
    assert plan.allocator is not None
    nominal = simulate(het_platform, plan, small_grid).makespan
    timeline = PlatformTimeline().straggle(0.3 * nominal, 0, 3.0)
    replays = {
        "simulate": lambda: simulate(het_platform, plan, small_grid),
        "fast_simulate": lambda: fast_simulate(het_platform, plan, small_grid),
        "simulate_dynamic": lambda: simulate_dynamic(het_platform, plan, timeline, small_grid),
    }
    for entry, replay in replays.items():
        first, second = replay().makespan, replay().makespan
        assert first == second > 0, entry
    assert fast_simulate(het_platform, plan, small_grid).makespan == nominal
