"""Equivalence wall: the fast path must be bit-identical to the engine.

``fast_simulate`` replays plans over flat arrays; these tests pin its
contract against the reference ``simulate`` -- same makespan, same
per-worker statistics, same port busy time, same chunk stream -- across

* every scheduler in the registry on fixed and property-generated
  (platform, grid) instances,
* hand-built plans covering every ``CMode``, prefetch depth 1 and 2,
  strict-order and both ready policies, and the dynamic panel allocator,
* the checkpoint/restore what-if API.

Equality is exact (``==`` on floats, not approx): the fast path performs
the same float operations in the same order, so any drift is a bug.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.chunks import PanelAllocator, PanelCursor
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.engine import Engine, simulate
from repro.sim.fastpath import FastEngine, fast_simulate
from repro.sim.plan import Plan
from repro.sim.policies import (
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)
from repro.sim.worker_state import CMode


def assert_equivalent(ref, fast, *, expect_chunks=True):
    """Exact equality of everything but the (intentionally absent) traces."""
    assert fast.makespan == ref.makespan
    assert fast.port_busy == ref.port_busy
    assert fast.total_updates == ref.total_updates
    assert fast.blocks_through_port == ref.blocks_through_port
    assert fast.worker_stats == ref.worker_stats
    if expect_chunks:
        assert [c.cid for c in fast.chunks] == [c.cid for c in ref.chunks]
        assert [c.worker for c in fast.chunks] == [c.worker for c in ref.chunks]
    assert fast.port_events == ()
    assert fast.compute_events == ()


def run_both(sched, platform, grid):
    ref_plan = sched.plan(platform, grid)
    ref_plan.collect_events = False
    ref = simulate(platform, ref_plan, grid)
    fast_plan = sched.plan(platform, grid)  # fresh plan: allocators are single-use
    fast = fast_simulate(platform, fast_plan, grid)
    return ref, fast


# ----------------------------------------------------------------------
# every registry scheduler, fixed instances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_equivalence_het_platform(name, het_platform, small_grid):
    ref, fast = run_both(make_scheduler(name), het_platform, small_grid)
    assert_equivalent(ref, fast)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_equivalence_ragged(name, het_platform, ragged_grid):
    ref, fast = run_both(make_scheduler(name), het_platform, ragged_grid)
    assert_equivalent(ref, fast)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_plans_take_fast_path(name, het_platform, small_grid):
    plan = make_scheduler(name).plan(het_platform, small_grid)
    FastEngine(het_platform, depths=plan.depths, c_mode=plan.c_mode).run_plan(plan)


# ----------------------------------------------------------------------
# every registry scheduler, property-generated instances
# ----------------------------------------------------------------------
workers_st = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=5, max_value=60),
    ),
    min_size=1,
    max_size=5,
)
grids_st = st.builds(
    BlockGrid,
    r=st.integers(min_value=1, max_value=9),
    t=st.integers(min_value=1, max_value=7),
    s=st.integers(min_value=1, max_value=11),
)


@settings(max_examples=40, deadline=None)
@given(params=workers_st, grid=grids_st)
def test_property_equivalence_all_schedulers(params, grid):
    platform = Platform([Worker(i, c, w, m) for i, (c, w, m) in enumerate(params)])
    for name in sorted(SCHEDULERS):
        sched = make_scheduler(name)
        try:
            ref_plan = sched.plan(platform, grid)
        except SchedulingError:
            continue
        ref_plan.collect_events = False
        ref = simulate(platform, ref_plan, grid)
        fast = fast_simulate(platform, sched.plan(platform, grid), grid)
        assert_equivalent(ref, fast)


# ----------------------------------------------------------------------
# hand-built plans: CMode x depth x policy coverage
# ----------------------------------------------------------------------
def _chunk_assignments(platform, grid, sides, rng):
    """Columnwise chunk assignments dealing panels randomly to workers."""
    panels = PanelAllocator(grid.s)
    cursors = [PanelCursor(i, side, grid) for i, side in enumerate(sides)]
    order = []
    cid = 0
    assignments = [[] for _ in range(platform.p)]
    while not panels.exhausted:
        widx = rng.randrange(platform.p)
        panel = panels.grant(sides[widx])
        assert panel is not None
        cursors[widx].add_panel(panel)
        while cursors[widx].has_next:
            ch = cursors[widx].next_chunk(cid)
            assert ch is not None
            assignments[widx].append(ch)
            order.append(widx)
            cid += 1
    return assignments


def _message_counts(assignments, c_mode):
    per_chunk_extra = (1 if c_mode is not CMode.NONE else 0) + (
        1 if c_mode is CMode.BOTH else 0
    )
    return [
        sum(len(ch.rounds) + per_chunk_extra for ch in chunks) for chunks in assignments
    ]


@pytest.mark.parametrize("c_mode", list(CMode))
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_strict_order_equivalence_modes(c_mode, depth, seed, het_platform, small_grid):
    rng = random.Random(seed)
    sides = [2, 3, 1, 2]
    assignments = _chunk_assignments(het_platform, small_grid, sides, rng)
    counts = _message_counts(assignments, c_mode)
    order = [w for w, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(order)

    def build():
        return Plan(
            assignments=[list(chs) for chs in assignments],
            policy=StrictOrderPolicy(order),
            depths=[depth] * het_platform.p,
            c_mode=c_mode,
            collect_events=False,
        )

    ref = simulate(het_platform, build(), small_grid)
    fast = fast_simulate(het_platform, build(), small_grid)
    assert_equivalent(ref, fast)


@pytest.mark.parametrize("priority", [selection_order_priority, demand_priority])
@pytest.mark.parametrize("c_mode", list(CMode))
@pytest.mark.parametrize("seed", [3, 11])
def test_ready_policy_equivalence_modes(priority, c_mode, seed, het_platform, ragged_grid):
    rng = random.Random(seed)
    sides = [3, 2, 2, 4]
    assignments = _chunk_assignments(het_platform, ragged_grid, sides, rng)

    def build():
        return Plan(
            assignments=[list(chs) for chs in assignments],
            policy=ReadyPolicy(priority),
            depths=[2, 1, 3, 2],
            c_mode=c_mode,
            collect_events=False,
        )

    ref = simulate(het_platform, build(), ragged_grid)
    fast = fast_simulate(het_platform, build(), ragged_grid)
    assert_equivalent(ref, fast)


def test_fast_simulate_rejects_non_plan(het_platform):
    with pytest.raises(TypeError):
        fast_simulate(het_platform, object())


# ----------------------------------------------------------------------
# checkpoint / restore what-ifs
# ----------------------------------------------------------------------
def _drain_engine_pair(platform, assignments, upto):
    """Reference Engine and FastEngine advanced through the same prefix."""
    eng = Engine(platform, collect_events=False)
    fast = FastEngine(platform)
    for widx, chunks in enumerate(assignments):
        for ch in chunks:
            eng.assign_chunk(widx, ch)
            fast.assign_chunk(widx, ch)
    policy = ReadyPolicy(demand_priority)
    for _ in range(upto):
        widx = policy.next_choice(eng)
        if widx is None:
            break
        eng.post_next(widx)
        fast.post_next(widx)
    return eng, fast


def test_checkpoint_restore_roundtrip(het_platform, small_grid):
    assignments = _chunk_assignments(het_platform, small_grid, [3, 4, 2, 5], random.Random(1))
    eng, fast = _drain_engine_pair(het_platform, assignments, upto=25)
    for widx in range(het_platform.p):
        before = fast.result(small_grid)
        token = fast.checkpoint(widx)
        # post everything still pending on this worker, then roll back
        while fast.has_pending(widx):
            fast.post_next(widx)
        fast.restore(token)
        after = fast.result(small_grid)
        assert after.makespan == before.makespan
        assert after.port_busy == before.port_busy
        assert after.worker_stats == before.worker_stats
        assert after.blocks_through_port == before.blocks_through_port
    # the rolled-back engine must still agree with the reference engine
    while True:
        widx = ReadyPolicy(demand_priority).next_choice(eng)
        if widx is None:
            break
        eng.post_next(widx)
        fast.post_next(widx)
    assert_equivalent(eng.result(small_grid), fast.result(small_grid), expect_chunks=False)


def test_checkpoint_truncates_speculative_chunks(het_platform, small_grid):
    fast = FastEngine(het_platform)
    cursorless = _chunk_assignments(het_platform, small_grid, [3, 4, 2, 5], random.Random(2))
    extra = cursorless[0][0]
    token = fast.checkpoint(0)
    fast.assign_chunk(0, extra)
    assert fast.has_pending(0)
    assert len(fast.all_chunks) == 1
    fast.restore(token)
    assert not fast.has_pending(0)
    assert fast.all_chunks == []
