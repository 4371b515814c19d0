"""Equivalence wall: the fast path must be bit-identical to the engine.

``fast_simulate`` and the traced ``simulate`` replay plans over flat
arrays; these tests pin both against the test-side event engine
(``tests/reference_engine.py``) -- same makespan, same per-worker
statistics, same port busy time, same chunk stream, and for ``simulate``
the same port and compute events, event for event -- across

* every scheduler in the registry on fixed and property-generated
  (platform, grid) instances,
* hand-built plans covering every ``CMode``, prefetch depth 1 and 2,
  strict-order and both ready policies, and the dynamic panel allocator.

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
from repro.sim.engine import simulate
from repro.sim.fastpath import FastEngine, fast_simulate
from repro.sim.plan import Plan
from repro.sim.policies import (
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)
from repro.sim.worker_state import CMode
from tests.reference_engine import assert_same_run, simulate_reference


def assert_equivalent(platform, plan, grid):
    """Replay ``plan`` on the oracle, the fast path and the traced
    ``simulate``: exact equality of the results, empty traces from the fast
    path, and the oracle's events from ``simulate``, event for event."""
    ref = simulate_reference(platform, plan, grid)
    fast = fast_simulate(platform, plan, grid)
    assert_same_run(fast, ref, events=False)
    assert fast.port_events == ()
    assert fast.compute_events == ()
    assert_same_run(simulate(platform, plan, grid), ref)


# ----------------------------------------------------------------------
# every registry scheduler, fixed instances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_equivalence_het_platform(name, het_platform, small_grid):
    plan = make_scheduler(name).plan(het_platform, small_grid)
    assert_equivalent(het_platform, plan, small_grid)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_equivalence_ragged(name, het_platform, ragged_grid):
    plan = make_scheduler(name).plan(het_platform, ragged_grid)
    assert_equivalent(het_platform, plan, ragged_grid)


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
            plan = sched.plan(platform, grid)
        except SchedulingError:
            continue
        assert_equivalent(platform, plan, grid)


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

    plan = Plan(
        assignments=[list(chs) for chs in assignments],
        policy=StrictOrderPolicy(order),
        depths=[depth] * het_platform.p,
        c_mode=c_mode,
    )
    assert_equivalent(het_platform, plan, small_grid)


@pytest.mark.parametrize(
    "priority", [selection_order_priority, demand_priority], ids=["priority0", "priority1"]
)
@pytest.mark.parametrize("c_mode", list(CMode))
@pytest.mark.parametrize("seed", [3, 11])
def test_ready_policy_equivalence_modes(priority, c_mode, seed, het_platform, ragged_grid):
    rng = random.Random(seed)
    sides = [3, 2, 2, 4]
    assignments = _chunk_assignments(het_platform, ragged_grid, sides, rng)

    plan = Plan(
        assignments=[list(chs) for chs in assignments],
        policy=ReadyPolicy(priority),
        depths=[2, 1, 3, 2],
        c_mode=c_mode,
    )
    assert_equivalent(het_platform, plan, ragged_grid)


def test_fast_simulate_rejects_non_plan(het_platform):
    with pytest.raises(TypeError):
        fast_simulate(het_platform, object())
