"""Unit tests for port service policies and the plan gate on them."""

import dataclasses

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import make_chunk
from repro.platform.model import Platform, Worker
from repro.schedulers.registry import make_scheduler
from repro.sim.allocator import PanelDemandAllocator
from repro.sim.dynamic import PlatformTimeline, simulate_dynamic
from repro.sim.engine import Engine
from repro.sim.plan import Plan
from repro.sim.policies import (
    POLICY_KEY_FIELDS,
    PolicyKeySpec,
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)


def _engine(p=2, c=1.0, w=1.0, m=50):
    return Engine(Platform.homogeneous(p, c, w, m))


class TestStrictOrder:
    def test_follows_order(self):
        eng = _engine()
        eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 1))
        eng.assign_chunk(1, make_chunk(1, 1, 0, 1, 1, 1, 1))
        policy = StrictOrderPolicy([0, 1, 0, 1, 0, 1])
        served = []
        while True:
            w = policy.next_choice(eng)
            if w is None:
                break
            served.append(w)
            eng.post_next(w)
        assert served == [0, 1, 0, 1, 0, 1]
        assert eng.all_done

    def test_fresh_resets(self):
        policy = StrictOrderPolicy([0, 0])
        eng = _engine(p=1)
        eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 1))
        policy.next_choice(eng)
        fresh = policy.fresh()
        assert fresh is not policy
        assert fresh.order == [0, 0]

    def test_raises_on_drained_worker(self):
        eng = _engine(p=1)
        policy = StrictOrderPolicy([0])
        with pytest.raises(RuntimeError):
            policy.next_choice(eng)


class TestReadyPolicy:
    def test_returns_none_when_done(self):
        eng = _engine()
        assert ReadyPolicy(demand_priority).next_choice(eng) is None

    def test_picks_earliest_effective_start(self):
        # worker 1's compute blocks its next round; worker 0 is free
        eng = _engine(p=2, c=1.0, w=10.0)
        eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 3))
        eng.assign_chunk(1, make_chunk(1, 1, 0, 1, 1, 1, 3))
        policy = ReadyPolicy(demand_priority)
        # serve worker 1 fully up to its buffer limit first
        for _ in range(3):  # C_SEND, round0, round1
            eng.post_next(1)
        # now worker 1's round2 waits for compute; worker 0 is immediately legal
        assert policy.next_choice(eng) == 0

    def test_selection_order_priority_prefers_lower_cid(self):
        eng = _engine(p=2)
        eng.assign_chunk(1, make_chunk(0, 1, 0, 1, 0, 1, 1))  # cid 0 on worker 1
        eng.assign_chunk(0, make_chunk(1, 0, 0, 1, 1, 1, 1))  # cid 1 on worker 0
        policy = ReadyPolicy(selection_order_priority)
        assert policy.next_choice(eng) == 1  # cid 0 first

    def test_demand_priority_breaks_ties_by_index(self):
        eng = _engine(p=2)
        eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 1))
        eng.assign_chunk(1, make_chunk(1, 1, 0, 1, 1, 1, 1))
        assert ReadyPolicy(demand_priority).next_choice(eng) == 0


class TestPolicyKeySpec:
    def test_registry_priorities_are_specs(self):
        assert selection_order_priority == PolicyKeySpec(("head_cid", "worker_index"))
        assert demand_priority == PolicyKeySpec(("legal_start", "worker_index"))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown key field"):
            PolicyKeySpec(("head_cid", "nonsense"))
        with pytest.raises(ValueError, match="at least one"):
            PolicyKeySpec(())

    def test_callable_evaluation_matches_fields(self):
        eng = _engine(p=2)
        eng.assign_chunk(0, make_chunk(7, 0, 0, 1, 0, 1, 1))
        spec = PolicyKeySpec(("head_cid", "legal_start", "worker_index"))
        assert spec(eng, 0) == (7, eng.legal_start(0), 0)

    def test_vocabulary_is_closed(self):
        assert set(POLICY_KEY_FIELDS) == {"head_cid", "legal_start", "worker_index"}

    def test_ready_policy_with_spec_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReadyPolicy(demand_priority)


# ----------------------------------------------------------------------
# the plan gate: every accepted plan is interpretable by every engine
# ----------------------------------------------------------------------
class _ReverseOrder:
    """A policy-shaped object outside the two plan policies."""

    def next_choice(self, engine):
        for widx in reversed(range(engine.platform.p)):
            if engine.head(widx) is not None:
                return widx
        return None

    def fresh(self):
        return self


def _custom_policy(platform, grid):
    Plan(
        assignments=[[] for _ in range(platform.p)],
        policy=_ReverseOrder(),
        depths=[2] * platform.p,
    )


def _priority_function(platform, grid):
    ReadyPolicy(lambda engine, widx: (widx,))


def _strict_order_with_allocator(platform, grid):
    Plan(
        assignments=[[] for _ in range(platform.p)],
        policy=StrictOrderPolicy([]),
        depths=[2] * platform.p,
        allocator=PanelDemandAllocator(grid, [2] * platform.p),
    )


def _allocator_on_strict_run(platform, grid):
    def controller(run, _applied):
        run.set_allocator(PanelDemandAllocator(grid, [2] * platform.p))

    simulate_dynamic(
        platform,
        make_scheduler("Hom").plan(platform, grid),
        PlatformTimeline().set_speed(1.0, 0, 2.0),
        grid,
        controller=controller,
    )


@pytest.mark.parametrize(
    "build",
    [_custom_policy, _priority_function, _strict_order_with_allocator, _allocator_on_strict_run],
    ids=["custom-policy", "priority-function", "strict-plus-allocator", "set-allocator-on-strict"],
)
def test_uninterpretable_plans_rejected(build, het_platform, small_grid):
    with pytest.raises(TypeError):
        build(het_platform, small_grid)


@pytest.mark.parametrize("bad", [-1, -3, 3])
def test_strict_order_outside_platform_rejected(bad):
    """An out-of-range worker index is an error, never wrapped: Python list
    indexing would silently turn -3 into worker 0 on this 3-worker
    platform."""
    platform = Platform([Worker(0, 1, 1, 21), Worker(1, 0.5, 2, 32), Worker(2, 2, 0.5, 12)])
    plan = make_scheduler("Hom").plan(platform, BlockGrid(r=5, t=4, s=9, q=2))
    order = list(plan.policy.order)
    pos = order.index(0)
    order[pos] = bad
    with pytest.raises(ValueError, match=f"worker {bad} at position {pos}"):
        dataclasses.replace(plan, policy=StrictOrderPolicy(order))
