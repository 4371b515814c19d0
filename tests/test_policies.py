"""Unit tests for port service policies."""

import pytest

from repro.core.chunks import make_chunk
from repro.platform.model import Platform
from repro.sim.engine import Engine
from repro.sim.policies import (
    POLICY_KEY_FIELDS,
    PolicyKeySpec,
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    key_spec_of,
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

    def test_unknown_marker_is_opaque(self, het_platform, small_grid):
        """A ``fast_key``-marked function is just an opaque priority: no
        spec, no warning, and fast_simulate falls back to the reference
        engine with the same makespan."""
        import dataclasses
        import warnings

        from repro.schedulers.registry import make_scheduler
        from repro.sim.engine import simulate
        from repro.sim.fastpath import fast_simulate, supports_fast_path

        for marker in ("cid", "legal", "???"):

            def marked(engine, widx):
                return (engine.head(widx).chunk.cid, widx)

            marked.fast_key = marker
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                policy = ReadyPolicy(marked)
            assert policy.priority is marked
            assert key_spec_of(marked) is None
            plan = make_scheduler("Het").plan(het_platform, small_grid)
            opaque = dataclasses.replace(plan, policy=policy)
            assert not supports_fast_path(opaque)
            assert (
                fast_simulate(het_platform, opaque, small_grid).makespan
                == simulate(het_platform, opaque, small_grid).makespan
                == simulate(het_platform, plan, small_grid).makespan
            ), marker

    def test_key_spec_of_never_warns_and_ignores_markers(self):
        import warnings

        def legacy(engine, widx):
            return (widx,)

        legacy.fast_key = "cid"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert key_spec_of(selection_order_priority) is selection_order_priority
            assert key_spec_of(legacy) is None
            assert key_spec_of(lambda e, w: (w,)) is None

    def test_ready_policy_with_spec_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReadyPolicy(demand_priority)
