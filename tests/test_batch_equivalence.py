"""Equivalence wall: the batch engine must be bit-identical per instance.

``batch_simulate`` replays whole populations of plans as numpy array
programs; these tests pin its contract against both scalar engines -- same
makespan, same port busy time, same per-worker statistics -- across

* every scheduler in the registry, with all (algorithm, instance) plans of
  several instances submitted as ONE ragged batch (mixed worker counts,
  chunk counts, strict and ready policies, and allocator plans that must
  fall back to the scalar path),
* property-generated (platform, grid) instances,
* hand-built plans covering every ``CMode``, prefetch depths 1..3, and
  both ready priority keys (``selection_order_priority`` and
  ``demand_priority``),
* the checkpoint/restore and shared-prefix batch APIs,
* ``batch_outcomes``'s routing: one engine per replay mode under a
  whole-run kernel, length buckets and the scalar gate under numpy.

The walls replay each replay mode on one engine through
``tests/per_mode.py``, so the batch engine is exercised at any group size
under every backend; ``batch_outcomes`` itself is checked by the routing
tests.

Equality is exact (``==`` on floats, not approx): the batch engine performs
the same IEEE-754 operations in the same per-instance order, so any drift
is a bug.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.chunks import PanelAllocator, PanelCursor
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.batch import (
    BatchEngine,
    _plan_steps,
    batch_outcomes,
    batch_simulate,
    shared_prefix_makespans,
    supports_batch,
)
from repro.sim.engine import simulate
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import available_backends
from repro.sim.plan import Plan
from repro.sim.policies import (
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)
from repro.sim.worker_state import CMode
from tests.per_mode import kernel_env, per_mode_makespans, per_mode_outcomes
from tests.reference_engine import simulate_reference


def assert_outcome_equivalent(ref, outcome):
    """Exact equality between a scalar SimResult and a BatchOutcome."""
    assert outcome.makespan == ref.makespan
    assert outcome.port_busy == ref.port_busy
    assert outcome.total_updates == ref.total_updates
    assert outcome.blocks_through_port == ref.blocks_through_port
    assert outcome.worker_stats == ref.worker_stats
    assert outcome.n_enrolled == ref.n_enrolled


def clone_plan(plan: Plan) -> Plan:
    """Fresh copy of an allocator-free plan, with a fresh policy."""
    assert plan.allocator is None
    if isinstance(plan.policy, StrictOrderPolicy):
        policy = StrictOrderPolicy(plan.policy.order)
    else:
        policy = ReadyPolicy(plan.policy.priority)
    return Plan(
        assignments=[list(chunks) for chunks in plan.assignments],
        policy=policy,
        depths=list(plan.depths),
        c_mode=plan.c_mode,
    )


def _chunk_assignments(platform, grid, sides, rng):
    """Columnwise chunk assignments dealing panels randomly to workers."""
    panels = PanelAllocator(grid.s)
    cursors = [PanelCursor(i, side, grid) for i, side in enumerate(sides)]
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
            cid += 1
    return assignments


def _message_counts(assignments, c_mode):
    per_chunk_extra = (1 if c_mode is not CMode.NONE else 0) + (
        1 if c_mode is CMode.BOTH else 0
    )
    return [
        sum(len(ch.rounds) + per_chunk_extra for ch in chunks) for chunks in assignments
    ]


# ----------------------------------------------------------------------
# every registry scheduler, all plans of several instances in one batch
# ----------------------------------------------------------------------
def test_registry_one_ragged_batch(het_platform, hom_platform, small_grid, ragged_grid):
    """Mixed platforms/grids/schedulers in one submission: strict and ready
    groups vectorize, allocator plans (BMM/ODDOML) fall back."""
    instances = [
        (het_platform, small_grid),
        (het_platform, ragged_grid),
        (hom_platform, small_grid),
    ]
    runs, refs = [], []
    for platform, grid in instances:
        for name in sorted(SCHEDULERS):
            try:
                plan = make_scheduler(name).plan(platform, grid)
            except SchedulingError:
                continue
            refs.append(simulate_reference(platform, plan, grid))
            runs.append((platform, plan))
    assert any(not supports_batch(plan) for _pf, plan in runs)  # fallbacks
    assert any(supports_batch(plan) for _pf, plan in runs)
    for ref, outcome in zip(refs, per_mode_outcomes(runs)):
        assert_outcome_equivalent(ref, outcome)
    # the routed batch_outcomes / batch_simulate agree
    for ref, outcome in zip(refs, batch_outcomes(runs)):
        assert_outcome_equivalent(ref, outcome)
    for ref, ms in zip(refs, batch_simulate(runs)):
        assert ms == ref.makespan


def test_small_groups_fall_back_identically(het_platform, small_grid):
    """Under numpy a group below the bucket gate takes the scalar path --
    results must equal the same group replayed on one numpy engine."""
    sched = make_scheduler("Hom")
    runs = [(het_platform, sched.plan(het_platform, small_grid)) for _ in range(3)]
    with kernel_env("numpy"):
        lazy = batch_simulate([(p, clone_plan(pl)) for p, pl in runs])
        vectorized = per_mode_makespans(runs)
    assert list(lazy) == vectorized


# ----------------------------------------------------------------------
# property-generated instances, all registry schedulers, one batch per draw
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


@settings(max_examples=30, deadline=None)
@given(params=workers_st, grid=grids_st)
def test_property_equivalence_all_schedulers(params, grid):
    platform = Platform([Worker(i, c, w, m) for i, (c, w, m) in enumerate(params)])
    runs, refs = [], []
    for name in sorted(SCHEDULERS):
        try:
            plan = make_scheduler(name).plan(platform, grid)
        except SchedulingError:
            continue
        ref_plan = make_scheduler(name).plan(platform, grid)
        refs.append(simulate_reference(platform, ref_plan, grid))
        runs.append((platform, plan))
    outcomes = per_mode_outcomes(runs)
    for ref, outcome in zip(refs, outcomes):
        assert outcome.makespan == ref.makespan
        assert outcome.port_busy == ref.port_busy
        assert outcome.worker_stats == ref.worker_stats
    # the compiled backends replay the replayable (policy-driven) runs bit-identically
    replayable = [
        (ref, (platform, clone_plan(plan)))
        for ref, (platform, plan) in zip(refs, runs)
        if plan.allocator is None
    ]
    for kernel in available_backends():
        if kernel == "numpy":
            continue
        with kernel_env(kernel):
            compiled = per_mode_outcomes(
                [(p, clone_plan(pl)) for _ref, (p, pl) in replayable]
            )
        for (ref, _run), outcome in zip(replayable, compiled):
            assert outcome.makespan == ref.makespan, kernel
            assert outcome.worker_stats == ref.worker_stats, kernel


# ----------------------------------------------------------------------
# hand-built plans: CMode x depth x policy coverage, ragged in one batch
# ----------------------------------------------------------------------
def _hand_built_runs(het_platform, small_grid, ragged_grid, policy_factory):
    """One batch spanning CModes, depths 1..3 and both grids."""
    runs = []
    rng = random.Random(7)
    for i, c_mode in enumerate(CMode):
        for depth_seed in (0, 1):
            grid = small_grid if (i + depth_seed) % 2 else ragged_grid
            sides = [2, 3, 1, 2]
            assignments = _chunk_assignments(het_platform, grid, sides, rng)
            depths = [1 + (depth_seed + j) % 3 for j in range(het_platform.p)]
            policy = policy_factory(assignments, c_mode, rng)
            runs.append(
                (
                    het_platform,
                    Plan(
                        assignments=[list(chs) for chs in assignments],
                        policy=policy,
                        depths=depths,
                        c_mode=c_mode,
                    ),
                )
            )
    return runs


def _strict_factory(assignments, c_mode, rng):
    counts = _message_counts(assignments, c_mode)
    order = [w for w, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(order)
    return StrictOrderPolicy(order)


#: Every kernel backend that can run here -- the numpy oracle plus the
#: compiled one (c) where it builds.
KERNELS = available_backends()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "policy_factory",
    [
        _strict_factory,
        lambda a, m, r: ReadyPolicy(selection_order_priority),
        lambda a, m, r: ReadyPolicy(demand_priority),
    ],
    ids=["strict", "selection-order", "demand"],
)
def test_mode_depth_policy_matrix(policy_factory, kernel, het_platform, small_grid, ragged_grid):
    """backend x mode x priority key wall: every kernel backend replays
    the CMode/depth/policy matrix bit-identically to the reference."""
    runs = _hand_built_runs(het_platform, small_grid, ragged_grid, policy_factory)
    refs = [simulate_reference(platform, plan, None) for platform, plan in runs]
    with kernel_env(kernel):
        outcomes = per_mode_outcomes(runs)
    for ref, outcome in zip(refs, outcomes):
        assert_outcome_equivalent(ref, outcome)


def test_key_spec_interpretations_match_reference(het_platform, ragged_grid):
    """Both priority keys rank identically in the test-side event engine, the
    fast path and the batch engine."""
    rng = random.Random(11)
    assignments = _chunk_assignments(het_platform, ragged_grid, [3, 2, 2, 4], rng)
    for priority in (selection_order_priority, demand_priority):

        def build():
            return Plan(
                assignments=[list(chs) for chs in assignments],
                policy=ReadyPolicy(priority),
                depths=[2, 1, 3, 2],
            )

        ref = simulate_reference(het_platform, build(), ragged_grid)
        fast = fast_simulate(het_platform, build(), ragged_grid)
        (outcome,) = per_mode_outcomes([(het_platform, build())])
        assert fast.makespan == ref.makespan
        assert fast.worker_stats == ref.worker_stats
        assert outcome.makespan == ref.makespan
        assert outcome.worker_stats == ref.worker_stats


# ----------------------------------------------------------------------
# unsupported plans: loud engine, transparent API
# ----------------------------------------------------------------------
def test_unsupported_plans_fall_back(het_platform, small_grid):
    bmm = make_scheduler("BMM").plan(het_platform, small_grid)
    assert not supports_batch(bmm)
    with pytest.raises(TypeError, match="fall"):
        BatchEngine([(het_platform, bmm)])
    fast = fast_simulate(het_platform, make_scheduler("BMM").plan(het_platform, small_grid))
    (outcome,) = batch_outcomes([(het_platform, bmm)])
    assert outcome.makespan == fast.makespan


def test_mixed_modes_rejected_by_engine(het_platform, small_grid):
    strict = make_scheduler("Hom").plan(het_platform, small_grid)
    ready = make_scheduler("ORROML").plan(het_platform, small_grid)
    with pytest.raises(TypeError, match="mixed"):
        BatchEngine([(het_platform, strict), (het_platform, ready)])


def test_strict_order_mismatch_rejected(het_platform, small_grid):
    plan = make_scheduler("Hom").plan(het_platform, small_grid)
    plan.policy.order.append(plan.policy.order[-1])  # one message too many
    with pytest.raises(RuntimeError, match="disagree"):
        BatchEngine([(het_platform, plan)])


def test_empty_batch():
    assert batch_simulate([]).size == 0


# ----------------------------------------------------------------------
# batch_outcomes routing: the split follows the resolved backend
# ----------------------------------------------------------------------
def _routing_runs(het_platform, small_grid, ragged_grid):
    """A mixed run list: three strict runs sharing one plan object (under
    cost variants), a ready group of two plans, one allocator plan."""
    strict = make_scheduler("Hom").plan(het_platform, small_grid)
    ready = [
        make_scheduler("ORROML").plan(het_platform, grid)
        for grid in (small_grid, ragged_grid)
    ]
    bmm = make_scheduler("BMM").plan(het_platform, small_grid)
    v0, v1, v2 = _cost_variants(het_platform, 3)
    return [
        (v0, strict),
        (het_platform, ready[0]),
        (v1, strict),
        (het_platform, bmm),
        (het_platform, ready[1]),
        (v2, strict),
    ]


def _routed(monkeypatch, runs):
    """``batch_outcomes(runs)``, the replay mode of every ``BatchEngine``
    it built, and the metric deltas it left."""
    from repro.obs import snapshot, snapshot_delta

    built = []
    init = BatchEngine.__init__

    def counting_init(self, runs):
        init(self, runs)
        (mode,) = {
            "strict" if isinstance(plan.policy, StrictOrderPolicy) else plan.policy.priority
            for _pf, plan in runs
        }
        built.append(mode)

    monkeypatch.setattr(BatchEngine, "__init__", counting_init)
    before = snapshot()
    outcomes = batch_outcomes(runs)
    return outcomes, built, snapshot_delta(before)


@pytest.mark.parametrize("kernel", ["c"])
def test_whole_run_kernels_build_one_engine_per_mode(
    kernel, monkeypatch, het_platform, small_grid, ragged_grid
):
    """Under a whole-run kernel each replay mode is one engine, whatever
    the group sizes, compiling each distinct (plan, worker) stream once;
    only the allocator plan takes the scalar path."""
    from repro.sim.kernels import KernelUnavailable, get_backend

    try:
        get_backend(kernel).ensure_ready()
    except KernelUnavailable:
        pytest.skip(f"the {kernel} kernels do not build here")
    with kernel_env("numpy"):
        expected = [
            fast_simulate(pf, plan)
            for pf, plan in _routing_runs(het_platform, small_grid, ragged_grid)
        ]
    runs = _routing_runs(het_platform, small_grid, ragged_grid)
    with kernel_env(kernel):
        outcomes, built, delta = _routed(monkeypatch, runs)
    assert sorted(built) == sorted(["strict", runs[1][1].policy.priority])
    pairs = {
        (id(plan), w)
        for _pf, plan in runs
        if supports_batch(plan)
        for w, chunks in enumerate(plan.assignments)
        if chunks
    }
    assert delta["batch.compile.streams"] == len(pairs)
    assert delta["batch.vectorized_runs"] == 5
    assert delta["batch.scalar_runs"] == 1
    for ref, outcome in zip(expected, outcomes):
        assert_outcome_equivalent(ref, outcome)


def test_numpy_small_groups_take_the_scalar_path(
    monkeypatch, het_platform, small_grid, ragged_grid
):
    """Under the per-step numpy backend, groups below the bucket gate build
    no engine: every run goes through the scalar fast path."""
    runs = _routing_runs(het_platform, small_grid, ragged_grid)
    with kernel_env("numpy"):
        expected = [
            fast_simulate(pf, plan)
            for pf, plan in _routing_runs(het_platform, small_grid, ragged_grid)
        ]
        outcomes, built, delta = _routed(monkeypatch, runs)
    assert built == []
    assert delta["batch.scalar_runs"] == len(runs)
    assert "batch.vectorized_runs" not in delta
    for ref, outcome in zip(expected, outcomes):
        assert_outcome_equivalent(ref, outcome)


# ----------------------------------------------------------------------
# checkpoint / restore and shared prefixes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scheduler", ["Hom", "ORROML"], ids=["strict", "ready"])
def test_checkpoint_restore_roundtrip(scheduler, kernel, het_platform, small_grid, ragged_grid):
    runs = []
    for grid in (small_grid, ragged_grid):
        plan = make_scheduler(scheduler).plan(het_platform, grid)
        runs.append((het_platform, plan))
    with kernel_env(kernel):
        engine = BatchEngine(runs)
    engine.run(max_steps=9)
    token = engine.checkpoint()
    first = engine.run().makespans()
    engine.restore(token)
    second = engine.run().makespans()
    assert np.array_equal(first, second)
    fasts = [fast_simulate(p, clone_plan(pl), None).makespan for p, pl in runs]
    assert list(first) == fasts


def test_makespans_require_completion(het_platform, small_grid):
    plan = make_scheduler("Hom").plan(het_platform, small_grid)
    engine = BatchEngine([(het_platform, plan)])
    engine.run(max_steps=1)
    with pytest.raises(RuntimeError, match="stopped"):
        engine.makespans()


def test_shared_prefix_matches_full_replay(het_platform, small_grid):
    """Candidates sharing a strict prefix: simulate-once-and-broadcast is
    bit-identical to replaying every instance from scratch."""
    rng = random.Random(3)
    assignments = _chunk_assignments(het_platform, small_grid, [3, 2, 2, 4], rng)
    counts = _message_counts(assignments, CMode.BOTH)
    order = [w for w, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(order)
    prefix_len = len(order) // 2
    runs = []
    for k in range(4):
        suffix = sorted(order[prefix_len:], key=lambda w: (w + k) % 4)
        runs.append(
            (
                het_platform,
                Plan(
                    assignments=[list(chs) for chs in assignments],
                    policy=StrictOrderPolicy(order[:prefix_len] + suffix),
                    depths=[2] * het_platform.p,
                ),
            )
        )
    shared = BatchEngine.shared_prefix(runs, prefix_len).run().makespans()
    scratch = BatchEngine([(p, clone_plan(pl)) for p, pl in runs]).run().makespans()
    assert np.array_equal(shared, scratch)
    fasts = [fast_simulate(p, clone_plan(pl), None).makespan for p, pl in runs]
    assert list(shared) == fasts
    # the simulate-once-and-broadcast construction survives every backend
    for kernel in KERNELS:
        with kernel_env(kernel):
            again = (
                BatchEngine.shared_prefix([(p, clone_plan(pl)) for p, pl in runs], prefix_len)
                .run()
                .makespans()
            )
        assert np.array_equal(again, shared), kernel


def test_shared_prefix_rejects_divergent_prefixes(het_platform, small_grid):
    rng = random.Random(5)
    assignments = _chunk_assignments(het_platform, small_grid, [3, 2, 2, 4], rng)
    counts = _message_counts(assignments, CMode.BOTH)
    order = [w for w, n in enumerate(counts) for _ in range(n)]

    def plan_with(order_):
        return Plan(
            assignments=[list(chs) for chs in assignments],
            policy=StrictOrderPolicy(order_),
            depths=[2] * het_platform.p,
        )

    divergent = list(reversed(order))
    runs = [(het_platform, plan_with(order)), (het_platform, plan_with(divergent))]
    if divergent[: len(order) // 2] != order[: len(order) // 2]:
        with pytest.raises(ValueError, match="prefix"):
            BatchEngine.shared_prefix(runs, len(order) // 2)


# ----------------------------------------------------------------------
# shared per-plan streams: one compiled stream, many instances
# ----------------------------------------------------------------------
def _cost_variants(platform: Platform, n: int) -> list[Platform]:
    """``n`` cost scalings of ``platform`` (same memories)."""
    return [
        Platform(
            [Worker(w.index, w.c * (1 + 0.25 * k), w.w * (2 - 0.125 * k), w.m) for w in platform]
        )
        for k in range(n)
    ]


def _scalar_reference(platform: Platform, plan: Plan):
    """Per-instance reference: the scalar fast path on a fresh plan."""
    with kernel_env("numpy"):
        return fast_simulate(platform, clone_plan(plan))


class _Deal:
    """Stands in for ``random.Random`` in :func:`_chunk_assignments`:
    deals panels to ``active`` workers only, so the others get no chunk."""

    def __init__(self, active: list[int], seed: int) -> None:
        self.active = active
        self.rng = random.Random(seed)

    def randrange(self, _p: int) -> int:
        return self.rng.choice(self.active)

    def shuffle(self, seq: list) -> None:
        self.rng.shuffle(seq)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scheduler", ["Hom", "ORROML"], ids=["strict", "ready"])
def test_one_plan_many_cost_variants(scheduler, kernel, het_platform, ragged_grid):
    """One plan object scored under eight cost variants in one engine:
    every instance walks the plan's single stream with its own (c, w)."""
    plan = make_scheduler(scheduler).plan(het_platform, ragged_grid)
    runs = [(pf, plan) for pf in _cost_variants(het_platform, 8)]
    with kernel_env(kernel):
        engine = BatchEngine(runs)
    assert engine._flat[0].size == _plan_steps(plan)
    for (pf, _plan), outcome in zip(runs, engine.run().outcomes()):
        assert_outcome_equivalent(_scalar_reference(pf, plan), outcome)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "policy_factory",
    [_strict_factory, lambda a, m, r: ReadyPolicy(demand_priority)],
    ids=["strict", "ready"],
)
def test_mixed_shared_and_distinct_plans(policy_factory, kernel, het_platform, small_grid, ragged_grid):
    """Shared and distinct plans in one engine, on 4- and 2-worker
    platforms, with workers that hold no chunk at all."""
    pair = Platform([Worker(0, 0.75, 1.25, 21), Worker(1, 1.5, 0.5, 32)])

    def plan_on(platform, grid, sides, active, seed):
        deal = _Deal(active, seed)
        assignments = _chunk_assignments(platform, grid, sides, deal)
        return Plan(
            assignments=assignments,
            policy=policy_factory(assignments, CMode.BOTH, deal),
            depths=[1 + w % 3 for w in range(platform.p)],
        )

    idle_het = plan_on(het_platform, ragged_grid, [2, 3, 1, 2], [0, 2], 1)
    full_het = plan_on(het_platform, small_grid, [3, 2, 2, 4], [0, 1, 2, 3], 2)
    idle_pair = plan_on(pair, small_grid, [3, 4], [1], 3)
    full_pair = plan_on(pair, ragged_grid, [2, 2], [0, 1], 4)
    variants = _cost_variants(het_platform, 3)
    runs = [
        (variants[0], idle_het),
        (pair, idle_pair),
        (variants[1], full_het),
        (variants[2], idle_het),
        (pair, full_pair),
        (het_platform, idle_het),
        (_cost_variants(pair, 2)[1], idle_pair),
    ]
    with kernel_env(kernel):
        engine = BatchEngine(runs)
    distinct = (idle_het, full_het, idle_pair, full_pair)
    assert engine._flat[0].size == sum(_plan_steps(plan) for plan in distinct)
    for (pf, plan), outcome in zip(runs, engine.run().outcomes()):
        assert_outcome_equivalent(_scalar_reference(pf, plan), outcome)


@pytest.mark.parametrize("kernel", KERNELS)
def test_strict_checkpoint_partial_run_restore(kernel, het_platform, ragged_grid):
    """Strict mode checkpoints its stream pointers: a partial run after a
    checkpoint is fully undone by restore."""
    plan = make_scheduler("Hom").plan(het_platform, ragged_grid)
    runs = [(pf, plan) for pf in _cost_variants(het_platform, 8)]
    with kernel_env(kernel):
        engine = BatchEngine(runs)
    engine.run(max_steps=5)
    token = engine.checkpoint()
    engine.run(max_steps=engine.total_steps // 2)
    engine.restore(token)
    got = engine.run().makespans()
    assert list(got) == [_scalar_reference(pf, plan).makespan for pf, _plan in runs]


@pytest.mark.parametrize("kernel", KERNELS)
def test_shared_prefix_over_shared_plan_objects(kernel, het_platform, small_grid):
    """shared_prefix_makespans over candidates that share plan objects
    (and equal-cost platform objects) stays bit-identical."""
    rng = random.Random(17)
    assignments = _chunk_assignments(het_platform, small_grid, [3, 2, 2, 4], rng)
    counts = _message_counts(assignments, CMode.BOTH)
    order = [w for w, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(order)
    prefix_len = len(order) // 2

    def plan_with(suffix_key):
        suffix = sorted(order[prefix_len:], key=suffix_key)
        return Plan(
            assignments=[list(chs) for chs in assignments],
            policy=StrictOrderPolicy(order[:prefix_len] + suffix),
            depths=[2] * het_platform.p,
        )

    a = plan_with(lambda w: w)
    b = plan_with(lambda w: -w)
    twin = Platform(list(het_platform))
    runs = [(het_platform, a), (twin, b), (twin, a), (het_platform, b), (het_platform, a)]
    with kernel_env(kernel):
        got = shared_prefix_makespans(runs, prefix_len)
    assert list(got) == [_scalar_reference(pf, plan).makespan for pf, plan in runs]


# ----------------------------------------------------------------------
# planning consumers route through the batch API
# ----------------------------------------------------------------------
def test_het_variant_scores_unchanged(het_platform, small_grid):
    """Het's batch-submitted variant scoring reproduces the per-variant
    makespans of scoring each plan individually."""
    from repro.schedulers.selection import ALL_VARIANTS, build_plan_from_sequence, incremental_selection

    plan = make_scheduler("Het").plan(het_platform, small_grid)
    scores = plan.meta["variant_makespans"]
    for variant in ALL_VARIANTS:
        outcome = incremental_selection(het_platform, small_grid, variant)
        candidate = build_plan_from_sequence(het_platform, small_grid, outcome)
        res = fast_simulate(het_platform, candidate, small_grid)
        assert scores[variant.label] == res.makespan


def test_homi_dedupe_preserves_choice(het_platform, small_grid):
    """HomI's (n, mu, c, w) dedupe keeps the first occurrence, so the
    selected virtual platform (and the final plan) is unchanged; duplicate
    signatures are simulated only once."""
    sched = make_scheduler("HomI")
    candidates = sched._candidates(het_platform, small_grid)
    sigs = [(ch.n_workers, ch.mu, ch.c, ch.w) for ch in candidates]
    assert len(sigs) == len(set(sigs))
    plan = sched.plan(het_platform, small_grid)
    ref = simulate_reference(het_platform, clone_plan(plan), small_grid)
    fast = fast_simulate(het_platform, clone_plan(plan), small_grid)
    assert fast.makespan == ref.makespan


# ----------------------------------------------------------------------
# stream compilation: one stream per (plan, worker) inside an engine
# ----------------------------------------------------------------------
def _enrolled(plan: Plan) -> int:
    return sum(1 for chunks in plan.assignments if chunks)


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_engine_holds_a_shared_plan_stream_once(kernel, het_platform, small_grid):
    """Inside one engine every instance of a plan walks the same stream:
    cost variants of one plan object compile it once per enrolled worker
    (worker costs are multiplied inline by the kernels), and the results
    stay bit-identical to fresh single-run replays."""
    from repro.obs import snapshot, snapshot_delta

    plan = make_scheduler("Hom").plan(het_platform, small_grid)
    runs = [(pf, plan) for pf in _cost_variants(het_platform, 3)]
    with kernel_env(kernel):
        fresh = [BatchEngine([run]).run().makespans()[0] for run in runs]
        before = snapshot()
        together = BatchEngine(runs)
        delta = snapshot_delta(before)
        got = list(together.run().makespans())
    assert delta["batch.compile.streams"] == _enrolled(plan)
    assert together._flat[0].size == _plan_steps(plan)
    assert got == fresh
    assert got == [_scalar_reference(pf, plan).makespan for pf, _plan in runs]


def test_numpy_buckets_compile_each_plan_stream_once(monkeypatch, het_platform):
    """Under numpy, one batch_outcomes call splits a HomI-style population
    (two plan objects, each scored on many cost variants) into length
    buckets; each bucket's engine compiles its plan's streams once, and
    duplicate submissions share them.  The plans' message counts differ
    4x, so they cannot share a bucket (:data:`_BUCKET_RATIO` is 2)."""
    from repro.sim.batch import _MIN_VECTOR_BATCH

    long_plan = make_scheduler("Hom").plan(het_platform, BlockGrid(r=6, t=5, s=24, q=2))
    short_plan = make_scheduler("Hom").plan(het_platform, BlockGrid(r=6, t=5, s=6, q=2))
    assert _plan_steps(long_plan) > 2 * _plan_steps(short_plan)

    # each bucket just clears the gate, so both run on numpy engines
    variants = [
        Platform([Worker(w.index, w.c * f, w.w, w.m) for w in het_platform])
        for f in np.linspace(1.0, 1.75, _MIN_VECTOR_BATCH)
    ]
    runs = [(pf, long_plan) for pf in variants] + [(pf, short_plan) for pf in variants]
    with kernel_env("numpy"):
        outcomes, built, delta = _routed(monkeypatch, runs)
    assert built == ["strict", "strict"]
    assert delta["batch.compile.streams"] == _enrolled(long_plan) + _enrolled(short_plan)
    assert "batch.scalar_runs" not in delta
    for (pf, plan), outcome in zip(runs, outcomes):
        assert outcome.makespan == _scalar_reference(pf, plan).makespan


# ----------------------------------------------------------------------
# a plan replayed on a platform of another size is rejected everywhere
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("delta_p", [-1, 1], ids=["smaller", "larger"])
@pytest.mark.parametrize("scheduler", ["Het", "HomI"])
def test_worker_count_mismatch_rejected(scheduler, delta_p, kernel):
    """A plan carries one prefetch depth (and one chunk list) per worker;
    replaying it on a platform with one worker fewer or more must raise
    the same ValueError on every engine and backend,
    never drop a worker's chunks or index past the plan."""
    workers = [Worker(i, 1.0, 2.0, 60) for i in range(3)]
    grid = BlockGrid(r=30, t=4, s=60, q=2)
    planned = Platform(workers)
    other = Platform(
        workers[:2] if delta_p < 0 else workers + [Worker(3, 1.0, 2.0, 60)]
    )
    with kernel_env(kernel):
        plan = make_scheduler(scheduler).plan(planned, grid)
        assert len(plan.depths) == planned.p
        for replay in (
            lambda: simulate(other, clone_plan(plan), grid),
            lambda: fast_simulate(other, clone_plan(plan), grid),
            lambda: batch_simulate([(other, clone_plan(plan))]),
            lambda: BatchEngine([(other, clone_plan(plan))]),
            lambda: BatchEngine([(planned, plan), (other, clone_plan(plan))]),
        ):
            with pytest.raises(ValueError, match="need one prefetch depth per worker"):
                replay()
