"""The dynamic invariant/fuzz wall.

Every run the dynamics subsystem can produce — any registry scheduler,
any :data:`~repro.schedulers.adaptive.DYNAMIC_MODES` evaluation mode
(including the boundary-time threshold re-selection ``reselect``), the
fast or the reference engine, scripted or random timelines — must pass
:func:`repro.sim.validate.validate_dynamic` with zero invariant
violations: one-port exclusivity, message/compute durations priced at the
*time-varying* worker parameters, no service inside crash windows, killed
chunks never returning C blocks, every surviving chunk completing exactly
once, and the surviving chunks tiling the block grid exactly (reclaimed
work re-sent exactly once — the coordinate-faithfulness contract of
adaptive replanning).  Coded-redundancy runs (pseudo-mode ``coded``,
~20% of the draw) are audited against the decode criterion instead:
>= ``k`` distinct returns per stripe, killed shares never returning C.

Every case also runs without recording, where the driver advances
event-free windows on ``FastEngine``'s own drain loops, and must match
its recorded rerun (which walks the per-message loop) bit for bit.

The fuzz wall draws seeded random cases; a failure message always carries
the reproducing seed.  To replay one case by hand::

    PYTHONPATH=src python -c "
    import tests.test_dynamic_validation as wall; wall.replay(SEED)"

Environment knobs: ``REPRO_FUZZ_SEED`` (base seed; the literal string
``random`` draws a fresh one and prints it — used by the longer CI pass),
``REPRO_FUZZ_RUNS`` (validated-run target of the slow randomized pass).
"""

from __future__ import annotations

import contextlib
import os
import random
import time

import pytest

from repro.core.blocks import BlockGrid
from repro.core.ops import MsgKind, PortEvent
from repro.experiments.harness import DynamicInstance, run_dynamic_experiment
from repro.experiments.sweeps import (
    CANONICAL_SEVERITIES,
    DYNAMIC_SCENARIOS,
    dynamic_scenario,
    dynamic_sweep,
)
from repro.platform.model import Platform, Worker
from repro.schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import make_scheduler
from repro.sim.dynamic import (
    TIMELINE_FAMILIES,
    DynamicRun,
    DynamicStall,
    PlatformTimeline,
    random_timeline,
    simulate_dynamic,
)
from repro.sim.fastpath import fast_simulate
from repro.sim.policies import PolicyKeySpec, ReadyPolicy, StrictOrderPolicy
from repro.sim.validate import InvariantViolation, validate_dynamic
from repro.theory.steady_state import makespan_lower_bound

# The paper's seven (the default suite): the algorithms whose runs the
# validator is a contract for.  MaxReuse1 is deliberately absent — it
# overfills worker memory by design (its single-buffered layout predates
# the depth-aware occupancy model) and fails validate_result on *static*
# platforms already.
NAMES = ("Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM")

#: The coded-redundancy family rides the wall under its own pseudo-mode
#: "coded": runs stop at the decode threshold, abandoned shares are killed
#: (never replanned), and the validator applies the decode audit (>= k
#: distinct returns per stripe) instead of the exact grid tiling.
CODED_NAMES = ("Coded", "CodedRL")

#: Layer-geometry variants (see repro.schedulers.geometry): the same
#: search algorithms planning on the transposed grid.  Their recorded
#: runs ride the full dynamic wall — migration, kill, reselection — and
#: must satisfy exactly the same invariants (the tiling audit dispatches
#: on meta["geometry"]).
LAYER_NAMES = ("HomL", "HomIL", "HetL")

#: Fixed-seed budget of the tier-1 wall (>= 200 validated random timelines,
#: the acceptance floor of the dynamics subsystem).
TIER1_RUNS = 200
_CHUNK = 25


_RANDOM_BASE: int | None = None


def _seed_base() -> int:
    env = os.environ.get("REPRO_FUZZ_SEED", "427").strip()
    if env == "random":
        # drawn once per process: every test shares one base, so a whole
        # randomized suite run reproduces from the single printed seed
        global _RANDOM_BASE
        if _RANDOM_BASE is None:
            _RANDOM_BASE = int(time.time())
            print(f"\n[fuzz] REPRO_FUZZ_SEED=random -> base seed {_RANDOM_BASE} "
                  f"(reproduce with REPRO_FUZZ_SEED={_RANDOM_BASE})")
        return _RANDOM_BASE
    return int(env)


def _case(seed: int):
    """One seeded random case: (platform, grid, timeline, name, mode)."""
    rng = random.Random(seed)
    p = rng.choice((3, 4, 5))
    mu = rng.choice((3, 4))
    c = 1.0
    w = rng.uniform(1.5, 4.0) * p * c / mu  # compute-bound: everyone enrolls
    m = mu * mu + 4 * mu
    platform = Platform([Worker(i, c, w, m) for i in range(p)])
    grid = BlockGrid(
        r=rng.choice((6, 8)), t=rng.choice((4, 6)), s=rng.choice((18, 24)), q=2
    )
    family = rng.choice(TIMELINE_FAMILIES)
    horizon = makespan_lower_bound(platform, grid)
    timeline = random_timeline(
        rng,
        family,
        platform,
        horizon,
        rate=rng.uniform(1.0, 5.0),
        severity=rng.uniform(2.0, 16.0),
    )
    name = rng.choice(NAMES)
    mode = rng.choice(DYNAMIC_MODES)
    # ~20% of cases race the coded-redundancy family instead.  Drawn
    # *after* all the base draws, so pre-existing seeds reproduce their
    # original platform/grid/timeline unchanged.
    if rng.random() < 0.2:
        name = rng.choice(CODED_NAMES)
        mode = "coded"
    # ...and ~15% of the rest run a layer-geometry variant instead.  Also
    # drawn after every earlier draw (and after the coded gate), so all
    # pre-layer seeds keep reproducing their original cases bit-for-bit.
    elif rng.random() < 0.15:
        name = rng.choice(LAYER_NAMES)
    return platform, grid, timeline, name, mode


def _simulate_case(seed: int, *, record_events: bool):
    """One seeded case's dynamic run: ``(result, kills)``, where ``kills``
    lists each live run's ``(cid, time)`` kills (probes excluded)."""
    platform, grid, timeline, name, mode = _case(seed)
    with _live_runs() as runs:
        if mode == "coded":
            sim = make_scheduler(name).run_dynamic(
                platform, grid, timeline, record_events=record_events
            )
        else:
            sim = AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
                platform, grid, timeline, record_events=record_events
            )
    return sim, [run.killed for run in runs]


@contextlib.contextmanager
def _live_runs():
    """Collect every DynamicRun that ``simulate_dynamic`` constructs while
    active (probes are cloned without ``__init__``, so they stay out)."""
    runs: list[DynamicRun] = []
    init = DynamicRun.__init__

    def logged(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(self)

    DynamicRun.__init__ = logged
    try:
        yield runs
    finally:
        DynamicRun.__init__ = init


def _outcome(sim, kills) -> tuple:
    """Everything the native and interpreted drivers must agree on, bit
    for bit."""
    return (
        sim.makespan,
        sim.worker_stats,
        sim.port_busy,
        kills,
        sim.meta["dynamic"].get("decisions"),
    )


def _run_and_validate(seed: int) -> bool:
    """Run one seeded case, audit it, and require the default run (native
    event-free windows) to match its ``record_events=True`` rerun, which
    walks the driver's per-message loop; False when unschedulable."""
    platform, grid, timeline, name, mode = _case(seed)
    try:
        native = _simulate_case(seed, record_events=False)
        sim, kills = _simulate_case(seed, record_events=True)
    except SchedulingError:
        return False  # instance infeasible for this algorithm: vacuous
    assert _outcome(*native) == _outcome(sim, kills), (
        f"native windows diverge from the interpreted rerun; reproduce with "
        f"tests.test_dynamic_validation.replay({seed})"
    )
    validate_dynamic(sim, timeline, grid=grid)
    return True


def replay(seed: int) -> None:
    """Re-run one fuzz case by its reported seed (debugging entry point)."""
    platform, grid, timeline, name, mode = _case(seed)
    print(f"seed={seed}: {name}[{mode}] on p={platform.p}, {grid}, "
          f"{len(timeline)} events")
    _run_and_validate(seed)
    print("validated OK")


# ----------------------------------------------------------------------
# the wall: every random run validates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(TIER1_RUNS // _CHUNK))
def test_fuzz_every_random_run_validates(chunk):
    base = _seed_base()
    validated = 0
    for i in range(_CHUNK):
        seed = base + chunk * _CHUNK + i
        try:
            validated += _run_and_validate(seed)
        except (InvariantViolation, DynamicStall, RuntimeError) as exc:
            pytest.fail(
                f"dynamic run broke an invariant ({type(exc).__name__}: {exc}); "
                f"reproduce with tests.test_dynamic_validation.replay({seed})"
            )
    # the wall must stay non-vacuous: _case draws feasible instances by
    # construction, so nearly every seed must actually run and validate
    assert validated >= _CHUNK - 3, f"only {validated}/{_CHUNK} cases ran"


@pytest.mark.slow
def test_fuzz_wall_randomized_long():
    """Longer pass for bench-smoke: REPRO_FUZZ_SEED=random draws (and
    prints) a fresh base seed; REPRO_FUZZ_RUNS sets the validated-run
    target."""
    base = _seed_base()
    target = int(os.environ.get("REPRO_FUZZ_RUNS", "400"))
    validated = attempts = 0
    while validated < target and attempts < 3 * target:
        seed = base + 100_000 + attempts
        attempts += 1
        try:
            if _run_and_validate(seed):
                validated += 1
        except (InvariantViolation, DynamicStall, RuntimeError) as exc:
            pytest.fail(
                f"dynamic run broke an invariant ({type(exc).__name__}: {exc}); "
                f"reproduce with tests.test_dynamic_validation.replay({seed})"
            )
    assert validated >= target


# ----------------------------------------------------------------------
# native event-free windows vs the per-message driver loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("offset", range(0, 48, 8))
def test_native_windows_match_per_message_driver(offset, monkeypatch):
    """The fuzz wall compares each live run with its recorded rerun, whose
    probes still run native windows; here every window, probes included,
    is switched off, so the adaptive/reselect boundary scores are checked
    against the per-message loop too."""
    base = _seed_base() + 90_000 + offset
    for seed in range(base, base + 8):
        try:
            native = _outcome(*_simulate_case(seed, record_events=False))
        except SchedulingError:
            continue
        with monkeypatch.context() as m:
            m.setattr(DynamicRun, "_advance_window", lambda self: None)
            stepped = _outcome(*_simulate_case(seed, record_events=False))
        assert native == stepped, (
            f"native windows diverge from the per-message driver; reproduce "
            f"with tests.test_dynamic_validation.replay({seed})"
        )


def _native_and_recorded(platform, grid, timeline, make_plan):
    """Run a fresh plan natively and recorded; return both outcomes (or
    both raised exceptions as ``(type, message)``)."""
    out = []
    for record in (False, True):
        try:
            sim = simulate_dynamic(
                platform, make_plan(), timeline, grid, record_events=record
            )
        except RuntimeError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((sim.makespan, sim.worker_stats, sim.port_busy))
    return out


@pytest.mark.parametrize("name", ["Hom", "Het", "ODDOML"])
def test_native_stall_matches_interpreted(name, het_platform, ragged_grid):
    """A worker that crashes for good stalls strict (Hom) and ready
    (Het, ODDOML's demand allocator) runs with the same exception type and
    message on both driver paths."""
    def make_plan():
        return make_scheduler(name).plan(het_platform, ragged_grid)

    # crash a worker holding work (the demand allocator serves them all)
    victim = max([i for i, chunks in enumerate(make_plan().assignments) if chunks] or [0])
    timeline = PlatformTimeline().straggle(0.5, 1, 3.0).crash(1.0, victim)
    native, recorded = _native_and_recorded(het_platform, ragged_grid, timeline, make_plan)
    assert native == recorded
    assert native[0] is DynamicStall


def test_native_strict_order_error_matches_interpreted(het_platform, ragged_grid):
    """A strict order naming a drained worker fails at the same position
    with the same message on both driver paths (mid-window, after an
    event boundary)."""
    def make_plan():
        plan = make_scheduler("Hom").plan(het_platform, ragged_grid)
        order = list(plan.policy.order)
        plan.policy = StrictOrderPolicy(order + [order[-1]])
        return plan

    timeline = PlatformTimeline().straggle(2.0, 0, 4.0)
    native, recorded = _native_and_recorded(het_platform, ragged_grid, timeline, make_plan)
    assert native == recorded
    assert native[0] is RuntimeError and "has no pending message" in native[1]


@pytest.mark.parametrize("name", ["Hom", "Het", "ODDOML", "ORROML"])
def test_native_crash_rejoin_mid_run_matches(name, het_platform, ragged_grid):
    """A crash that rejoins while the other workers keep the port busy,
    with a parameter event inside the outage and an empty outage at one
    instant: the native windows floor the crashed worker exactly like the
    per-message loop and the reference engine."""
    plan = lambda: make_scheduler(name).plan(het_platform, ragged_grid)  # noqa: E731
    nominal = fast_simulate(het_platform, plan(), ragged_grid).makespan
    timeline = (
        PlatformTimeline()
        .crash(0.2 * nominal, 1)
        .set_bandwidth(0.3 * nominal, 2, 3.0)
        .join(0.45 * nominal, 1)
        .crash(0.6 * nominal, 3)
        .join(0.6 * nominal, 3)
    )
    native, recorded = _native_and_recorded(het_platform, ragged_grid, timeline, plan)
    assert native == recorded
    ref = simulate_dynamic(het_platform, plan(), timeline, ragged_grid, engine="reference")
    assert native == (ref.makespan, ref.worker_stats, ref.port_busy)
    assert native[0] > nominal


@pytest.mark.parametrize("offset", range(8))
def test_native_generic_key_spec_matches(offset):
    """Fuzz timelines under a multi-field ready key, (legal_start,
    head_cid), which no registry scheduler uses: the floored legal start
    must break effective-start ties in the native generic loop exactly as
    in the per-message loop and on the reference engine."""
    seed = _seed_base() + 60_000 + offset
    platform, grid, timeline, _name, _mode = _case(seed)

    def make_plan():
        plan = make_scheduler("Het").plan(platform, grid)
        plan.policy = ReadyPolicy(PolicyKeySpec(("legal_start", "head_cid")))
        return plan

    native, recorded = _native_and_recorded(platform, grid, timeline, make_plan)
    assert native == recorded, f"replay seed {seed}"
    ref = simulate_dynamic(platform, make_plan(), timeline, grid, engine="reference")
    assert native == (ref.makespan, ref.worker_stats, ref.port_busy), f"seed {seed}"


# ----------------------------------------------------------------------
# named scenarios: every scheduler x mode validates
# ----------------------------------------------------------------------
def test_fuzz_matrix_draws_every_mode():
    """The tier-1 wall's seed range must exercise the full scheduler x
    mode matrix — in particular mode="reselect" (added with the
    boundary-time threshold re-selection) must actually be drawn."""
    base = _seed_base()
    modes = {_case(base + i)[4] for i in range(TIER1_RUNS)}
    assert modes == set(DYNAMIC_MODES) | {"coded"}
    names = {_case(base + i)[3] for i in range(TIER1_RUNS)}
    assert names == set(NAMES) | set(CODED_NAMES) | set(LAYER_NAMES)


@pytest.mark.parametrize("scenario", DYNAMIC_SCENARIOS)
@pytest.mark.parametrize("name", ["Het", "ODDOML", "Hom", "BMM"])
def test_named_scenarios_validate_all_modes(scenario, name):
    platform, grid, timeline = dynamic_scenario(
        scenario, CANONICAL_SEVERITIES[scenario], scale=0.3
    )
    for mode in DYNAMIC_MODES:
        sim = AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
            platform, grid, timeline, record_events=True
        )
        report = validate_dynamic(sim, timeline, grid=grid)
        assert report.n_port_events > 0


def test_allocator_migration_rebases_cids_without_cursor_changes():
    """Regression (found by the randomized wall, seed below): a migration
    that appends band chunks but changes no allocator cursors must still
    advance the live allocator's cid counter — otherwise a later grant
    duplicates a chunk id and the surviving set stops tiling the grid."""
    assert _run_and_validate(1785208860)  # ODDOML, dense mixed timeline


@pytest.mark.parametrize("name", ["Hom", "HomI"])
def test_reselect_transient_scenarios_validate(name):
    """The heaviest re-selection path — reclaim-everywhere, threshold
    re-search, shared-prefix scoring, splice at degradation AND recovery
    boundaries — must leave an auditable, exactly-tiling run."""
    for scenario in ("straggler-onset", "bandwidth-degradation"):
        platform, grid, timeline = dynamic_scenario(
            scenario, 8.0, scale=0.5, recover_frac=0.6
        )
        sim = AdaptiveScheduler(make_scheduler(name), "reselect").run_dynamic(
            platform, grid, timeline, record_events=True
        )
        validate_dynamic(sim, timeline, grid=grid)


def test_adaptive_migration_with_kill_validates():
    """The heaviest mutation path — reclaim + kill + coordinate-faithful
    replan + strict-order splice — must leave an auditable run."""
    platform, grid, timeline = dynamic_scenario("straggler-onset", 16.0, scale=0.5)
    sim = AdaptiveScheduler(make_scheduler("Hom"), "adaptive").run_dynamic(
        platform, grid, timeline, record_events=True
    )
    assert any("migrate" in d for d in sim.meta["dynamic"]["decisions"])
    validate_dynamic(sim, timeline, grid=grid)


# ----------------------------------------------------------------------
# engines agree and both validate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("offset", range(12))
def test_fuzz_engines_agree_and_validate(offset):
    seed = _seed_base() + 50_000 + offset
    platform, grid, timeline, name, _mode = _case(seed)
    try:
        plan_a = make_scheduler(name).plan(platform, grid)
        plan_b = make_scheduler(name).plan(platform, grid)
    except SchedulingError:
        return
    fast = simulate_dynamic(
        platform, plan_a, timeline, grid, engine="fast", record_events=True
    )
    ref = simulate_dynamic(
        platform, plan_b, timeline, grid, engine="reference", record_events=True
    )
    assert fast.makespan == ref.makespan, f"engines disagree (replay seed {seed})"
    assert fast.worker_stats == ref.worker_stats, f"replay seed {seed}"
    for sim in (fast, ref):
        validate_dynamic(sim, timeline, grid=grid)
    # the synthesized fast-path trace is the reference engine's trace
    assert fast.port_events == ref.port_events, f"replay seed {seed}"
    assert fast.compute_events == ref.compute_events, f"replay seed {seed}"


# ----------------------------------------------------------------------
# empty timelines: all three modes coincide with the static run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_empty_timeline_modes_coincide(name, het_platform, ragged_grid):
    sched = make_scheduler(name)
    static = fast_simulate(
        het_platform, sched.plan(het_platform, ragged_grid), ragged_grid
    )
    empty = PlatformTimeline()
    for mode in DYNAMIC_MODES:
        sim = AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
            het_platform, ragged_grid, empty, record_events=True
        )
        assert sim.makespan == static.makespan, (name, mode)
        assert sim.worker_stats == static.worker_stats, (name, mode)
        validate_dynamic(sim, empty, grid=ragged_grid)


# ----------------------------------------------------------------------
# stall-freedom on recoverable timelines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("offset", range(10))
def test_adaptive_never_stalls_on_recoverable_timelines(offset):
    """random_timeline joins every crash, so no adaptive run may raise
    DynamicStall — even under dense outage processes."""
    seed = _seed_base() + 70_000 + offset
    rng = random.Random(seed)
    platform, grid, _tl, name, mode = _case(seed)
    horizon = makespan_lower_bound(platform, grid)
    dense = random_timeline(
        rng, "crash", platform, horizon, rate=6.0, outage_frac=0.4
    )
    try:
        if mode == "coded":
            # coded never replans, but every crash rejoins, so the decode
            # threshold is eventually met — stalling would be a bug too
            sim = make_scheduler(name).run_dynamic(
                platform, grid, dense, record_events=True
            )
        else:
            sim = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
                platform, grid, dense, record_events=True
            )
    except SchedulingError:
        return
    except DynamicStall:
        pytest.fail(f"adaptive stalled on a recoverable timeline (seed {seed})")
    validate_dynamic(sim, dense, grid=grid)


def test_adaptive_survives_permanent_crash_and_validates():
    """A crash with no join: oblivious stalls, adaptive migrates the dead
    worker's columns — and the migrated run still tiles the grid."""
    platform, grid, _tl = dynamic_scenario("straggler-onset", 2.0, scale=0.4)
    nominal = make_scheduler("Het").run(platform, grid, collect_events=False).makespan
    timeline = PlatformTimeline().crash(0.25 * nominal, 0)
    with pytest.raises(DynamicStall):
        AdaptiveScheduler(make_scheduler("Het"), "oblivious").run_dynamic(
            platform, grid, timeline
        )
    sim = AdaptiveScheduler(make_scheduler("Het"), "adaptive").run_dynamic(
        platform, grid, timeline, record_events=True
    )
    assert any("migrate" in d for d in sim.meta["dynamic"]["decisions"])
    validate_dynamic(sim, timeline, grid=grid)


# ----------------------------------------------------------------------
# harness/sweep integration of the validator and the generator
# ----------------------------------------------------------------------
def test_run_dynamic_experiment_validate_flag(het_platform, small_grid):
    tl = PlatformTimeline().straggle(5.0, 0, 8.0)
    res = run_dynamic_experiment(
        "dyn",
        [DynamicInstance("x", het_platform, small_grid, tl)],
        [make_scheduler("ODDOML")],
        modes=("oblivious", "adaptive"),
        validate=True,
    )
    assert len(res.measurements) == 2
    for m in res.measurements:
        assert m.meta["dynamic"]["c_mode"] == "BOTH"


def test_stochastic_sweep_deterministic_in_seed():
    a = dynamic_sweep(
        "straggler-onset", (8.0,), algorithms=("ODDOML",), scale=0.3,
        stochastic=True, seed=11,
    )
    b = dynamic_sweep(
        "straggler-onset", (8.0,), algorithms=("ODDOML",), scale=0.3,
        stochastic=True, seed=11,
    )
    c = dynamic_sweep(
        "straggler-onset", (8.0,), algorithms=("ODDOML",), scale=0.3,
        stochastic=True, seed=12,
    )
    assert a.points[0].makespans == b.points[0].makespans
    # a different seed draws a different event process (the timelines can
    # coincide only by freak chance on this scale)
    assert a.points[0].makespans != c.points[0].makespans


def test_random_timeline_contract(het_platform):
    rng = random.Random(3)
    with pytest.raises(ValueError, match="unknown family"):
        random_timeline(rng, "meteor", het_platform, 100.0)
    with pytest.raises(ValueError, match="horizon"):
        random_timeline(rng, "crash", het_platform, 0.0)
    with pytest.raises(ValueError, match="severity"):
        random_timeline(rng, "straggler", het_platform, 100.0, severity=1.0)
    for family in TIMELINE_FAMILIES:
        tl = random_timeline(random.Random(5), family, het_platform, 500.0, rate=8.0)
        tl.validate_for(het_platform)
        # every crash has a matching join: recoverable by construction
        assert not tl.crashed_at(float("inf"), final=True)


def test_random_timeline_seed_determinism(het_platform):
    one = random_timeline(random.Random(9), "mixed", het_platform, 300.0)
    two = random_timeline(random.Random(9), "mixed", het_platform, 300.0)
    assert one.events == two.events


# ----------------------------------------------------------------------
# the oracle has teeth: corrupted dynamic runs are rejected
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_straggler():
    platform, grid, timeline = dynamic_scenario("straggler-onset", 8.0, scale=0.3)
    sim = AdaptiveScheduler(make_scheduler("Het"), "oblivious").run_dynamic(
        platform, grid, timeline, record_events=True
    )
    return sim, timeline, grid


class TestValidatorCatchesCorruption:
    def test_stale_rate_pricing_rejected(self, recorded_straggler):
        sim, timeline, grid = recorded_straggler
        onset = timeline.events[0].time
        ports = list(sim.port_events)
        idx = next(
            i for i, e in enumerate(ports)
            if e.worker == 0 and e.kind is MsgKind.ROUND and e.start >= onset
        )
        e = ports[idx]
        # extend the message as if the straggle also halved the bandwidth
        ports[idx] = PortEvent(
            e.start, e.start + 2.0 * e.duration, e.worker, e.kind, e.cid,
            e.round_idx, e.nblocks,
        )
        import dataclasses

        bad = dataclasses.replace(sim, port_events=tuple(ports))
        with pytest.raises(InvariantViolation):
            validate_dynamic(bad, timeline, grid=grid, check_memory=False)

    def test_service_inside_crash_window_rejected(self, recorded_straggler):
        sim, _timeline, grid = recorded_straggler
        e = sim.port_events[len(sim.port_events) // 2]
        window = (
            PlatformTimeline()
            .crash(e.start - 1e-6, e.worker)
            .join(e.end + 1e9, e.worker)
        )
        with pytest.raises(InvariantViolation, match="crash window"):
            validate_dynamic(sim, window, grid=grid, check_memory=False)

    def test_missing_coverage_rejected(self, recorded_straggler):
        sim, timeline, grid = recorded_straggler
        import dataclasses

        bad = dataclasses.replace(sim, chunks=sim.chunks[:-1])
        with pytest.raises(InvariantViolation):
            validate_dynamic(bad, timeline, grid=grid, check_memory=False)

    def test_killed_chunk_returning_c_rejected(self, recorded_straggler):
        sim, timeline, grid = recorded_straggler
        import copy

        bad = copy.deepcopy(sim)
        victim = bad.chunks[-1]
        bad.chunks = tuple(ch for ch in bad.chunks if ch.cid != victim.cid)
        bad.meta["dynamic"]["killed_cids"] = [victim.cid]
        with pytest.raises(InvariantViolation, match="returned C blocks"):
            validate_dynamic(bad, timeline, grid=grid, check_memory=False)

    def test_unrecorded_run_rejected(self, recorded_straggler):
        _sim, timeline, grid = recorded_straggler
        platform, grid2, tl = dynamic_scenario("straggler-onset", 8.0, scale=0.3)
        plain = AdaptiveScheduler(make_scheduler("Het"), "oblivious").run_dynamic(
            platform, grid2, tl
        )
        with pytest.raises(InvariantViolation, match="record_events"):
            validate_dynamic(plain, tl, grid=grid2)
