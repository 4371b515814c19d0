"""Scenario-aware threshold re-selection and the incremental search.

Covers the ``mode="reselect"`` evaluation of
:class:`repro.schedulers.adaptive.AdaptiveScheduler` (boundary-time
re-runs of the Hom/HomI virtual-platform threshold search), the
shared-prefix incremental strict-order search it is built on
(:func:`repro.sim.batch.shared_prefix_makespans`), the lazy
shared-prefix verification with located errors, and the timeline-aware
dynamic result caching (:func:`repro.experiments.parallel
.dynamic_task_key` / ``dynamic_sweep(cache=...)``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.experiments.parallel import ResultCache, dynamic_task_key, fingerprint_timeline
from repro.experiments.sweeps import dynamic_scenario, dynamic_sweep
from repro.platform.model import Platform, Worker
from repro.schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
from repro.schedulers.base import SchedulingError
from repro.schedulers.homogeneous import HomIScheduler, HomScheduler, homogeneous_plan
from repro.schedulers.registry import make_scheduler
from repro.sim.batch import BatchEngine, batch_simulate, shared_prefix_makespans
from repro.sim.dynamic import DynamicStall, PlatformTimeline, random_timeline
from repro.sim.kernels import available_backends
from repro.sim.validate import validate_dynamic
from repro.theory.steady_state import makespan_lower_bound
from tests.per_mode import kernel_env, per_mode_makespans


def _transient(scenario: str, severity: float, scale: float = 0.5):
    """A degrade-then-recover instance: the reselect mode's home turf (a
    recovery boundary has no suspects, so only re-selection re-enrolls)."""
    return dynamic_scenario(
        scenario, severity, scale=scale, recover_frac=0.6
    )


# ----------------------------------------------------------------------
# the incremental shared-prefix search primitive
# ----------------------------------------------------------------------
def _prefix_population(n_cand: int = 4):
    """Strict-order plans sharing their whole first panel cycle (4 panels
    dealt to 4 workers), diverging in how many further cycles follow."""
    platform = Platform([Worker(i, 1.0, 3.0, 96) for i in range(4)])
    runs = []
    for k in range(n_cand):
        grid = BlockGrid(r=8, t=4, s=8 * 4 * (k + 1), q=2)
        plan = homogeneous_plan(
            grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4
        )
        runs.append((platform, plan))
    return runs


def test_shared_prefix_makespans_bit_identical_to_batch():
    runs = _prefix_population()
    # one shared batch of 4 chunks: 4 C sends, 4x4 rounds, 4 C returns
    prefix = 4 * (1 + 4 + 1)
    incremental = shared_prefix_makespans(runs, prefix)
    scratch = per_mode_makespans(runs)
    assert list(incremental) == scratch
    # and identical to not sharing any prefix at all
    assert list(shared_prefix_makespans(runs, 0)) == scratch


@pytest.mark.parametrize("kernel", available_backends())
def test_shared_prefix_search_builds_one_engine(kernel, monkeypatch):
    """One shared-prefix search is one BatchEngine on every backend: the
    prefix is advanced on the engine's longest instance and broadcast,
    with no second engine for it."""
    runs = _prefix_population()
    prefix = 4 * (1 + 4 + 1)
    built = []
    init = BatchEngine.__init__

    def counting_init(self, runs):
        built.append(len(runs))
        init(self, runs)

    with kernel_env(kernel):
        expected = batch_simulate(runs)
        monkeypatch.setattr(BatchEngine, "__init__", counting_init)
        got = shared_prefix_makespans(runs, prefix)
    assert built == [len(runs)]
    assert list(got) == list(expected)


def test_shared_prefix_order_divergence_located():
    platform = Platform([Worker(i, 1.0, 3.0, 96) for i in range(4)])
    grid = BlockGrid(r=8, t=4, s=32, q=2)
    a = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4)
    b = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 3, 2], total_workers=4)
    with pytest.raises(ValueError, match=r"diverges from the shared order prefix at step 2"):
        BatchEngine.shared_prefix([(platform, a), (platform, b)], 8)


def test_shared_prefix_cost_divergence_located():
    platform = Platform([Worker(i, 1.0, 3.0, 96) for i in range(4)])
    slower = Platform(
        [Worker(0, 1.0, 3.0, 96), Worker(1, 2.0, 3.0, 96)]
        + [Worker(i, 1.0, 3.0, 96) for i in (2, 3)]
    )
    grid = BlockGrid(r=8, t=4, s=16, q=2)
    a = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4)
    b = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4)
    with pytest.raises(
        ValueError, match=r"instance 1 worker 1 diverges .* at its message 0: port cost"
    ):
        BatchEngine.shared_prefix([(platform, a), (slower, b)], 8)


def test_shared_prefix_depth_divergence_located():
    from repro.sim.plan import Plan

    platform = Platform([Worker(i, 1.0, 3.0, 96) for i in range(4)])
    grid = BlockGrid(r=8, t=4, s=16, q=2)
    a = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4)
    b = homogeneous_plan(grid, n_workers=4, mu=8, enrolled=[0, 1, 2, 3], total_workers=4)
    shallow = Plan(
        assignments=b.assignments, policy=b.policy, depths=[1, 2, 2, 2],
        c_mode=b.c_mode,
    )
    with pytest.raises(
        ValueError, match=r"instance 1 worker 0 prefetch depth 1 differs"
    ):
        BatchEngine.shared_prefix([(platform, a), (platform, shallow)], 8)


def test_shared_prefix_rejects_ready_plans_with_mode():
    sched = make_scheduler("ORROML")
    platform = Platform([Worker(i, 1.0, 3.0, 96) for i in range(4)])
    grid = BlockGrid(r=8, t=4, s=16, q=2)
    plan = sched.plan(platform, grid)
    with pytest.raises(TypeError, match="ready mode"):
        BatchEngine.shared_prefix([(platform, plan)], 1)


def test_shared_prefix_checkpoint_restore_roundtrip():
    """A shared-prefix engine snapshots/restores like any other batch."""
    runs = _prefix_population()
    prefix = 4 * 6
    engine = BatchEngine.shared_prefix(runs, prefix)
    token = engine.checkpoint()
    first = engine.run().makespans()
    engine.restore(token)
    again = engine.run().makespans()
    assert np.array_equal(first, again)


# ----------------------------------------------------------------------
# the reselect evaluation mode
# ----------------------------------------------------------------------
def test_reselect_reenrolls_after_recovery_and_beats_migration():
    """At a recovery boundary there are no suspects, so generic migration
    leaves the recovered worker idle; re-selection re-spreads the
    untouched panels back over it."""
    for scenario in ("straggler-onset", "bandwidth-degradation"):
        platform, grid, tl = _transient(scenario, 8.0, scale=1.0)
        out = {}
        for mode in ("adaptive", "reselect"):
            sim = AdaptiveScheduler(make_scheduler("HomI"), mode).run_dynamic(
                platform, grid, tl, record_events=True
            )
            validate_dynamic(sim, tl, grid=grid)
            out[mode] = sim
        assert out["reselect"].makespan < out["adaptive"].makespan, scenario
        assert any(
            ":reselect" in d for d in out["reselect"].meta["dynamic"]["decisions"]
        )


def test_reselect_never_loses_to_adaptive_on_named_scenarios():
    """Reselect's candidate set is a superset of adaptive's, all scored on
    probes of the same run state — it can tie, never lose."""
    for scenario, severity in (
        ("straggler-onset", 8.0),
        ("bandwidth-degradation", 4.0),
        ("crash-recovery", 0.2),
    ):
        platform, grid, tl = dynamic_scenario(scenario, severity, scale=0.4)
        for name in ("Hom", "HomI"):
            adp = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
                platform, grid, tl
            )
            rsl = AdaptiveScheduler(make_scheduler(name), "reselect").run_dynamic(
                platform, grid, tl
            )
            assert rsl.makespan <= adp.makespan, (scenario, name)


def test_reselect_falls_back_to_adaptive_without_threshold_search():
    """Bases without a virtual-platform threshold search (no
    ``reselection_candidates``) behave exactly like mode="adaptive"."""
    platform, grid, tl = _transient("straggler-onset", 8.0, scale=0.4)
    for name in ("Het", "ODDOML"):
        adp = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
            platform, grid, tl
        )
        rsl = AdaptiveScheduler(make_scheduler(name), "reselect").run_dynamic(
            platform, grid, tl
        )
        assert rsl.makespan == adp.makespan
        assert rsl.worker_stats == adp.worker_stats


def test_reselect_search_does_less_work_than_from_scratch():
    """The acceptance meter: the boundary re-search simulates the shared
    executed prefix once instead of once per candidate."""
    platform, grid, tl = _transient("straggler-onset", 8.0)
    wrapper = AdaptiveScheduler(make_scheduler("HomI"), "reselect")
    sim = wrapper.run_dynamic(platform, grid, tl)
    stats = sim.meta["dynamic"]["reselect"]
    assert stats["searches"] >= 2  # onset and recovery boundaries
    assert stats["candidates"] > stats["searches"]  # real populations
    # simulated steps: one shared prefix per search + the divergent tails,
    # strictly less than replaying every candidate plan from scratch (what
    # the from-scratch _evaluate_candidates path would do)
    incremental = stats["prefix_steps"] + stats["suffix_steps"]
    assert incremental < stats["full_steps"]


def test_reselect_stats_only_in_reselect_mode():
    platform, grid, tl = dynamic_scenario("straggler-onset", 8.0, scale=0.3)
    adp = AdaptiveScheduler(make_scheduler("Hom"), "adaptive").run_dynamic(
        platform, grid, tl
    )
    assert "reselect" not in adp.meta["dynamic"]
    rsl = AdaptiveScheduler(make_scheduler("Hom"), "reselect").run_dynamic(
        platform, grid, tl
    )
    assert rsl.meta["dynamic"]["reselect"]["boundaries"] >= 1


# ----------------------------------------------------------------------
# no-op splices: no improving candidate => bit-identical to oblivious
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["adaptive", "reselect"])
def test_no_improvement_boundaries_are_noops(mode):
    """Property (satellite of the boundary-replan contract): whenever every
    boundary decision is "continue", the run must be bit-identical to
    mode="oblivious" — scoring candidates may never mutate the live run."""
    from tests.test_dynamic_validation import CODED_NAMES, _case

    checked = 0
    seed = 5000
    while checked < 12 and seed < 5400:
        seed += 1
        platform, grid, timeline, name, _mode = _case(seed)
        if name in CODED_NAMES:
            continue  # the coded family races replanning, it is not wrapped by it
        try:
            steered = AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
                platform, grid, timeline, record_events=True
            )
        except (SchedulingError, DynamicStall):
            continue
        decisions = steered.meta["dynamic"]["decisions"]
        if not decisions or not all(d.endswith(":continue") for d in decisions):
            continue
        oblivious = AdaptiveScheduler(make_scheduler(name), "oblivious").run_dynamic(
            platform, grid, timeline, record_events=True
        )
        assert steered.makespan == oblivious.makespan, seed
        assert steered.worker_stats == oblivious.worker_stats, seed
        assert steered.port_events == oblivious.port_events, seed
        assert steered.compute_events == oblivious.compute_events, seed
        checked += 1
    assert checked >= 12


def test_reselect_empty_timeline_bit_identical_to_oblivious(het_platform, ragged_grid):
    empty = PlatformTimeline()
    for name in ("Hom", "HomI"):
        obl = AdaptiveScheduler(make_scheduler(name), "oblivious").run_dynamic(
            het_platform, ragged_grid, empty, record_events=True
        )
        rsl = AdaptiveScheduler(make_scheduler(name), "reselect").run_dynamic(
            het_platform, ragged_grid, empty, record_events=True
        )
        assert rsl.makespan == obl.makespan
        assert rsl.worker_stats == obl.worker_stats
        assert rsl.port_events == obl.port_events


# ----------------------------------------------------------------------
# reselection candidate generation
# ----------------------------------------------------------------------
def test_reselection_candidates_dedupe_by_chosen_workers():
    """Two thresholds with one simulation signature but different enrolled
    workers must stay distinct candidates (the static search would merge
    them; in context they continue differently)."""
    platform = Platform(
        [
            Worker(0, 1.0, 8.0, 96),
            Worker(1, 1.0, 8.0, 96),
            Worker(2, 1.0, 16.0, 96),
            Worker(3, 1.0, 16.0, 96),
        ]
    )
    hom = HomScheduler().reselection_candidates(platform)
    homi = HomIScheduler().reselection_candidates(platform)
    assert hom and homi
    for choices in (hom, homi):
        keys = [(c.n_workers, c.mu, c.workers) for c in choices]
        assert len(keys) == len(set(keys))
    # HomI's w-threshold vocabulary can fence the slow pair; Hom's
    # memory-only vocabulary cannot
    assert any(set(c.workers) == {0, 1} for c in homi)
    ranked_first = [c.workers[0] for c in homi]
    assert all(w in (0, 1) for w in ranked_first)  # fastest ranked first


def test_reselect_validates_on_transient_scenarios():
    for name in ("Hom", "HomI"):
        platform, grid, tl = _transient("bandwidth-degradation", 8.0, scale=0.4)
        sim = AdaptiveScheduler(make_scheduler(name), "reselect").run_dynamic(
            platform, grid, tl, record_events=True
        )
        report = validate_dynamic(sim, tl, grid=grid)
        assert report.n_port_events > 0


def test_group_reclaimed_splits_row_gaps():
    """Fragments of one panel reclaimed from several workers can leave row
    gaps owned by kept/completed chunks; merging them into one band would
    re-assign the gap's blocks (tiling violation)."""
    from repro.core.chunks import make_chunk
    from repro.schedulers.adaptive import _group_reclaimed

    frags = [
        make_chunk(0, 0, 0, 3, 4, 2, 5),   # rows 0-3 of panel (4, 2)
        make_chunk(1, 1, 6, 3, 4, 2, 5),   # rows 6-9: gap at 3-6
        make_chunk(2, 1, 9, 3, 4, 2, 5),   # rows 9-12: contiguous with 6-9
    ]
    cols, bands = _group_reclaimed(frags, 12, columns_ok=True)
    assert cols == []
    assert sorted(bands) == [(0, 3, 4, 2), (6, 6, 4, 2)]
    # a gap-free full-height group still promotes to whole columns
    whole = [
        make_chunk(0, 0, 0, 6, 4, 2, 5),
        make_chunk(1, 1, 6, 6, 4, 2, 5),
    ]
    cols, bands = _group_reclaimed(whole, 12, columns_ok=True)
    assert cols == [4, 5] and bands == []


# ----------------------------------------------------------------------
# timeline-aware dynamic result caching
# ----------------------------------------------------------------------
def test_dynamic_task_key_incorporates_timeline_and_generator(het_platform, small_grid):
    sched = make_scheduler("Hom")
    tl_a = PlatformTimeline().straggle(5.0, 0, 8.0)
    tl_b = PlatformTimeline().straggle(5.0, 0, 8.0).recover(9.0, 0)
    base = dynamic_task_key(sched, "adaptive", het_platform, small_grid, tl_a)
    assert dynamic_task_key(sched, "adaptive", het_platform, small_grid, tl_b) != base
    assert dynamic_task_key(sched, "oblivious", het_platform, small_grid, tl_a) != base
    assert (
        dynamic_task_key(
            sched, "adaptive", het_platform, small_grid, tl_a, generator="s:1"
        )
        != base
    )
    # stable for equal inputs
    assert dynamic_task_key(sched, "adaptive", het_platform, small_grid, tl_a) == base


def test_dynamic_task_key_reselect_keys_on_batch_engine_version(
    het_platform, small_grid, monkeypatch
):
    sched = make_scheduler("HomI")
    tl = PlatformTimeline().straggle(5.0, 0, 8.0)
    before = dynamic_task_key(sched, "reselect", het_platform, small_grid, tl)
    adaptive_before = dynamic_task_key(sched, "adaptive", het_platform, small_grid, tl)
    import repro.sim.batch as batch

    monkeypatch.setattr(batch, "BATCH_ENGINE_VERSION", "batch-v999")
    assert dynamic_task_key(sched, "reselect", het_platform, small_grid, tl) != before
    # only reselect consults the batch layer: other modes' keys are stable
    assert (
        dynamic_task_key(sched, "adaptive", het_platform, small_grid, tl)
        == adaptive_before
    )


def test_dynamic_task_key_controlled_modes_key_on_controller_version(
    het_platform, small_grid, monkeypatch
):
    """Adaptive/reselect makespans depend on the boundary decision logic,
    so a controller-semantics bump must invalidate their payloads (and
    leave oblivious/clairvoyant untouched)."""
    sched = make_scheduler("Hom")
    tl = PlatformTimeline().straggle(5.0, 0, 8.0)
    before = {
        mode: dynamic_task_key(sched, mode, het_platform, small_grid, tl)
        for mode in DYNAMIC_MODES
    }
    import repro.schedulers.adaptive as adaptive

    monkeypatch.setattr(adaptive, "ADAPTIVE_CONTROLLER_VERSION", "controller-v999")
    after = {
        mode: dynamic_task_key(sched, mode, het_platform, small_grid, tl)
        for mode in DYNAMIC_MODES
    }
    assert after["adaptive"] != before["adaptive"]
    assert after["reselect"] != before["reselect"]
    assert after["oblivious"] == before["oblivious"]
    assert after["clairvoyant"] == before["clairvoyant"]


def test_stochastic_timelines_never_collide_across_seeds(het_platform, small_grid):
    """Round-trip guard: two different seeds draw different event content
    AND different keys — a stochastic sweep can never serve another
    seed's cached makespans."""
    sched = make_scheduler("Hom")
    horizon = makespan_lower_bound(het_platform, small_grid)
    for family in ("straggler", "bandwidth", "crash", "mixed"):
        for s in range(6):
            tl_a = random_timeline(random.Random(s), family, het_platform, horizon, rate=4.0)
            tl_b = random_timeline(
                random.Random(s + 1), family, het_platform, horizon, rate=4.0
            )
            key_a = dynamic_task_key(
                sched, "adaptive", het_platform, small_grid, tl_a,
                generator=f"stochastic:{s}|{family}",
            )
            key_b = dynamic_task_key(
                sched, "adaptive", het_platform, small_grid, tl_b,
                generator=f"stochastic:{s + 1}|{family}",
            )
            assert key_a != key_b
            if tl_a.events or tl_b.events:
                assert fingerprint_timeline(tl_a) != fingerprint_timeline(tl_b)


def test_dynamic_sweep_cache_roundtrip(tmp_path):
    """Cached stochastic sweeps reproduce their own results and never
    serve a different seed's."""
    cache = ResultCache(tmp_path / "dyn")
    kw = dict(
        severities=(8.0,), algorithms=("ODDOML",), scale=0.3,
        modes=("oblivious", "adaptive"), stochastic=True, rate=3.0,
    )
    first = dynamic_sweep("straggler-onset", seed=11, cache=cache, **kw)
    other = dynamic_sweep("straggler-onset", seed=12, cache=cache, **kw)
    replay = dynamic_sweep("straggler-onset", seed=11, cache=cache, **kw)
    assert replay.points[0].makespans == first.points[0].makespans
    assert other.points[0].makespans != first.points[0].makespans
    # and the replay really came from the store
    assert cache.hits > 0


def test_recover_frac_rejected_with_stochastic(capsys):
    """--recover shapes the scripted timelines; silently discarding it
    under --stochastic would fake a transient-degradation measurement."""
    with pytest.raises(ValueError, match="scripted timelines only"):
        dynamic_sweep(
            "straggler-onset", (8.0,), algorithms=("Hom",), scale=0.3,
            stochastic=True, recover_frac=0.6,
        )
    from repro.cli import main

    rc = main(
        [
            "dynamic", "--scenario", "straggler-onset", "--severities", "8",
            "--algorithms", "Hom", "--scale", "0.3", "--stochastic",
            "--recover", "0.6",
        ]
    )
    assert rc == 2
    assert "scripted timelines only" in capsys.readouterr().err


def test_dynamic_sweep_cache_covers_reselect(tmp_path):
    cache = ResultCache(tmp_path / "dyn")
    kw = dict(
        severities=(8.0,), algorithms=("Hom",), scale=0.3,
        modes=("adaptive", "reselect"), recover_frac=0.6,
    )
    first = dynamic_sweep("straggler-onset", cache=cache, **kw)
    replay = dynamic_sweep("straggler-onset", cache=cache, **kw)
    assert replay.points[0].makespans == first.points[0].makespans
    assert cache.hits >= 2


def test_dynamic_sweep_cache_covers_coded_pseudo_mode(tmp_path):
    cache = ResultCache(tmp_path / "dyn")
    kw = dict(algorithms=("Het", "Coded", "CodedRL"), scale=0.3, cache=cache)
    first = dynamic_sweep("straggler-onset", (8.0,), **kw)
    replay = dynamic_sweep("straggler-onset", (8.0,), **kw)
    makespans = first.points[0].makespans
    assert set(makespans["Coded"]) == set(makespans["CodedRL"]) == {"coded"}
    assert replay.points[0].makespans == makespans
    assert cache.hits >= sum(len(per_mode) for per_mode in makespans.values())
