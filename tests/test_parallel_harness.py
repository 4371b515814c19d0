"""The parallel experiment layer and its content-addressed result cache.

Covers the fingerprint/key scheme (what must and must not change a key),
cache round-trips, serial/parallel/cached equivalence of the experiment
harness and sweeps, and failure (SchedulingError) propagation through
worker processes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.blocks import BlockGrid
from repro.experiments.harness import Instance, run_experiment
from repro.experiments.parallel import (
    ENGINE_FINGERPRINT,
    ResultCache,
    RunTask,
    fingerprint_grid,
    fingerprint_platform,
    resolve_workers,
    run_tasks,
    task_key,
)
from repro.experiments.sweeps import heterogeneity_sweep, straggler_sweep
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import make_scheduler
from tests.reference_engine import simulate_reference


@pytest.fixture
def tiny_instances(het_platform, hom_platform, small_grid, ragged_grid):
    return [
        Instance("het", het_platform, small_grid),
        Instance("hom", hom_platform, ragged_grid),
    ]


def _untimed(value):
    """``value`` without its wall-clock meta (``*_seconds`` keys), which
    differs between any two executions of one run."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestTaskKey:
    def test_deterministic(self, het_platform, small_grid):
        s = make_scheduler("Het")
        assert task_key(s, het_platform, small_grid) == task_key(
            make_scheduler("Het"), het_platform, small_grid
        )

    def test_platform_params_change_key(self, het_platform, small_grid):
        base = task_key(make_scheduler("Hom"), het_platform, small_grid)
        bumped = Platform(
            [Worker(w.index, w.c, w.w * 2, w.m) for w in het_platform], name="x"
        )
        assert task_key(make_scheduler("Hom"), bumped, small_grid) != base

    def test_names_do_not_change_key(self, small_grid):
        a = Platform([Worker(0, 1.0, 1.0, 21, name="alpha")], name="A")
        b = Platform([Worker(0, 1.0, 1.0, 21, name="beta")], name="B")
        assert fingerprint_platform(a) == fingerprint_platform(b)
        assert task_key(make_scheduler("Hom"), a, small_grid) == task_key(
            make_scheduler("Hom"), b, small_grid
        )

    def test_grid_and_algorithm_change_key(self, het_platform, small_grid, ragged_grid):
        k1 = task_key(make_scheduler("Hom"), het_platform, small_grid)
        assert task_key(make_scheduler("Het"), het_platform, small_grid) != k1
        assert task_key(make_scheduler("Hom"), het_platform, ragged_grid) != k1

    def test_float_exactness(self):
        g = BlockGrid(r=2, t=2, s=2)
        a = Platform([Worker(0, 0.1, 1.0, 21)])
        b = Platform([Worker(0, 0.1 + 1e-18, 1.0, 21)])  # rounds to the same float
        c = Platform([Worker(0, 0.1 + 1e-16, 1.0, 21)])  # a different float
        s = make_scheduler("Hom")
        assert task_key(s, a, g) == task_key(s, b, g)
        assert task_key(s, a, g) != task_key(s, c, g)

    def test_engine_fingerprint_in_key(self, het_platform, small_grid):
        # the canonical string must carry the engine version so a semantics
        # bump invalidates caches
        assert ENGINE_FINGERPRINT
        assert fingerprint_grid(small_grid).startswith("r=")

    def test_het_variant_signature(self):
        from repro.schedulers.heterogeneous import HetScheduler
        from repro.schedulers.selection import ALL_VARIANTS

        assert HetScheduler().signature == "Het"
        sub = HetScheduler(ALL_VARIANTS[:2])
        assert sub.signature != "Het"


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"makespan": 1.5})
        assert cache.get("ab" + "0" * 62) == {"makespan": 1.5}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_file_as_cache_root_rejected(self, tmp_path):
        f = tmp_path / "not-a-dir"
        f.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            ResultCache(f)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"x": 1})
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None

    def test_float_roundtrip_exact(self, tmp_path, het_platform, small_grid):
        res = make_scheduler("Het").run(het_platform, small_grid, collect_events=False)
        cache = ResultCache(tmp_path)
        cache.put("ee" + "2" * 62, {"makespan": res.makespan})
        assert cache.get("ee" + "2" * 62)["makespan"] == res.makespan


# ----------------------------------------------------------------------
# run_tasks / run_experiment
# ----------------------------------------------------------------------
class TestRunner:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(False) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(True) >= 1
        assert resolve_workers("auto") >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_run_tasks_order_and_cache(self, tmp_path, het_platform, small_grid, ragged_grid):
        tasks = [
            RunTask(make_scheduler("Hom"), het_platform, small_grid),
            RunTask(make_scheduler("ODDOML"), het_platform, ragged_grid),
        ]
        cache = ResultCache(tmp_path)
        first = run_tasks(tasks, cache=cache)
        again = run_tasks(tasks, cache=cache)
        assert first == again
        assert cache.hits == len(tasks)
        direct = make_scheduler("Hom").run(het_platform, small_grid, collect_events=False)
        assert first[0]["makespan"] == direct.makespan
        assert first[0]["n_enrolled"] == direct.n_enrolled

    def test_parallel_matches_serial(self, tiny_instances):
        serial = run_experiment("x", tiny_instances)
        fanned = run_experiment("x", tiny_instances, parallel=2)
        assert [
            (m.algorithm, m.instance, m.makespan, m.n_enrolled, m.bound)
            for m in serial.measurements
        ] == [
            (m.algorithm, m.instance, m.makespan, m.n_enrolled, m.bound)
            for m in fanned.measurements
        ]
        assert serial.failures == fanned.failures
        for res in (serial, fanned):
            assert all("planning_seconds" in m.meta for m in res.measurements)

    def test_failures_cross_processes(self, small_grid):
        # one worker without enough memory for any layout
        starved = Platform([Worker(0, 1.0, 1.0, 2)])
        inst = [Instance("starved", starved, small_grid)]
        res = run_experiment("x", inst, parallel=2)
        assert res.measurements == []
        assert len(res.failures) > 0
        for (alg, label), msg in res.failures.items():
            assert label == "starved" and msg

    def test_failures_are_cached(self, tmp_path, small_grid):
        starved = Platform([Worker(0, 1.0, 1.0, 2)])
        inst = [Instance("starved", starved, small_grid)]
        cache = ResultCache(tmp_path)
        r1 = run_experiment("x", inst, cache=cache)
        r2 = run_experiment("x", inst, cache=cache)
        assert r1.failures == r2.failures
        assert cache.hits > 0

    def test_cached_experiment_measurements_exact(self, tmp_path, tiny_instances):
        cache = ResultCache(tmp_path)
        cold = run_experiment("x", tiny_instances, cache=cache)
        warm = run_experiment("x", tiny_instances, cache=cache)
        assert [(m.algorithm, m.instance, m.makespan) for m in cold.measurements] == [
            (m.algorithm, m.instance, m.makespan) for m in warm.measurements
        ]

    def test_meta_is_json_safe_in_cache(self, tmp_path, tiny_instances):
        cache = ResultCache(tmp_path)
        run_experiment("x", tiny_instances, cache=cache)
        files = list((tmp_path).glob("*/*.json"))
        assert files
        for f in files:
            json.loads(f.read_text())  # every stored payload is valid JSON

    def test_validate_forces_inprocess_path(self, tiny_instances):
        # validate needs full traces: parallel/cache are ignored (with a
        # warning), results equal the plain serial path
        with pytest.warns(UserWarning, match="ignored"):
            res = run_experiment("x", tiny_instances, validate=True, parallel=2)
        ref = run_experiment("x", tiny_instances)
        assert [(m.algorithm, m.makespan) for m in res.measurements] == [
            (m.algorithm, m.makespan) for m in ref.measurements
        ]

    def test_one_runner_serves_static_and_dynamic_tasks(
        self, tmp_path, het_platform, small_grid
    ):
        # one mixed task list: equal payloads in process, across worker
        # processes and from the cache, error payloads included
        from repro.experiments.parallel import DynamicTask
        from repro.sim.dynamic import PlatformTimeline
        from repro.theory.steady_state import makespan_lower_bound

        at = 0.3 * makespan_lower_bound(het_platform, small_grid)
        timeline = PlatformTimeline().straggle(at, 0, 4.0)
        starved = Platform([Worker(0, 1.0, 1.0, 2)])
        tasks = [
            RunTask(make_scheduler("Het"), het_platform, small_grid),
            DynamicTask(
                make_scheduler("Het"), "adaptive", het_platform, small_grid, timeline
            ),
            DynamicTask(
                make_scheduler("CodedRL"), "coded", het_platform, small_grid, timeline
            ),
            RunTask(make_scheduler("Hom"), starved, small_grid),
            DynamicTask(
                make_scheduler("Hom"), "oblivious", starved, small_grid, timeline
            ),
        ]
        in_process = run_tasks(tasks)
        assert [("error" in p) for p in in_process] == [False, False, False, True, True]
        assert in_process[1]["enrolled"] and in_process[2]["enrolled"]
        assert _untimed(run_tasks(tasks, parallel=2)) == _untimed(in_process)
        cache = ResultCache(tmp_path)
        cold = run_tasks(tasks, cache=cache)
        assert _untimed(cold) == _untimed(in_process)
        assert run_tasks(tasks, cache=cache) == cold
        assert cache.hits == len(tasks)


class TestSweepsParallel:
    def test_heterogeneity_sweep_parallel_identical(self):
        a = heterogeneity_sweep((2.0, 4.0), scale=0.1)
        b = heterogeneity_sweep((2.0, 4.0), scale=0.1, parallel=2)
        assert [(p.ratio, p.makespans, p.enrollment, p.bound) for p in a.points] == [
            (p.ratio, p.makespans, p.enrollment, p.bound) for p in b.points
        ]

    def test_straggler_sweep_cache_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = straggler_sweep((1.0, 4.0), scale=0.1, cache=cache)
        b = straggler_sweep((1.0, 4.0), scale=0.1, cache=cache)
        assert [(p.ratio, p.makespans) for p in a.points] == [
            (p.ratio, p.makespans) for p in b.points
        ]
        assert cache.hits > 0


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
class TestCacheEviction:
    def _key(self, i: int) -> str:
        return f"{i:02d}" * 32

    @staticmethod
    def _stamp(cache, key, seconds):
        """Pin a payload's mtime explicitly: sub-second sleeps are not
        enough on coarse-mtime filesystems."""
        import os

        os.utime(cache._path(key), (seconds, seconds))

    def test_max_entries_evicts_lru(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for i in range(6):
            cache.put(self._key(i), {"makespan": float(i)})
            if cache._path(self._key(i)).exists():
                self._stamp(cache, self._key(i), 1_000_000 + i)
        assert len(cache) == 3
        assert cache.evictions == 3
        assert cache.get(self._key(5)) is not None
        assert cache.get(self._key(0)) is None

    def test_get_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        cache.put(self._key(0), {"v": 0})
        self._stamp(cache, self._key(0), 1_000_000)
        cache.put(self._key(1), {"v": 1})
        self._stamp(cache, self._key(1), 1_000_001)
        assert cache.get(self._key(0)) is not None  # touched: 1 becomes LRU
        self._stamp(cache, self._key(0), 1_000_002)
        cache.put(self._key(2), {"v": 2})
        assert cache.get(self._key(0)) is not None
        assert cache.get(self._key(1)) is None

    def test_max_bytes_evicts(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=120)
        for i in range(5):
            cache.put(self._key(i), {"v": i, "pad": "x" * 40})
            if cache._path(self._key(i)).exists():
                self._stamp(cache, self._key(i), 1_000_000 + i)
        total = sum(p.stat().st_size for p in cache.root.glob("*/*.json"))
        assert total <= 120
        assert cache.evictions > 0

    def test_unbounded_when_caps_disabled(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=None, max_bytes=None)
        for i in range(10):
            cache.put(self._key(i), {"v": i})
        assert len(cache) == 10
        assert cache.evictions == 0

    def test_default_caps_are_bounded(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.max_entries is not None
        assert cache.max_bytes is not None

    def test_invalid_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "b", max_bytes=0)

    def test_latest_put_survives_even_if_oldest(self, tmp_path):
        # a single oversized payload is kept: the entry just written never
        # self-evicts
        cache = ResultCache(tmp_path, max_bytes=10)
        cache.put(self._key(0), {"pad": "x" * 100})
        assert cache.get(self._key(0)) is not None

    @staticmethod
    def _stamp_ns(cache, key, ns):
        import os

        os.utime(cache._path(key), ns=(ns, ns))

    def test_touch_is_strictly_monotonic_under_mtime_collisions(self, tmp_path):
        """Coarse-mtime filesystems can stamp many writes with the same
        second; ``get`` must still leave the touched entry strictly newest
        (it bumps past a colliding mtime), so recency survives collisions."""
        cache = ResultCache(tmp_path, max_entries=None, max_bytes=None)
        collide = 1_000_000 * 1_000_000_000  # one shared ns stamp
        for i in range(4):
            cache.put(self._key(i), {"v": i})
            self._stamp_ns(cache, self._key(i), collide)
        assert cache.get(self._key(1)) is not None
        touched = cache._path(self._key(1)).stat().st_mtime_ns
        others = [
            cache._path(self._key(i)).stat().st_mtime_ns for i in (0, 2, 3)
        ]
        assert all(touched > o for o in others)

    def test_get_recency_survives_collisions_through_eviction(self, tmp_path):
        """Force every entry onto one mtime, get() one of them, then
        trigger eviction: the touched entry must be the survivor even
        though raw mtimes tied before the touch."""
        cache = ResultCache(tmp_path, max_entries=4)
        collide = 2_000_000 * 1_000_000_000
        for i in range(4):
            cache.put(self._key(i), {"v": i})
            self._stamp_ns(cache, self._key(i), collide)
        assert cache.get(self._key(0)) is not None  # now strictly newest
        cache.put(self._key(4), {"v": 4})  # evicts down to the cap
        assert cache.get(self._key(0)) is not None

    def test_eviction_order_deterministic_on_full_ties(self, tmp_path):
        """When every recency signal ties (same ns mtime, same size), the
        path tie-break makes the eviction order stable across runs."""
        a = ResultCache(tmp_path / "a", max_entries=None)
        b = ResultCache(tmp_path / "b", max_entries=None)
        collide = 3_000_000 * 1_000_000_000
        for cache in (a, b):
            for i in range(5):
                cache.put(self._key(i), {"v": 9})
                self._stamp_ns(cache, self._key(i), collide)
        order_a = [p.name for _, _, p in a._entries()]
        order_b = [p.name for _, _, p in b._entries()]
        assert order_a == order_b == sorted(order_a)


# ----------------------------------------------------------------------
# the one simulation path against its oracle: the traced (validate) runs
# and the test-side event engine must agree with it bit for bit
# ----------------------------------------------------------------------
def _reference_makespans(platform, grid, algorithms) -> dict[str, float]:
    out = {}
    for name in algorithms:
        try:
            plan = make_scheduler(name).plan(platform, grid)
        except SchedulingError:
            continue
        out[name] = simulate_reference(platform, plan, grid).makespan
    return out


class TestEngineSelection:
    def test_three_engines_identical_measurements(self, tiny_instances, small_grid):
        starved = Instance("starved", Platform([Worker(0, 1.0, 1.0, 2)]), small_grid)
        instances = [*tiny_instances, starved]
        default = run_experiment("x", instances)
        oracle = run_experiment("x", instances, validate=True)
        assert [
            (m.algorithm, m.instance, m.makespan, m.n_enrolled, m.bound)
            for m in oracle.measurements
        ] == [
            (m.algorithm, m.instance, m.makespan, m.n_enrolled, m.bound)
            for m in default.measurements
        ]
        assert default.failures and oracle.failures == default.failures

    def test_unknown_engine_rejected(self, tiny_instances):
        import inspect

        from repro.experiments.figures import run_figure, run_summary

        for fn in (
            run_experiment,
            run_figure,
            run_summary,
            heterogeneity_sweep,
            straggler_sweep,
            task_key,
        ):
            assert "engine" not in inspect.signature(fn).parameters, fn.__name__
        with pytest.raises(TypeError, match="engine"):
            run_experiment("x", tiny_instances, engine="batch")

    def test_sweep_engines_identical(self):
        from repro.experiments.sweeps import straggler_scenario
        from repro.platform.generators import (
            fully_heterogeneous,
            scale_grid,
            scale_platform,
        )

        grid = scale_grid(BlockGrid.paper_instance(80_000), 0.1)
        het = heterogeneity_sweep((2.0, 4.0), scale=0.1)
        for point in het.points:
            plat = scale_platform(fully_heterogeneous(point.ratio), 0.1)
            ref = _reference_makespans(plat, grid, het.algorithms)
            assert ref and point.makespans == ref, point.ratio
        strag = straggler_sweep((1.0, 4.0), scale=0.1)
        for point in strag.points:
            base, sgrid, timeline = straggler_scenario(point.ratio, scale=0.1)
            plat = timeline.final_platform(base)
            ref = _reference_makespans(plat, sgrid, strag.algorithms)
            assert ref and point.makespans == ref, point.ratio
