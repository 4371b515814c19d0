"""Kernel-backend registry semantics and compiled-path integration.

The equivalence walls (``test_batch_equivalence``, ``test_golden_figures``)
pin that every backend computes bit-identical results; this file pins the
*registry* contract around them: resolution order (``REPRO_KERNEL`` >
c when it builds > numpy), unknown-name errors (``numba`` among them),
the single-warning numpy fallback for explicitly requested but
unavailable backends, whole-run vs per-step dispatch, windowed stepping,
and the ``fast_simulate``/harness integration points.  Every backend is
picked the one way a user picks it: through the environment.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.schedulers.registry import make_scheduler
from repro.sim import kernels
from repro.sim.batch import BatchEngine
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import (
    KERNEL_ENV,
    KERNEL_NAMES,
    KernelUnavailable,
    available_backends,
    get_backend,
    resolve_kernel,
)
from tests.per_mode import kernel_env, per_mode_outcomes


# ----------------------------------------------------------------------
# registry + resolution
# ----------------------------------------------------------------------
def test_registry_names_cover_all_factories():
    assert KERNEL_NAMES == ("numpy", "c", "python")
    assert set(kernels._FACTORIES) == set(KERNEL_NAMES)
    for name in available_backends():
        assert get_backend(name).name == name


def test_numpy_and_python_always_available():
    avail = available_backends()
    assert "numpy" in avail and "python" in avail


def test_whole_run_flags():
    assert get_backend("numpy").whole_run is False
    assert get_backend("python").whole_run is True


def test_unknown_name_raises_value_error(monkeypatch):
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("fortran")
    monkeypatch.setenv(KERNEL_ENV, "fortran")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_kernel()


def test_numba_is_an_unknown_name(monkeypatch, het_platform, small_grid):
    """``numba`` names no backend: naming it in the environment makes
    every entry point raise the unknown-backend error listing the known
    names instead of falling back to numpy."""
    from repro.sim.batch import batch_simulate

    known = r"unknown kernel backend 'numba'; known: \('numpy', 'c', 'python'\)"
    plan = make_scheduler("Hom").plan(het_platform, small_grid)
    monkeypatch.setenv(KERNEL_ENV, "numba")
    with pytest.raises(ValueError, match=known):
        resolve_kernel()
    with pytest.raises(ValueError, match=known):
        fast_simulate(het_platform, plan)
    with pytest.raises(ValueError, match=known):
        batch_simulate([(het_platform, plan)])


def _c_builds() -> bool:
    try:
        get_backend("c").ensure_ready()
    except KernelUnavailable:
        return False
    return True


def test_resolve_name_and_default(monkeypatch):
    """The implicit default is the C kernel whenever it builds here, numpy
    otherwise; a name always wins."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert resolve_kernel().name == ("c" if _c_builds() else "numpy")
    monkeypatch.setenv(KERNEL_ENV, "python")
    assert resolve_kernel().name == "python"
    monkeypatch.setenv(KERNEL_ENV, "numpy")
    assert resolve_kernel().name == "numpy"


def test_resolve_env_knob(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "python")
    assert resolve_kernel().name == "python"


@pytest.fixture
def broken_backend(monkeypatch):
    """Temporarily make the ``c`` backend unavailable (whether or not it
    builds here) and re-arm the one-warning-per-process latch."""

    def unavailable():
        raise KernelUnavailable("c disabled for this test")

    monkeypatch.setattr(kernels, "_FACTORIES", {**kernels._FACTORIES, "c": unavailable})
    monkeypatch.setattr(kernels, "_instances", {})
    monkeypatch.setattr(kernels, "_failures", {})
    monkeypatch.setattr(kernels, "_warned", set())
    return "c"


def test_unavailable_backend_raises_on_direct_get(broken_backend):
    with pytest.raises(KernelUnavailable, match="disabled"):
        get_backend(broken_backend)
    assert broken_backend not in available_backends()


def test_unavailable_backend_falls_back_with_single_warning(monkeypatch, broken_backend):
    monkeypatch.setenv(KERNEL_ENV, broken_backend)
    with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
        backend = resolve_kernel()
    assert backend.name == "numpy"
    # second resolution is silent (one clear warning per process per name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel().name == "numpy"


@pytest.fixture
def fresh_registry(monkeypatch):
    """Empty the per-process backend caches and warning latch, so a test
    can re-resolve backends under a changed environment."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setattr(kernels, "_instances", {})
    monkeypatch.setattr(kernels, "_failures", {})
    monkeypatch.setattr(kernels, "_warned", set())


def test_default_without_c_is_numpy_silently(monkeypatch, fresh_registry):
    def unavailable():
        raise KernelUnavailable("c disabled for this test")

    monkeypatch.setattr(kernels, "_FACTORIES", {**kernels._FACTORIES, "c": unavailable})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel().name == "numpy"


def test_default_with_missing_compiler_is_numpy(monkeypatch, tmp_path, fresh_registry):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    assert "c" not in available_backends()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel().name == "numpy"
    assert list(tmp_path.iterdir()) == []


def test_default_with_unlaunchable_compiler_is_numpy(monkeypatch, tmp_path, fresh_registry):
    """A compiler that is found but cannot run fails the build with
    KernelUnavailable (not a bare OSError), before any simulation runs."""
    cc = tmp_path / "cc"
    cc.write_text("not an executable format\n")
    cc.chmod(0o755)
    monkeypatch.setenv("CC", str(cc))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    with pytest.raises(KernelUnavailable, match="cannot run C compiler"):
        type(get_backend("c"))().ensure_ready()
    assert resolve_kernel().name == "numpy"
    # the failed build is cached as the backend's verdict
    assert "c" not in available_backends()
    assert not list((tmp_path / "cache").glob("*.so"))


def test_default_with_unloadable_cached_so_is_numpy(monkeypatch, tmp_path, fresh_registry):
    """A cached .so that cannot be loaded (foreign architecture, noexec
    mount) fails the build with KernelUnavailable, so the implicit
    default falls back to numpy instead of crashing."""
    import hashlib

    digest = hashlib.sha256(kernels._C_SOURCE.encode()).hexdigest()[:16]
    (tmp_path / f"repro_kernels_{digest}.so").write_bytes(b"not a shared object\n")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    try:
        get_backend("c")
    except KernelUnavailable:
        pytest.skip("no C compiler on this host")
    with pytest.raises(KernelUnavailable, match="cannot load C kernels"):
        type(get_backend("c"))().ensure_ready()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel().name == "numpy"
    assert "c" not in available_backends()


def test_explicit_unavailable_c_warns_once(monkeypatch, tmp_path, fresh_registry):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setenv(KERNEL_ENV, "c")
    with pytest.warns(RuntimeWarning, match="kernel backend 'c' is unavailable"):
        assert resolve_kernel().name == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel().name == "numpy"


def test_unavailable_env_knob_falls_back(monkeypatch, broken_backend):
    monkeypatch.setenv(KERNEL_ENV, broken_backend)
    monkeypatch.setattr(kernels, "_warned", set())
    with pytest.warns(RuntimeWarning, match="unavailable"):
        assert resolve_kernel().name == "numpy"


# ----------------------------------------------------------------------
# engine dispatch under compiled backends
# ----------------------------------------------------------------------
def _strict_runs(het_platform, small_grid, ragged_grid):
    runs = []
    for grid in (small_grid, ragged_grid):
        plan = make_scheduler("Hom").plan(het_platform, grid)
        runs.append((het_platform, plan))
    return runs


@pytest.mark.parametrize("scheduler", ["Hom", "ORROML"], ids=["strict", "ready"])
def test_windowed_stepping_matches_full_run(scheduler, het_platform, small_grid, ragged_grid):
    """run(max_steps=) must stop exactly at the window edge under every
    backend -- the contract the incremental reselect search relies on."""
    runs = []
    for grid in (small_grid, ragged_grid):
        plan = make_scheduler(scheduler).plan(het_platform, grid)
        runs.append((het_platform, plan))

    def replay(kernel, chunk):
        fresh = [
            (p, make_scheduler(scheduler).plan(p, g))
            for (p, _pl), g in zip(runs, (small_grid, ragged_grid))
        ]
        with kernel_env(kernel):
            engine = BatchEngine(fresh)
        while not engine.done:
            before = engine._t
            engine.run(max_steps=chunk)
            assert engine._t <= min(before + chunk, engine.total_steps)
        return engine.makespans()

    reference = replay("numpy", 10_000)  # effectively one full run
    for name in available_backends():
        for chunk in (1, 7, 10_000):
            assert np.array_equal(replay(name, chunk), reference), (name, chunk)


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_fast_simulate_routes_through_batch(kernel, het_platform, small_grid):
    """Under a whole-run backend, batch-replayable plans take the compiled
    B=1 batch route and stay bit-identical to the scalar fast path."""
    if kernel not in available_backends():
        pytest.skip(f"kernel backend {kernel!r} unavailable here")
    for name in ("Hom", "ORROML"):
        plan = make_scheduler(name).plan(het_platform, small_grid)
        with kernel_env("numpy"):
            scalar = fast_simulate(
                het_platform, make_scheduler(name).plan(het_platform, small_grid), small_grid
            )
        with kernel_env(kernel):
            compiled = fast_simulate(het_platform, plan, small_grid)
        assert compiled.makespan == scalar.makespan
        assert compiled.worker_stats == scalar.worker_stats
        assert compiled.meta.get("algorithm", name) is not None


def test_fast_simulate_kernel_ignored_for_unbatchable_plans(het_platform, small_grid):
    """Allocator-driven plans cannot take the batch route; a whole-run
    backend must degrade to the scalar/reference paths, not crash."""
    scalar = fast_simulate(
        het_platform, make_scheduler("BMM").plan(het_platform, small_grid), small_grid
    )
    with kernel_env("python"):
        routed = fast_simulate(
            het_platform, make_scheduler("BMM").plan(het_platform, small_grid), small_grid
        )
    assert routed.makespan == scalar.makespan


def test_engine_records_backend(het_platform, small_grid):
    runs = _strict_runs(het_platform, small_grid, small_grid)
    with kernel_env("python"):
        assert BatchEngine(runs)._backend.name == "python"


# ----------------------------------------------------------------------
# harness integration
# ----------------------------------------------------------------------
def test_evaluate_runs_kernel_parity(het_platform, small_grid, ragged_grid):
    """Per-run outcomes of pre-compiled ``(platform, plan)`` runs agree
    under every backend, whether each run is simulated on its own
    (``fast_simulate``) or the runs are batched, one engine per replay
    mode."""

    def jobs():
        out = []
        for grid in (small_grid, ragged_grid):
            for name in ("Hom", "ORROML"):
                plan = make_scheduler(name).plan(het_platform, grid)
                out.append((het_platform, plan))
        return out

    def outcomes(results):
        return [(r.makespan, r.n_enrolled, r.blocks_through_port) for r in results]

    base = outcomes(fast_simulate(p, plan) for p, plan in jobs())
    for kernel in available_backends():
        with kernel_env(kernel):
            per_run = outcomes(fast_simulate(p, plan) for p, plan in jobs())
            batched = outcomes(per_mode_outcomes(jobs()))
        assert per_run == base, ("fast", kernel)
        assert batched == base, ("batch", kernel)


def test_run_experiment_kernel_parity(het_platform, small_grid, ragged_grid):
    """Every backend plans and replays the whole suite to the reference
    engine's makespans."""
    from repro.experiments.harness import Instance, run_experiment

    instances = [
        Instance("small", het_platform, small_grid),
        Instance("ragged", het_platform, ragged_grid),
    ]
    base = run_experiment("kernels", instances, validate=True)
    ref = {(m.algorithm, m.instance): m.makespan for m in base.measurements}
    assert len(ref) == len(base.algorithms) * len(instances)
    for kernel in available_backends():
        with kernel_env(kernel):
            res = run_experiment("kernels", instances)
        got = {(m.algorithm, m.instance): m.makespan for m in res.measurements}
        assert got == ref, kernel


# ----------------------------------------------------------------------
# the C backend's build cache
# ----------------------------------------------------------------------
def test_c_backend_builds_into_configured_cache(monkeypatch, tmp_path):
    if "c" not in available_backends():
        pytest.skip("no C compiler here")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    backend = type(get_backend("c"))()  # fresh instance, ignore cached lib
    backend.ensure_ready()
    libs = list(tmp_path.glob("repro_kernels_*.so"))
    assert len(libs) == 1
    # rebuilding is a no-op (the artifact is content-addressed)
    backend2 = type(get_backend("c"))()
    backend2.ensure_ready()
    assert list(tmp_path.glob("repro_kernels_*.so")) == libs


@pytest.mark.parametrize("scheduler", ["Hom", "ORROML"], ids=["strict", "ready"])
def test_c_backend_rejects_mistyped_arrays(scheduler, het_platform, small_grid):
    """The C kernels read their buffers as raw memory, so the dtype and
    contiguity guard must raise (an ``assert`` would vanish under -O)."""
    if not _c_builds():
        pytest.skip("the C kernels do not build here")

    plan = make_scheduler(scheduler).plan(het_platform, small_grid)
    with kernel_env("c"):
        engine = BatchEngine([(het_platform, plan)])
    run = engine._backend.strict_run if engine._strict else engine._backend.ready_run
    args = engine._kernel_args
    mistyped = tuple(
        a.astype(np.float32) if a is engine._cost_c else a for a in args
    )
    with pytest.raises(TypeError, match="float64"):
        run(0, 1, *mistyped)
    strided = np.repeat(engine._ptr, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    with pytest.raises(TypeError, match="C-contiguous"):
        run(0, 1, *(strided if a is engine._ptr else a for a in args))
