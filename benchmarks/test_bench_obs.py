"""Observability overhead guard: disabled tracing must stay near-free.

The instrumentation in the hot paths (``trace`` spans, ``stopwatch``
timers, registry counters — see :mod:`repro.obs`) is compiled into the
production code unconditionally; what keeps it safe is the disabled fast
path: with no tracer installed, ``trace()`` is one global read returning a
shared no-op singleton.  This benchmark measures the per-call cost of each
disabled primitive, multiplies by the number of instrument sites a
simulation actually crosses, and asserts the total stays under 2% of the
kernel-ladder workload it rides on -- on the numpy per-step path and on
the default backend, whose compiled whole runs are the shortest work any
instrument site wraps.  Runs in tier-1 (not marked slow) so
a regression in the fast path cannot hide until the next perf run.
"""

import time

import pytest

from repro.core.blocks import BlockGrid
from repro.obs import counter, get_tracer, stopwatch, timer, trace, tracing_enabled
from repro.platform.generators import memory_heterogeneous, scale_grid, scale_platform
from repro.schedulers.registry import make_scheduler
from repro.sim.batch import BatchEngine
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import KERNEL_ENV, resolve_kernel

_CALIB_N = 20_000
_ROUNDS = 5


def _per_call(fn, n=_CALIB_N) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_tracing_overhead(emit):
    assert not tracing_enabled()

    def _traced():
        with trace("bench", a=1):
            pass

    def _timed():
        with stopwatch("bench.obs_calibration"):
            pass

    clock_timer = timer("bench.obs_clock")

    def _clocked():
        # BatchEngine.run's disabled-tracing path: a tracer check, two
        # clock reads and one timer add
        if get_tracer() is None:
            t0 = time.perf_counter()
            clock_timer.add(time.perf_counter() - t0)

    c = counter("bench.obs_counter")

    per_trace = _per_call(_traced)
    per_stopwatch = _per_call(_timed)
    per_clock = _per_call(_clocked)
    per_inc = _per_call(c.inc)

    # the reference workload: one batch replay plus one fast_simulate of
    # the same plan (scaled down so the guard stays tier-1 fast), on the
    # numpy per-step path and on the program's default backend (the C
    # kernel wherever it builds, where a whole run is one ~30 us call)
    plat = scale_platform(memory_heterogeneous(), 0.5)
    grid = scale_grid(BlockGrid.paper_instance(), 0.3)
    plan = make_scheduler("Hom").plan(plat, grid)

    lines = [
        "obs_overhead: disabled-instrumentation cost vs simulation work",
        f"  trace() enter/exit : {per_trace * 1e9:8.1f} ns/call",
        f"  stopwatch()        : {per_stopwatch * 1e9:8.1f} ns/call",
        f"  clocked timer      : {per_clock * 1e9:8.1f} ns/call",
        f"  counter.inc()      : {per_inc * 1e9:8.1f} ns/call",
    ]
    data = {
        "trace_ns": per_trace * 1e9,
        "stopwatch_ns": per_stopwatch * 1e9,
        "clock_ns": per_clock * 1e9,
        "counter_inc_ns": per_inc * 1e9,
        "backends": {},
    }
    failures = []
    for kernel in ("numpy", None):
        with pytest.MonkeyPatch.context() as env:
            if kernel is not None:
                env.setenv(KERNEL_ENV, kernel)
            backend = resolve_kernel()
            engine = BatchEngine([(plat, plan)])
            token = engine.checkpoint()

            def _batch_run():
                engine.restore(token)
                engine.run()

            t_batch = _best_of(_batch_run)
            t_fast = _best_of(lambda: fast_simulate(plat, plan, grid))

        # instrument sites crossed per run: BatchEngine.run bumps one
        # cached counter and clocks itself into one timer; fast_simulate
        # bumps one counter, then either times the scalar engine with one
        # stopwatch or (whole-run backends) compiles a BatchEngine under
        # one span + stopwatch and runs it
        batch_site = per_inc + per_clock
        if backend.whole_run:
            fast_site = per_inc + per_trace + per_stopwatch + batch_site
        else:
            fast_site = per_inc + per_stopwatch
        batch_overhead = batch_site / t_batch
        fast_overhead = fast_site / t_fast

        label = f"{'default' if kernel is None else kernel} ({backend.name})"
        lines += [
            f"  [{label}]",
            f"  batch run          : {t_batch * 1e3:8.3f} ms  "
            f"(overhead {batch_overhead:.4%})",
            f"  fast_simulate      : {t_fast * 1e3:8.3f} ms  "
            f"(overhead {fast_overhead:.4%})",
        ]
        data["backends"][label] = {
            "batch_seconds": t_batch,
            "fast_seconds": t_fast,
            "batch_overhead": batch_overhead,
            "fast_overhead": fast_overhead,
        }
        # the contract from docs/architecture.md: instrumentation on a hot
        # path must cost < 2% of the work it wraps, tracing disabled
        if batch_overhead >= 0.02:
            failures.append(("batch", label, batch_site, t_batch))
        if fast_overhead >= 0.02:
            failures.append(("fast_simulate", label, fast_site, t_fast))
    emit("obs_overhead", "\n".join(lines), data=data)
    assert not failures, failures
