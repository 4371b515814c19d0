"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's tables/figures at the true
paper scale (override with ``REPRO_BENCH_SCALE``), times it with
pytest-benchmark, prints the measured series next to the paper's reported
shape, and archives the text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Problem scale for the figure benchmarks (1.0 = the paper's sizes)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_runner() -> dict:
    """Experiment-runner options from the environment, passed through to
    ``run_figure``/``run_summary``/the sweeps by every figure benchmark:

    * ``REPRO_BENCH_PARALLEL``: worker-process count (``auto`` = one per
      core; unset/``0``/``1`` = in-process serial execution);
    * ``REPRO_BENCH_CACHE``: content-addressed result-cache directory
      (reruns become lookups).

    E.g. ``REPRO_BENCH_PARALLEL=auto pytest -m slow`` records multi-core
    numbers on a multi-core machine.  The kernel backend is the
    process's own (``REPRO_KERNEL``, see :mod:`repro.sim.kernels`):
    ``REPRO_KERNEL=numpy pytest -m slow`` records the per-step oracle's
    numbers, planning searches included.
    """
    raw = os.environ.get("REPRO_BENCH_PARALLEL", "").strip()
    if not raw:
        parallel = None
    elif raw == "auto":
        parallel = "auto"
    else:
        try:
            n = int(raw)
        except ValueError:
            n = -1
        if n < 0:
            raise pytest.UsageError(
                f"REPRO_BENCH_PARALLEL must be a non-negative integer or "
                f"'auto', got {raw!r}"
            )
        parallel = n if n >= 2 else None
    cache = os.environ.get("REPRO_BENCH_CACHE", "").strip() or None
    return {"parallel": parallel, "cache": cache}


@pytest.fixture(scope="session")
def bench_meta() -> dict:
    """Host/run metadata shared by every BENCH payload of the session."""
    from repro.obs import run_metadata

    return run_metadata()


@pytest.fixture
def emit(bench_meta):
    """Print a result table and archive it under benchmarks/results/.

    With ``data``, a machine-readable ``BENCH_<name>.json`` document is
    written next to the text table; CI uploads ``benchmarks/results/`` as a
    workflow artifact, so these JSON snapshots accumulate a measurement
    trajectory across runs.  Every JSON payload's ``meta`` records the
    *active* kernel backend (post-fallback) plus uniform host/run metadata
    (:func:`repro.obs.run_metadata`: python/numpy versions, cpu count,
    machine, git describe) and the metrics this benchmark moved (counters
    and timers as a registry delta from the start of the requesting test
    to the emit, so other tests in the session never leak in; gauges at
    their current level), so
    compiled-backend entries in the perf trajectory are distinguishable
    from numpy ones and numbers from different hosts never get conflated.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    from repro.obs import Gauge, registry, snapshot, snapshot_delta

    meta = bench_meta
    before = snapshot()

    def _emit(name: str, text: str, data: dict | None = None) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            import json

            payload = {
                "benchmark": name,
                "meta": meta,
                # counters/timers as moved by this test; gauges are
                # last-written levels, so they stay absolute
                "metrics": {**snapshot_delta(before), **registry.snapshot(Gauge)},
                "data": data,
            }
            (RESULTS_DIR / f"BENCH_{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )

    return _emit
