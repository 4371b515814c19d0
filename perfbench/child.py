"""One repetition of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up runs from process start (``--spawned-at``, a ``time.monotonic()``
reading taken by the parent just before it started this process) until
the timed body can begin: interpreter start, imports, kernel resolution
or build, and for ``serve`` the pool start and the warm-up jobs.  The
benchmark's own input generation is timed apart and left out.  With
``--trace 1`` the layer wrappers are installed during set-up and armed
only for the body.  With ``--gate 1`` the body's outputs are checked
afterwards, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--gate", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - the user's import, part of set-up
    from repro.obs import snapshot, snapshot_delta
    from repro.sim.kernels import resolve_kernel

    import layers
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    backend = resolve_kernel()
    backend.ensure_ready()
    kernel_build_s = time.perf_counter() - t0

    recorder = None
    if args.trace:
        recorder = layers.Recorder()
        layers.install(recorder)
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - t0
    out: dict = {"kernel": backend.name, "whole_run": backend.whole_run,
                 "kernel_build_s": kernel_build_s, "inputs_s": inputs_s}
    try:
        if hasattr(wl, "start"):
            wl.start()
            out["pool_start_s"] = wl.pool_start_s
        # the benchmark's own input generation is not the program's set-up
        out["setup_s"] = time.monotonic() - args.spawned_at - inputs_s
        if args.setup_only:
            return _emit(out)

        before = snapshot()
        if recorder is not None:
            recorder.arm()
        t0 = time.perf_counter()
        body = wl.body()
        out["wall_s"] = time.perf_counter() - t0
        if recorder is not None:
            recorder.disarm()
            out["layers"] = recorder.summary()
            out["coverage_missing"] = layers.coverage_problems(
                args.workload, out["layers"]["entries"], backend.whole_run
            )
        out["counters"] = snapshot_delta(before)
        out["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
        out.update(body)
        if args.gate:
            out["gate"] = wl.gate(body["outputs"])
            from repro.obs import run_metadata

            out["run_metadata"] = run_metadata()
    finally:
        if hasattr(wl, "close"):
            wl.close()
    if hasattr(wl, "start"):
        # the pool's worker processes have been joined: add the largest
        # one's peak for every pool worker (an upper bound on their sum)
        out["peak_rss_mb"] += wl.pool * _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return _emit(out)


def _emit(out: dict) -> int:
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
