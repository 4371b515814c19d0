"""The repository benchmark: fig7 regeneration, seeded dynamic
rescheduling and open-loop serving.

Run from the repository root::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh process (``child.py``) with the
program's defaults.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer table.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from summary import (  # noqa: E402
    end_to_end_metrics,
    format_end_to_end,
    format_layer_table,
    per_layer_metrics,
)
from workloads import WORKLOADS  # noqa: E402

#: set-up is sampled at least this many times per untraced run
SETUP_SAMPLES = 5
#: untraced repetitions per run at least, so every metric is a median of three
MIN_REPS = 3
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150.0


def _child_env() -> dict:
    """The program's defaults: no REPRO_* knob reaches the child, and a
    compiled-kernel cache (if a backend ever builds one) stays in the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernel-cache")
    return env


def _run_child(workload: str, seed: int, *, trace: bool, gate: bool,
               setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--gate", str(int(gate)),
        "--setup-only", str(int(setup_only)),
    ]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S:g}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return {"error": f"child exited {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def plan_reps(workload, seconds: int, trace: bool) -> list[bool]:
    """Which repetitions are traced.  The count depends only on
    ``--seconds`` and the workload's nominal repetition time, so every run
    pools the same number of samples."""
    if trace:
        pairs = max(1, math.ceil(seconds / (2 * workload.nominal_rep_s)))
        return [False, True] * pairs
    return [False] * max(MIN_REPS, math.ceil(seconds / workload.nominal_rep_s))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    schedule = plan_reps(workload, args.seconds, bool(args.trace))
    reps = []
    for i, traced in enumerate(schedule):
        rep = _run_child(args.workload, args.seed, trace=traced, gate=i == 0)
        rep["traced"] = traced
        reps.append(rep)
    setups = []
    if not args.trace:
        for _ in range(max(0, SETUP_SAMPLES - len(reps))):
            setups.append(_run_child(args.workload, args.seed, trace=False, gate=False,
                                     setup_only=True))

    errors = [r["error"] for r in reps + setups if "error" in r]
    if errors:
        for err in errors:
            print(f"perfbench: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted, failures = _failures(args.workload, reps)
    problems = sorted({m for r in reps for m in r.get("coverage_missing", [])})
    for key, msg in sorted(failures.items())[:20]:
        print(f"FAILED {key}: {msg}")
    for entry in problems:
        print(f"COVERAGE: wrapped entry point {entry} recorded no call")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "run_metadata": reps[0].get("run_metadata"),
        "reps": len(reps),
    }
    if args.trace:
        metrics, table, notes = per_layer_metrics(args.workload, reps)
        print(format_layer_table(args.workload, table, notes))
    else:
        metrics, notes = end_to_end_metrics(args.workload, reps, setups, attempted, len(failures))
        print(format_end_to_end(args.workload, metrics, notes))
    meta.update(notes)
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _failures(workload: str, reps: list) -> tuple[int, dict]:
    """Operations attempted over all repetitions, and the failed ones: a
    program failure, a gate mismatch, or an output that differs from the
    gated repetition's."""
    attempted = sum(r["attempted"] for r in reps)
    failures = {}
    reference = reps[0]["outputs"]
    for i, rep in enumerate(reps):
        for key, msg in rep["failures"].items():
            failures[f"rep{i}:{key}"] = msg
        if workload != "serve" and i:
            for key, value in rep["outputs"].items():
                if reference.get(key) != value:
                    failures[f"rep{i}:{key}"] = f"output {value!r} != gated rep's {reference.get(key)!r}"
    for key, msg in reps[0].get("gate", {}).items():
        failures[f"gate:{key}"] = msg
    if workload == "serve":
        for i, rep in enumerate(reps):
            lag = max(rep["lag"], default=0.0)
            if lag > 0.5 / WORKLOADS["serve"].rate:
                failures[f"rep{i}:generator"] = (
                    f"open-loop generator ran {lag:.3f}s late: not an open-loop run"
                )
    return attempted, failures


if __name__ == "__main__":
    sys.exit(main())
