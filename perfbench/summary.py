"""Turn the repetitions of one run into metrics and tables."""

from __future__ import annotations

import os
import statistics

from layers import LAYERS
from workloads import Serve

ALGORITHMS = ("Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: per-layer metrics: name -> unit, in table order
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "unattributed_s": "s",
    "schedulers.run.self_s": "s",
    "schedulers.plan.calls": "count",
    "schedulers.plan.self_s": "s",
    **{f"schedulers.plan.{alg}.self_s": "s" for alg in ALGORITHMS},
    "batch.submit.calls": "count",
    "batch.submit.self_s": "s",
    "batch.compile.calls": "count",
    "batch.compile.self_s": "s",
    "batch.run.calls": "count",
    "batch.run.self_s": "s",
    "batch.steps": "count",
    "batch.shared_prefix.calls": "count",
    "batch.shared_prefix.self_s": "s",
    "batch.prefix_steps": "count",
    "batch.suffix_steps": "count",
    "batch.full_steps": "count",
    "batch.replay_frac": "frac",
    "fastpath.calls": "count",
    "fastpath.self_s": "s",
    "kernels.calls": "count",
    "kernels.self_s": "s",
    "kernels.steps": "count",
    "kernels.build_s": "s",
    "engine.calls": "count",
    "engine.self_s": "s",
    "dynamic.calls": "count",
    "dynamic.self_s": "s",
    "dynamic.segments": "count",
    "dynamic.events_applied": "count",
    "dynamic.kills": "count",
    "adaptive.boundaries": "count",
    "adaptive.boundary_s": "s",
    "adaptive.boundary.self_s": "s",
    "adaptive.probe.calls": "count",
    "adaptive.probe.self_s": "s",
    "service.admit.calls": "count",
    "service.admit.self_s": "s",
    "service.admit_s": "s",
    "service.execute.calls": "count",
    "service.execute.self_s": "s",
    "service.admission_wait_s": "s",
    "service.pool_utilization": "frac",
    "service.max_concurrent": "count",
    "service.port_bytes": "bytes",
    "service.pool_start_s": "s",
    "generator.lag_s": "s",
}

def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``; the maximum below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload, reps, setups, attempted, failed):
    untraced = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    if workload == "serve":
        # each repetition's open-loop jobs, timed from their due times;
        # the median over repetitions keeps one stalled repetition from
        # setting the run's figure
        per_rep = [r["latency"] for r in untraced]
        throughput = [r["burst_jobs_per_s"] for r in untraced]
        latency_basis = "median over repetitions of each repetition's open-loop jobs"
    else:
        # the whole body is the job a figure or scenario user waits for
        per_rep = [walls]
        throughput = [len(r["outputs"]) / r["wall_s"] for r in untraced]
        latency_basis = "repetitions: one body is one job"
    tails = [tail(lat) for lat in per_rep]
    tail_pct, n = tails[0][1], tails[0][2]
    setup = [r["setup_s"] for r in untraced + setups]
    metrics = {
        "wall_s": _median(walls),
        "jobs_per_s": _median(throughput),
        "latency_p50_s": _median([_median(lat) for lat in per_rep]),
        "latency_tail_s": _median([t[0] for t in tails]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "ok_frac": 1.0 - failed / attempted,
    }
    nproc = len(os.sched_getaffinity(0))
    notes = {
        "kernel": untraced[0]["kernel"],
        "basis": {
            "wall_s": {"stat": "median", "samples": walls},
            "jobs_per_s": {"stat": "median", "samples": len(throughput),
                           "over": "burst jobs" if workload == "serve" else "operations"},
            "latency_p50_s": {"percentile": 50.0, "samples": n, "repetitions": len(per_rep),
                              "over": latency_basis},
            "latency_tail_s": {"percentile": round(tail_pct, 2), "samples": n,
                               "repetitions": len(per_rep), "over": latency_basis},
            "setup_s": {"stat": "median", "samples": len(setup),
                        "inputs_s": _median([r["inputs_s"] for r in untraced])},
            "peak_rss_mb": {"stat": "median", "samples": len(untraced)},
            "ok_frac": {"failed": failed, "attempted": attempted},
        },
    }
    if workload == "serve" and nproc <= 2:
        notes["jobs_per_s_label"] = (
            f"overhead number on {nproc} cores: the pool's processes time-slice "
            "the cores, so this is not a parallel speed-up"
        )
    if workload != "serve":
        notes["ops_per_rep"] = len(untraced[0]["outputs"])
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, notes


def _layer_values(workload: str, rep: dict) -> dict:
    """Per-layer metric values of one traced repetition."""
    lay = rep["layers"]
    rows, total, extra = lay["rows"], lay["total"], lay["extra"]
    counters = rep["counters"]

    def row(layer, field):
        """``field`` summed over the layer's rows (one per tag)."""
        return sum(r[field] for k, r in rows.items() if k.split("|")[0] == layer)

    def count(name):
        return counters.get(name, 0)

    v = {
        "trace.wall_s": lay["wall_s"],
        **{
            f"schedulers.plan.{alg}.self_s": rows.get(f"schedulers.plan|{alg}", {}).get("self_s", 0.0)
            for alg in ALGORITHMS
        },
        "batch.steps": count("batch.steps.strict") + count("batch.steps.ready"),
        "batch.prefix_steps": count("reselect.prefix_steps"),
        "batch.suffix_steps": count("reselect.suffix_steps"),
        "batch.full_steps": count("reselect.full_steps"),
        "kernels.steps": extra.get("kernels.steps", 0),
        "kernels.build_s": rep["kernel_build_s"],
        "dynamic.segments": count("dynamic.segments"),
        "dynamic.events_applied": count("dynamic.events_applied"),
        "dynamic.kills": count("dynamic.kills"),
        "adaptive.boundaries": row("adaptive.boundary", "calls"),
        "adaptive.boundary_s": total.get("adaptive.boundary", 0.0),
        "service.admit_s": total.get("service.admit", 0.0),
        "service.port_bytes": extra.get("service.port_bytes", 0),
        "service.pool_start_s": rep.get("pool_start_s", 0.0),
    }
    full = v["batch.full_steps"]
    v["batch.replay_frac"] = v["batch.suffix_steps"] / full if full else 0.0
    for layer in LAYERS:
        for field in ("calls", "self_s"):
            v.setdefault(f"{layer}.{field}", row(layer, field))
    shares = sum(r["share_s"] for r in rows.values())
    v["unattributed_s"] = lay["wall_s"] - shares
    if workload == "serve":
        v.update(_service_values(rep, lay["wall_s"]))
    else:
        v.update({"service.admission_wait_s": 0.0, "service.pool_utilization": 0.0,
                  "service.max_concurrent": 0, "generator.lag_s": 0.0})
    return v


def _service_values(rep: dict, window: float) -> dict:
    records = rep["records"]
    busy = sum(len(r["shard"]) * (r["finished"] - r["started"]) for r in records)
    edges = sorted([(r["started"], 1) for r in records] + [(r["finished"], -1) for r in records])
    running = peak = 0
    for _t, d in edges:
        running += d
        peak = max(peak, running)
    return {
        "service.admission_wait_s": statistics.mean(r["wait"] for r in records),
        "service.pool_utilization": busy / (Serve.pool * window),
        "service.max_concurrent": peak,
        "generator.lag_s": max(rep["lag"]),
    }


def per_layer_metrics(workload, reps):
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    values = [_layer_values(workload, r) for r in traced]
    overhead = _median([r["wall_s"] for r in traced]) / _median([r["wall_s"] for r in untraced]) - 1
    metrics = {
        name: {
            "value": overhead if name == "trace.overhead_frac" else _median([v[name] for v in values]),
            "unit": unit,
        }
        for name, unit in PER_LAYER.items()
    }
    # the table shows the median traced repetition (by wall time), whose
    # rows sum exactly to its wall time
    mid = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    notes = {
        "kernel": traced[0]["kernel"],
        "threads": mid["layers"]["threads"],
        "traced_reps": len(traced),
        "untraced_reps": len(untraced),
        "program_counters": mid["counters"],
        "entry_calls": mid["layers"]["entries"],
    }
    return metrics, mid["layers"], notes


def format_layer_table(workload: str, layers: dict, notes: dict) -> str:
    wall = layers["wall_s"]
    lines = [
        f"per-layer table: {workload} (traced body {wall:.3f}s, kernel {notes['kernel']}, "
        f"{notes['threads']} thread(s) with spans)",
        f"{'layer':<30}{'calls':>9}{'self s':>11}{'share s':>11}{'share':>8}",
    ]
    rows = layers["rows"]
    names = []
    for layer in LAYERS:
        names += sorted(k for k in rows if k == layer or k.startswith(layer + "|"))
    shares = 0.0
    for name in names:
        r = rows[name]
        shares += r["share_s"]
        lines.append(
            f"{name:<30}{r['calls']:>9d}{r['self_s']:>11.4f}{r['share_s']:>11.4f}"
            f"{r['share_s'] / wall:>8.1%}"
        )
    rest = wall - shares
    lines.append(f"{'unattributed':<30}{'':>9}{'':>11}{rest:>11.4f}{rest / wall:>8.1%}")
    lines.append(f"{'sum (= traced wall)':<30}{'':>9}{'':>11}{shares + rest:>11.4f}")
    return "\n".join(lines)


def format_end_to_end(workload: str, metrics: dict, notes: dict) -> str:
    lines = [f"end-to-end: {workload} (kernel {notes['kernel']})"]
    for name, m in metrics.items():
        basis = notes["basis"].get(name, {})
        lines.append(f"  {name:<16}{m['value']:>14.6g} {m['unit']:<5} {basis}")
    if "jobs_per_s_label" in notes:
        lines.append(f"  note: jobs_per_s is an {notes['jobs_per_s_label']}")
    return "\n".join(lines)
