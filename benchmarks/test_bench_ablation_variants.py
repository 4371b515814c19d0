"""Ablation: the eight Het selection variants head-to-head.

Paper: "There is no reason for one of these heuristics to always dominate
the others" -- all eight are simulated and the best is executed; "80% of the
time, the performance of Het was in fact obtained thanks to a global
resource selection".
"""

import pytest

pytestmark = pytest.mark.slow  # full paper scale; run with `pytest -m slow`

from repro.core.blocks import BlockGrid
from repro.experiments.figures import fig7_instances
from repro.schedulers.selection import ALL_VARIANTS, build_plan_from_sequence, incremental_selection
from repro.sim.engine import simulate


def _variant_matrix(scale: float):
    insts = fig7_instances(scale)
    rows = {}
    wins = {v.label: 0 for v in ALL_VARIANTS}
    for inst in insts:
        makespans = {}
        for variant in ALL_VARIANTS:
            outcome = incremental_selection(inst.platform, inst.grid, variant)
            plan = build_plan_from_sequence(inst.platform, inst.grid, outcome)
            makespans[variant.label] = simulate(inst.platform, plan, inst.grid).makespan
        best = min(makespans.values())
        winner = min(makespans, key=makespans.get)
        wins[winner] += 1
        rows[inst.label] = {k: v / best for k, v in makespans.items()}
    return rows, wins


def test_variant_ablation(benchmark, bench_scale, emit):
    rows, wins = benchmark.pedantic(
        lambda: _variant_matrix(bench_scale), rounds=1, iterations=1
    )
    labels = [v.label for v in ALL_VARIANTS]
    lines = [
        "Het variant ablation on the 12 fully heterogeneous platforms "
        "(relative makespan, 1.000 = best variant per platform)",
        f"{'platform':<16}" + "".join(f"{l:>13}" for l in labels),
    ]
    for inst, vals in rows.items():
        lines.append(f"{inst:<16}" + "".join(f"{vals[l]:>13.3f}" for l in labels))
    global_wins = sum(n for l, n in wins.items() if l.startswith("global"))
    lines.append(
        f"wins: {wins} -> global-scope wins {global_wins}/12 (paper: global ~80%)"
    )
    emit("ablation_variants", "\n".join(lines))
    assert sum(wins.values()) == 12
