"""Text rendering of experiment results (the paper's bar charts as tables)."""

from __future__ import annotations

from .harness import ExperimentResult

__all__ = ["format_relative_table", "format_summary", "format_fig9"]


def format_relative_table(result: ExperimentResult, metric: str = "cost") -> str:
    """Algorithms x instances table of relative cost or work (1.000 = best
    on that instance), mirroring the paper's Figures 4-8 bar groups."""
    table = result.relative(metric)
    algs = result.algorithms
    insts = result.instances
    widths = [max(10, len(i) + 2) for i in insts]
    head = f"{result.name} relative {metric}"
    lines = [head, "-" * len(head)]
    header = f"{'algorithm':<10}" + "".join(f"{i:>{w}}" for i, w in zip(insts, widths))
    lines.append(header)
    for alg in algs:
        cells = []
        for inst, w in zip(insts, widths):
            v = table.get((alg, inst))
            if v is None:
                cells.append(f"{'n/a':>{w}}")
            else:
                cells.append(f"{v:>{w}.3f}")
        lines.append(f"{alg:<10}" + "".join(cells))
    return "\n".join(lines)


def format_summary(result: ExperimentResult, metric: str = "cost") -> str:
    """Per-algorithm mean/worst relative metric."""
    summ = result.summary(metric)
    lines = [f"{result.name} relative {metric} summary", f"{'algorithm':<10}{'mean':>8}{'worst':>8}{'best':>8}"]
    for alg in result.algorithms:
        if alg not in summ:
            continue
        s = summ[alg]
        lines.append(f"{alg:<10}{s['mean']:>8.3f}{s['worst']:>8.3f}{s['best']:>8.3f}")
    return "\n".join(lines)


def format_fig9(result: ExperimentResult) -> str:
    """The Figure 9 headline numbers: Het / ODDOML / BMM relative cost and
    work, pairwise average gains, and Het's distance to the steady-state
    bound (paper: 19% ODDOML-over-BMM, 27% Het-over-BMM, Het within 1% of
    best on average and 14% at worst, bound ratio ~2.29 avg / 3.42 max)."""
    cost = result.summary("cost")
    work = result.summary("work")
    lines = ["Figure 9 summary (relative to best algorithm per instance)"]
    lines.append(f"{'algorithm':<10}{'cost mean':>11}{'cost worst':>12}{'work mean':>11}{'work worst':>12}")
    for alg in ("Het", "ODDOML", "BMM", "Hom", "HomI", "ORROML", "OMMOML"):
        if alg not in cost:
            continue
        lines.append(
            f"{alg:<10}{cost[alg]['mean']:>11.3f}{cost[alg]['worst']:>12.3f}"
            f"{work[alg]['mean']:>11.3f}{work[alg]['worst']:>12.3f}"
        )
    # pairwise average makespan gains on common instances
    def mean_gain(a: str, b: str) -> float:
        per_inst: dict[str, dict[str, float]] = {}
        for m in result.measurements:
            per_inst.setdefault(m.instance, {})[m.algorithm] = m.makespan
        gains = [
            1.0 - vals[a] / vals[b]
            for vals in per_inst.values()
            if a in vals and b in vals and vals[b] > 0
        ]
        return sum(gains) / len(gains) if gains else float("nan")

    lines.append("")
    lines.append(f"avg makespan gain ODDOML vs BMM : {mean_gain('ODDOML', 'BMM'):.1%} (paper ~19%)")
    lines.append(f"avg makespan gain Het vs BMM    : {mean_gain('Het', 'BMM'):.1%} (paper ~27%)")
    ratios = result.bound_ratios("Het")
    if ratios:
        lines.append(
            f"Het / steady-state bound        : avg {sum(ratios) / len(ratios):.2f}, "
            f"max {max(ratios):.2f} (paper avg 2.29, max 3.42)"
        )
    return "\n".join(lines)
