#!/usr/bin/env python3
"""Inside Het: the eight incremental selection variants (Section 5).

Shows, for one fully heterogeneous platform, how each variant
({global, local} x {look-ahead, not} x {count C cost, not}) orders its
selections, which workers it enrolls, and what makespan its schedule
achieves -- the information Het uses when it "simulates the eight versions
and picks the best one".  Also prints the bandwidth-centric steady-state
solution for comparison: the local ratio criterion reduces to the LP's
2c/mu ordering when the port is the bottleneck.

Run:  python examples/selection_variants.py
"""

from collections import Counter

from repro.core.blocks import BlockGrid
from repro.platform.generators import fully_heterogeneous, scale_grid, scale_platform
from repro.schedulers.selection import (
    ALL_VARIANTS,
    build_plan_from_sequence,
    incremental_selection,
)
from repro.sim.engine import simulate
from repro.theory.steady_state import bandwidth_centric


def main() -> None:
    platform = scale_platform(fully_heterogeneous(4.0), 0.25)
    grid = scale_grid(BlockGrid.paper_instance(80_000), 0.25)
    print(platform.describe())
    print(f"\nproblem: {grid}\n")

    sol = bandwidth_centric(platform)
    print("steady-state LP: rho = %.1f upd/s, bandwidth-centric order: %s\n"
          % (sol.rho, " > ".join(f"P{i + 1}" for i in sol.order)))

    print(f"{'variant':<14}{'makespan':>11}{'enrolled':>9}  selections (first 12)")
    best = None
    for variant in ALL_VARIANTS:
        outcome = incremental_selection(platform, grid, variant)
        plan = build_plan_from_sequence(platform, grid, outcome)
        res = simulate(platform, plan, grid)
        counts = Counter(outcome.sequence)
        head = ",".join(f"P{w + 1}" for w in outcome.sequence[:12])
        print(
            f"{variant.label:<14}{res.makespan:>10.1f}s{len(counts):>9}  {head}..."
        )
        if best is None or res.makespan < best[1]:
            best = (variant.label, res.makespan)
    print(f"\nHet would execute variant {best[0]!r} ({best[1]:.1f}s)")


if __name__ == "__main__":
    main()
