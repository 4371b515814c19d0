"""Per-figure experiment definitions (paper Section 6).

Each ``figN_instances(scale)`` returns the labelled (platform, grid) pairs
of the corresponding paper figure.  ``scale`` shrinks both the block grid
and the worker memories coherently (chunk sides scale with the matrix), so
the relative comparisons are preserved while letting tests run in
milliseconds; ``scale=1.0`` is the paper's full size.

Paper shapes to reproduce (see EXPERIMENTS.md for the full record):

* Fig 4 (memory-het): ODDOML and Het best; OMMOML ~2x worst makespan but
  the thriftiest relative work; Hom/HomI/ORROML/BMM ~20% slower.
* Fig 5 (link-het): Het/HomI/OMMOML best; BMM worst (70-90% above best).
* Fig 6 (CPU-het): BMM reasonable but above Het; gaps in work widen.
* Fig 7 (fully het): Het best on 10/12 platforms, never >9% off; every
  other algorithm at least once >41% off.
* Fig 8 (real platform): Aug-2007 all similar but BMM; Nov-2006 like the
  memory-het case, Het using only the ten 1 GB workers.
* Fig 9 (summary): ODDOML ~19% faster than BMM, Het ~27%; Het within 1% of
  best on average, 14% worst-case; Het within ~2.3x of the steady-state
  bound on average.
"""

from __future__ import annotations

from typing import Sequence

from ..core.blocks import BlockGrid
from ..platform.generators import (
    comm_heterogeneous,
    comp_heterogeneous,
    fully_heterogeneous,
    memory_heterogeneous,
    paper_matrix_sweep,
    random_platforms,
    real_platform_aug2007,
    real_platform_nov2006,
    scale_grid,
    scale_platform,
)
from ..obs import trace
from ..platform.model import Platform
from ..schedulers.base import Scheduler
from .harness import ExperimentResult, Instance, run_experiment

__all__ = [
    "fig4_instances",
    "fig5_instances",
    "fig6_instances",
    "fig7_instances",
    "fig8_instances",
    "run_figure",
    "run_summary",
    "FIGURES",
]


def _sweep(platform: Platform, scale: float) -> list[Instance]:
    plat = scale_platform(platform, scale) if scale != 1.0 else platform
    out = []
    for grid in paper_matrix_sweep():
        g = scale_grid(grid, scale)
        out.append(Instance(label=f"s={g.s}", platform=plat, grid=g))
    return out


def fig4_instances(scale: float = 1.0) -> list[Instance]:
    """Figure 4: heterogeneous memory (256/512/1024 MB), 5 matrix sizes."""
    return _sweep(memory_heterogeneous(), scale)


def fig5_instances(scale: float = 1.0) -> list[Instance]:
    """Figure 5: heterogeneous links (10/5/1 Mbps), 5 matrix sizes."""
    return _sweep(comm_heterogeneous(), scale)


def fig6_instances(scale: float = 1.0) -> list[Instance]:
    """Figure 6: heterogeneous CPUs (S, S/2, S/4), 5 matrix sizes."""
    return _sweep(comp_heterogeneous(), scale)


def fig7_instances(scale: float = 1.0, seed: int = 2008) -> list[Instance]:
    """Figure 7: fully heterogeneous platforms -- ratio 2, ratio 4, and ten
    random platforms; A 8000x8000, B 8000x80000."""
    grid = scale_grid(BlockGrid.paper_instance(80_000), scale)
    platforms = [fully_heterogeneous(2.0), fully_heterogeneous(4.0)]
    platforms += random_platforms(10, seed=seed)
    out = []
    for plat in platforms:
        p = scale_platform(plat, scale) if scale != 1.0 else plat
        out.append(Instance(label=plat.name, platform=p, grid=grid))
    return out


def fig8_instances(scale: float = 1.0) -> list[Instance]:
    """Figure 8: the real 20-worker platform (Aug-2007 and Nov-2006 memory
    configurations); A 8000x8000, B 8000x320000."""
    grid = scale_grid(BlockGrid.paper_instance(320_000), scale)
    out = []
    for plat in (real_platform_aug2007(), real_platform_nov2006()):
        p = scale_platform(plat, scale) if scale != 1.0 else plat
        out.append(Instance(label=plat.name, platform=p, grid=grid))
    return out


#: figure id -> instance factory
FIGURES = {
    "fig4": fig4_instances,
    "fig5": fig5_instances,
    "fig6": fig6_instances,
    "fig7": fig7_instances,
    "fig8": fig8_instances,
}


def run_figure(
    fig: str,
    scale: float = 1.0,
    schedulers: Sequence[Scheduler] | None = None,
    *,
    validate: bool = False,
    parallel=None,
    cache=None,
    objective=None,
) -> ExperimentResult:
    """Run one paper figure end to end.

    ``validate``, ``parallel``, ``cache`` and ``objective`` are forwarded
    to :func:`~repro.experiments.harness.run_experiment`, so a figure's
    (algorithm, instance) runs can be replayed with traces and audited, fan
    out across cores, reuse content-addressed results from earlier
    invocations, or score a chosen objective.  Planning and replay step on
    the process's kernel backend (``REPRO_KERNEL``, set by ``--kernel``).
    """
    try:
        factory = FIGURES[fig]
    except KeyError:
        raise KeyError(f"unknown figure {fig!r}; known: {sorted(FIGURES)}") from None
    with trace("figure", fig=fig, scale=scale):
        return run_experiment(
            fig,
            factory(scale),
            schedulers,
            validate=validate,
            parallel=parallel,
            cache=cache,
            objective=objective,
        )


def run_summary(
    scale: float = 1.0,
    schedulers: Sequence[Scheduler] | None = None,
    figures: Sequence[str] = ("fig4", "fig5", "fig6", "fig7", "fig8"),
    *,
    parallel=None,
    cache=None,
    objective=None,
) -> ExperimentResult:
    """Figure 9: union of all experiments (relative metrics recomputed over
    the merged instance set); the keyword options are forwarded to
    :func:`run_figure`."""
    merged: ExperimentResult | None = None
    for fig in figures:
        res = run_figure(
            fig, scale, schedulers, parallel=parallel, cache=cache, objective=objective
        )
        merged = res if merged is None else merged.merged_with(res, name="fig9")
    assert merged is not None
    merged.name = "fig9"
    return merged
