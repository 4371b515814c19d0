"""Het: the paper's heterogeneous algorithm (Section 5).

Eight selection variants ({global, local} x {look-ahead, not} x {count C
cost, not}) are each run through the incremental selection simulation; the
resulting plans are scored in one :func:`~repro.sim.batch.batch_simulate`
submission and the best variant is executed -- exactly the paper's
procedure ("in a first step we simulate the eight versions, and then we
pick and run the best one").  Under a whole-run kernel (the default C
kernel) the submission is one :class:`~repro.sim.batch.BatchEngine` per
replay mode; under the per-step numpy backend eight plans are below the
batch layer's vectorization threshold, so each candidate runs on its own
through :class:`~repro.sim.fastpath.FastEngine` (bit-identical either
way).  The winning candidate plan is returned as built; only its
metadata changes.
"""

from __future__ import annotations

from ..core.blocks import BlockGrid
from ..platform.model import Platform
from ..sim.batch import batch_simulate
from ..sim.plan import Plan
from .base import Scheduler, SchedulingError
from .geometry import PartitionGeometry, make_geometry
from .selection import ALL_VARIANTS, Variant, build_plan_from_sequence, incremental_selection

__all__ = ["HetScheduler"]


class HetScheduler(Scheduler):
    """The heterogeneous algorithm with automatic variant choice.

    Parameters
    ----------
    variants:
        Subset of variants to consider (default: all eight).
    geometry:
        Partition family (see :mod:`repro.schedulers.geometry`): the
        default square-chunk grid, or ``"layer"`` (registered as
        ``HetL``), which runs the incremental selection on the transposed
        grid so the granted column panels become layers of C.
    objective:
        Scoring rule for the variant choice (see
        :mod:`repro.experiments.objectives`); the default compares
        variants on simulated makespan exactly as before.
    """

    name = "Het"

    def __init__(
        self,
        variants: tuple[Variant, ...] = ALL_VARIANTS,
        *,
        geometry: "PartitionGeometry | str | None" = None,
        objective=None,
    ) -> None:
        if not variants:
            raise ValueError("need at least one variant")
        self.variants = tuple(variants)
        self.geometry = make_geometry(geometry)
        if self.geometry.suffix:
            self.name = f"{type(self).name}{self.geometry.suffix}"
        if objective is not None:
            self.with_objective(objective)

    @property
    def signature(self) -> str:
        sig = type(self).name
        if self.variants != ALL_VARIANTS:
            sig = f"{sig}[{','.join(v.label for v in self.variants)}]"
        if self.geometry.name != "grid":
            sig = f"{sig}|{self.geometry.signature}"
        if self.objective is not None and not self.objective.is_makespan:
            sig = f"{sig}|{self.objective.signature}"
        return sig

    def _best_index(self, makespans, plans: list[Plan], pgrid: BlockGrid) -> int:
        """Index of the winning variant under the active objective (the
        default makespan objective keeps the original comparison)."""
        objective = self.objective
        if objective is None or objective.is_makespan:
            return min(range(len(plans)), key=lambda i: (float(makespans[i]), i))
        from ..experiments.objectives import PlanScore

        def _score(i: int) -> float:
            plan = plans[i]
            workers = sum(1 for queue in plan.assignments if queue)
            return objective.score(
                PlanScore(
                    makespan=float(makespans[i]),
                    workers=workers,
                    port_blocks=self.geometry.plan_port_blocks(plan),
                    block_bytes=pgrid.block_bytes,
                )
            )

        best = min(range(len(plans)), key=lambda i: (_score(i), i))
        if _score(best) == float("inf"):
            raise SchedulingError(
                f"{self.name}: no variant is admissible under objective "
                f"{objective.signature}"
            )
        return best

    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        pgrid = self.geometry.plan_grid(grid)
        candidates = []
        for variant in self.variants:
            outcome = incremental_selection(platform, pgrid, variant)
            candidate = build_plan_from_sequence(platform, pgrid, outcome)
            candidates.append((platform, candidate))
        makespans = batch_simulate(candidates)
        scores = {
            variant.label: float(ms) for variant, ms in zip(self.variants, makespans)
        }
        best_idx = self._best_index(
            makespans, [cand for _plat, cand in candidates], pgrid
        )
        best_makespan = float(makespans[best_idx])
        best_plan = candidates[best_idx][1]
        best_plan.meta.update(
            {
                "algorithm": self.name,
                "variant_makespans": scores,
                "predicted_makespan": best_makespan,
            }
        )
        return self.geometry.finalize(best_plan, grid)
