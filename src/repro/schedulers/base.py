"""Scheduler interface.

A scheduler compiles ``(platform, grid)`` into a :class:`~repro.sim.plan.Plan`
(chunk assignments + port policy); running it through the one-port engine
yields a :class:`~repro.sim.engine.SimResult`.  All of the paper's seven
algorithms (Hom, HomI, Het, ORROML, OMMOML, ODDOML, BMM) implement this
interface, so experiments treat them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core.blocks import BlockGrid
from ..obs import stopwatch, trace
from ..platform.model import Platform
from ..sim.engine import SimResult, simulate
from ..sim.fastpath import fast_simulate
from ..sim.plan import Plan

__all__ = ["Scheduler", "SchedulingError"]


class SchedulingError(RuntimeError):
    """The algorithm cannot produce a schedule (e.g. no worker has enough
    memory for its layout)."""


class Scheduler(ABC):
    """Base class of all scheduling algorithms."""

    #: Short name used in reports (e.g. ``"Het"``); subclasses override.
    name: str = "?"

    #: Active scoring objective (:mod:`repro.experiments.objectives`);
    #: ``None`` means pure makespan.  Searching schedulers (Hom/HomI/Het)
    #: consult it when comparing candidates and fold it into their
    #: ``signature``; for the others it only informs reporting.
    objective = None

    @property
    def signature(self) -> str:
        """Configuration fingerprint used by the result cache
        (:mod:`repro.experiments.parallel`).  Subclasses whose behaviour
        depends on constructor arguments must fold them in (and should
        wrap their value in :meth:`_objective_sig`, since the adaptive
        wrapper's boundary decisions consult the objective even for
        schedulers whose static planning ignores it)."""
        return self._objective_sig(self.name)

    def _objective_sig(self, sig: str) -> str:
        """Fold a non-default objective into a signature string."""
        if self.objective is not None and not self.objective.is_makespan:
            sig = f"{sig}|{self.objective.signature}"
        return sig

    def with_objective(self, objective) -> "Scheduler":
        """Set the scoring objective (name, spec string, or
        :class:`~repro.experiments.objectives.Objective`) and return
        ``self`` -- the harness/sweeps use this to apply one objective to
        a whole suite."""
        from ..experiments.objectives import make_objective

        self.objective = make_objective(objective)
        return self

    @abstractmethod
    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        """Compile a plan for ``grid`` on ``platform``.

        Raises :class:`SchedulingError` when the platform cannot support
        the algorithm's memory layout at all.
        """

    def run(
        self,
        platform: Platform,
        grid: BlockGrid,
        *,
        collect_events: bool = True,
    ) -> SimResult:
        """Plan and simulate; the result's ``meta`` records the algorithm
        name and the wall-clock planning time (the paper includes each
        algorithm's decision process in its measured times).

        With ``collect_events`` the plan is replayed by
        :func:`~repro.sim.engine.simulate`, which records the full port and
        compute traces; without it by
        :func:`~repro.sim.fastpath.fast_simulate`, which returns the same
        makespan and statistics with empty traces.  Planning searches and
        the eventless replay both step on the process's kernel backend
        (``REPRO_KERNEL``, see :mod:`repro.sim.kernels`).
        """
        with trace("plan", algorithm=self.name), stopwatch("plan.seconds") as sw:
            plan = self.plan(platform, grid)
        with trace("simulate", algorithm=self.name):
            if collect_events:
                result = simulate(platform, plan, grid)
            else:
                result = fast_simulate(platform, plan, grid)
        result.meta.setdefault("algorithm", self.name)
        result.meta["planning_seconds"] = sw.elapsed
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
