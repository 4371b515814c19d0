"""Simulation results and the traced one-port replay.

The master owns a single communication port: at any instant it is sending
to, or receiving from, at most one worker (Bhat-Raghavendra-Prasanna's
one-port model, which the paper's MPI experiments obey).  Worker timelines
are deterministic recurrences of the port schedule (see
:mod:`repro.sim.worker_state`), so a simulation is a sequential loop: the
plan's port policy picks which worker's next pipeline message to post, the
engine computes its legal start time (buffer rules), occupies the port,
and updates the worker's compute timeline.

That loop is :class:`~repro.sim.fastpath.FastEngine`'s.  :func:`simulate`
runs it with its event log switched on and returns the full port and
compute traces; :func:`~repro.sim.fastpath.fast_simulate` returns the same
result without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk
from ..core.ops import ComputeEvent, PortEvent
from ..platform.model import Platform
from .plan import Plan

__all__ = ["WorkerStats", "SimResult", "simulate"]


@dataclass(frozen=True)
class WorkerStats:
    """Aggregate per-worker statistics of one simulation."""

    worker: int
    chunks: int
    blocks_in: int
    blocks_out: int
    updates: int
    compute_busy: float
    finish: float

    @property
    def enrolled(self) -> bool:
        """A worker is enrolled when it received at least one block."""
        return self.blocks_in > 0


@dataclass
class SimResult:
    """Outcome of a one-port simulation.

    ``makespan`` is the completion time of the last port message (the final
    ``C_RETURN``), i.e. the time at which the master holds the full result.
    """

    makespan: float
    platform: Platform
    grid: BlockGrid | None
    worker_stats: tuple[WorkerStats, ...]
    port_busy: float
    total_updates: int
    blocks_through_port: int
    chunks: tuple[Chunk, ...]
    port_events: tuple[PortEvent, ...] = ()
    compute_events: tuple[ComputeEvent, ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def enrolled(self) -> list[int]:
        """Indices of workers that actually took part."""
        return [st.worker for st in self.worker_stats if st.enrolled]

    @property
    def n_enrolled(self) -> int:
        return len(self.enrolled)

    @property
    def throughput(self) -> float:
        """Block updates per second over the whole run."""
        if self.makespan <= 0:
            return float("inf")
        return self.total_updates / self.makespan

    @property
    def port_utilization(self) -> float:
        """Fraction of the makespan during which the port was busy."""
        if self.makespan <= 0:
            return 0.0
        return self.port_busy / self.makespan

    @property
    def work(self) -> float:
        """The paper's *work* metric: makespan times enrolled workers."""
        return self.makespan * self.n_enrolled

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"makespan            : {self.makespan:.3f} s",
            f"enrolled workers    : {self.n_enrolled}/{self.platform.p} {self.enrolled}",
            f"total block updates : {self.total_updates}",
            f"port utilization    : {self.port_utilization:.1%}",
            f"blocks through port : {self.blocks_through_port}",
        ]
        return "\n".join(lines)


def simulate(platform: Platform, plan: Plan, grid: BlockGrid | None = None) -> SimResult:
    """Run a :class:`~repro.sim.plan.Plan` to completion and return its
    result with the full port and compute event traces.

    The plan's policy chooses the port service order; its optional allocator
    materializes chunks on demand (dynamic algorithms).  Static chunk
    assignments are installed first.
    """
    from .fastpath import FastEngine  # local import: fastpath imports SimResult

    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan)!r}")
    engine = FastEngine(platform, depths=plan.depths, c_mode=plan.c_mode)
    engine._log = ([], [])
    engine.run_plan(plan)
    return engine.result(grid=grid, meta=dict(plan.meta))
