"""Trace analytics: where does the time go?

Decomposes a simulation into the quantities the paper reasons about:

* **port time**: busy sending C out, busy streaming A/B, busy receiving C
  back, or idle (either waiting for a worker's buffers to free, or starved
  because all pipelines are ahead);
* **worker time**: computing, waiting for data (its next round is on the
  wire or queued behind the port), or drained (no chunk assigned);
* the realized **communication-to-computation ratio** per worker and
  overall, directly comparable to the Section 3 formulas.

These power the richer reports in the examples/CLI and give tests a way to
assert *why* an algorithm wins, not only that it wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ops import MsgKind
from .engine import SimResult

__all__ = ["PortBreakdown", "WorkerBreakdown", "TraceAnalysis", "analyze"]


@dataclass(frozen=True)
class PortBreakdown:
    """Master-port time decomposition (sums to the makespan)."""

    c_out: float
    rounds: float
    c_back: float
    idle: float

    @property
    def busy(self) -> float:
        return self.c_out + self.rounds + self.c_back

    @property
    def total(self) -> float:
        return self.busy + self.idle


@dataclass(frozen=True)
class WorkerBreakdown:
    """One worker's time decomposition over the makespan."""

    worker: int
    computing: float
    waiting: float  # enrolled but not computing
    updates: int
    blocks_in: int
    blocks_out: int

    @property
    def ccr(self) -> float:
        """Realized blocks-per-update for this worker."""
        if self.updates == 0:
            return float("nan")
        return (self.blocks_in + self.blocks_out) / self.updates


@dataclass(frozen=True)
class TraceAnalysis:
    """Full decomposition of one simulation."""

    makespan: float
    port: PortBreakdown
    workers: tuple[WorkerBreakdown, ...]
    overall_ccr: float

    def report(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"makespan {self.makespan:.2f}s | port: "
            f"C-out {self.port.c_out / self.makespan:.0%}, "
            f"A/B {self.port.rounds / self.makespan:.0%}, "
            f"C-back {self.port.c_back / self.makespan:.0%}, "
            f"idle {self.port.idle / self.makespan:.0%}",
            f"overall CCR {self.overall_ccr:.4f} blocks/update",
        ]
        for wb in self.workers:
            if wb.updates == 0:
                continue
            lines.append(
                f"  P{wb.worker + 1}: compute {wb.computing / self.makespan:.0%}, "
                f"wait {wb.waiting / self.makespan:.0%}, ccr {wb.ccr:.3f}"
            )
        return "\n".join(lines)


def analyze(result: SimResult) -> TraceAnalysis:
    """Decompose a result (needs a collected trace)."""
    if not result.port_events:
        raise ValueError(
            "result has no events: produce it with Scheduler.run(collect_events=True), "
            "or record_events=True for a dynamic run"
        )
    makespan = result.makespan
    by_kind = {MsgKind.C_SEND: 0.0, MsgKind.ROUND: 0.0, MsgKind.C_RETURN: 0.0}
    for evt in result.port_events:
        by_kind[evt.kind] += evt.duration
    busy = sum(by_kind.values())
    port = PortBreakdown(
        c_out=by_kind[MsgKind.C_SEND],
        rounds=by_kind[MsgKind.ROUND],
        c_back=by_kind[MsgKind.C_RETURN],
        idle=max(0.0, makespan - busy),
    )
    workers = []
    for st in result.worker_stats:
        workers.append(
            WorkerBreakdown(
                worker=st.worker,
                computing=st.compute_busy,
                waiting=max(0.0, (st.finish - st.compute_busy) if st.enrolled else 0.0),
                updates=st.updates,
                blocks_in=st.blocks_in,
                blocks_out=st.blocks_out,
            )
        )
    overall = (
        result.blocks_through_port / result.total_updates if result.total_updates else float("nan")
    )
    return TraceAnalysis(
        makespan=makespan,
        port=port,
        workers=tuple(workers),
        overall_ccr=overall,
    )
