"""Trace inspection utilities: records, summaries, ASCII Gantt charts.

These helpers are presentation-only; the simulation itself never depends on
them.  They power the examples and the CLI's ``--gantt`` flag.
"""

from __future__ import annotations

from typing import Any

from ..core.ops import ComputeEvent, MsgKind
from .engine import SimResult

__all__ = ["port_records", "compute_records", "gantt_ascii", "worker_utilization"]


def port_records(result: SimResult) -> list[dict[str, Any]]:
    """Port events as plain dictionaries (JSON-friendly)."""
    return [
        {
            "start": e.start,
            "end": e.end,
            "worker": e.worker,
            "kind": e.kind.value,
            "chunk": e.cid,
            "round": e.round_idx,
            "blocks": e.nblocks,
        }
        for e in result.port_events
    ]


def compute_records(result: SimResult) -> list[dict[str, Any]]:
    """Compute events as plain dictionaries (JSON-friendly)."""
    return [
        {
            "start": e.start,
            "end": e.end,
            "worker": e.worker,
            "chunk": e.cid,
            "round": e.round_idx,
            "updates": e.updates,
        }
        for e in result.compute_events
    ]


def worker_utilization(result: SimResult) -> dict[int, float]:
    """Fraction of the makespan each worker spent computing."""
    if result.makespan <= 0:
        return {st.worker: 0.0 for st in result.worker_stats}
    return {st.worker: st.compute_busy / result.makespan for st in result.worker_stats}


_KIND_CHAR = {MsgKind.C_SEND: "C", MsgKind.ROUND: "=", MsgKind.C_RETURN: "R"}


def _paint(row: list[str], start: float, end: float, scale: float, ch: str, width: int) -> None:
    lo = min(width - 1, int(start * scale))
    hi = min(width - 1, max(lo, int(end * scale) - 1))
    for x in range(lo, hi + 1):
        row[x] = ch


def gantt_ascii(result: SimResult, width: int = 100) -> str:
    """Render the port and worker timelines as fixed-width ASCII art.

    Port row: ``C`` = C chunk going out, ``=`` = A/B round, ``R`` = C chunk
    coming back.  Worker rows: ``#`` = computing.
    """
    if result.makespan <= 0 or not result.port_events:
        return "(empty trace)"
    scale = width / result.makespan
    port_row = [" "] * width
    for evt in result.port_events:
        _paint(port_row, evt.start, evt.end, scale, _KIND_CHAR[evt.kind], width)
    lines = [f"{'port':>8} |{''.join(port_row)}|"]
    by_worker: dict[int, list[ComputeEvent]] = {}
    for evt in result.compute_events:
        by_worker.setdefault(evt.worker, []).append(evt)
    for widx in sorted(by_worker):
        row = [" "] * width
        for evt in by_worker[widx]:
            _paint(row, evt.start, evt.end, scale, "#", width)
        lines.append(f"{f'P{widx + 1}':>8} |{''.join(row)}|")
    lines.append(f"{'':>8}  0{'.' * (width - 12)}{result.makespan:>9.2f}s")
    return "\n".join(lines)
