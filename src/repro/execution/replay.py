"""Data-flow replay of a simulation trace.

Where :mod:`repro.execution.executor` checks a chunk plan, this module
checks an actual *trace*: it walks the simulated events in time order and
moves real data exactly when the events say so --

* ``C_SEND``   copies the master's C blocks into the worker's chunk buffer,
* a compute event applies its round's update to the worker's buffer,
  asserting the round's data (and the chunk's C) had arrived by then,
* ``C_RETURN`` writes the worker's buffer back to the master's C.

If the engine mis-ordered anything (stale C, missing round data, double
writes), the replayed result diverges from ``C + A @ B``.  This is the
strongest end-to-end check tying timing to data.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import BlockGrid
from ..core.ops import MsgKind
from ..sim.engine import SimResult
from .executor import random_instance, reference_product

__all__ = ["replay_trace", "verify_trace"]


def replay_trace(
    result: SimResult,
    grid: BlockGrid,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """Replay ``result``'s events on concrete matrices; returns the master's
    final C.  Raises ``AssertionError`` on any causality breach."""
    if not result.port_events:
        raise ValueError(
            "result has no events: produce it with Scheduler.run(collect_events=True), "
            "or record_events=True for a dynamic run"
        )
    q = grid.q
    master_c = c.copy()
    chunk_by_id = {ch.cid: ch for ch in result.chunks}
    # worker-side chunk buffers and data-arrival bookkeeping
    buffers: dict[int, np.ndarray] = {}
    c_arrived: dict[int, float] = {}
    round_arrived: dict[tuple[int, int], float] = {}

    timeline: list[tuple[float, int, object]] = []
    for evt in result.port_events:
        timeline.append((evt.end, 0, evt))
    for evt in result.compute_events:
        timeline.append((evt.end, 1, evt))
    timeline.sort(key=lambda item: (item[0], item[1]))

    for _end, tag, evt in timeline:
        if tag == 0:  # port event
            ch = chunk_by_id[evt.cid]
            rows = slice(ch.i0 * q, (ch.i0 + ch.h) * q)
            cols = slice(ch.j0 * q, (ch.j0 + ch.w) * q)
            if evt.kind is MsgKind.C_SEND:
                assert evt.cid not in buffers, f"chunk {evt.cid} C sent twice"
                buffers[evt.cid] = master_c[rows, cols].copy()
                c_arrived[evt.cid] = evt.end
            elif evt.kind is MsgKind.ROUND:
                round_arrived[(evt.cid, evt.round_idx)] = evt.end
            else:  # C_RETURN
                assert evt.cid in buffers, f"chunk {evt.cid} returned but never sent"
                master_c[rows, cols] = buffers.pop(evt.cid)
        else:  # compute event: apply the round's update on the worker buffer
            ch = chunk_by_id[evt.cid]
            arrived = round_arrived.get((evt.cid, evt.round_idx))
            assert arrived is not None and evt.start >= arrived - 1e-9, (
                f"compute of round ({evt.cid},{evt.round_idx}) before its data arrived"
            )
            assert evt.cid in buffers and evt.start >= c_arrived[evt.cid] - 1e-9, (
                f"compute of chunk {evt.cid} before its C chunk arrived"
            )
            rd = ch.rounds[evt.round_idx]
            rows = slice(ch.i0 * q, (ch.i0 + ch.h) * q)
            cols = slice(ch.j0 * q, (ch.j0 + ch.w) * q)
            ks = slice(rd.k_lo * q, rd.k_hi * q)
            buffers[evt.cid] += a[rows, ks] @ b[ks, cols]
    assert not buffers, f"chunks never returned: {sorted(buffers)}"
    return master_c


def verify_trace(
    result: SimResult, grid: BlockGrid, rng: np.random.Generator | int | None = None
) -> float:
    """Replay on a random instance and compare against ``C + A @ B``;
    returns the max absolute error (asserts it is numerically negligible)."""
    a, b, c = random_instance(grid, rng)
    got = replay_trace(result, grid, a, b, c)
    want = reference_product(a, b, c)
    err = float(np.max(np.abs(got - want)))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(want)))) * grid.t * grid.q
    assert err <= tol, f"replay mismatch: max error {err} > tol {tol}"
    return err
