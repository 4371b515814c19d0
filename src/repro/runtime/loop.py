"""One master replay loop and one worker body, over a pluggable transport.

:func:`run_master` is the paper's master, the single port: it sends C
chunks and A/B rounds in the simulated port order and blocks while a
worker hands a finished chunk back.  :func:`run_worker` is the worker:
it owns chunk buffers, applies round updates with numpy, and answers a
``ReturnRequest`` with ``("chunk", cid, data)`` on its own outbox.  A
:class:`Transport` carries the messages: worker threads
(:mod:`repro.runtime.local`) or pool processes (:mod:`repro.service.runner`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..core.blocks import BlockGrid
from ..core.ops import MsgKind
from ..sim.engine import SimResult
from .messages import CChunkMsg, ReturnRequest, RoundMsg, Shutdown

__all__ = ["MasterLog", "Transport", "WorkerLog", "run_master", "run_worker"]

#: How often a master waiting on a chunk reply re-checks that worker (s).
POLL_INTERVAL = 0.05


class Transport(Protocol):
    """How the master reaches its workers, by simulated worker index."""

    def post(self, worker: int, msg: object) -> None:
        """Put ``msg`` on ``worker``'s inbox."""

    def receive(self, worker: int, timeout: float) -> tuple[int, np.ndarray] | None:
        """``worker``'s ``(cid, data)`` reply within ``timeout`` s, else None;
        raises if the worker failed or exited instead."""

    def check_health(self) -> None:
        """Raise if any active worker has failed."""

    def error(self, worker: int, summary: str) -> Exception:
        """This transport's exception reporting ``summary`` about ``worker``."""


@dataclass
class MasterLog:
    """What the master counted while replaying one schedule."""

    messages: int = 0
    updates: int = 0
    #: (start, end) of every port event the master serviced.
    port_busy: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class WorkerLog:
    """What one worker measured about itself."""

    updates: int = 0
    #: Seconds spent blocked on the inbox.
    queue_wait: float = 0.0
    #: (start, end) of every round update.
    compute: list[tuple[float, float]] = field(default_factory=list)

    @property
    def compute_seconds(self) -> float:
        return sum(hi - lo for lo, hi in self.compute)


def run_master(
    result: SimResult,
    grid: BlockGrid,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    transport: Transport,
    reply_timeout: float,
) -> tuple[np.ndarray, MasterLog]:
    """Replay ``result``'s port order through ``transport``.

    Returns the final C (``c`` itself is not touched) and the master's
    counts.  A ``C_RETURN`` blocks the master until the worker replies,
    for at most ``reply_timeout`` seconds.
    """
    if not result.port_events:
        raise ValueError(
            "result has no events: produce it with Scheduler.run(collect_events=True), "
            "or record_events=True for a dynamic run"
        )
    q = grid.q
    chunk_by_id = {ch.cid: ch for ch in result.chunks}
    master_c = c.copy()
    log = MasterLog()
    for evt in result.port_events:
        # a worker that died must fail the run *now*, not when the schedule
        # next addresses it -- otherwise the master keeps filling a dead
        # worker's inbox (and, on C_RETURN, waits for nothing)
        transport.check_health()
        w = evt.worker
        ch = chunk_by_id[evt.cid]
        rows = slice(ch.i0 * q, (ch.i0 + ch.h) * q)
        cols = slice(ch.j0 * q, (ch.j0 + ch.w) * q)
        s0 = time.perf_counter()
        if evt.kind is MsgKind.C_SEND:
            transport.post(w, CChunkMsg(evt.cid, rows, cols, master_c[rows, cols].copy()))
        elif evt.kind is MsgKind.ROUND:
            rd = ch.rounds[evt.round_idx]
            ks = slice(rd.k_lo * q, rd.k_hi * q)
            a_data, b_data = a[rows, ks].copy(), b[ks, cols].copy()
            transport.post(w, RoundMsg(evt.cid, evt.round_idx, a_data, b_data, rd.updates))
            log.updates += rd.updates
        else:  # C_RETURN: one-port receive, the master blocks
            transport.post(w, ReturnRequest(evt.cid))
            deadline = s0 + reply_timeout
            while (reply := transport.receive(w, POLL_INTERVAL)) is None:
                if time.perf_counter() > deadline:
                    raise transport.error(w, f"did not return its chunk within {reply_timeout:g}s")
            cid, data = reply
            if cid != evt.cid:  # pragma: no cover - defensive
                raise transport.error(w, f"returned chunk {cid}, expected {evt.cid}")
            master_c[rows, cols] = data
        log.port_busy.append((s0, time.perf_counter()))
        log.messages += 1
    return master_c, log


def run_worker(receive: Callable[[], object], send: Callable[[tuple], None], log: WorkerLog) -> None:
    """The worker body: apply messages from ``receive()`` until ``Shutdown``.

    Chunk replies go out through ``send`` as ``("chunk", cid, data)``.
    Anything outside the message vocabulary raises ``TypeError``; the
    caller's wrapper reports it to the master.
    """
    buffers: dict[int, np.ndarray] = {}
    while True:
        w0 = time.perf_counter()
        msg = receive()
        log.queue_wait += time.perf_counter() - w0
        if isinstance(msg, Shutdown):
            return
        if isinstance(msg, CChunkMsg):
            buffers[msg.cid] = msg.data
        elif isinstance(msg, RoundMsg):
            t0 = time.perf_counter()
            buffers[msg.cid] += msg.a_data @ msg.b_data
            log.compute.append((t0, time.perf_counter()))
            log.updates += msg.updates
        elif isinstance(msg, ReturnRequest):
            send(("chunk", msg.cid, buffers.pop(msg.cid)))
        else:
            raise TypeError(f"unknown message {msg!r}")
