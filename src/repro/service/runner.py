"""Replay one job's simulated port order against worker processes.

The process transport of the shared master loop
(:func:`repro.runtime.loop.run_master`): the master (one service thread
per running job) is the only owner of the job's matrices, sends are
master-sequential in the simulated port order, and ``C_RETURN`` blocks
on the addressed worker's outbox — the one-port model, per shard.

A job's schedule is planned on a *subplatform* (workers reindexed
``0..k-1``), so the runner takes a ``worker_map`` translating simulated
worker indices to real pool indices.  Any failure raises
:class:`~repro.service.pool.WorkerProcessError` naming the real pool
worker.
"""

from __future__ import annotations

import queue as _q
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.blocks import BlockGrid
from ..obs import trace
from ..runtime.loop import run_master
from ..sim.engine import SimResult
from .pool import WorkerHandle, WorkerPool, WorkerProcessError

__all__ = ["ShardStats", "ShardRunner"]


@dataclass
class ShardStats:
    """Wall-clock outcome of one job's execution on its shard."""

    wall_seconds: float
    messages: int
    updates: int
    shard: tuple[int, ...]  # real pool worker indices, sim order


def _reported(handle: WorkerHandle, item: tuple) -> WorkerProcessError:
    """The failure a worker posted on its outbox (or a payload with no
    business there, put into the error channel rather than dropped)."""
    if item[0] == "error":
        _tag, widx, summary, tb = item
        return WorkerProcessError(widx, summary, tb)
    return WorkerProcessError(handle.widx, f"unexpected outbox payload {item[0]!r}")


class _Processes:
    """Process transport: the ``mp.Queue`` pairs of a shard of pool workers."""

    def __init__(self, shard: Sequence[WorkerHandle], active: Sequence[int]) -> None:
        self.shard = shard
        # only workers the schedule actually addresses are health-swept:
        # the rest of the shard may be serving other jobs
        self.active = [shard[i] for i in active]

    def post(self, worker: int, msg: object) -> None:
        self.shard[worker].inbox.put(msg)

    def receive(self, worker: int, timeout: float) -> tuple[int, np.ndarray] | None:
        handle = self.shard[worker]
        try:
            item = handle.outbox.get(timeout=timeout)
        except _q.Empty:
            if handle.is_alive():
                return None
            raise self.error(
                worker, "process exited without replying to a return request"
            ) from None
        if item[0] == "chunk":
            return item[1], item[2]
        raise _reported(handle, item)

    def check_health(self) -> None:
        # outside the C_RETURN window an outbox can only hold errors (chunk
        # replies are consumed synchronously, stats only follow Shutdown),
        # so this opportunistic read never eats a payload
        for handle in self.active:
            try:
                item = handle.outbox.get_nowait()
            except _q.Empty:
                if handle.is_alive():
                    continue
                raise WorkerProcessError(
                    handle.widx, "process died without a word"
                ) from None
            raise _reported(handle, item)

    def error(self, worker: int, summary: str) -> Exception:
        return WorkerProcessError(self.shard[worker].widx, summary)


class ShardRunner:
    """Drive one schedule through a shard of a :class:`WorkerPool`."""

    def __init__(self, pool: WorkerPool, *, reply_timeout: float = 60.0) -> None:
        if reply_timeout <= 0:
            raise ValueError("reply_timeout must be positive")
        self.pool = pool
        self.reply_timeout = reply_timeout

    def execute(
        self,
        result: SimResult,
        grid: BlockGrid,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        worker_map: Sequence[int],
    ) -> tuple[np.ndarray, ShardStats]:
        """Replay ``result``'s port order; returns (final C, stats).

        ``worker_map[i]`` is the real pool index serving simulated worker
        ``i`` of ``result.platform``.
        """
        if len(worker_map) != result.platform.p:
            raise ValueError(
                f"worker_map covers {len(worker_map)} workers, "
                f"schedule uses {result.platform.p}"
            )
        shard = [self.pool[real] for real in worker_map]
        active = sorted({evt.worker for evt in result.port_events})
        real_shard = tuple(worker_map[i] for i in active)
        t0 = time.perf_counter()
        with trace("service.execute", shard=list(real_shard), events=len(result.port_events)):
            master_c, log = run_master(
                result, grid, a, b, c, _Processes(shard, active), self.reply_timeout
            )
        wall = time.perf_counter() - t0
        return master_c, ShardStats(wall, log.messages, log.updates, real_shard)
