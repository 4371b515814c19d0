"""Threaded local runtime: actually execute a schedule, in parallel.

The simulator predicts timings; this runtime *performs* a schedule with
real numpy arithmetic on worker threads.  The master loop and the worker
body are the shared ones of :mod:`repro.runtime.loop`; this module is
their thread transport:

* the master is the only thread touching the matrices A, B, C (centralized
  data, as in the paper);
* sends are master-sequential (the master loop is the one port); a worker
  blocks on its inbox until data arrives and computes concurrently with
  later sends to other workers -- communication/computation overlap;
* ``C_RETURN`` blocks the master until the worker hands the chunk back on
  its outbox (one-port receive).

It runs at full speed and serves as an end-to-end correctness harness:
its output must equal ``C + A @ B``.

Each execution also measures where the time went: workers record how long
they sat blocked on their inbox (queue wait) and the interval of every
round update (compute); the master records the interval of every port
event it services (send/receive occupancy).  The overlap fraction --
how much of the workers' compute happened *while* the master port was
busy -- is the paper's communication/computation overlap, measured.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.blocks import BlockGrid
from ..obs import gauge, timer, trace
from ..sim.engine import SimResult
from .loop import WorkerLog, run_master, run_worker
from .messages import Shutdown

__all__ = ["RuntimeStats", "ThreadedRuntime"]


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping intervals into a disjoint sorted union."""
    if not intervals:
        return []
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _intersection_seconds(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Total length of the intersection of two disjoint sorted interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass
class RuntimeStats:
    """Wall-clock outcome of a threaded execution."""

    wall_seconds: float
    messages: int
    updates_per_worker: dict[int, int] = field(default_factory=dict)
    queue_wait_per_worker: dict[int, float] = field(default_factory=dict)
    compute_seconds_per_worker: dict[int, float] = field(default_factory=dict)
    send_seconds: float = 0.0
    overlap_seconds: float = 0.0

    @property
    def total_updates(self) -> int:
        return sum(self.updates_per_worker.values())

    @property
    def compute_seconds(self) -> float:
        return sum(self.compute_seconds_per_worker.values())

    @property
    def queue_wait_seconds(self) -> float:
        return sum(self.queue_wait_per_worker.values())

    @property
    def overlap_fraction(self) -> float:
        """Share of worker compute that ran while the master port was busy."""
        if self.compute_seconds <= 0.0:
            return 0.0
        return self.overlap_seconds / self.compute_seconds


class _WorkerThread(threading.Thread):
    """One worker: the shared worker body on a thread, errors kept in ``error``."""

    def __init__(self, widx: int) -> None:
        super().__init__(name=f"worker-{widx}", daemon=True)
        self.widx = widx
        self.inbox: queue.Queue = queue.Queue()
        self.outbox: queue.Queue = queue.Queue()
        self.log = WorkerLog()
        self.error: BaseException | None = None

    def run(self) -> None:  # pragma: no cover - exercised via ThreadedRuntime
        try:
            run_worker(self.inbox.get, self.outbox.put, self.log)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the master
            self.error = exc


class _Threads:
    """Thread transport: ``queue.Queue`` inbox/outbox pairs and error slots."""

    def __init__(self, workers: list[_WorkerThread]) -> None:
        self.workers = workers

    def post(self, worker: int, msg: object) -> None:
        self.workers[worker].inbox.put(msg)

    def receive(self, worker: int, timeout: float) -> tuple[int, np.ndarray] | None:
        wt = self.workers[worker]
        try:
            _tag, cid, data = wt.outbox.get(timeout=timeout)
            return cid, data
        except queue.Empty:
            pass
        if wt.error is not None:
            raise self.error(worker, "failed while returning a chunk") from wt.error
        if not wt.is_alive():
            raise self.error(worker, "exited without replying to a return request")
        return None

    def check_health(self) -> None:
        for wt in self.workers:
            if wt.error is not None:
                raise self.error(wt.widx, "failed") from wt.error

    def error(self, worker: int, summary: str) -> Exception:
        return RuntimeError(f"worker {worker} {summary}")


class ThreadedRuntime:
    """Execute a simulated schedule with real data on worker threads.

    Failure semantics: a worker that raises stores the exception in its
    ``error`` slot and exits; the master checks *every* worker's slot each
    port event (a dead worker is detected even while the schedule is
    addressing its peers), polls ``C_RETURN`` replies with a timeout
    instead of blocking forever, and verifies at shutdown that every
    thread actually joined.  All failures surface as a ``RuntimeError``
    chaining the worker's original exception.

    ``reply_timeout`` bounds how long the master waits for one
    ``C_RETURN`` reply; ``join_timeout`` bounds the shutdown join per
    worker.  Both exist so a wedged worker turns into a clean error
    within a known wall-clock instead of a hang.
    """

    def __init__(self, *, reply_timeout: float = 60.0, join_timeout: float = 30.0) -> None:
        if reply_timeout <= 0 or join_timeout <= 0:
            raise ValueError("timeouts must be positive")
        self.reply_timeout = reply_timeout
        self.join_timeout = join_timeout

    def execute(
        self,
        result: SimResult,
        grid: BlockGrid,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
    ) -> tuple[np.ndarray, RuntimeStats]:
        """Replay ``result``'s port order; returns (final C, stats)."""
        workers = [_WorkerThread(i) for i in range(result.platform.p)]
        transport = _Threads(workers)
        with trace("runtime.execute", workers=result.platform.p, events=len(result.port_events)):
            for wt in workers:
                wt.start()
            t0 = time.perf_counter()
            try:
                master_c, log = run_master(result, grid, a, b, c, transport, self.reply_timeout)
            finally:
                for wt in workers:
                    wt.inbox.put(Shutdown())
                for wt in workers:
                    wt.join(timeout=self.join_timeout)
        transport.check_health()
        stuck = [wt.widx for wt in workers if wt.is_alive()]
        if stuck:
            # a thread that outlived its join has the pool in an unknown
            # state; stats computed over it would be lies
            raise RuntimeError(
                f"worker thread(s) {stuck} still alive "
                f"{self.join_timeout:g}s after shutdown; refusing to "
                "report stats for a half-dead pool"
            )
        compute = _union([iv for wt in workers for iv in wt.log.compute])
        port_busy = log.port_busy  # one master: already disjoint and sorted
        stats = RuntimeStats(
            wall_seconds=time.perf_counter() - t0,
            messages=log.messages,
            updates_per_worker={wt.widx: wt.log.updates for wt in workers},
            queue_wait_per_worker={wt.widx: wt.log.queue_wait for wt in workers},
            compute_seconds_per_worker={wt.widx: wt.log.compute_seconds for wt in workers},
            send_seconds=sum(hi - lo for lo, hi in port_busy),
            overlap_seconds=_intersection_seconds(compute, port_busy),
        )
        timer("runtime.compute_seconds").add(stats.compute_seconds)
        timer("runtime.send_seconds").add(stats.send_seconds)
        gauge("runtime.overlap_fraction").set(stats.overlap_fraction)
        return master_c, stats
