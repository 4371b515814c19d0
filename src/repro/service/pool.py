"""Process-per-worker pool speaking the runtime message vocabulary.

Each platform worker becomes one OS process with two ``multiprocessing``
queues: an *inbox* the master sends :class:`~repro.runtime.messages.CChunkMsg`
/ :class:`~repro.runtime.messages.RoundMsg` /
:class:`~repro.runtime.messages.ReturnRequest` / ``Shutdown`` into, and an
*outbox* the worker answers on.  The worker body is the same function the
threaded runtime's workers run, :func:`repro.runtime.loop.run_worker`;
this module only wraps it in a process: true OS-level parallelism and
isolation, so a crashing worker takes down one process, not the master.

Outbox protocol (plain tuples, because exceptions and queues do not
pickle reliably across processes):

* ``("chunk", cid, ndarray)`` — reply to a ``ReturnRequest``;
* ``("error", widx, summary, traceback_text)`` — the worker's loop
  raised; the process exits right after posting this;
* ``("stats", widx, updates, compute_seconds)`` — posted once, in
  response to ``Shutdown``, then the process exits cleanly.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from typing import Iterator

from ..obs import counter
from ..runtime.loop import WorkerLog, run_worker
from ..runtime.messages import Shutdown

__all__ = ["WorkerProcessError", "WorkerHandle", "WorkerPool"]


class WorkerProcessError(RuntimeError):
    """A worker process failed (raised, or died without a word).

    Carries the worker's pool index and, when the worker managed to post
    one, the remote traceback text, which is also chained as the cause.
    """

    def __init__(self, widx: int, summary: str, remote_traceback: str = "") -> None:
        super().__init__(f"worker process {widx} failed: {summary}")
        self.widx = widx
        self.summary = summary
        self.remote_traceback = remote_traceback
        if remote_traceback:
            self.__cause__ = RuntimeError(f"remote traceback:\n{remote_traceback}")


def _worker_main(widx: int, inbox: mp.Queue, outbox: mp.Queue) -> None:
    """One worker process: the shared worker body, reporting on the outbox."""
    log = WorkerLog()
    try:
        run_worker(inbox.get, outbox.put, log)
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        outbox.put(
            ("error", widx, f"{type(exc).__name__}: {exc}", traceback.format_exc())
        )
    else:
        outbox.put(("stats", widx, log.updates, log.compute_seconds))


class WorkerHandle:
    """Master-side handle on one worker process (its queues + liveness)."""

    def __init__(self, widx: int, ctx) -> None:
        self.widx = widx
        self.inbox: mp.Queue = ctx.Queue()
        self.outbox: mp.Queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(widx, self.inbox, self.outbox),
            name=f"repro-worker-{widx}",
            daemon=True,
        )

    def start(self) -> None:
        self.process.start()

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def inject(self, obj) -> None:
        """Put an arbitrary object on the inbox.

        Exists for fault-injection tests: anything outside the message
        vocabulary makes the worker raise ``TypeError`` and post an
        ``("error", ...)`` tuple.
        """
        self.inbox.put(obj)


class WorkerPool:
    """``p`` worker processes behind queues, one per platform worker.

    A context manager: ``with WorkerPool(p) as pool: ...`` starts every
    process on entry and shuts the survivors down on exit (``Shutdown``
    then join; stragglers are terminated).  Final per-worker update
    counts and compute seconds, as reported by cleanly-exiting workers,
    are collected into :attr:`final_stats`.
    """

    def __init__(self, p: int, *, context: str | None = None) -> None:
        if p < 1:
            raise ValueError("a pool needs at least one worker process")
        ctx = mp.get_context(context)
        self.workers = [WorkerHandle(i, ctx) for i in range(p)]
        #: widx -> (updates, compute_seconds) from clean shutdowns.
        self.final_stats: dict[int, tuple[int, float]] = {}
        self._started = False
        self._closed = False

    @property
    def p(self) -> int:
        return len(self.workers)

    def __len__(self) -> int:
        return len(self.workers)

    def __getitem__(self, widx: int) -> WorkerHandle:
        return self.workers[widx]

    def __iter__(self) -> Iterator[WorkerHandle]:
        return iter(self.workers)

    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        for handle in self.workers:
            handle.start()
        return self

    def close(self, join_timeout: float = 10.0) -> None:
        """Shut every live worker down; terminate any that won't."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            if handle.is_alive():
                handle.inbox.put(Shutdown())
        deadline = time.perf_counter() + join_timeout
        for handle in self.workers:
            # drain the outbox while waiting: the worker's final "stats"
            # tuple may be stuck behind a queue the master never read
            while handle.is_alive() and time.perf_counter() < deadline:
                self._drain(handle)
                handle.process.join(timeout=0.05)
            self._drain(handle)
            if handle.is_alive():
                counter("service.workers_terminated").inc()
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            # nobody reads this inbox any more; without this, interpreter
            # exit joins its feeder thread, which blocks forever writing
            # unread messages into a dead worker's pipe
            handle.inbox.cancel_join_thread()

    def _drain(self, handle: WorkerHandle) -> None:
        import queue as _q

        while True:
            try:
                item = handle.outbox.get_nowait()
            except (_q.Empty, OSError, ValueError):
                return
            if item and item[0] == "stats":
                _tag, widx, updates, compute_seconds = item
                self.final_stats[widx] = (updates, compute_seconds)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
