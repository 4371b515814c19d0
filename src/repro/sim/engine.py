"""The one-port discrete-event engine.

The master owns a single communication port: at any instant it is sending
to, or receiving from, at most one worker (Bhat-Raghavendra-Prasanna's
one-port model, which the paper's MPI experiments obey).  Worker timelines
are deterministic recurrences of the port schedule (see
:mod:`repro.sim.worker_state`), so the engine is a simple sequential loop:
the plan's port policy picks which worker's next pipeline message to post,
the engine computes its legal start time (buffer rules), occupies the port,
and updates the worker's compute timeline.

The engine doubles as the *what-if* evaluator of the incremental resource
selection heuristics of Section 5: :meth:`Engine.clone` produces a cheap
copy on which candidate chunks can be appended and posted.  For bulk
evaluation (the experiment layer, selection scoring) prefer
:mod:`repro.sim.fastpath`, which replays plans over flat arrays with
bit-identical results and supports O(1) checkpoint/rollback what-ifs
instead of per-candidate clones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk
from ..core.ops import ComputeEvent, MsgKind, PortEvent
from ..platform.model import Platform
from .worker_state import CMode, HeadMsg, WorkerSim

__all__ = ["Engine", "WorkerStats", "SimResult", "simulate"]


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


class Engine:
    """Incremental one-port simulator over a platform.

    Parameters
    ----------
    platform:
        The star platform.
    depths:
        Per-worker prefetch depth (from the memory layout); default 2
        (the overlapped maximum re-use layout).
    c_mode:
        Which C messages to simulate (see :class:`CMode`).
    collect_events:
        Keep full port/compute event traces (disable for cheap what-if
        clones used by selection heuristics).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        depths: Sequence[int] | None = None,
        c_mode: CMode = CMode.BOTH,
        collect_events: bool = True,
    ) -> None:
        if depths is None:
            depths = [2] * platform.p
        if len(depths) != platform.p:
            raise ValueError("need one prefetch depth per worker")
        self.platform = platform
        self.port_free = 0.0
        self.port_busy = 0.0
        self.blocks_through_port = 0
        self.total_updates = 0
        self.collect_events = collect_events
        self.workers = [
            WorkerSim(platform[i], depths[i], c_mode) for i in range(platform.p)
        ]
        self.port_events: list[PortEvent] = []
        self.compute_events: list[ComputeEvent] = []
        self.all_chunks: list[Chunk] = []
        self.last_end = 0.0

    # ------------------------------------------------------------------
    # assignment and stepping
    # ------------------------------------------------------------------
    def assign_chunk(self, widx: int, chunk: Chunk) -> None:
        """Append ``chunk`` to worker ``widx``'s pipeline."""
        if chunk.worker != widx:
            raise ValueError(f"chunk {chunk.cid} owned by {chunk.worker}, assigned to {widx}")
        self.workers[widx].assign(chunk)
        self.all_chunks.append(chunk)

    def head(self, widx: int) -> HeadMsg | None:
        return self.workers[widx].head()

    def has_pending(self, widx: int) -> bool:
        """True when worker ``widx`` still has messages to post."""
        return self.workers[widx].has_pending

    def legal_start(self, widx: int) -> float:
        """Earliest start of worker ``widx``'s head message (which must exist)."""
        ws = self.workers[widx]
        msg = ws.head()
        if msg is None:
            raise RuntimeError(f"worker {widx} has no pending message")
        return ws.legal_start(msg)

    def effective_start(self, widx: int) -> float:
        """Earliest start accounting for the port being busy."""
        return max(self.port_free, self.legal_start(widx))

    def post_next(self, widx: int, min_start: float = 0.0) -> PortEvent:
        """Post worker ``widx``'s next pipeline message on the port.

        ``min_start`` adds an external availability floor (the dynamic
        layer's crash/join windows); the default 0.0 leaves the start time
        bit-identical to the two-way ``max``.
        """
        ws = self.workers[widx]
        msg = ws.head()
        if msg is None:
            raise RuntimeError(f"worker {widx} has no pending message to post")
        start = max(self.port_free, ws.legal_start(msg))
        if min_start > start:
            start = min_start
        end = start + msg.nblocks * ws.worker.c
        self.port_free = end
        self.port_busy += end - start
        self.blocks_through_port += msg.nblocks
        comp = ws.post(msg, start, end)
        if comp is not None:
            self.total_updates += comp.updates
            self.last_end = max(self.last_end, comp.end)
            if self.collect_events:
                self.compute_events.append(comp)
        self.last_end = max(self.last_end, end)
        evt = PortEvent(start, end, widx, msg.kind, msg.chunk.cid, msg.round_idx, msg.nblocks)
        if self.collect_events:
            self.port_events.append(evt)
        return evt

    @property
    def pending_workers(self) -> list[int]:
        """Workers that still have messages to post."""
        return [i for i, ws in enumerate(self.workers) if ws.has_pending]

    @property
    def all_done(self) -> bool:
        return not any(ws.has_pending for ws in self.workers)

    # ------------------------------------------------------------------
    def clone(self) -> "Engine":
        """Cheap copy (no event collection) for what-if evaluation."""
        other = Engine.__new__(Engine)
        other.platform = self.platform
        other.port_free = self.port_free
        other.port_busy = self.port_busy
        other.blocks_through_port = self.blocks_through_port
        other.total_updates = self.total_updates
        other.collect_events = False
        other.workers = [ws.clone() for ws in self.workers]
        other.port_events = []
        other.compute_events = []
        other.all_chunks = []  # clones only track new work implicitly
        other.last_end = self.last_end
        return other

    # ------------------------------------------------------------------
    def result(self, grid: BlockGrid | None = None, meta: dict | None = None) -> SimResult:
        """Freeze the engine state into a :class:`SimResult`."""
        stats = tuple(
            WorkerStats(
                worker=i,
                chunks=ws.chunks_done,
                blocks_in=ws.blocks_in,
                blocks_out=ws.blocks_out,
                updates=ws.updates_done,
                compute_busy=ws.compute_busy,
                finish=max(ws.c_return_end, ws.last_comp_end),
            )
            for i, ws in enumerate(self.workers)
        )
        return SimResult(
            makespan=self.last_end,
            platform=self.platform,
            grid=grid,
            worker_stats=stats,
            port_busy=self.port_busy,
            total_updates=self.total_updates,
            blocks_through_port=self.blocks_through_port,
            chunks=tuple(self.all_chunks),
            port_events=tuple(self.port_events),
            compute_events=tuple(self.compute_events),
            meta=dict(meta or {}),
        )


def simulate(platform: Platform, plan: "Plan", grid: BlockGrid | None = None) -> SimResult:
    """Run a :class:`~repro.sim.plan.Plan` to completion and return its result.

    The plan's policy chooses the port service order; its optional allocator
    materializes chunks on demand (dynamic algorithms).  Static chunk
    assignments are installed first.
    """
    from .plan import Plan  # local import to avoid a cycle

    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan)!r}")
    engine = Engine(
        platform,
        depths=plan.depths,
        c_mode=plan.c_mode,
        collect_events=plan.collect_events,
    )
    for widx, chunks in enumerate(plan.assignments):
        for ch in chunks:
            engine.assign_chunk(widx, ch)
    policy = plan.policy.fresh()
    allocator = plan.allocator
    while True:
        if allocator is not None:
            allocator.refill_via(engine.has_pending, engine.assign_chunk)
        widx = policy.next_choice(engine)
        if widx is None:
            break
        engine.post_next(widx)
    if not engine.all_done:
        leftover = engine.pending_workers
        raise RuntimeError(f"policy stopped with pending messages on workers {leftover}")
    meta = dict(plan.meta)
    return engine.result(grid=grid, meta=meta)
