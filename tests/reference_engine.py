"""Test-side oracle: the per-message one-port event engine.

``repro.sim.engine.simulate`` replays plans on the flat-array
:class:`~repro.sim.fastpath.FastEngine`, whose one posting loop also
records the event traces.  This module keeps a second, independent
interpretation of the same recurrence, written for clarity rather than
speed, so that every equivalence wall compares two implementations:

* :class:`WorkerSim` -- one object per worker, its pipeline and buffer
  rules (:mod:`repro.sim.worker_state` states them);
* :class:`HeadMsg` -- the next message of a worker's pipeline,
  materialized every time a policy looks at the worker;
* :class:`Engine` -- the one-port loop posting one message at a time and
  recording every port and compute event;
* :class:`StrictCursor` / :class:`ReadyChoice` -- the two plan policies'
  ``next_choice`` interpretations;
* :func:`simulate_reference` -- a plan replayed on all of the above;
* :func:`post_next` -- one message posted on a
  :class:`~repro.sim.fastpath.FastEngine`, the fast engine's side of the
  per-message walls.

``tests/dynamic_oracle.py`` drives the same :class:`Engine` under the
dynamic driver's timeline semantics, one message at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from math import inf
from typing import Sequence

from repro.core.blocks import BlockGrid
from repro.core.chunks import Chunk
from repro.core.ops import ComputeEvent, MsgKind, PortEvent
from repro.platform.model import Platform, Worker
from repro.sim.engine import SimResult, WorkerStats
from repro.sim.fastpath import FastEngine
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy, selection_order_priority
from repro.sim.worker_state import CMode


@dataclass(frozen=True)
class HeadMsg:
    """The next message of a worker's pipeline."""

    kind: MsgKind
    nblocks: int
    round_idx: int  # -1 for C messages
    chunk: Chunk


class WorkerSim:
    """Mutable simulation state of one worker."""

    __slots__ = (
        "worker",
        "depth",
        "c_mode",
        "chunks",
        "chunk_pos",
        "stage",
        "rounds_posted",
        "comp_ring",
        "comp_free",
        "last_comp_end",
        "c_return_end",
        "blocks_in",
        "blocks_out",
        "updates_done",
        "compute_busy",
        "chunks_done",
        "messages_posted",
    )

    def __init__(self, worker: Worker, depth: int, c_mode: CMode = CMode.BOTH) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.worker = worker
        self.depth = depth
        self.c_mode = c_mode
        self.chunks: list[Chunk] = []
        self.chunk_pos = 0
        # stage within current chunk: 0 = C_SEND, 1..R = round (stage-1), R+1 = C_RETURN
        self.stage = 0 if c_mode is not CMode.NONE else 1
        self.rounds_posted = 0
        self.comp_ring: deque[float] = deque(maxlen=depth)
        self.comp_free = 0.0
        self.last_comp_end = 0.0
        self.c_return_end = 0.0
        self.blocks_in = 0
        self.blocks_out = 0
        self.updates_done = 0
        self.compute_busy = 0.0
        self.chunks_done = 0
        self.messages_posted = 0

    def assign(self, chunk: Chunk) -> None:
        """Append a chunk to this worker's pipeline."""
        self.chunks.append(chunk)

    @property
    def has_pending(self) -> bool:
        """True when at least one message remains to post."""
        return self.chunk_pos < len(self.chunks)

    def head(self) -> HeadMsg | None:
        """Describe the next pipeline message, or ``None`` when drained."""
        if not self.has_pending:
            return None
        ch = self.chunks[self.chunk_pos]
        nr = len(ch.rounds)
        if self.stage == 0:
            return HeadMsg(MsgKind.C_SEND, ch.c_blocks, -1, ch)
        if self.stage <= nr:
            rd = ch.rounds[self.stage - 1]
            return HeadMsg(MsgKind.ROUND, rd.in_blocks, self.stage - 1, ch)
        return HeadMsg(MsgKind.C_RETURN, ch.c_blocks, -1, ch)

    def legal_start(self, msg: HeadMsg) -> float:
        """Earliest time the head message may start, per the buffer rules."""
        if msg.kind is MsgKind.C_SEND:
            return self.c_return_end
        if msg.kind is MsgKind.ROUND:
            if self.rounds_posted < self.depth:
                return 0.0
            # ring holds compute ends of the last `depth` rounds;
            # its leftmost entry is round (rounds_posted - depth).
            return self.comp_ring[0]
        # C_RETURN: all rounds of the chunk have been posted already
        return self.last_comp_end

    def post(self, msg: HeadMsg, start: float, end: float) -> ComputeEvent | None:
        """Commit the head message as occupying the port on [start, end].

        For rounds, schedules the corresponding compute and returns its
        event; otherwise returns ``None``.
        """
        self.messages_posted += 1
        compute_evt: ComputeEvent | None = None
        if msg.kind is MsgKind.ROUND:
            rd = msg.chunk.rounds[msg.round_idx]
            cs = max(end, self.comp_free)
            ce = cs + rd.updates * self.worker.w
            self.comp_ring.append(ce)
            self.comp_free = ce
            self.last_comp_end = ce
            self.rounds_posted += 1
            self.blocks_in += msg.nblocks
            self.updates_done += rd.updates
            self.compute_busy += ce - cs
            compute_evt = ComputeEvent(cs, ce, self.worker.index, msg.chunk.cid, msg.round_idx, rd.updates)
        elif msg.kind is MsgKind.C_SEND:
            self.blocks_in += msg.nblocks
        else:  # C_RETURN
            self.blocks_out += msg.nblocks
            self.c_return_end = end
        self._advance(msg)
        return compute_evt

    def _advance(self, msg: HeadMsg) -> None:
        # the chunk is done after its C_RETURN, or after its last round
        # when there is no C_RETURN stage
        last_round = msg.kind is MsgKind.ROUND and msg.round_idx == len(msg.chunk.rounds) - 1
        if (last_round and self.c_mode is not CMode.BOTH) or msg.kind is MsgKind.C_RETURN:
            self.chunk_pos += 1
            self.stage = 0 if self.c_mode is not CMode.NONE else 1
            self.chunks_done += 1
        else:
            self.stage += 1


class Engine:
    """Incremental one-port simulator over a platform.

    ``depths`` are the per-worker prefetch depths (default 2, the
    overlapped maximum re-use layout); ``c_mode`` says which C messages
    to simulate.  The engine records every port and compute event.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        depths: Sequence[int] | None = None,
        c_mode: CMode = CMode.BOTH,
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
        self.workers = [
            WorkerSim(platform[i], depths[i], c_mode) for i in range(platform.p)
        ]
        self.port_events: list[PortEvent] = []
        self.compute_events: list[ComputeEvent] = []
        self.all_chunks: list[Chunk] = []
        self.last_end = 0.0

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
            self.compute_events.append(comp)
        self.last_end = max(self.last_end, end)
        evt = PortEvent(start, end, widx, msg.kind, msg.chunk.cid, msg.round_idx, msg.nblocks)
        self.port_events.append(evt)
        return evt

    def set_worker_params(self, widx: int, c: float, w: float) -> None:
        """Reprice worker ``widx`` for the messages posted (and computes
        scheduled) from now on: the dynamic layer's timeline events."""
        ws = self.workers[widx]
        ws.worker = replace(ws.worker, c=c, w=w)

    @property
    def pending_workers(self) -> list[int]:
        """Workers that still have messages to post."""
        return [i for i, ws in enumerate(self.workers) if ws.has_pending]

    @property
    def all_done(self) -> bool:
        return not any(ws.has_pending for ws in self.workers)

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


class StrictCursor:
    """A :class:`StrictOrderPolicy` interpreted one message at a time.

    Each occurrence of a worker index consumes that worker's next pipeline
    message; the engine idles the port until its buffers are free.
    """

    def __init__(self, order: Sequence[int]) -> None:
        self.order = list(order)
        self._pos = 0

    def next_choice(self, eng: Engine) -> int | None:
        """Index of the worker whose head message to post, or ``None`` when
        the schedule is complete."""
        if self._pos >= len(self.order):
            return None
        widx = self.order[self._pos]
        self._pos += 1
        if eng.head(widx) is None:
            raise RuntimeError(
                f"strict order names worker {widx} at position {self._pos - 1} "
                "but it has no pending message"
            )
        return widx

    def fresh(self) -> "StrictCursor":
        """A copy with its cursor reset, safe to drive a new simulation."""
        return StrictCursor(self.order)


class ReadyChoice:
    """A :class:`ReadyPolicy` interpreted one message at a time: the pending
    worker with the least ``(effective start, priority key)``, ties to the
    lowest index."""

    def __init__(self, priority: str) -> None:
        self.priority = priority

    def next_choice(self, eng: Engine) -> int | None:
        """Index of the pending worker ranked first, or ``None`` when every
        worker has drained."""
        by_cid = self.priority == selection_order_priority
        best: tuple | None = None
        best_widx: int | None = None
        for widx in range(eng.platform.p):
            head = eng.head(widx)
            if head is None:
                continue
            key = (
                eng.effective_start(widx),
                head.chunk.cid if by_cid else eng.legal_start(widx),
            )
            if best is None or key < best:
                best = key
                best_widx = widx
        return best_widx

    def fresh(self) -> "ReadyChoice":
        """Stateless: the choice itself drives any number of simulations."""
        return self


def chooser(policy) -> StrictCursor | ReadyChoice:
    """The per-message interpretation of a plan policy."""
    if isinstance(policy, StrictOrderPolicy):
        return StrictCursor(policy.order)
    return ReadyChoice(policy.priority)


def post_next(engine: FastEngine, widx: int, min_start: float = 0.0) -> None:
    """Post worker ``widx``'s head message on ``engine``: a one-entry strict
    window of its posting loop, with ``min_start`` as every worker's start
    floor.  A drained worker raises the strict-order error."""
    engine._drain((widx,), [min_start] * engine._p, inf)


def simulate_reference(platform: Platform, plan: Plan, grid: BlockGrid | None = None) -> SimResult:
    """Run ``plan`` to completion on the event engine, refilling the
    demand allocator (a clone of the plan's) before every port decision."""
    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan)!r}")
    engine = Engine(platform, depths=plan.depths, c_mode=plan.c_mode)
    for widx, chunks in enumerate(plan.assignments):
        for ch in chunks:
            engine.assign_chunk(widx, ch)
    policy = chooser(plan.policy)
    allocator = None if plan.allocator is None else plan.allocator.clone()
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
    return engine.result(grid=grid, meta=dict(plan.meta))


def assert_same_sequence(got: Sequence, ref: Sequence, what: str) -> None:
    """Exact equality of two long sequences (event traces, chunk lists) that
    fails with the first differing item and the lengths, never a diff of
    the whole sequence."""
    i = next((k for k, (a, b) in enumerate(zip(got, ref)) if a != b), min(len(got), len(ref)))
    assert (len(got), got[i : i + 1]) == (len(ref), ref[i : i + 1]), f"{what} differ at item {i}"


def assert_same_run(got: SimResult, ref: SimResult, *, events: bool = True) -> None:
    """Exact equality of two results: statistics, chunk stream and, with
    ``events``, the port and compute traces, event for event."""
    assert got.makespan == ref.makespan
    assert got.port_busy == ref.port_busy
    assert got.total_updates == ref.total_updates
    assert got.blocks_through_port == ref.blocks_through_port
    assert got.worker_stats == ref.worker_stats
    assert_same_sequence(
        [(c.cid, c.worker, c.i0, c.j0) for c in got.chunks],
        [(c.cid, c.worker, c.i0, c.j0) for c in ref.chunks],
        "chunks",
    )
    if events:
        assert_same_sequence(got.port_events, ref.port_events, "port events")
        assert_same_sequence(got.compute_events, ref.compute_events, "compute events")
