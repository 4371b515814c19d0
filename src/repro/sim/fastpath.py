"""Fast-path simulation: flat-array replay of a plan.

:class:`FastEngine` is the per-message engine behind every traced run,
every allocator plan and the dynamic driver.  It keeps the one-port
recurrence over flat per-worker scalar arrays:

* chunk pipelines are pre-digested into ``(cid, c_blocks, nblocks[],
  updates[])`` tuples, so no per-message objects are created;
* each worker's head message (legal start, size, cid) is cached and
  refreshed only when that worker posts or receives a chunk -- a port
  decision is a tight scan over ``p`` floats;
* one posting loop, ``FastEngine._drain``, interprets both plan policies
  (:class:`StrictOrderPolicy`, :class:`ReadyPolicy` with its one-key
  priority) and the demand allocators, so every plan runs here; every
  window of the dynamic driver goes through the same loop, which also
  records the port and compute events of every traced run
  (:func:`~repro.sim.engine.simulate` and the dynamic driver's
  ``record_events``) and reports each ``C_RETURN`` to a decode-completion
  criterion.

The batch engine and its kernels (:mod:`repro.sim.batch`) perform the same
floating-point operations in the same order, so makespans, per-worker
statistics and port busy time are **bit-identical** across engines.  The
equivalence and golden-regression test walls
(``tests/test_fastpath_equivalence.py``, ``tests/test_regression_golden.py``)
pin this against a per-message event engine kept on the test side as the
oracle (``tests/reference_engine.py``).
"""

from __future__ import annotations

from itertools import islice, repeat
from math import inf as _INF
from typing import Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk
from ..core.ops import ComputeEvent, MsgKind, PortEvent
from ..obs import counter, stopwatch
from ..platform.model import Platform
from .allocator import PanelDemandAllocator
from .engine import SimResult, WorkerStats
from .plan import Plan
from .policies import StrictOrderPolicy, selection_order_priority
from .worker_state import CMode

__all__ = ["FastEngine", "fast_simulate"]

#: Pre-digested chunk record: (chunk, cid, c_blocks, nblocks per round,
#: updates per round, number of rounds).
_ChunkRec = tuple[Chunk, int, int, tuple[int, ...], tuple[int, ...], int]


class FastEngine:
    """One-port simulator over flat per-worker arrays (event traces while
    ``_log`` is set).

    The buffer rules are :mod:`repro.sim.worker_state`'s.  See the module
    docstring for the bit-identity contract.
    """

    __slots__ = (
        "platform",
        "c_mode",
        "port_free",
        "port_busy",
        "blocks_through_port",
        "total_updates",
        "last_end",
        "all_chunks",
        "_p",
        "_c",
        "_w",
        "_depth",
        "_chunks",
        "_pos",
        "_stage",
        "_ring",
        "_ring_pos",
        "_comp_free",
        "_last_comp_end",
        "_c_return_end",
        "_blocks_in",
        "_blocks_out",
        "_updates_done",
        "_compute_busy",
        "_chunks_done",
        "_head_legal",
        "_head_nblocks",
        "_head_cid",
        "_head_stage_kind",
        "_round_cache",
        "_init_stage",
        "_log",
    )

    # head kind codes (per pipeline stage: C_SEND, a round, C_RETURN)
    _K_NONE, _K_C_SEND, _K_ROUND, _K_C_RETURN = 0, 1, 2, 3

    def __init__(
        self,
        platform: Platform,
        *,
        depths: Sequence[int] | None = None,
        c_mode: CMode = CMode.BOTH,
    ) -> None:
        p = platform.p
        if depths is None:
            depths = [2] * p
        if len(depths) != p:
            raise ValueError("need one prefetch depth per worker")
        if any(d < 1 for d in depths):
            raise ValueError("prefetch depth must be >= 1")
        self.platform = platform
        self.c_mode = c_mode
        self.port_free = 0.0
        self.port_busy = 0.0
        self.blocks_through_port = 0
        self.total_updates = 0
        self.last_end = 0.0
        self.all_chunks: list[Chunk] = []
        self._p = p
        self._c = [platform[i].c for i in range(p)]
        self._w = [platform[i].w for i in range(p)]
        self._depth = list(depths)
        self._init_stage = 0 if c_mode is not CMode.NONE else 1
        self._chunks: list[list[_ChunkRec]] = [[] for _ in range(p)]
        self._pos = [0] * p
        self._stage = [self._init_stage] * p
        self._ring: list[list[float]] = [[0.0] * d for d in self._depth]
        self._ring_pos = [0] * p
        self._comp_free = [0.0] * p
        self._last_comp_end = [0.0] * p
        self._c_return_end = [0.0] * p
        self._blocks_in = [0] * p
        self._blocks_out = [0] * p
        self._updates_done = [0] * p
        self._compute_busy = [0.0] * p
        self._chunks_done = [0] * p
        # cached head message per worker (kind == _K_NONE when drained)
        self._head_legal = [0.0] * p
        self._head_nblocks = [0] * p
        self._head_cid = [-1] * p
        self._head_stage_kind = [self._K_NONE] * p
        # rounds tuples are shared across chunks (the builders in
        # repro.core.chunks are memoized), so digest each distinct tuple
        # once, keyed by identity; the record keeps the tuple alive so ids
        # cannot be recycled while this engine exists.
        self._round_cache: dict[int, tuple] = {}
        # (port_events, compute_events) appended to by every post, or None
        self._log: tuple[list[PortEvent], list[ComputeEvent]] | None = None

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _digest(self, chunk: Chunk) -> _ChunkRec:
        rounds = chunk.rounds
        key = id(rounds)
        cached = self._round_cache.get(key)
        if cached is None:
            nblocks = tuple(rd.a_blocks + rd.b_blocks for rd in rounds)
            updates = tuple(rd.updates for rd in rounds)
            cached = (rounds, nblocks, updates)
            self._round_cache[key] = cached
        return (chunk, chunk.cid, chunk.h * chunk.w, cached[1], cached[2], len(cached[1]))

    def assign_chunk(self, widx: int, chunk: Chunk) -> None:
        """Append ``chunk`` to worker ``widx``'s pipeline."""
        if chunk.worker != widx:
            raise ValueError(f"chunk {chunk.cid} owned by {chunk.worker}, assigned to {widx}")
        lst = self._chunks[widx]
        lst.append(self._digest(chunk))
        self.all_chunks.append(chunk)
        if self._pos[widx] == len(lst) - 1:
            # worker was drained; its head is now this chunk's first message
            self._refresh_head(widx)

    def has_pending(self, widx: int) -> bool:
        """True when worker ``widx`` still has messages to post."""
        return self._pos[widx] < len(self._chunks[widx])

    @property
    def pending_workers(self) -> list[int]:
        return [i for i in range(self._p) if self.has_pending(i)]

    @property
    def all_done(self) -> bool:
        return not any(self.has_pending(i) for i in range(self._p))

    # ------------------------------------------------------------------
    # head cache
    # ------------------------------------------------------------------
    def _refresh_head(self, i: int) -> None:
        lst = self._chunks[i]
        pos = self._pos[i]
        if pos >= len(lst):
            self._head_stage_kind[i] = self._K_NONE
            return
        _chunk, cid, c_blocks, nblocks, _updates, nr = lst[pos]
        st = self._stage[i]
        if st == 0:
            self._head_stage_kind[i] = self._K_C_SEND
            self._head_legal[i] = self._c_return_end[i]
            self._head_nblocks[i] = c_blocks
        elif st <= nr:
            self._head_stage_kind[i] = self._K_ROUND
            # oldest entry of the compute ring: the compute end of round
            # (rounds posted - depth) once the ring is full, and one of its
            # initial 0.0s until then
            self._head_legal[i] = self._ring[i][self._ring_pos[i]]
            self._head_nblocks[i] = nblocks[st - 1]
        else:
            self._head_stage_kind[i] = self._K_C_RETURN
            self._head_legal[i] = self._last_comp_end[i]
            self._head_nblocks[i] = c_blocks
        self._head_cid[i] = cid

    # ------------------------------------------------------------------
    # full-state cloning and parameter rescaling (dynamic-platform layer)
    # ------------------------------------------------------------------
    def clone(self) -> "FastEngine":
        """Full copy for what-if continuation scoring (O(p + chunks)).

        The clone can diverge arbitrarily — the adaptive rescheduler uses
        it to score candidate replans by running each to completion.
        Chunk records are shared (immutable); per-worker scalar arrays are
        copied by value.
        """
        other = FastEngine.__new__(FastEngine)
        other.platform = self.platform
        other.c_mode = self.c_mode
        other.port_free = self.port_free
        other.port_busy = self.port_busy
        other.blocks_through_port = self.blocks_through_port
        other.total_updates = self.total_updates
        other.last_end = self.last_end
        other.all_chunks = list(self.all_chunks)
        other._p = self._p
        other._c = list(self._c)
        other._w = list(self._w)
        other._depth = list(self._depth)
        other._init_stage = self._init_stage
        other._chunks = [list(lst) for lst in self._chunks]
        other._pos = list(self._pos)
        other._stage = list(self._stage)
        other._ring = [list(ring) for ring in self._ring]
        other._ring_pos = list(self._ring_pos)
        other._comp_free = list(self._comp_free)
        other._last_comp_end = list(self._last_comp_end)
        other._c_return_end = list(self._c_return_end)
        other._blocks_in = list(self._blocks_in)
        other._blocks_out = list(self._blocks_out)
        other._updates_done = list(self._updates_done)
        other._compute_busy = list(self._compute_busy)
        other._chunks_done = list(self._chunks_done)
        other._head_legal = list(self._head_legal)
        other._head_nblocks = list(self._head_nblocks)
        other._head_cid = list(self._head_cid)
        other._head_stage_kind = list(self._head_stage_kind)
        other._round_cache = self._round_cache
        other._log = None  # what-if continuations are never recorded
        return other

    def set_worker_params(self, widx: int, c: float, w: float) -> None:
        """Rescale worker ``widx``'s link and compute costs in place.

        Applies to messages posted (and computes scheduled) *after* the
        call: the dynamic layer's piecewise-constant platform events.
        """
        if c <= 0 or w <= 0:
            raise ValueError("c and w must be positive")
        self._c[widx] = c
        self._w[widx] = w

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def result(self, grid: BlockGrid | None = None, meta: dict | None = None) -> SimResult:
        """Freeze the state into a :class:`SimResult`, with the logged
        events when ``_log`` is set (empty traces otherwise)."""
        log = self._log or ((), ())
        stats = tuple(
            WorkerStats(
                worker=i,
                chunks=self._chunks_done[i],
                blocks_in=self._blocks_in[i],
                blocks_out=self._blocks_out[i],
                updates=self._updates_done[i],
                compute_busy=self._compute_busy[i],
                finish=max(self._c_return_end[i], self._last_comp_end[i]),
            )
            for i in range(self._p)
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
            port_events=tuple(log[0]),
            compute_events=tuple(log[1]),
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------------
    # plan replay
    # ------------------------------------------------------------------
    def _refill(self, allocator: PanelDemandAllocator) -> None:
        allocator.refill_via(self.has_pending, self.assign_chunk)

    def run_plan(self, plan: Plan) -> None:
        """Drive the plan's policy to completion.  A demand allocator is
        consumed by the replay, so it runs on a clone and the plan can be
        replayed again."""
        for widx, chunks in enumerate(plan.assignments):
            for ch in chunks:
                self.assign_chunk(widx, ch)
        policy = plan.policy
        floors = [0.0] * self._p
        if isinstance(policy, StrictOrderPolicy):
            self._drain(policy.order, floors, _INF)
        else:
            allocator = None if plan.allocator is None else plan.allocator.clone()
            self._drain(None, floors, _INF, allocator=allocator, priority=policy.priority)
        if not self.all_done:
            leftover = self.pending_workers
            raise RuntimeError(f"policy stopped with pending messages on workers {leftover}")

    def _drain(
        self,
        order: Sequence[int] | None,
        floors: Sequence[float],
        until: float,
        first: int = 0,
        allocator: PanelDemandAllocator | None = None,
        priority: str | None = None,
        completion=None,
    ) -> tuple[int, float]:
        """The posting loop: post messages until the run drains or the next
        message would start at or after ``until`` (an exclusive horizon).
        Returns ``(position, start)``: the position reached in ``order``
        and the start time of the message the loop stopped before -- ``inf``
        when the run drained, when only workers whose floor is ``inf`` still
        hold messages, or when ``completion`` was met.

        With an ``order``, the workers come from ``order[first:]`` (strict
        replay; an entry naming a drained worker raises).  With
        ``order=None`` each message goes to the pending worker with the
        least (effective start, ``priority`` key) -- an ascending index
        scan with strict improvement, so remaining ties go to the lowest
        index.

        ``floors`` are per-worker start floors: a floor raises the worker's
        legal start before it is compared, so it feeds both the effective
        start and the ``legal_start`` key, and a worker whose floor is
        ``inf`` is never served.  Static replays pass zero floors and ``until=inf``; the
        dynamic driver passes its crash-window/frontier floors and the next
        timeline event's time.

        The allocator is refilled on entry and then once per drain, not
        before every message: after a refill each
        allocator worker either has a pending message or can get no more
        work (its cursor and the panel supply are empty, which stays so),
        and a post only changes the posted worker, so a refill is a no-op
        until a post leaves its worker without a head message.

        While ``_log`` holds a ``(port_events, compute_events)`` pair every
        post appends its port event (and, for a round, its compute event).

        ``completion`` is the dynamic driver's decode criterion: its
        ``on_return(cid, end)`` sees every posted ``C_RETURN`` before the
        allocator refills (the coded allocator issues from the decode
        state), and the loop stops once it is ``satisfied``.
        """
        kinds = self._head_stage_kind
        heads = self._head_legal
        head_nblocks = self._head_nblocks
        cids = self._head_cid
        chunks = self._chunks
        pos_arr = self._pos
        stage_arr = self._stage
        rings = self._ring
        ring_pos = self._ring_pos
        comp_free = self._comp_free
        last_comp_end = self._last_comp_end
        c_return_end = self._c_return_end
        blocks_in = self._blocks_in
        blocks_out = self._blocks_out
        updates_done = self._updates_done
        compute_busy = self._compute_busy
        chunks_done = self._chunks_done
        c_arr = self._c
        w_arr = self._w
        depth = self._depth
        refresh = self._refresh_head
        both = self.c_mode is CMode.BOTH
        init_stage = self._init_stage
        log = self._log
        p = self._p
        drained, k_round, k_send = self._K_NONE, self._K_ROUND, self._K_C_SEND
        k_return = self._K_C_RETURN
        by_cid = priority == selection_order_priority
        # static replays (zero floors, no horizon) skip the window test
        windowed = until != _INF or any(floors)
        port_free = self.port_free
        port_busy = self.port_busy
        through = self.blocks_through_port
        total_updates = self.total_updates
        last_end = self.last_end
        stop_start = _INF
        if order is None:
            picks = repeat(-1)  # -1: pick by the ready scan
            stop = first
            if allocator is not None:
                self._refill(allocator)
        else:
            picks = islice(order, first, None) if first else order
            stop = len(order)
        try:
            for opos, widx in enumerate(picks, first):
                if widx < 0:
                    start = 0.0
                    best_key: float | int = 0
                    for i in range(p):
                        if kinds[i] == drained:
                            continue
                        legal = heads[i]
                        f = floors[i]
                        if f > legal:
                            legal = f
                        eff = port_free if port_free > legal else legal
                        key = cids[i] if by_cid else legal
                        if widx < 0 or eff < start or (eff == start and key < best_key):
                            widx = i
                            start = eff
                            best_key = key
                    if widx < 0:
                        break
                    if start >= until:
                        stop_start = start
                        break
                    kind = kinds[widx]
                else:
                    kind = kinds[widx]
                    if kind == drained:
                        raise RuntimeError(
                            f"strict order names worker {widx} at position {opos} "
                            "but it has no pending message"
                        )
                    legal = heads[widx]
                    if windowed:
                        floor = floors[widx]
                        if floor > legal:
                            legal = floor
                    start = port_free if port_free > legal else legal
                    if start >= until:
                        stop, stop_start = opos, start
                        break
                # post: occupy the port, schedule a round's compute, advance
                nblocks = head_nblocks[widx]
                end = start + nblocks * c_arr[widx]
                port_free = end
                port_busy += end - start
                through += nblocks
                st = stage_arr[widx]
                pos = pos_arr[widx]
                rec = chunks[widx][pos]
                if kind == k_round:
                    updates = rec[4][st - 1]
                    cf = comp_free[widx]
                    cs = end if end > cf else cf
                    ce = cs + updates * w_arr[widx]
                    ring = rings[widx]
                    rp = ring_pos[widx]
                    ring[rp] = ce
                    ring_pos[widx] = (rp + 1) % depth[widx]
                    comp_free[widx] = ce
                    last_comp_end[widx] = ce
                    blocks_in[widx] += nblocks
                    updates_done[widx] += updates
                    compute_busy[widx] += ce - cs
                    total_updates += updates
                    if ce > last_end:
                        last_end = ce
                    if log is not None:
                        log[0].append(
                            PortEvent(start, end, widx, MsgKind.ROUND, rec[1], st - 1, nblocks)
                        )
                        log[1].append(ComputeEvent(cs, ce, widx, rec[1], st - 1, updates))
                    last = st == rec[5] and not both
                else:
                    if kind == k_send:
                        blocks_in[widx] += nblocks
                        mkind = MsgKind.C_SEND
                        last = False
                    else:
                        blocks_out[widx] += nblocks
                        c_return_end[widx] = end
                        mkind = MsgKind.C_RETURN
                        last = True
                    if log is not None:
                        log[0].append(PortEvent(start, end, widx, mkind, rec[1], -1, nblocks))
                if end > last_end:
                    last_end = end
                if last:
                    pos_arr[widx] = pos + 1
                    stage_arr[widx] = init_stage
                    chunks_done[widx] += 1
                else:
                    stage_arr[widx] = st + 1
                refresh(widx)
                if completion is not None and kind == k_return:
                    completion.on_return(rec[1], end)
                    if completion.satisfied:
                        stop = opos + 1
                        break
                if allocator is not None and kinds[widx] == drained:
                    self._refill(allocator)
        finally:
            self.port_free = port_free
            self.port_busy = port_busy
            self.blocks_through_port = through
            self.total_updates = total_updates
            self.last_end = last_end
        return stop, stop_start


def fast_simulate(
    platform: Platform,
    plan: Plan,
    grid: BlockGrid | None = None,
) -> SimResult:
    """Run ``plan`` on the fast path and return its :class:`SimResult`.

    :func:`repro.sim.engine.simulate` without the event traces: makespan,
    per-worker statistics, port busy time and the chunk list are the same;
    the ``port_events`` / ``compute_events`` tuples are always empty.

    The stepping backend is the process's (see :mod:`repro.sim.kernels`).
    Under a whole-run backend, batch-replayable plans route through a
    single-instance :class:`~repro.sim.batch.BatchEngine` so the step loop
    runs compiled; allocator-driven plans stay on :class:`FastEngine`.
    Results are bit-identical either way.
    """
    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan)!r}")
    counter("sim.fast_runs").inc()
    # late imports: batch.py imports fast_simulate for its scalar fallback
    from .kernels import resolve_kernel

    if resolve_kernel().whole_run:
        from .batch import supports_batch, BatchEngine

        if supports_batch(plan):
            engine = BatchEngine([(platform, plan)])
            return engine.run().outcomes()[0].to_sim_result(platform, plan, grid)
    with stopwatch("sim.fast_seconds"):
        engine = FastEngine(platform, depths=plan.depths, c_mode=plan.c_mode)
        engine.run_plan(plan)
    return engine.result(grid=grid, meta=dict(plan.meta))
