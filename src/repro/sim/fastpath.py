"""Fast-path simulation: flat-array replay of a plan.

The reference :class:`~repro.sim.engine.Engine` is written for clarity: it
materializes a :class:`~repro.sim.worker_state.HeadMsg` object every time a
policy inspects a worker (three times per port decision) and keeps one
:class:`WorkerSim` object per worker.  That is fine for a single traced run
but dominates the wall clock of the experiment layer, where one paper
figure triggers hundreds of what-if simulations (HomI's virtual-platform
search alone runs ~p^3 of them).

:class:`FastEngine` replays the *same* recurrence over flat per-worker
scalar arrays:

* chunk pipelines are pre-digested into ``(cid, c_blocks, nblocks[],
  updates[])`` tuples, so no per-message objects are created;
* each worker's head message (legal start, size, cid) is cached and
  refreshed only when that worker posts or receives a chunk -- a port
  decision is a tight scan over ``p`` floats;
* both plan policies (:class:`StrictOrderPolicy`, :class:`ReadyPolicy`
  with its declarative :class:`~repro.sim.policies.PolicyKeySpec`
  priority) and the demand allocators are interpreted directly, so every
  plan runs here.

Every floating-point operation is performed in exactly the order of the
reference engine, so makespans, per-worker statistics and port busy time
are **bit-identical** -- the equivalence and golden-regression test walls
(``tests/test_fastpath_equivalence.py``, ``tests/test_regression_golden.py``)
pin this.

The module also provides an O(1) incremental what-if facility:
:meth:`FastEngine.checkpoint` / :meth:`FastEngine.restore` snapshot the
scalars touched by appending-and-posting work on a single worker, so
selection-style heuristics can score a candidate by delta-update + rollback
instead of cloning the whole engine per candidate (see also
:class:`repro.schedulers.selection.SelectionState`, which applies the same
idea at chunk granularity).
"""

from __future__ import annotations

from itertools import islice
from math import inf as _INF
from typing import Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk
from ..obs import counter, stopwatch
from ..platform.model import Platform
from .allocator import PanelDemandAllocator
from .engine import SimResult, WorkerStats
from .plan import Plan
from .policies import PolicyKeySpec, StrictOrderPolicy
from .worker_state import CMode

__all__ = ["FastEngine", "fast_simulate"]

#: Pre-digested chunk record: (chunk, cid, c_blocks, nblocks per round,
#: updates per round, number of rounds).
_ChunkRec = tuple[Chunk, int, int, tuple[int, ...], tuple[int, ...], int]


class FastEngine:
    """One-port simulator over flat per-worker arrays (no event traces).

    State and transition rules mirror :class:`~repro.sim.engine.Engine` +
    :class:`~repro.sim.worker_state.WorkerSim` exactly; only the data layout
    differs.  See the module docstring for the bit-identity contract.
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
        "_rounds_posted",
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
    )

    # head kind codes (match the stage tests of WorkerSim.head)
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
        self._rounds_posted = [0] * p
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
            if self._rounds_posted[i] < self._depth[i]:
                self._head_legal[i] = 0.0
            else:
                # oldest entry of the full compute ring == compute end of
                # round (rounds_posted - depth), exactly WorkerSim.comp_ring[0]
                self._head_legal[i] = self._ring[i][self._ring_pos[i]]
            self._head_nblocks[i] = nblocks[st - 1]
        else:
            self._head_stage_kind[i] = self._K_C_RETURN
            self._head_legal[i] = self._last_comp_end[i]
            self._head_nblocks[i] = c_blocks
        self._head_cid[i] = cid

    def legal_start(self, widx: int) -> float:
        """Earliest start of worker ``widx``'s head message (must exist)."""
        if self._head_stage_kind[widx] == self._K_NONE:
            raise RuntimeError(f"worker {widx} has no pending message")
        return self._head_legal[widx]

    def effective_start(self, widx: int) -> float:
        legal = self.legal_start(widx)
        return legal if legal > self.port_free else self.port_free

    # ------------------------------------------------------------------
    # posting
    # ------------------------------------------------------------------
    def post_next(self, widx: int, min_start: float = 0.0) -> None:
        """Post worker ``widx``'s head message on the port (same arithmetic,
        in the same order, as ``Engine.post_next``).

        ``min_start`` adds an external availability floor (the dynamic
        layer's crash/join windows); the default 0.0 leaves the start time
        bit-identical to the two-way ``max``.
        """
        kind = self._head_stage_kind[widx]
        if kind == self._K_NONE:
            raise RuntimeError(f"worker {widx} has no pending message to post")
        legal = self._head_legal[widx]
        nblocks = self._head_nblocks[widx]
        port_free = self.port_free
        start = port_free if port_free > legal else legal
        if min_start > start:
            start = min_start
        end = start + nblocks * self._c[widx]
        self.port_free = end
        self.port_busy += end - start
        self.blocks_through_port += nblocks
        st = self._stage[widx]
        rec = self._chunks[widx][self._pos[widx]]
        nr = rec[5]
        if kind == self._K_ROUND:
            updates = rec[4][st - 1]
            comp_free = self._comp_free[widx]
            cs = end if end > comp_free else comp_free
            ce = cs + updates * self._w[widx]
            ring = self._ring[widx]
            rp = self._ring_pos[widx]
            ring[rp] = ce
            self._ring_pos[widx] = (rp + 1) % self._depth[widx]
            self._comp_free[widx] = ce
            self._last_comp_end[widx] = ce
            self._rounds_posted[widx] += 1
            self._blocks_in[widx] += nblocks
            self._updates_done[widx] += updates
            self._compute_busy[widx] += ce - cs
            self.total_updates += updates
            if ce > self.last_end:
                self.last_end = ce
        elif kind == self._K_C_SEND:
            self._blocks_in[widx] += nblocks
        else:  # C_RETURN
            self._blocks_out[widx] += nblocks
            self._c_return_end[widx] = end
        if end > self.last_end:
            self.last_end = end
        # advance the pipeline (mirrors WorkerSim._advance)
        self._stage[widx] = st + 1
        if kind == self._K_ROUND and st == nr:
            if self.c_mode is not CMode.BOTH:
                self._next_chunk(widx)
        elif kind == self._K_C_RETURN:
            self._next_chunk(widx)
        self._refresh_head(widx)

    def _next_chunk(self, widx: int) -> None:
        self._pos[widx] += 1
        self._stage[widx] = self._init_stage
        self._chunks_done[widx] += 1

    # ------------------------------------------------------------------
    # O(1) what-if checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, widx: int) -> tuple:
        """Snapshot the state that posting work on ``widx`` can touch.

        The token is O(depth) in size (depth <= 2 in practice), versus the
        O(p + chunks) cost of ``Engine.clone``.  Restoring also truncates
        chunks appended to ``widx`` after the checkpoint, so the idiom::

            token = eng.checkpoint(w)
            eng.assign_chunk(w, candidate)
            while eng.has_pending(w):
                eng.post_next(w)
            score = eng.last_end
            eng.restore(token)

        scores a candidate without disturbing the engine.
        """
        return (
            widx,
            len(self._chunks[widx]),
            len(self.all_chunks),
            self._pos[widx],
            self._stage[widx],
            self._rounds_posted[widx],
            tuple(self._ring[widx]),
            self._ring_pos[widx],
            self._comp_free[widx],
            self._last_comp_end[widx],
            self._c_return_end[widx],
            self._blocks_in[widx],
            self._blocks_out[widx],
            self._updates_done[widx],
            self._compute_busy[widx],
            self._chunks_done[widx],
            self.port_free,
            self.port_busy,
            self.blocks_through_port,
            self.total_updates,
            self.last_end,
        )

    def restore(self, token: tuple) -> None:
        """Roll the engine back to a :meth:`checkpoint` token (LIFO order)."""
        (
            widx,
            n_chunks,
            n_all,
            pos,
            stage,
            rounds_posted,
            ring,
            ring_pos,
            comp_free,
            last_comp_end,
            c_return_end,
            blocks_in,
            blocks_out,
            updates_done,
            compute_busy,
            chunks_done,
            port_free,
            port_busy,
            blocks_through_port,
            total_updates,
            last_end,
        ) = token
        del self._chunks[widx][n_chunks:]
        del self.all_chunks[n_all:]
        self._pos[widx] = pos
        self._stage[widx] = stage
        self._rounds_posted[widx] = rounds_posted
        self._ring[widx][:] = ring
        self._ring_pos[widx] = ring_pos
        self._comp_free[widx] = comp_free
        self._last_comp_end[widx] = last_comp_end
        self._c_return_end[widx] = c_return_end
        self._blocks_in[widx] = blocks_in
        self._blocks_out[widx] = blocks_out
        self._updates_done[widx] = updates_done
        self._compute_busy[widx] = compute_busy
        self._chunks_done[widx] = chunks_done
        self.port_free = port_free
        self.port_busy = port_busy
        self.blocks_through_port = blocks_through_port
        self.total_updates = total_updates
        self.last_end = last_end
        self._refresh_head(widx)

    # ------------------------------------------------------------------
    # full-state cloning and parameter rescaling (dynamic-platform layer)
    # ------------------------------------------------------------------
    def clone(self) -> "FastEngine":
        """Full copy for what-if continuation scoring (O(p + chunks)).

        Unlike the per-worker :meth:`checkpoint`, the clone can diverge
        arbitrarily — the adaptive rescheduler uses it to score candidate
        replans by running each to completion.  Chunk records are shared
        (immutable); per-worker scalar arrays are copied by value.
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
        other._rounds_posted = list(self._rounds_posted)
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
        """Freeze the state into a :class:`SimResult` (no event traces)."""
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
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------------
    # plan replay
    # ------------------------------------------------------------------
    def _refill(self, allocator: PanelDemandAllocator) -> None:
        allocator.refill_via(self.has_pending, self.assign_chunk)

    def run_plan(self, plan: Plan) -> None:
        """Drive the plan's policy/allocator to completion (the analogue of
        the ``simulate`` main loop)."""
        for widx, chunks in enumerate(plan.assignments):
            for ch in chunks:
                self.assign_chunk(widx, ch)
        policy = plan.policy
        floors = [0.0] * self._p
        if isinstance(policy, StrictOrderPolicy):
            self._run_strict(policy.order, floors, _INF)
        else:
            self._run_ready(plan.allocator, policy.priority, floors, _INF)
        if not self.all_done:
            leftover = self.pending_workers
            raise RuntimeError(f"policy stopped with pending messages on workers {leftover}")

    def _run_strict(
        self, order: Sequence[int], floors: Sequence[float], until: float, first: int = 0
    ) -> int:
        """Post ``order[first:]`` and return the position it stopped at.

        ``floors`` are per-worker start floors (``post_next``'s
        ``min_start``; ``inf`` never serves the worker) and ``until`` an
        exclusive horizon: the loop stops before posting a message whose
        start is ``>= until``.  Static replays pass zero floors and
        ``until=inf``; the dynamic driver passes its crash-window/frontier
        floors and the next timeline event's time.
        """
        # Inlined post_next: strict-order replay needs no head cache (the
        # message sequence is fixed), so the whole recurrence runs on local
        # references.  Operation-for-operation identical to post_next.
        chunks = self._chunks
        pos_arr = self._pos
        stage_arr = self._stage
        rounds_posted = self._rounds_posted
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
        both = self.c_mode is CMode.BOTH
        init_stage = self._init_stage
        port_free = self.port_free
        port_busy = self.port_busy
        through = self.blocks_through_port
        total_updates = self.total_updates
        last_end = self.last_end
        # static replays (zero floors, no horizon) skip the window test
        windowed = until != _INF or any(floors)
        stop = len(order)
        try:
            todo = islice(order, first, None) if first else order
            for opos, widx in enumerate(todo, first):
                lst = chunks[widx]
                pos = pos_arr[widx]
                if pos >= len(lst):
                    raise RuntimeError(
                        f"strict order names worker {widx} at position {opos} "
                        "but it has no pending message"
                    )
                rec = lst[pos]
                nr = rec[5]
                st = stage_arr[widx]
                if st == 0:  # C_SEND
                    nblocks = rec[2]
                    legal = c_return_end[widx]
                    kind = 1
                elif st <= nr:  # ROUND st-1
                    nblocks = rec[3][st - 1]
                    legal = (
                        0.0
                        if rounds_posted[widx] < depth[widx]
                        else rings[widx][ring_pos[widx]]
                    )
                    kind = 2
                else:  # C_RETURN
                    nblocks = rec[2]
                    legal = last_comp_end[widx]
                    kind = 3
                if windowed:
                    floor = floors[widx]
                    if floor > legal:
                        legal = floor
                    start = port_free if port_free > legal else legal
                    if start >= until:
                        stop = opos
                        break
                else:
                    start = port_free if port_free > legal else legal
                end = start + nblocks * c_arr[widx]
                port_free = end
                port_busy += end - start
                through += nblocks
                if kind == 2:
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
                    rounds_posted[widx] += 1
                    blocks_in[widx] += nblocks
                    updates_done[widx] += updates
                    compute_busy[widx] += ce - cs
                    total_updates += updates
                    if ce > last_end:
                        last_end = ce
                elif kind == 1:
                    blocks_in[widx] += nblocks
                else:
                    blocks_out[widx] += nblocks
                    c_return_end[widx] = end
                if end > last_end:
                    last_end = end
                # advance (mirrors WorkerSim._advance)
                if (kind == 2 and st == nr and not both) or kind == 3:
                    pos_arr[widx] = pos + 1
                    stage_arr[widx] = init_stage
                    chunks_done[widx] += 1
                else:
                    stage_arr[widx] = st + 1
        finally:
            self.port_free = port_free
            self.port_busy = port_busy
            self.blocks_through_port = through
            self.total_updates = total_updates
            self.last_end = last_end
            for i in range(self._p):
                self._refresh_head(i)
        return stop

    def _run_ready(
        self,
        allocator: PanelDemandAllocator | None,
        spec: PolicyKeySpec,
        floors: Sequence[float],
        until: float,
    ) -> None:
        """Serve pending workers by (effective start, spec fields) until
        they drain, or until the chosen message would start at or after
        ``until``.

        ``floors`` (as in :meth:`_run_strict`) raise each worker's legal
        start before it is compared, so a floored start feeds both the
        effective start and the ``legal_start`` key; a worker whose floor
        is ``inf`` is never served (the loop stops once only such workers
        remain).  Ascending index scan with strict improvement reproduces
        the reference tuple-comparison tie-breaking exactly (including the
        implicit lowest-worker-index tie-break).
        """
        fields = spec.fields
        single = (
            fields[0] in ("head_cid", "legal_start")
            and (len(fields) == 1 or (len(fields) == 2 and fields[1] == "worker_index"))
        )
        if single:
            self._run_ready_single(allocator, floors, until, by_cid=fields[0] == "head_cid")
        else:
            self._run_ready_generic(allocator, floors, until, fields)

    def _run_ready_single(
        self,
        allocator: PanelDemandAllocator | None,
        floors: Sequence[float],
        until: float,
        *,
        by_cid: bool,
    ) -> None:
        # Specialization for the two registry specs: one scalar key, no
        # tuple allocation per candidate.
        kinds = self._head_stage_kind
        heads = self._head_legal
        cids = self._head_cid
        p = self._p
        # all-zero floors (static replays) scan the head cache itself
        floored = any(floors)
        while True:
            if allocator is not None:
                self._refill(allocator)
            legals = _floored(heads, floors) if floored else heads
            best = -1
            best_eff = 0.0
            best_key: float | int = 0
            port_free = self.port_free
            for i in range(p):
                if kinds[i] == self._K_NONE:
                    continue
                legal = legals[i]
                eff = port_free if port_free > legal else legal
                key = cids[i] if by_cid else legal
                if best < 0 or eff < best_eff or (eff == best_eff and key < best_key):
                    best = i
                    best_eff = eff
                    best_key = key
            if best < 0 or best_eff >= until:
                break
            self.post_next(best, floors[best])

    def _run_ready_generic(
        self,
        allocator: PanelDemandAllocator | None,
        floors: Sequence[float],
        until: float,
        fields: tuple[str, ...],
    ) -> None:
        kinds = self._head_stage_kind
        heads = self._head_legal
        cids = self._head_cid
        p = self._p
        floored = any(floors)
        legals = heads

        def key_of(i: int) -> tuple:
            return tuple(
                cids[i] if f == "head_cid" else legals[i] if f == "legal_start" else i
                for f in fields
            )

        while True:
            if allocator is not None:
                self._refill(allocator)
            if floored:
                legals = _floored(heads, floors)
            best = -1
            best_eff = 0.0
            best_key: tuple = ()
            port_free = self.port_free
            for i in range(p):
                if kinds[i] == self._K_NONE:
                    continue
                legal = legals[i]
                eff = port_free if port_free > legal else legal
                if best < 0 or eff < best_eff:
                    best, best_eff, best_key = i, eff, key_of(i)
                elif eff == best_eff:
                    key = key_of(i)
                    if key < best_key:
                        best, best_eff, best_key = i, eff, key
            if best < 0 or best_eff >= until:
                break
            self.post_next(best, floors[best])


def _floored(heads: list[float], floors: Sequence[float]) -> list[float]:
    """Per-worker legal starts raised to their start floors."""
    return [h if h > f else f for h, f in zip(heads, floors)]


def fast_simulate(
    platform: Platform,
    plan: Plan,
    grid: BlockGrid | None = None,
    *,
    kernel=None,
) -> SimResult:
    """Run ``plan`` on the fast path and return its :class:`SimResult`.

    Drop-in replacement for :func:`repro.sim.engine.simulate` when event
    traces are not needed: makespan, per-worker statistics, port busy time
    and the chunk list are bit-identical to the reference engine; the
    ``port_events`` / ``compute_events`` tuples are always empty.

    ``kernel`` selects a compiled backend (see :mod:`repro.sim.kernels`).
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

    backend = resolve_kernel(kernel)
    if backend.whole_run:
        from .batch import supports_batch, BatchEngine

        if supports_batch(plan):
            engine = BatchEngine([(platform, plan)], kernel=backend)
            return engine.run().outcomes()[0].to_sim_result(platform, plan, grid)
    with stopwatch("sim.fast_seconds"):
        engine = FastEngine(platform, depths=plan.depths, c_mode=plan.c_mode)
        engine.run_plan(plan)
    return engine.result(grid=grid, meta=dict(plan.meta))
