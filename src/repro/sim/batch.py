"""Batch simulation: numpy-vectorized replay of many plans at once.

The planning layer evaluates *populations* of candidate schedules: HomI
scores every deduplicated ``(n, mu, c, w)`` virtual platform, Het scores
its eight selection variants, the experiment harness and the sweeps score
every ``(algorithm, instance)`` pair.  Each candidate is an independent
one-port simulation, and the per-worker recurrence is a scan -- so a whole
batch can be replayed as one set of numpy array programs: every Python-level
loop iteration advances *all* instances by one port message instead of one.

The vectorization rests on a separation the scalar engines blur: almost
everything about a simulation is *timing-independent*.  A worker's message
stream -- each message's kind, block count, update count and chunk id, the
ring slot a round's compute end lands in, the legal-start source (the
always-0.0 slot for warm-up rounds) -- and every integer statistic (blocks
in/out, updates, chunk counts) are functions of the plan alone.  They are
compiled once per distinct ``(plan, worker)`` pair into flat streams that
every instance replaying that plan shares; an instance owns only ``(B,
P)`` scalars: a stream pointer and end per worker, its state-segment base
and the worker costs ``(c, w)``.  Only the float recurrence -- ``start =
max(port_free, legal)``, ``end = start + nblocks * c``, ``compute_end =
max(end, compute_free) + updates * w`` -- runs in the stepping loop, over
one flat state vector ``S`` holding each (instance, worker)'s
``[c_return_end, compute_end, compute_busy, ring[0..depth), 0.0]`` slots.  A
step is a few dozen numpy calls regardless of batch width.

Per-instance results are **bit-identical** to
:func:`~repro.sim.fastpath.fast_simulate`: each message cost is the same
single IEEE-754 multiply the scalar engines perform, every add/sub/max
happens in the same per-instance order, and ready-policy ties resolve
through the same ``(effective start, priority key, worker index)``
comparison.  ``tests/test_batch_equivalence.py`` and the
golden-figure wall pin this.

Two replay modes cover the batchable plans:

* **strict order** (:class:`~repro.sim.policies.StrictOrderPolicy`): the
  step -> worker mapping is the plan's order (stored once per distinct
  plan), so a step is one order gather, a stream-pointer bump and one
  state gather/scatter;
* **ready** (:class:`~repro.sim.policies.ReadyPolicy`, grouped by its
  priority key): per-worker head legal starts and chunk ids are cached in
  ``(B, P)`` arrays and each step performs one vectorized masked argmin
  across the worker axis of every instance at once.

Plans with dynamic allocators are not batchable (their chunks depend on
the timing); :func:`batch_simulate` runs them through ``fast_simulate``
individually, so the API accepts *any* plan list.  How the batchable runs
are split into engines follows from the resolved kernel backend.  Under
the whole-run ``c`` kernel each replay mode becomes one
:class:`BatchEngine`: the kernels loop instance by instance, so neither
batch width nor length spread adds steps.  The per-step ``numpy``
backend buckets instances by message count, so one long run cannot pin a
mostly-drained batch, and replays buckets below a fixed size through the
scalar fast path, where the per-step numpy dispatch overhead would beat
the vectorization win.

For searches whose candidates share a leading message sequence,
:meth:`BatchEngine.shared_prefix` advances the longest instance alone
through the common prefix and broadcasts the resulting state across the
batch; the :meth:`~BatchEngine.checkpoint` / :meth:`~BatchEngine.restore`
pair snapshots a partially-run batch so alternative continuations can be
replayed from the same frontier.  :func:`shared_prefix_makespans` is the
search-facing wrapper: the incremental strict-order search of the adaptive
boundary re-selection (:mod:`repro.schedulers.adaptive`) submits one run
per candidate continuation — identical executed-so-far prefix, divergent
replanned suffixes — so re-scoring a population of threshold candidates
costs one prefix replay plus the divergent tails instead of a from-scratch
simulation per candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.chunks import Chunk
from ..obs import counter, get_tracer, stopwatch, timer, trace
from ..platform.model import Platform
from .engine import WorkerStats
from .fastpath import fast_simulate
from .kernels import resolve_kernel
from .plan import Plan
from .policies import StrictOrderPolicy, selection_order_priority
from .worker_state import CMode, c_message_count

__all__ = [
    "BATCH_ENGINE_VERSION",
    "BatchEngine",
    "BatchOutcome",
    "batch_outcomes",
    "batch_simulate",
    "shared_prefix_makespans",
    "supports_batch",
]

#: Version tag of the vectorized replay semantics.  The result cache keys
#: batch-engine experiment runs on it (next to the scalar
#: :data:`repro.experiments.parallel.ENGINE_FINGERPRINT`), so a change to
#: the batch compilation/stepping that could move a makespan must bump it
#: -- that invalidates every payload stored under the batch engine at once.
BATCH_ENGINE_VERSION = "batch-v1"

#: Under the per-step numpy backend, a bucket of fewer compatible instances
#: is replayed through the scalar fast path instead of vectorizing
#: (bit-identical either way).
_MIN_VECTOR_BATCH = 24

#: Within one numpy bucket, instances span at most this message-count
#: ratio; a new bucket starts below it.  Keeps the active set dense so the
#: per-step cost is paid over many live instances.
_BUCKET_RATIO = 2.0

# BatchEngine.run's instruments, looked up once: the dynamic driver calls
# run() per event-free window, where a registry lookup is not negligible
_STEP_COUNTERS = {
    True: counter("batch.steps.strict"),
    False: counter("batch.steps.ready"),
}
_STEP_SECONDS = timer("batch.step_seconds")
# distinct (plan, worker) message streams compiled
_STREAMS = counter("batch.compile.streams")

# message kind codes
_K_C_SEND, _K_ROUND, _K_C_RETURN = 1, 2, 3


def supports_batch(plan: Plan) -> bool:
    """Whether :class:`BatchEngine` can replay ``plan`` (else
    :func:`batch_simulate` falls back to the scalar fast path for it)."""
    return _batch_mode(plan) is not None


def _batch_mode(plan: Plan):
    """Grouping key: ``"strict"``, ``("ready", priority)`` or ``None``."""
    if plan.allocator is not None:
        return None
    policy = plan.policy
    if isinstance(policy, StrictOrderPolicy):
        return "strict"
    return ("ready", policy.priority)


def _plan_steps(plan: Plan) -> int:
    """Port messages a plan will post (timing-independent)."""
    extra = c_message_count(plan.c_mode)
    return sum(
        len(ch.rounds) + extra for chunks in plan.assignments for ch in chunks
    )


def _checked_order(plan: Plan, p: int, lengths: list[int]) -> np.ndarray:
    """``plan``'s strict order as an array, checked against the message
    counts of its workers' streams on a ``p``-worker platform."""
    order = np.asarray(plan.policy.order, dtype=np.int64)
    if order.size and (order.min() < 0 or order.max() >= p):
        raise ValueError("strict order names a worker outside the platform")
    counts = np.bincount(order, minlength=p)
    if counts.tolist() != lengths[:p]:
        raise RuntimeError(
            "strict order and pipelines disagree: per-worker "
            f"occurrence counts {counts.tolist()} vs message counts "
            f"{lengths[:p]}"
        )
    return order


@dataclass(frozen=True)
class BatchOutcome:
    """Per-instance result of a batch run (the eventless subset of
    :class:`~repro.sim.engine.SimResult`)."""

    makespan: float
    port_busy: float
    blocks_through_port: int
    total_updates: int
    worker_stats: tuple[WorkerStats, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def enrolled(self) -> list[int]:
        return [st.worker for st in self.worker_stats if st.enrolled]

    @property
    def n_enrolled(self) -> int:
        return len(self.enrolled)

    def to_sim_result(self, platform: Platform, plan: Plan, grid=None) -> "SimResult":
        """Widen into an eventless :class:`~repro.sim.engine.SimResult`
        (chunks in engine installation order; traces empty)."""
        from .engine import SimResult

        return SimResult(
            makespan=self.makespan,
            platform=platform,
            grid=grid,
            worker_stats=self.worker_stats,
            port_busy=self.port_busy,
            total_updates=self.total_updates,
            blocks_through_port=self.blocks_through_port,
            chunks=tuple(ch for chunks in plan.assignments for ch in chunks),
            meta=dict(self.meta),
        )


def _chunk_template(chunk: Chunk, c_mode: CMode) -> tuple:
    """Worker-independent per-message ``(kind, nblocks, updates)`` arrays
    of one chunk shape.  Counts are stored as (integral) float64, so the
    kernels' inline ``nblocks * c`` / ``updates * w`` is IEEE-754 identical
    to the scalar engines' per-message int * float products."""
    kinds, nbs, upds = [], [], []
    cb = chunk.c_blocks
    if c_mode is not CMode.NONE:
        kinds.append(_K_C_SEND)
        nbs.append(cb)
        upds.append(0)
    for rd in chunk.rounds:
        kinds.append(_K_ROUND)
        nbs.append(rd.a_blocks + rd.b_blocks)
        upds.append(rd.updates)
    if c_mode is CMode.BOTH:
        kinds.append(_K_C_RETURN)
        nbs.append(cb)
        upds.append(0)
    return (
        np.array(kinds, dtype=np.int8),
        np.array(nbs, dtype=np.float64),
        np.array(upds, dtype=np.float64),
    )


def _worker_stream(plan: Plan, w: int, templates: dict) -> tuple:
    """Message stream of ``plan``'s worker ``w`` (must have at least one
    chunk): ``(kind, nb, upd, cid, rel_legal, rel_ring, blocks_in,
    blocks_out, updates)``, with legal-start and ring-slot indices
    relative to the worker's state segment.

    ``templates`` memoizes chunk shapes for one compile: thousands of
    chunks share one memoized rounds tuple, so the key is
    ``(id(chunk.rounds), chunk.c_blocks, c_mode)`` -- valid because the
    plans being compiled keep their rounds tuples alive for the call.
    """
    _STREAMS.inc()
    chunks = plan.assignments[w]
    depth = plan.depths[w]
    c_mode = plan.c_mode
    tmpls = []
    for ch in chunks:
        key = (id(ch.rounds), ch.c_blocks, c_mode)
        tmpl = templates.get(key)
        if tmpl is None:
            tmpl = templates[key] = _chunk_template(ch, c_mode)
        tmpls.append(tmpl)
    kind = np.concatenate([t[0] for t in tmpls])
    nb = np.concatenate([t[1] for t in tmpls])
    upd = np.concatenate([t[2] for t in tmpls])
    cid = np.repeat(
        np.fromiter((ch.cid for ch in chunks), np.float64, len(chunks)),
        np.fromiter((t[0].size for t in tmpls), np.int64, len(tmpls)),
    )
    is_round = kind == _K_ROUND
    g = np.cumsum(is_round) - 1  # global round index per worker
    rel_ring = 3 + (g % depth)  # ring slot, relative to the S segment
    # legal-start source, relative to the segment base: 0 = c_return_end
    # slot, 1 = compute_end slot, 3 + depth = the never-written 0.0
    # slot (warm-up rounds), else the ring slot of round (g - depth)
    rel_legal = np.where(
        kind == _K_C_SEND,
        0,
        np.where(kind == _K_C_RETURN, 1, np.where(g < depth, 3 + depth, rel_ring)),
    )
    blocks_out = int(nb[kind == _K_C_RETURN].sum())
    return (
        kind,
        nb,
        upd,
        cid,
        rel_legal,
        rel_ring,
        int(nb.sum()) - blocks_out,
        blocks_out,
        int(upd.sum()),
    )


class BatchEngine:
    """Vectorized one-port simulator over ``B`` compatible instances.

    All plans must share one replay mode (all strict-order, or all ready
    with the same priority key);
    :func:`batch_simulate` groups arbitrary run lists into compatible
    engines automatically.  Each distinct ``(plan, worker)`` message
    stream is compiled once per engine, however many instances replay it;
    worker costs are not compiled at all (the kernels multiply each
    message's ``nblocks * c`` / ``updates * w`` inline from the
    instance's ``(c, w)``), so instances that differ only in costs share
    one stream.

    The stepping backend is the process's (see :mod:`repro.sim.kernels`):
    the numpy backend advances one step per Python iteration and is the
    oracle; the whole-run ``"c"`` backend, the default where it builds,
    advances whole ``run()`` windows in one kernel call.  Results are
    bit-identical either way.
    """

    def __init__(self, runs: Sequence[tuple[Platform, Plan]]) -> None:
        self._backend = resolve_kernel()
        if not runs:
            raise ValueError("need at least one (platform, plan) run")
        modes = {_batch_mode(plan) for _platform, plan in runs}
        if None in modes:
            raise TypeError(
                "BatchEngine cannot replay plans with a dynamic allocator; "
                "use batch_simulate, which falls back to the scalar fast path"
            )
        if len(modes) > 1:
            raise TypeError(
                f"mixed replay modes in one batch: {sorted(map(str, modes))}; "
                "group runs with batch_simulate instead"
            )
        (mode,) = modes
        self._strict = mode == "strict"
        self._by_cid = not self._strict and mode[1] == selection_order_priority
        with trace(
            "batch.compile",
            instances=len(runs),
            mode="strict" if self._strict else "ready",
        ), stopwatch("batch.compile_seconds"):
            self._compile(runs)
        self._t = 0

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self, runs: Sequence[tuple[Platform, Plan]]) -> None:
        P = max(platform.p for platform, _plan in runs)
        # the shared message streams: each distinct (plan, worker) stream
        # once, whatever the number of instances replaying it
        streams: dict[tuple[int, int], tuple[int, tuple]] = {}
        templates: dict[tuple, tuple] = {}
        parts: list[tuple] = []
        n_msgs = 0
        # one layout per distinct (plan, p): per-worker stream offsets and
        # lengths, prefetch depths and statistics (and the strict order)
        layout_of: dict[tuple[int, int], int] = {}
        layouts: list[tuple[list[int], ...]] = []
        orders: list[np.ndarray] = []
        kidx = np.empty(len(runs), dtype=np.int64)
        for i, (platform, plan) in enumerate(runs):
            p = platform.p
            k = layout_of.get((id(plan), p))
            if k is None:
                if len(plan.depths) != p:
                    raise ValueError("need one prefetch depth per worker")
                k = layout_of[(id(plan), p)] = len(layouts)
                layout = tuple([0] * P for _ in range(7))
                start, length, depth, chunks, blocks_in, blocks_out, updates = layout
                for w in range(p):
                    depth[w] = plan.depths[w]
                    if depth[w] < 1:
                        raise ValueError("prefetch depth must be >= 1")
                    chunks[w] = len(plan.assignments[w])
                    if not chunks[w]:
                        continue
                    hit = streams.get((id(plan), w))
                    if hit is None:
                        stream = _worker_stream(plan, w, templates)
                        hit = streams[(id(plan), w)] = (n_msgs, stream)
                        parts.append(stream)
                        n_msgs += stream[0].size
                    start[w], stream = hit
                    length[w] = stream[0].size
                    blocks_in[w], blocks_out[w], updates[w] = stream[6:]
                if self._strict:
                    orders.append(_checked_order(plan, p, length))
                layouts.append(layout)
            kidx[i] = k

        # sort instances by descending step count: the active set at step t
        # is then always the leading rows [0:n_act), so per-instance state
        # lives in cheap basic slices.
        table = np.array(layouts, dtype=np.int64)  # (K, 7, P)
        lengths = table[kidx, 1].sum(axis=1)
        perm = np.argsort(-lengths, kind="stable")
        kidx = kidx[perm]
        self._perm = perm
        self._runs = [runs[i] for i in perm]
        self._lengths = lengths[perm]
        self._len_asc = self._lengths[::-1].copy()
        self._kidx = kidx
        self._layouts = layouts
        B = len(self._runs)
        self._B, self._P = B, P

        # the shared streams: (kind, nb, upd, cid, rel_legal, rel_ring)
        dtypes = (np.int8, np.float64, np.float64, np.float64, np.int64, np.int64)
        self._flat = tuple(
            np.concatenate([np.zeros(0, dt)] + [part[f] for part in parts])
            for f, dt in enumerate(dtypes)
        )
        self._base = table[kidx, 0]
        self._end = self._base + table[kidx, 1]
        self._depth = table[kidx, 2]
        self._ptr = self._base.copy()

        # state vector S: each (b, w) owns [c_return_end, compute_end,
        # compute_busy, ring[0..depth), 0.0] -- the last slot is never
        # written (warm-up legal starts).  Workers beyond an instance's
        # platform own none.
        p_of = np.array([platform.p for platform, _plan in self._runs], dtype=np.int64)
        self._valid = np.arange(P) < p_of[:, None]
        widths = np.where(self._valid, 4 + self._depth, 0).ravel()
        seg = np.cumsum(widths) - widths
        self._seg = np.where(self._valid, seg.reshape(B, P), 0)
        self._S = np.zeros(int(widths.sum()), dtype=np.float64)

        # per-instance worker costs, multiplied into each message inline
        platforms = [platform for platform, _plan in self._runs]
        self._cost_c = np.zeros((B, P), dtype=np.float64)
        self._cost_w = np.zeros((B, P), dtype=np.float64)
        self._cost_c[self._valid] = [wk.c for pf in platforms for wk in pf]
        self._cost_w[self._valid] = [wk.w for pf in platforms for wk in pf]

        self._port_free = np.zeros(B, dtype=np.float64)
        self._port_busy = np.zeros(B, dtype=np.float64)
        # flat (b * P + w) row offsets for the numpy per-step paths
        self._row_off = np.arange(B, dtype=np.int64) * P

        # the kernel's arguments after (t0, t1), in its signature order;
        # every array in them is updated in place
        f_kind, f_nb, f_upd, f_cid, f_legal, f_ring = self._flat
        costs = (self._cost_c, self._cost_w)
        state = (self._S, self._port_free, self._port_busy)
        if self._strict:
            sizes = [order.size for order in orders]
            self._order_flat = np.concatenate([np.zeros(0, np.int64)] + orders)
            self._order_base = (np.cumsum(sizes) - sizes)[kidx]
            self._kernel_args = (
                B, P, self._lengths, self._order_flat, self._order_base,
                self._ptr, self._seg, *costs, f_kind, f_nb, f_upd, f_legal, f_ring,
                *state,
            )
        else:
            self._compile_ready()
            self._kernel_args = (
                B, P, self._lengths, self._ptr, self._end, self._seg, *costs,
                self._head_legal, self._head_cid, f_kind, f_nb, f_upd, f_cid,
                f_legal, f_ring, int(self._by_cid), *state,
            )

    def _compile_ready(self) -> None:
        f_cid = self._flat[3]
        live = self._ptr < self._end
        # cached head keys for the vectorized argmin; cids as float64 so
        # drained workers mask with +inf (cids are exact below 2**53)
        self._head_legal = np.where(live, 0.0, np.inf)
        self._head_cid = np.full((self._B, self._P), np.inf)
        self._head_cid[live] = f_cid[self._ptr[live]]

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        """Max per-instance message count (= Python loop iterations)."""
        return int(self._lengths[0]) if self._B else 0

    @property
    def done(self) -> bool:
        return self._t >= self.total_steps

    def _n_active(self) -> int:
        return self._B - int(np.searchsorted(self._len_asc, self._t, side="right"))

    def run(self, max_steps: int | None = None) -> "BatchEngine":
        """Advance every live instance by up to ``max_steps`` port messages
        (default: to completion).

        Under a compiled kernel backend the whole ``[t, limit)`` window is
        advanced in a single kernel call; the numpy backend steps through
        it one Python iteration at a time.  Bit-identical either way, so
        ``checkpoint()/restore()`` and the shared-prefix search compose
        with any backend.
        """
        limit = (
            self.total_steps
            if max_steps is None
            else min(self.total_steps, self._t + max_steps)
        )
        if self._t >= limit:
            return self
        steps = limit - self._t
        _STEP_COUNTERS[self._strict].inc(steps)
        tracer = get_tracer()
        if tracer is None:
            # tracing disabled: a compiled window can be a ~30 us call, so
            # the per-run cost is one counter, two clock reads and a timer
            # add -- no span or stopwatch objects
            t0 = time.perf_counter()
            self._advance(limit)
            _STEP_SECONDS.add(time.perf_counter() - t0)
            return self
        # the strict recurrence is pure; the ready window fuses the
        # recurrence with the per-step policy selection, so the mode
        # attribute is the compile/recurrence/policy-selection phase split
        # for profiling
        mode = "strict" if self._strict else "ready"
        attrs = {"backend": self._backend.name, "mode": mode, "steps": steps}
        with tracer.span("batch.run", attrs), _STEP_SECONDS.time():
            self._advance(limit)
        return self

    def _advance(self, limit: int) -> None:
        """Step every live instance from ``self._t`` to ``limit``."""
        if self._backend.whole_run:
            self._run_kernel(limit)
            self._t = limit
        else:
            step = self._step_strict if self._strict else self._step_ready
            while self._t < limit:
                step(self._n_active())
                self._t += 1

    def _run_kernel(self, limit: int) -> None:
        """One whole-run kernel call advancing steps ``[self._t, limit)``."""
        run = self._backend.strict_run if self._strict else self._backend.ready_run
        run(self._t, limit, *self._kernel_args)

    def _post(self, n_act: int, off, mp, seg, legal) -> None:
        """Post stream message ``mp`` on flat (instance, worker) slot
        ``off`` (state segment ``seg``) of every active instance: the
        recurrence both modes share."""
        S = self._S
        f_kind, f_nb, f_upd, _f_cid, _f_legal, f_ring = self._flat
        start = np.maximum(self._port_free[:n_act], legal)
        end = start + f_nb[mp] * self._cost_c.reshape(-1)[off]
        self._port_free[:n_act] = end
        self._port_busy[:n_act] += end - start
        kind = f_kind[mp]
        rm = kind == _K_ROUND
        if rm.any():
            mr, sr = mp[rm], seg[rm]
            cei = sr + 1
            cs = np.maximum(end[rm], S[cei])
            ce = cs + f_upd[mr] * self._cost_w.reshape(-1)[off[rm]]
            S[sr + f_ring[mr]] = ce
            S[cei] = ce
            S[cei + 1] += ce - cs  # compute_busy (indices unique per step)
        cm = kind == _K_C_RETURN
        if cm.any():
            S[seg[cm]] = end[cm]

    def _step_strict(self, n_act: int) -> None:
        workers = self._order_flat[self._order_base[:n_act] + self._t]
        off = self._row_off[:n_act] + workers
        ptr = self._ptr.reshape(-1)
        mp = ptr[off]
        ptr[off] = mp + 1
        seg = self._seg.reshape(-1)[off]
        self._post(n_act, off, mp, seg, self._S[seg + self._flat[4][mp]])

    def _step_ready(self, n_act: int) -> None:
        head_legal = self._head_legal[:n_act]
        eff = np.maximum(self._port_free[:n_act, None], head_legal)
        # the priority key over the earliest-starting workers; argmax takes
        # the first (lowest-index) worker holding the least key
        vals = self._head_cid[:n_act] if self._by_cid else head_legal
        key = np.where(eff == eff.min(axis=1, keepdims=True), vals, np.inf)
        first = (key == key.min(axis=1, keepdims=True)).argmax(axis=1)
        off = self._row_off[:n_act] + first

        ptr, head_legal_f = self._ptr.reshape(-1), self._head_legal.reshape(-1)
        mp = ptr[off]
        seg = self._seg.reshape(-1)[off]
        self._post(n_act, off, mp, seg, head_legal_f[off])
        nxt = mp + 1
        ptr[off] = nxt
        live = nxt < self._end.reshape(-1)[off]
        safe = np.minimum(nxt, len(self._flat[0]) - 1)
        head_legal_f[off] = np.where(live, self._S[seg + self._flat[4][safe]], np.inf)
        self._head_cid.reshape(-1)[off] = np.where(live, self._flat[3][safe], np.inf)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        """Snapshot the batch state (O(B*P*depth)); :meth:`restore` replays
        alternative continuations from the same frontier."""
        heads = (
            () if self._strict else (self._head_legal.copy(), self._head_cid.copy())
        )
        return (
            self._t,
            self._S.copy(),
            self._port_free.copy(),
            self._port_busy.copy(),
            self._ptr.copy(),
            heads,
        )

    def restore(self, token: tuple) -> None:
        self._t, S, pf, pb, ptr, heads = token
        np.copyto(self._S, S)
        np.copyto(self._port_free, pf)
        np.copyto(self._port_busy, pb)
        np.copyto(self._ptr, ptr)
        if not self._strict:
            hl, hc = heads
            np.copyto(self._head_legal, hl)
            np.copyto(self._head_cid, hc)

    # ------------------------------------------------------------------
    # shared-prefix construction
    # ------------------------------------------------------------------
    @classmethod
    def shared_prefix(
        cls, runs: Sequence[tuple[Platform, Plan]], prefix_steps: int
    ) -> "BatchEngine":
        """Build a batch whose instances all share their first
        ``prefix_steps`` port messages, simulating the prefix only once.

        Instance 0 (the longest after sorting) alone is advanced through
        the prefix and its state is broadcast across the batch --
        bit-identical to running it ``B`` times, at 1/B of the cost.  Only
        strict-order plans are supported (a ready policy's order is not
        known ahead of time), and the prefix really must be shared:
        per-instance orders, the touched message streams and their
        prefetch depths are verified to match.
        """
        engine = cls(runs)
        if not engine._strict:
            raise TypeError(
                "shared_prefix requires strict-order plans, but this batch "
                "replays in ready mode: a ready policy's message order is "
                "timing-dependent, so no prefix can be declared shared "
                "ahead of time"
            )
        if prefix_steps <= 0:
            return engine
        if prefix_steps > int(engine._lengths.min()):
            raise ValueError("prefix_steps exceeds the shortest instance")
        engine._verify_shared_prefix(prefix_steps)

        _STEP_COUNTERS[True].inc(prefix_steps)
        if engine._backend.whole_run:
            engine._backend.strict_run(0, prefix_steps, 1, *engine._kernel_args[1:])
        else:
            while engine._t < prefix_steps:
                engine._step_strict(1)
                engine._t += 1
        # broadcast instance 0's prefix state: per-instance scalars, then
        # each touched worker's S segment (c_return_end, compute_end,
        # compute_busy, ring slots); untouched workers stay all-zero in
        # every instance
        engine._port_free[1:] = engine._port_free[0]
        engine._port_busy[1:] = engine._port_busy[0]
        ob = engine._order_base
        prefix = engine._order_flat[ob[0] : ob[0] + prefix_steps]
        for w in np.unique(prefix):
            width = 3 + int(engine._depth[0, w])
            src = engine._S[engine._seg[0, w] : engine._seg[0, w] + width]
            engine._S[engine._seg[1:, w, None] + np.arange(width)] = src
        # every instance has consumed the prefix's messages of each worker
        engine._ptr[1:] = engine._base[1:] + np.bincount(prefix, minlength=engine._P)
        engine._t = prefix_steps
        return engine

    @staticmethod
    def _first_mismatch(a: np.ndarray, b: np.ndarray, block: int = 1024) -> int:
        """Index of the first element where ``a != b`` (same length), or -1.

        Compared block-wise so a divergence near the front costs O(first
        divergence), not O(len) — the lazy half of the shared-prefix
        verification contract."""
        for lo in range(0, a.size, block):
            hi = min(lo + block, a.size)
            if not np.array_equal(a[lo:hi], b[lo:hi]):
                off = np.nonzero(a[lo:hi] != b[lo:hi])[0]
                return lo + int(off[0])
        return -1

    def _verify_shared_prefix(self, prefix_steps: int) -> None:
        """Check every instance really shares the first ``prefix_steps``
        port messages with instance 0 (post-sort order).

        Verification is lazy — each comparison walks forward in blocks and
        stops at the *first* divergent step — and every error names the
        step (or per-worker message) index and the worker involved, so a
        caller debugging a bad candidate batch sees exactly where the
        orders split instead of a blanket mismatch.  Messages are compared
        by kind and by port/compute *cost*; an instance walking instance
        0's own stream under the same worker costs matches trivially."""
        f_kind, f_nb, f_upd = self._flat[:3]
        ob = self._order_base
        ref = self._order_flat[ob[0] : ob[0] + prefix_steps]
        for b in range(1, self._B):
            cand = self._order_flat[ob[b] : ob[b] + prefix_steps]
            s = self._first_mismatch(cand, ref)
            if s >= 0:
                raise ValueError(
                    f"instance {b} diverges from the shared order prefix at "
                    f"step {s}: it posts worker {int(cand[s])} where "
                    f"instance 0 posts worker {int(ref[s])}"
                )
        counts = np.bincount(ref, minlength=self._P)
        for w in np.nonzero(counts)[0]:
            n = int(counts[w])
            s0 = self._base[0, w]
            for b in range(1, self._B):
                sb = self._base[b, w]
                have = int(self._end[b, w] - sb)
                if n > have:
                    raise ValueError(
                        f"instance {b} worker {w} has only {have} messages "
                        f"but the shared prefix posts {n} on it"
                    )
                if self._depth[b, w] != self._depth[0, w]:
                    raise ValueError(
                        f"instance {b} worker {w} prefetch depth "
                        f"{int(self._depth[b, w])} differs from instance 0's "
                        f"{int(self._depth[0, w])}"
                    )
                if (
                    sb == s0
                    and self._cost_c[b, w] == self._cost_c[0, w]
                    and self._cost_w[b, w] == self._cost_w[0, w]
                ):
                    continue
                for label, flat, costs in (
                    ("kind", f_kind, None),
                    ("port cost", f_nb, self._cost_c),
                    ("compute cost", f_upd, self._cost_w),
                ):
                    got, want = flat[sb : sb + n], flat[s0 : s0 + n]
                    if costs is not None:
                        got, want = got * costs[b, w], want * costs[0, w]
                    m = self._first_mismatch(got, want)
                    if m >= 0:
                        raise ValueError(
                            f"instance {b} worker {w} diverges from the "
                            f"shared message prefix at its message {m}: "
                            f"{label} {got[m]!r} != instance 0's {want[m]!r}"
                        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _sorted_makespans(self) -> np.ndarray:
        # final port_free is the last comm end (it is nondecreasing); each
        # worker's compute_end slot holds its last compute end -- the
        # makespan is their maximum, exactly FastEngine's running last_end
        compute_ends = np.where(self._valid, self._S[self._seg + 1], -np.inf)
        return np.maximum(self._port_free, compute_ends.max(axis=1))

    def makespans(self) -> np.ndarray:
        """Per-instance makespans, in the original run order (the batch
        must be fully run)."""
        if not self.done:
            raise RuntimeError(f"batch stopped at step {self._t}/{self.total_steps}")
        out = np.empty(self._B, dtype=np.float64)
        out[self._perm] = self._sorted_makespans()
        return out

    def outcomes(self) -> list[BatchOutcome]:
        """Per-instance :class:`BatchOutcome` records, in original order."""
        if not self.done:
            raise RuntimeError(f"batch stopped at step {self._t}/{self.total_steps}")
        makespans = self._sorted_makespans()
        out: list[BatchOutcome | None] = [None] * self._B
        for b, (platform, plan) in enumerate(self._runs):
            _start, _len, _depth, chunks, blocks_in, blocks_out, updates = (
                self._layouts[self._kidx[b]]
            )
            stats = []
            for w in range(platform.p):
                s = self._seg[b, w]
                stats.append(
                    WorkerStats(
                        worker=w,
                        chunks=chunks[w],
                        blocks_in=blocks_in[w],
                        blocks_out=blocks_out[w],
                        updates=updates[w],
                        compute_busy=float(self._S[s + 2]),
                        finish=float(max(self._S[s], self._S[s + 1])),
                    )
                )
            out[self._perm[b]] = BatchOutcome(
                makespan=float(makespans[b]),
                port_busy=float(self._port_busy[b]),
                blocks_through_port=sum(blocks_in) + sum(blocks_out),
                total_updates=sum(updates),
                worker_stats=tuple(stats),
                meta=dict(plan.meta),
            )
        return out  # type: ignore[return-value]


def _scalar_result(platform: Platform, plan: Plan, makespan_only: bool):
    """One run on the scalar fast path, as a :class:`BatchOutcome` (or its
    bare makespan)."""
    counter("batch.scalar_runs").inc()
    res = fast_simulate(platform, plan)
    if makespan_only:
        return res.makespan
    return BatchOutcome(
        makespan=res.makespan,
        port_busy=res.port_busy,
        blocks_through_port=res.blocks_through_port,
        total_updates=res.total_updates,
        worker_stats=res.worker_stats,
        meta=dict(res.meta),
    )


def _buckets(indices: list[int], runs: Sequence[tuple[Platform, Plan]]) -> list[list[int]]:
    """Partition one replay mode's run indices, longest first, so one
    bucket spans at most a :data:`_BUCKET_RATIO` message-count range."""
    # a message count is a function of the plan: count each distinct one once
    plans = {id(runs[i][1]): runs[i][1] for i in indices}
    counts = {key: _plan_steps(plan) for key, plan in plans.items()}
    steps = {i: counts[id(runs[i][1])] for i in indices}
    out: list[list[int]] = []
    cur: list[int] = []
    head = 0
    for i in sorted(indices, key=lambda i: -steps[i]):
        if not cur or steps[i] * _BUCKET_RATIO >= head:
            if not cur:
                head = steps[i]
            cur.append(i)
        else:
            out.append(cur)
            cur, head = [i], steps[i]
    if cur:
        out.append(cur)
    return out


def batch_outcomes(
    runs: Sequence[tuple[Platform, Plan]],
    *,
    _makespans: bool = False,
) -> list[BatchOutcome]:
    """Simulate every ``(platform, plan)`` run, vectorizing compatible
    groups, and return per-run outcomes in input order.

    Runs are grouped by replay mode (strict order / ready priority key);
    allocator-driven plans go through the scalar fast path.  Under a
    whole-run kernel backend each group is one :class:`BatchEngine`.
    Under the per-step numpy backend each group is bucketed by message
    count, and only buckets large enough to amortize the per-step numpy
    dispatch run on engines; the rest go through the scalar fast path.
    Results are bit-identical either way.  Inside each engine, candidates
    that share plan objects — e.g. HomI's scoring plans per ``(n, mu)`` —
    share one compiled message stream per worker.

    ``_makespans=True`` is :func:`batch_simulate`'s path through the same
    grouping: bare makespans (read per engine from
    :meth:`BatchEngine.makespans`) instead of outcome records.
    """
    whole_run = resolve_kernel().whole_run
    collect = BatchEngine.makespans if _makespans else BatchEngine.outcomes
    groups: dict[Any, list[int]] = {}
    for i, (_platform, plan) in enumerate(runs):
        groups.setdefault(_batch_mode(plan), []).append(i)
    scalar = groups.pop(None, [])
    engines: list[list[int]] = []
    for indices in groups.values():
        if whole_run:
            engines.append(indices)
            continue
        for bucket in _buckets(indices, runs):
            if len(bucket) < _MIN_VECTOR_BATCH:
                scalar.extend(bucket)
            else:
                engines.append(bucket)
    out: list = [None] * len(runs)
    for i in scalar:
        out[i] = _scalar_result(*runs[i], _makespans)
    for indices in engines:
        counter("batch.vectorized_runs").inc(len(indices))
        engine = BatchEngine([runs[i] for i in indices]).run()
        for i, result in zip(indices, collect(engine)):
            out[i] = result
    return out


def shared_prefix_makespans(
    runs: Sequence[tuple[Platform, Plan]], prefix_steps: int
) -> np.ndarray:
    """Makespans of strict-order runs that share their first
    ``prefix_steps`` port messages, in input order.

    The incremental-search primitive: the shared prefix is simulated
    *once* (on one instance) and its state broadcast across the batch, so
    a population of candidate continuations — identical history, divergent
    planned suffixes — is scored at the cost of one prefix replay plus the
    suffixes.  Per-instance results are bit-identical to running each full
    plan through :func:`batch_simulate` (and therefore to the scalar
    engines); the prefix really must be shared and is verified lazily
    (first divergence reported with its step index and worker).  One
    :class:`BatchEngine` is built per call: the adaptive boundary
    re-selection calls this at every event boundary of a run.
    """
    return BatchEngine.shared_prefix(runs, prefix_steps).run().makespans()


def batch_simulate(runs: Sequence[tuple[Platform, Plan]]) -> np.ndarray:
    """Makespan of every ``(platform, plan)`` run, in input order.

    The bulk-evaluation entry point of the planning layer: one call
    replaces a Python loop of :func:`~repro.sim.fastpath.fast_simulate`
    calls with grouped vectorized replays (see :func:`batch_outcomes` for
    grouping and fallback rules).  Per-instance makespans are bit-identical
    to the scalar engines.
    """
    if not len(runs):
        return np.zeros(0, dtype=np.float64)
    makespans = batch_outcomes(runs, _makespans=True)
    return np.array(makespans, dtype=np.float64)
