"""Dynamic platforms: event timelines and segmented simulation.

The paper evaluates schedulers on platforms whose bandwidths and speeds
are fixed for the whole run.  This module opens the *non-stationary*
scenario family: a :class:`PlatformTimeline` is a declarative list of
piecewise-constant :class:`TimelineEvent`\\ s — bandwidth and speed changes,
straggler onset and recovery, worker crash and (re)join — and
:func:`simulate_dynamic` is a segmented driver that replays any
:class:`~repro.sim.plan.Plan`, cutting the run at each event boundary,
rescaling the affected worker's pre-multiplied port/compute costs, and
resuming.

**Segmentation semantics.**  Events are piecewise-constant at *message
granularity*, matching the block-level cost model of the engines: an event
at time ``T`` governs every port message whose start time is ``>= T`` (and
the compute that message schedules); a message already started before ``T``
completes at its old rates.  Crash windows are availability floors: a
crashed worker cannot be served between its ``crash`` and the matching
``join`` (its already-delivered rounds keep computing — the model is a
network outage, not a power loss); a ``crash`` with no later ``join``
permanently removes the worker, and a run that still holds messages for it
raises :class:`DynamicStall` unless a controller migrates the work.

**Native windows.**  Between two timeline events nothing changes the
platform, so the driver hands each event-free window to
:class:`~repro.sim.fastpath.FastEngine`'s one posting loop (strict order
or ready policy, with the demand allocator refilling as usual): it takes
per-worker start floors (crash-window availability and the event
frontier, ``inf`` for a worker that never rejoins) and stops before the
first message that would start at or after the next event, reporting
that message's start.  The driver then applies the events due by that
start, fires the controller and opens the next window.  A window that
reports no next message ends the run: it drained, the ``completion``
criterion (the coded family's decode check, which the loop consults after
every ``C_RETURN``) was met, or only workers that never rejoin hold
messages, which raises :class:`DynamicStall`.  Every run, recorded or
not, takes this one path, so the selection rule and the message
arithmetic are written once.

**Bit-identity.**  With an empty timeline the driver posts exactly the
message sequence of :func:`~repro.sim.fastpath.fast_simulate`, through the
same arithmetic, so makespans and per-worker statistics are bit-identical
(the property wall in ``tests/test_dynamic.py`` pins this across the
scheduler × CMode × policy matrix).  The test side keeps the per-message
interpretation of the driver as the oracle (``tests/dynamic_oracle.py``):
a :class:`DynamicRun` subclass that picks and posts one message at a time,
on a ``FastEngine`` (so controller runs are checked too) or on the
per-message event engine of ``tests/reference_engine.py``.  The walls in
``tests/test_dynamic_validation.py`` require native windows to match it
bit for bit: makespans, statistics, kills, boundary decisions and the
recorded port and compute events.

**Online control.**  A ``controller`` callback fires at every event
boundary with the live :class:`DynamicRun`; it may reclaim unstarted
chunks, kill in-flight chunks, append replacement chunks, splice a strict
order or swap the demand allocator — the mechanism under
:class:`repro.schedulers.adaptive.AdaptiveScheduler`'s online rescheduling.
:meth:`DynamicRun.probe` clones the whole run (engine, allocator, policy
cursor) so candidate replans can be scored by running them to completion
under the *current* parameters without disturbing — or peeking past — the
live run.  Controller reactions are causal: once an event at ``T`` has been
applied, no later message may start before ``T`` (the *event frontier*) —
a migration decided at ``T`` cannot send replacement chunks into the past.
For runs without a controller the frontier is provably a no-op (every
post already starts at or after the last applied event), so static replays
stay bit-identical.

**Auditability.**  With ``record_events=True`` the fast engine's posting
loop records, for every message it posts, the same
:class:`~repro.core.ops.PortEvent` / :class:`~repro.core.ops.ComputeEvent`
records a traced static replay emits — including under online control,
where the driver also logs killed (abandoned) chunk ids into
``meta["dynamic"]``; probes never record — so every dynamic run, static or
adaptive, can be audited by :func:`repro.sim.validate.validate_dynamic`.

**Stochastic timelines.**  :func:`random_timeline` draws a seeded Poisson
event process over the scenario families (straggler / bandwidth / crash /
mixed); it is the generator behind ``dynamic_sweep(stochastic=...)``,
``repro-mm dynamic --stochastic`` and the property-fuzz wall in
``tests/test_dynamic_validation.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk
from ..obs import counter, trace
from ..platform.model import Platform, Worker
from .allocator import PanelDemandAllocator
from .engine import SimResult
from .fastpath import FastEngine
from .plan import Plan
from .policies import StrictOrderPolicy
from .worker_state import c_message_count

__all__ = [
    "EVENT_KINDS",
    "TIMELINE_FAMILIES",
    "TimelineEvent",
    "PlatformTimeline",
    "DynamicStall",
    "DynamicRun",
    "simulate_dynamic",
    "random_timeline",
]

_INF = math.inf

#: Recognized event kinds (see :class:`PlatformTimeline`'s builders).
EVENT_KINDS = ("set_bandwidth", "set_speed", "straggle", "recover", "crash", "join")

_VALUE_KINDS = frozenset(("set_bandwidth", "set_speed", "straggle"))


def _reprice(
    ev: TimelineEvent,
    cs: list[float],
    ws: list[float],
    base_cs: Sequence[float],
    base_ws: Sequence[float],
) -> bool:
    """The one event-pricing rule: apply ``ev`` to the per-worker costs
    ``cs``/``ws`` in place (``straggle`` and ``recover`` against the base
    costs).  Returns False for ``crash``/``join``, which change no price."""
    i = ev.worker
    kind = ev.kind
    if kind == "set_bandwidth":
        cs[i] = ev.value
    elif kind == "set_speed":
        ws[i] = ev.value
    elif kind == "straggle":
        ws[i] = base_ws[i] * ev.value
    elif kind == "recover":
        cs[i], ws[i] = base_cs[i], base_ws[i]
    else:
        return False
    return True


class DynamicStall(RuntimeError):
    """The schedule cannot make progress: every remaining message belongs
    to a worker that crashed and never rejoins."""


@dataclass(frozen=True)
class TimelineEvent:
    """One piecewise-constant platform change.

    ``value`` is the new ``c`` (``set_bandwidth``), the new ``w``
    (``set_speed``) or the slowdown factor applied to the *base* ``w``
    (``straggle``); ``recover``/``crash``/``join`` carry no value.
    """

    time: float
    kind: str
    worker: int
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}")
        if not (self.time >= 0.0 and math.isfinite(self.time)):
            raise ValueError(f"event time must be finite and >= 0, got {self.time!r}")
        if self.worker < 0:
            raise ValueError("event worker index must be non-negative")
        if self.kind in _VALUE_KINDS:
            if self.value is None or not (self.value > 0 and math.isfinite(self.value)):
                raise ValueError(f"{self.kind} needs a positive finite value")
        elif self.value is not None:
            raise ValueError(f"{self.kind} takes no value")


class PlatformTimeline:
    """Declarative, time-ordered list of platform events.

    Builder methods append an event and return ``self`` for chaining::

        timeline = (
            PlatformTimeline()
            .straggle(at=150.0, worker=0, factor=16.0)
            .recover(at=900.0, worker=0)
        )

    **Same-time ordering.**  Events at equal times apply in *insertion
    order* — builders insert after existing events with the same
    timestamp, and every consumer (the segmented driver,
    :meth:`params_at`, :meth:`crashed_at`, the validator's crash windows)
    walks the list front to back, so the last-inserted event wins.  The
    edge cases this pins down (regression-tested in
    ``tests/test_timeline_edges.py``):

    * ``crash(t, i)`` then ``join(t, i)`` is an *empty* outage: crash
      windows are half-open ``[crash, join)``, the driver's availability
      floor becomes ``t`` (not infinity), and :meth:`crashed_at` reports
      the worker up at ``t``.  Inserting the ``join`` *before* the
      ``crash`` instead leaves the worker down (forever, if no later
      join) — the crash, applied last, wins.
    * two parameter events on the same worker at the same time (for
      example ``straggle`` then ``recover``): the last-inserted one is in
      force at ``t``.

    ``straggle`` composes against the *base* platform (a second straggle
    replaces, not stacks); ``recover`` restores the base ``(c, w)``.
    """

    def __init__(self, events: Iterable[TimelineEvent] = ()) -> None:
        self._events = sorted(events, key=lambda ev: ev.time)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def _add(self, event: TimelineEvent) -> "PlatformTimeline":
        # insert after existing events with the same time (stable order)
        idx = len(self._events)
        while idx > 0 and self._events[idx - 1].time > event.time:
            idx -= 1
        self._events.insert(idx, event)
        return self

    def set_bandwidth(self, at: float, worker: int, c: float) -> "PlatformTimeline":
        """From ``at`` on, worker ``worker`` costs ``c`` s/block on the link."""
        return self._add(TimelineEvent(at, "set_bandwidth", worker, c))

    def set_speed(self, at: float, worker: int, w: float) -> "PlatformTimeline":
        """From ``at`` on, worker ``worker`` costs ``w`` s/update."""
        return self._add(TimelineEvent(at, "set_speed", worker, w))

    def straggle(self, at: float, worker: int, factor: float) -> "PlatformTimeline":
        """From ``at`` on, worker ``worker`` computes ``factor``× slower
        than its base speed."""
        return self._add(TimelineEvent(at, "straggle", worker, factor))

    def recover(self, at: float, worker: int) -> "PlatformTimeline":
        """Restore worker ``worker``'s base ``(c, w)`` at ``at``."""
        return self._add(TimelineEvent(at, "recover", worker))

    def crash(self, at: float, worker: int) -> "PlatformTimeline":
        """Worker ``worker`` becomes unreachable at ``at`` (until a later
        ``join``; forever if none follows)."""
        return self._add(TimelineEvent(at, "crash", worker))

    def join(self, at: float, worker: int) -> "PlatformTimeline":
        """Worker ``worker`` becomes reachable again at ``at``."""
        return self._add(TimelineEvent(at, "join", worker))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[TimelineEvent, ...]:
        return tuple(self._events)

    @property
    def empty(self) -> bool:
        return not self._events

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlatformTimeline({len(self._events)} events)"

    def validate_for(self, platform: Platform) -> None:
        """Raise when an event names a worker outside ``platform``."""
        for ev in self._events:
            if ev.worker >= platform.p:
                raise ValueError(
                    f"timeline event {ev.kind!r} names worker {ev.worker} "
                    f"but the platform has only {platform.p}"
                )

    # ------------------------------------------------------------------
    # platform views
    # ------------------------------------------------------------------
    def params_at(self, base: Platform, time: float) -> tuple[list[float], list[float]]:
        """Per-worker ``(cs, ws)`` in force at ``time`` (events at exactly
        ``time`` included), derived from the ``base`` platform.

        Events are priced by :func:`_reprice`, which the segmented driver
        applies too, so a platform materialized via :meth:`platform_at`
        prices messages exactly like the corresponding segment of a dynamic
        run.
        """
        base_cs, base_ws = base.cs, base.ws
        cs, ws = list(base_cs), list(base_ws)
        for ev in self._events:
            if ev.time > time:
                break
            _reprice(ev, cs, ws, base_cs, base_ws)
        return cs, ws

    def platform_at(self, base: Platform, time: float, name: str = "") -> Platform:
        """The platform as priced at ``time`` (memories and names kept)."""
        cs, ws = self.params_at(base, time)
        workers = [
            Worker(wk.index, cs[wk.index], ws[wk.index], wk.m, wk.name) for wk in base
        ]
        return Platform(workers, name=name or f"{base.name}@t{time:g}")

    def final_platform(self, base: Platform, name: str = "") -> Platform:
        """The platform after the last event (the clairvoyant planner's
        "true" platform)."""
        last = self._events[-1].time if self._events else 0.0
        return self.platform_at(base, last, name=name or f"{base.name}@final")

    def crashed_at(self, time: float, *, final: bool = False) -> set[int]:
        """Workers unreachable at ``time`` — or, with ``final``, workers
        that never rejoin at all."""
        down: set[int] = set()
        for ev in self._events:
            if not final and ev.time > time:
                break
            if ev.kind == "crash":
                down.add(ev.worker)
            elif ev.kind == "join":
                down.discard(ev.worker)
        return down

    def affected_workers(self, base: Platform, time: float) -> list[int]:
        """Workers whose parameters at ``time`` differ from ``base``, or
        that are unreachable at ``time``."""
        cs, ws = self.params_at(base, time)
        down = self.crashed_at(time)
        return [
            i
            for i in range(base.p)
            if i in down or cs[i] != base[i].c or ws[i] != base[i].w
        ]


# ----------------------------------------------------------------------
# the segmented driver
# ----------------------------------------------------------------------
class DynamicRun:
    """One segmented simulation in flight, on its own
    :class:`~repro.sim.fastpath.FastEngine` (``run.engine``).

    Most callers go through :func:`simulate_dynamic`; controllers receive
    the live run and use the mutation helpers (``reclaim_unstarted``,
    ``kill_in_flight``, ``append_chunk``, ``set_allocator``,
    ``rebuild_strict_order``) plus :meth:`probe` for what-if scoring.
    """

    def __init__(
        self,
        platform: Platform,
        plan: Plan,
        events: Sequence[TimelineEvent],
        controller: Callable[["DynamicRun", list[TimelineEvent]], None] | None = None,
        record: bool = False,
        completion=None,
    ) -> None:
        self.engine = FastEngine(platform, depths=plan.depths, c_mode=plan.c_mode)
        for widx, chunks in enumerate(plan.assignments):
            for ch in chunks:
                self.engine.assign_chunk(widx, ch)
        if record:
            # the engine's posting loop records every post (probes never do)
            self.engine._log = ([], [])
        # the run consumes its allocator: a clone leaves the plan replayable
        self.allocator = None if plan.allocator is None else plan.allocator.clone()
        self.c_mode = plan.c_mode
        self.controller = controller
        self.completion = completion
        self.events = list(events)
        self.eidx = 0
        self.events_applied = 0
        self.base_cs = list(platform.cs)
        self.base_ws = list(platform.ws)
        self.cur_cs = list(platform.cs)
        self.cur_ws = list(platform.ws)
        self.avail = [0.0] * platform.p
        # causality floor: once an event at T applied, no later post starts
        # before T (only binding after controller mutations — see module doc)
        self.frontier = 0.0
        self.killed: list[tuple[int, float]] = []  # (cid, kill time)
        policy = plan.policy
        self._order: list[int] | None = None
        self._pos = 0
        # strict-order runs keep their full posting history: the worker
        # posted at each global step so far.  Splices rewrite the future
        # (self._order), never this; kill_in_flight prunes the killed
        # chunk's posted messages so the history always maps positionally
        # onto the surviving pipelines (the shared-prefix re-scoring
        # contract of the boundary re-selection).
        self._executed: list[int] = []
        self._priority: str | None = None
        if isinstance(policy, StrictOrderPolicy):
            self._order = list(policy.order)
        else:
            self._priority = policy.priority

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _apply_event(self, ev: TimelineEvent) -> None:
        i = ev.worker
        if _reprice(ev, self.cur_cs, self.cur_ws, self.base_cs, self.base_ws):
            self.engine.set_worker_params(i, self.cur_cs[i], self.cur_ws[i])
        elif ev.kind == "crash":
            # unreachable until the matching join (forever if none)
            until = _INF
            for later in self.events[self.eidx :]:
                if later.kind == "join" and later.worker == i:
                    until = later.time
                    break
            self.avail[i] = until
        else:  # join
            self.avail[i] = ev.time

    def _apply_due(self, start: float) -> None:
        applied: list[TimelineEvent] = []
        while self.eidx < len(self.events) and self.events[self.eidx].time <= start:
            ev = self.events[self.eidx]
            self.eidx += 1
            self._apply_event(ev)
            applied.append(ev)
        self.events_applied += len(applied)
        if applied and applied[-1].time > self.frontier:
            self.frontier = applied[-1].time
        if self.controller is not None:
            self.controller(self, applied)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> "DynamicRun":
        """Post window after window on the engine's posting loop.  Each
        window stops before the first message that would start at or after
        the next timeline event; the driver applies the events due by that
        message's start, fires the controller and opens the next window.
        A window that reports no next message ends the run: the completion
        criterion was met, the run drained, or only workers that never
        rejoin hold messages (a stall)."""
        eng = self.engine
        events = self.events
        while True:
            until = events[self.eidx].time if self.eidx < len(events) else _INF
            floors = [self._floor(i) for i in range(eng._p)]
            order = self._order
            pos, start = eng._drain(
                order,
                floors,
                until,
                self._pos,
                allocator=self.allocator,
                priority=self._priority,
                completion=self.completion,
            )
            if order is not None:
                self._executed.extend(order[self._pos : pos])
                self._pos = pos
            if start == _INF:
                break
            self._apply_due(start)
        if self.completion is not None and self.completion.satisfied:
            self._abandon_pending()
        elif self._order is not None and self._pos < len(self._order):
            raise DynamicStall(
                f"strict order blocks on worker {self._order[self._pos]}, which "
                "crashed and never rejoins"
            )
        elif self._order is None and eng.pending_workers:
            raise DynamicStall(
                "all remaining messages belong to workers that "
                f"crashed and never rejoin: {eng.pending_workers}"
            )
        leftover = eng.pending_workers
        if leftover:
            raise RuntimeError(
                f"policy stopped with pending messages on workers {leftover}"
            )
        return self

    def _floor(self, widx: int) -> float:
        """External start floor of worker ``widx``'s next message: its
        crash-window availability and the applied-event frontier."""
        a = self.avail[widx]
        return a if a > self.frontier else self.frontier

    def _abandon_pending(self) -> None:
        """Drop everything still pending once the completion criterion is
        met: in-flight chunks are killed at the completion time (their sunk
        port and compute time stays on the books), unstarted chunks are
        silently reclaimed."""
        at = self.engine.port_free
        for i in range(self.engine._p):
            self.kill_in_flight(i, at=at)
            self.reclaim_unstarted(i)

    # ------------------------------------------------------------------
    # controller helpers
    # ------------------------------------------------------------------
    def chunk_started(self, widx: int) -> bool:
        """Whether worker ``widx``'s current chunk has posted any message."""
        eng = self.engine
        if not eng.has_pending(widx):
            return False
        return eng._stage[widx] != eng._init_stage

    def pending_chunks(self, widx: int) -> list[Chunk]:
        """Chunks still (partly) unposted on worker ``widx``, in order."""
        eng = self.engine
        return [rec[0] for rec in eng._chunks[widx][eng._pos[widx] :]]

    def pending_messages(self, widx: int) -> int:
        """Port messages worker ``widx`` still has to post."""
        eng = self.engine
        lst = eng._chunks[widx]
        pos = eng._pos[widx]
        if pos >= len(lst):
            return 0
        extra = c_message_count(self.c_mode)
        total = lst[pos][5] + extra - (eng._stage[widx] - eng._init_stage)
        for rec in lst[pos + 1 :]:
            total += rec[5] + extra
        return total

    def in_flight_messages(self, widx: int) -> int:
        """Port messages worker ``widx``'s *started* chunk still has to
        post (0 when nothing is in flight) — the messages that survive a
        reclaim of every unstarted chunk."""
        eng = self.engine
        if not self.chunk_started(widx):
            return 0
        rec = eng._chunks[widx][eng._pos[widx]]
        extra = c_message_count(self.c_mode)
        return rec[5] + extra - (eng._stage[widx] - eng._init_stage)

    def executed_order(self) -> list[int]:
        """Copy of a strict-order run's posting history: the worker posted
        at each global step so far, pruned of killed chunks' messages (see
        :meth:`kill_in_flight`) so it maps positionally onto the chunks of
        :meth:`chunk_history`."""
        if self._order is None:
            raise TypeError("not a strict-order run")
        return list(self._executed)

    def pending_order(self) -> list[int]:
        """Copy of a strict-order run's remaining order entries."""
        if self._order is None:
            raise TypeError("not a strict-order run")
        return list(self._order[self._pos :])

    def chunk_history(self, widx: int) -> list[Chunk]:
        """Every chunk in worker ``widx``'s pipeline — completed, in
        flight, and still pending — in stream order.  Together with
        :meth:`executed_order` + :meth:`pending_order` this reconstructs
        the run as one strict-order plan over current parameters (the
        shared prefix of the boundary re-selection's candidate batch)."""
        eng = self.engine
        return [rec[0] for rec in eng._chunks[widx]]

    def depths(self) -> list[int]:
        """Per-worker prefetch depths of the underlying engine."""
        return list(self.engine._depth)

    def _drop_from_all(self, eng: FastEngine, dropped: list) -> None:
        if not dropped:
            return
        gone = {id(rec[0]) for rec in dropped}
        eng.all_chunks = [ch for ch in eng.all_chunks if id(ch) not in gone]

    def reclaim_unstarted(self, widx: int, keep_extra: int = 0) -> list[Chunk]:
        """Remove and return worker ``widx``'s chunks that have not posted
        any message yet (the in-flight chunk, if any, stays).

        ``keep_extra`` leaves that many additional leading unstarted chunks
        in place — the re-selection path keeps a healthy worker's
        partially-walked panel with its owner (migrating it would split it
        into bands and re-pay its A traffic) and re-spreads only the
        untouched whole panels behind it."""
        eng = self.engine
        lst = eng._chunks[widx]
        keep = eng._pos[widx] + (1 if self.chunk_started(widx) else 0) + keep_extra
        dropped = lst[keep:]
        del lst[keep:]
        self._drop_from_all(eng, dropped)
        eng._refresh_head(widx)
        return [rec[0] for rec in dropped]

    def kill_in_flight(self, widx: int, at: float | None = None) -> Chunk | None:
        """Abandon worker ``widx``'s in-flight chunk (sunk communication and
        compute *time* stay on the books; the chunk must be re-executed
        elsewhere).  The worker discards the chunk's resident blocks at the
        kill time — the current event frontier, or ``at`` when given (the
        decode-completion path kills at the decode time) — which, combined
        with the frontier floor on later posts, keeps replacement traffic
        within the worker's memory.  Returns the abandoned chunk, or
        ``None`` if nothing was in flight."""
        eng = self.engine
        if not self.chunk_started(widx):
            return None
        posted = eng._stage[widx] - eng._init_stage
        pos = eng._pos[widx]
        dropped = eng._chunks[widx][pos:pos + 1]
        del eng._chunks[widx][pos:pos + 1]
        eng._stage[widx] = eng._init_stage
        self._drop_from_all(eng, dropped)
        eng._refresh_head(widx)
        self.killed.append((dropped[0][1], self.frontier if at is None else at))
        if self._order is not None and posted:
            # per-worker streams are FIFO, so the killed chunk's posted
            # messages are exactly the last `posted` occurrences of widx in
            # the executed history; dropping them keeps the history mapped
            # positionally onto the surviving pipelines (probes carry no
            # history, so the scan may legitimately find fewer)
            exe = self._executed
            remaining = posted
            for idx in range(len(exe) - 1, -1, -1):
                if exe[idx] == widx:
                    del exe[idx]
                    remaining -= 1
                    if remaining == 0:
                        break
        return dropped[0][0]

    def append_chunk(self, widx: int, chunk: Chunk) -> None:
        """Append a chunk to worker ``widx``'s pipeline."""
        self.engine.assign_chunk(widx, chunk)

    def set_allocator(self, allocator: PanelDemandAllocator | None) -> None:
        """Swap the demand allocator driving dynamic refills (ready-policy
        runs only, as in a :class:`~repro.sim.plan.Plan`)."""
        if allocator is not None and self._order is not None:
            raise TypeError("a strict order cannot be driven by a demand allocator")
        self.allocator = allocator

    def rebuild_strict_order(self, new_tail: Sequence[int]) -> None:
        """Splice the strict order after a replan: per worker, keep the
        first *n* remaining occurrences (its still-pending messages map to
        old-order entries positionally), drop the rest, append
        ``new_tail``."""
        if self._order is None:
            raise TypeError("not a strict-order run")
        eng = self.engine
        need = [self.pending_messages(i) for i in range(eng._p)]
        # exclude messages the new tail itself will serve: new_tail entries
        # consume pipeline suffixes appended by the replan, so `need` must
        # be counted BEFORE appending replacement chunks — hence the
        # contract: rebuild the order first, then append chunks
        kept: list[int] = []
        for widx in self._order[self._pos :]:
            if need[widx] > 0:
                kept.append(widx)
                need[widx] -= 1
        self._order = kept + list(new_tail)
        self._pos = 0

    def next_cid(self) -> int:
        """A chunk id strictly above everything the run has seen."""
        eng = self.engine
        top = max((ch.cid for ch in eng.all_chunks), default=-1) + 1
        for lst in eng._chunks:
            for rec in lst:
                if rec[1] >= top:
                    top = rec[1] + 1
        if self.allocator is not None:
            top = max(top, self.allocator.next_cid)
        return top

    # ------------------------------------------------------------------
    # what-if probing
    # ------------------------------------------------------------------
    def probe(self) -> "DynamicRun":
        """Clone the run for candidate scoring: same engine state, policy
        cursor, availability and current parameters, but no future events
        and no controller — :meth:`finish` then answers "what makespan if
        conditions stay as they are now and we change nothing else?"."""
        other = type(self).__new__(type(self))
        other.engine = self.engine.clone()
        other.allocator = None if self.allocator is None else self.allocator.clone()
        other.c_mode = self.c_mode
        other.controller = None
        other.completion = None  # probes run to drain, never decode-stop
        other.events = []
        other.eidx = 0
        other.events_applied = self.events_applied
        other.base_cs = self.base_cs
        other.base_ws = self.base_ws
        other.cur_cs = list(self.cur_cs)
        other.cur_ws = list(self.cur_ws)
        other.avail = list(self.avail)
        other.frontier = self.frontier
        other.killed = []
        other._order = None if self._order is None else list(self._order)
        # probes never re-select (no controller), so they carry no history
        other._executed = []
        other._pos = self._pos
        other._priority = self._priority
        return other

    def finish(self) -> float:
        """Run to completion and return the makespan."""
        self.run()
        return self.engine.last_end


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def simulate_dynamic(
    platform: Platform,
    plan: Plan,
    timeline: PlatformTimeline | None = None,
    grid: BlockGrid | None = None,
    *,
    controller: Callable[[DynamicRun, list[TimelineEvent]], None] | None = None,
    record_events: bool = False,
    completion=None,
) -> SimResult:
    """Run ``plan`` on ``platform`` under a :class:`PlatformTimeline`.

    With an empty (or ``None``) timeline the result is bit-identical to
    :func:`~repro.sim.fastpath.fast_simulate`.  Each event-free window
    runs on ``FastEngine``'s own posting loop (see the module docstring),
    whatever the switches below.  ``controller`` fires at every event
    boundary with the live :class:`DynamicRun`.

    ``record_events`` is the one trace switch: the result then carries
    full port/compute traces and an audit annex in ``meta["dynamic"]``
    (``c_mode``, ``killed_cids``) — everything
    :func:`repro.sim.validate.validate_dynamic` needs.  The engine's
    posting loop records the events as it posts them (the times it
    computes, no overhead when off).

    ``completion`` installs an early-stop criterion (the coded-redundancy
    family's decode threshold — see :mod:`repro.schedulers.coded`): an
    object with ``on_return(cid, end)`` called after every posted
    ``C_RETURN`` (before the allocator refills) and a ``satisfied``
    property.  The instant it is
    satisfied the run stops, killing in-flight chunks at the completion
    time (recorded in ``killed_cids``/``kills`` like controller kills)
    and discarding unstarted ones.
    """
    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan)!r}")
    if timeline is None:
        timeline = PlatformTimeline()
    timeline.validate_for(platform)
    run = DynamicRun(
        platform,
        plan,
        timeline.events,
        controller=controller,
        record=record_events,
        completion=completion,
    )
    with trace("simulate_dynamic", events=len(timeline)):
        run.run()
    # segment/event accounting: each applied event boundary starts a new
    # replay segment, so segments = events_applied + 1
    counter("dynamic.runs").inc()
    counter("dynamic.events").inc(len(timeline))
    counter("dynamic.events_applied").inc(run.events_applied)
    counter("dynamic.segments").inc(run.events_applied + 1)
    if run.killed:
        counter("dynamic.kills").inc(len(run.killed))
    meta = dict(plan.meta)
    meta["dynamic"] = {
        "events": len(timeline),
        "events_applied": run.events_applied,
    }
    if record_events:
        meta["dynamic"]["c_mode"] = plan.c_mode.name
        meta["dynamic"]["killed_cids"] = sorted(cid for cid, _t in run.killed)
        meta["dynamic"]["kills"] = sorted(run.killed)
    return run.engine.result(grid=grid, meta=meta)


# ----------------------------------------------------------------------
# stochastic timelines
# ----------------------------------------------------------------------

#: Event-process families of :func:`random_timeline`.
TIMELINE_FAMILIES = ("straggler", "bandwidth", "crash", "mixed")


def random_timeline(
    rng,
    family: str,
    platform: Platform,
    horizon: float,
    *,
    rate: float = 3.0,
    severity: float = 8.0,
    outage_frac: float = 0.25,
) -> PlatformTimeline:
    """Draw a seeded Poisson event process over one scenario family.

    Event *arrivals* are Poisson with ``rate`` expected events over
    ``[0, horizon)`` (exponential inter-arrival gaps drawn from ``rng``, a
    seeded :class:`random.Random`); each arrival targets a uniformly random
    worker.  What the event does depends on the family:

    ``straggler``
        compute slowdown by a factor uniform in ``[1.5, severity]``, with a
        50% chance of a later ``recover``;
    ``bandwidth``
        link cost set to ``base_c`` times a factor uniform in
        ``[1.5, severity]``, with a 50% chance of a later ``recover``;
    ``crash``
        an outage window: ``crash`` now, ``join`` after a duration uniform
        in ``[0.5, 1.5] * outage_frac * horizon``.  Every crash gets a
        matching join, so generated timelines are always *recoverable* —
        the stall-freedom contract the fuzz wall asserts for the adaptive
        scheduler.  Arrivals for a worker already down are skipped (no
        nested outages);
    ``mixed``
        each arrival picks one of the three uniformly.

    The generator is deterministic in ``rng``'s seed — a fuzz failure is
    reproduced by re-seeding with the reported seed (see EXPERIMENTS.md).
    A draw may legitimately contain zero events (Poisson); recovery times
    may land beyond ``horizon`` (they then never fire, like any event after
    the run drains).
    """
    if family not in TIMELINE_FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {TIMELINE_FAMILIES}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if severity < 1.5:
        raise ValueError(
            "severity must be >= 1.5 (degradation factors are drawn uniformly "
            "from [1.5, severity])"
        )
    if outage_frac <= 0:
        raise ValueError("outage_frac must be positive")
    timeline = PlatformTimeline()
    down_until = [0.0] * platform.p
    mean_gap = horizon / rate
    t = rng.expovariate(1.0 / mean_gap)
    while t < horizon:
        kind = family if family != "mixed" else rng.choice(TIMELINE_FAMILIES[:3])
        widx = rng.randrange(platform.p)
        if kind == "crash":
            if down_until[widx] <= t:
                outage = rng.uniform(0.5, 1.5) * outage_frac * horizon
                timeline.crash(t, widx)
                timeline.join(t + outage, widx)
                down_until[widx] = t + outage
        elif kind == "straggler":
            timeline.straggle(t, widx, rng.uniform(1.5, severity))
            if rng.random() < 0.5:
                timeline.recover(t + rng.uniform(0.1, 0.6) * horizon, widx)
        else:  # bandwidth
            timeline.set_bandwidth(t, widx, platform[widx].c * rng.uniform(1.5, severity))
            if rng.random() < 0.5:
                timeline.recover(t + rng.uniform(0.1, 0.6) * horizon, widx)
        t += rng.expovariate(1.0 / mean_gap)
    return timeline
