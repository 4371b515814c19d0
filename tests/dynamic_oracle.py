"""Test-side dynamic oracle: the per-message driver loop.

:func:`repro.sim.dynamic.simulate_dynamic` posts every event-free window
through ``FastEngine._drain``.  The walls compare it with a second
interpretation of the same timeline semantics: :class:`PerMessageRun`, a
:class:`~repro.sim.dynamic.DynamicRun` whose ``run`` picks one message at a
time (its own strict cursor and ready scan, with the crash-window floors
folded in), applies the events due by that message's start, and only then
posts it.  It runs on either engine:

* a :class:`~repro.sim.fastpath.FastEngine`, one message per one-entry
  posting window (:func:`tests.reference_engine.post_next`), so controller
  runs are checked too, probes included (:func:`per_message`);
* the per-message event engine of ``tests/reference_engine.py``
  (:func:`reference_engine`), which always records full traces.  It has no
  online-control surface: a controller on it raises ``TypeError``.

Both context managers swap the classes the driver builds
(``repro.sim.dynamic.DynamicRun`` and, for the event engine,
``repro.sim.dynamic.FastEngine``) for the duration of a ``with`` block, so
everything that runs inside ``simulate_dynamic`` -- the coded family's
decode tracking included -- takes the per-message loop.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import repro.sim.dynamic as dynamic
from repro.core.ops import MsgKind
from repro.sim.dynamic import DynamicRun, DynamicStall
from repro.sim.engine import SimResult
from repro.sim.fastpath import FastEngine
from repro.sim.policies import selection_order_priority
from repro.sim.worker_state import CMode
from tests.reference_engine import Engine, post_next

_INF = float("inf")


class PerMessageRun(DynamicRun):
    """The driver's per-message loop: the oracle of its native windows."""

    def __init__(self, platform, plan, events, controller=None, record=False, completion=None):
        super().__init__(platform, plan, events, controller, record, completion)
        if controller is not None and not self._fast:
            raise TypeError("online control requires the fast engine")

    # ------------------------------------------------------------------
    # one-message views of the two engines
    # ------------------------------------------------------------------
    @property
    def _fast(self) -> bool:
        return isinstance(self.engine, FastEngine)

    def _head_legal(self, i: int) -> float:
        eng = self.engine
        return eng._head_legal[i] if self._fast else eng.legal_start(i)

    def _head_cid(self, i: int) -> int:
        eng = self.engine
        return eng._head_cid[i] if self._fast else eng.head(i).chunk.cid

    def _head_is_c_return(self, i: int) -> bool:
        eng = self.engine
        if self._fast:
            return eng._head_stage_kind[i] == FastEngine._K_C_RETURN
        return eng.head(i).kind is MsgKind.C_RETURN

    def _post(self, i: int, min_start: float) -> None:
        if self._fast:
            post_next(self.engine, i, min_start)
        else:
            self.engine.post_next(i, min_start)

    # ------------------------------------------------------------------
    # choosing the next message
    # ------------------------------------------------------------------
    def _choose(self) -> tuple[int, float] | None:
        if self._order is not None:
            return self._choose_strict()
        return self._choose_ready()

    def _choose_strict(self) -> tuple[int, float] | None:
        if self._pos >= len(self._order):
            return None
        widx = self._order[self._pos]
        if not self.engine.has_pending(widx):
            raise RuntimeError(
                f"strict order names worker {widx} at position {self._pos} "
                "but it has no pending message"
            )
        if self.avail[widx] == _INF:
            raise DynamicStall(
                f"strict order blocks on worker {widx}, which crashed and "
                "never rejoins"
            )
        legal = self._head_legal(widx)
        floor = self._floor(widx)
        if floor > legal:
            legal = floor
        port_free = self.engine.port_free
        return widx, (port_free if port_free > legal else legal)

    def _choose_ready(self) -> tuple[int, float] | None:
        # Ascending index scan with strict improvement on (effective start,
        # priority key), the crash-window floor folded into each worker's
        # legal start.
        eng = self.engine
        by_cid = self._priority == selection_order_priority
        avail = self.avail
        port_free = eng.port_free
        best = -1
        best_eff = 0.0
        best_key: float | int = 0
        frontier = self.frontier
        for i in range(len(avail)):
            if not eng.has_pending(i) or avail[i] == _INF:
                continue
            legal = self._head_legal(i)
            floor = avail[i] if avail[i] > frontier else frontier
            if floor > legal:
                legal = floor
            eff = port_free if port_free > legal else legal
            key = self._head_cid(i) if by_cid else legal
            if best < 0 or eff < best_eff or (eff == best_eff and key < best_key):
                best, best_eff, best_key = i, eff, key
        if best < 0:
            return None
        return best, best_eff

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> "PerMessageRun":
        eng = self.engine
        events = self.events
        while True:
            if self.allocator is not None:
                self.allocator.refill_via(eng.has_pending, eng.assign_chunk)
            pick = self._choose()
            if pick is None:
                if self._order is None and eng.pending_workers:
                    raise DynamicStall(
                        "all remaining messages belong to workers that "
                        f"crashed and never rejoin: {eng.pending_workers}"
                    )
                break
            widx, start = pick
            if self.eidx < len(events) and events[self.eidx].time <= start:
                self._apply_due(start)
                continue  # re-choose under the new parameters/availability
            track = self.completion
            ret_cid = (
                self._head_cid(widx)
                if track is not None and self._head_is_c_return(widx)
                else None
            )
            self._post(widx, self._floor(widx))
            if self._order is not None:
                self._pos += 1
                self._executed.append(widx)
            if ret_cid is not None:
                # the message just posted ends at the (now advanced) port
                # horizon: the time the master holds this share's C blocks
                track.on_return(ret_cid, eng.port_free)
                if track.satisfied:
                    self._abandon_pending()
                    break
        leftover = eng.pending_workers
        if leftover:
            raise RuntimeError(
                f"policy stopped with pending messages on workers {leftover}"
            )
        return self

    def _abandon_pending(self) -> None:
        """The driver's decode-stop on a ``FastEngine``; on the event engine,
        drop every pending chunk at the completion time and kill the ones
        already in flight, so a second engine witnesses the same decode
        semantics."""
        if self._fast:
            super()._abandon_pending()
            return
        eng = self.engine
        at = eng.port_free
        dropped = []
        for ws in eng.workers:
            if not ws.has_pending:
                continue
            pos = ws.chunk_pos
            init_stage = 0 if ws.c_mode is not CMode.NONE else 1
            if ws.stage != init_stage:
                self.killed.append((ws.chunks[pos].cid, at))
                ws.stage = init_stage
            dropped.extend(ws.chunks[pos:])
            del ws.chunks[pos:]
        if dropped:
            gone = {id(ch) for ch in dropped}
            eng.all_chunks = [ch for ch in eng.all_chunks if id(ch) not in gone]


@contextmanager
def per_message(engine=FastEngine):
    """Run every ``simulate_dynamic`` call in the block through the
    per-message loop, on ``engine`` (``FastEngine`` or the event engine)."""
    with mock.patch.object(dynamic, "DynamicRun", PerMessageRun), mock.patch.object(
        dynamic, "FastEngine", engine
    ):
        yield


def reference_engine():
    """Run every ``simulate_dynamic`` call in the block through the
    per-message loop on the reference event engine."""
    return per_message(Engine)


def on_engine(name: str):
    """``reference_engine()`` for ``"reference"``, a no-op for ``"fast"``."""
    return reference_engine() if name == "reference" else nullcontext()


def simulate_dynamic_reference(*args, **kwargs) -> SimResult:
    """:func:`repro.sim.dynamic.simulate_dynamic` on the reference engine."""
    with reference_engine():
        return dynamic.simulate_dynamic(*args, **kwargs)


def simulate_dynamic_per_message(*args, **kwargs) -> SimResult:
    """:func:`repro.sim.dynamic.simulate_dynamic` through the per-message
    loop on a ``FastEngine``."""
    with per_message():
        return dynamic.simulate_dynamic(*args, **kwargs)
