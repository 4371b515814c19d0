"""Test-side dynamic oracle: the reference event engine behind the
segmented driver.

:func:`repro.sim.dynamic.simulate_dynamic` always drives the flat-array
:class:`~repro.sim.fastpath.FastEngine` through ``_FastAdapter``.  The
engine equivalence wall wants the same timeline interpretation replayed a
second time on the per-message :class:`tests.reference_engine.Engine`, so
:func:`reference_engine` swaps :class:`ReferenceAdapter` in for the
duration of a ``with`` block.  Everything that runs inside
``simulate_dynamic`` -- the coded family's decode tracking included --
then runs on the reference engine, which always records full traces.

The oracle has no online-control surface (``supports_control = False``):
a controller on it raises ``TypeError`` in the driver.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import replace
from unittest import mock

import repro.sim.dynamic as dynamic
from repro.core.ops import MsgKind
from repro.sim.engine import SimResult
from repro.sim.worker_state import CMode
from tests.reference_engine import Engine


class ReferenceAdapter:
    """Event-engine interpretation of the driver's timeline semantics."""

    supports_control = False

    def __init__(self, platform, plan) -> None:
        self.platform = platform
        self.engine = Engine(platform, depths=plan.depths, c_mode=plan.c_mode)
        for widx, chunks in enumerate(plan.assignments):
            for ch in chunks:
                self.engine.assign_chunk(widx, ch)

    @property
    def p(self) -> int:
        return self.platform.p

    @property
    def port_free(self) -> float:
        return self.engine.port_free

    def has_pending(self, i: int) -> bool:
        return self.engine.has_pending(i)

    def head_legal(self, i: int) -> float:
        return self.engine.legal_start(i)

    def head_cid(self, i: int) -> int:
        return self.engine.head(i).chunk.cid

    def head_is_c_return(self, i: int) -> bool:
        return self.engine.head(i).kind is MsgKind.C_RETURN

    def post(self, i: int, min_start: float) -> None:
        self.engine.post_next(i, min_start)

    def set_params(self, i: int, c: float, w: float) -> None:
        ws = self.engine.workers[i]
        ws.worker = replace(ws.worker, c=c, w=w)

    @property
    def pending_workers(self) -> list[int]:
        return self.engine.pending_workers

    def abandon_pending(self, at: float) -> list[tuple[int, float]]:
        """Drop every pending chunk at the completion time ``at``; returns
        the ``(cid, at)`` kills of chunks already in flight."""
        eng = self.engine
        killed: list[tuple[int, float]] = []
        dropped = []
        for ws in eng.workers:
            if not ws.has_pending:
                continue
            pos = ws.chunk_pos
            init_stage = 0 if ws.c_mode is not CMode.NONE else 1
            if ws.stage != init_stage:
                killed.append((ws.chunks[pos].cid, at))
                ws.stage = init_stage
            dropped.extend(ws.chunks[pos:])
            del ws.chunks[pos:]
        if dropped:
            gone = {id(ch) for ch in dropped}
            eng.all_chunks = [ch for ch in eng.all_chunks if id(ch) not in gone]
        return killed

    def result(self, grid, meta) -> SimResult:
        return self.engine.result(grid=grid, meta=meta)

    def clone(self) -> "ReferenceAdapter":
        raise TypeError("online control requires the fast engine")


@contextmanager
def reference_engine():
    """Run every ``simulate_dynamic`` call in the block on the reference
    event engine."""
    with mock.patch.object(dynamic, "_FastAdapter", ReferenceAdapter):
        yield


def on_engine(name: str):
    """``reference_engine()`` for ``"reference"``, a no-op for ``"fast"``."""
    return reference_engine() if name == "reference" else nullcontext()


def simulate_dynamic_reference(*args, **kwargs) -> SimResult:
    """:func:`repro.sim.dynamic.simulate_dynamic` on the reference engine."""
    with reference_engine():
        return dynamic.simulate_dynamic(*args, **kwargs)
