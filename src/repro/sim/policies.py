"""Port service policies.

The one-port master must decide, whenever its port frees, which worker's
next pipeline message to post.  Two families cover all the paper's
algorithms:

* :class:`StrictOrderPolicy` -- a fixed total order of messages (the MPI
  master posts blocking sends in program order); the port idles when the
  head message is not yet receivable.  This is the paper's homogeneous
  Algorithm 1 and the phase-1 selection simulation of Section 5.

* :class:`ReadyPolicy` -- serve, among receivable messages, the one ranked
  first by a priority; used by the heterogeneous execution (priority =
  selection order) and by the demand-driven heuristics (priority = how long
  the worker has been able to receive).

A ready priority is one of two keys, compared after the effective start
(lower is served first, remaining ties go to the lowest worker index):
``"head_cid"`` (:data:`selection_order_priority`) or ``"legal_start"``
(:data:`demand_priority`).  Because the key is data, every engine -- the
reference event engine, the flat-array fast path
(:mod:`repro.sim.fastpath`), the dynamic driver and the batch engine with
its kernels (:mod:`repro.sim.batch`) -- interprets it as one scalar
comparison over its own state layout.  These two policies are the only
ones a :class:`~repro.sim.plan.Plan` accepts, so every engine runs every
plan.
"""

from __future__ import annotations

from typing import Sequence

from .engine import Engine

__all__ = [
    "StrictOrderPolicy",
    "ReadyPolicy",
    "selection_order_priority",
    "demand_priority",
]


class StrictOrderPolicy:
    """Post messages in a fixed global order of worker indices.

    Each occurrence of a worker index consumes that worker's next pipeline
    message.  The engine idles the port whenever the head message's buffers
    are not free yet -- exactly an MPI master issuing blocking sends in
    program order.
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

    def fresh(self) -> "StrictOrderPolicy":
        """A copy with its cursor reset, safe to drive a new simulation."""
        return StrictOrderPolicy(self.order)


#: Serve the earliest-selected chunk first (heterogeneous execution: chunk
#: ids are allocated in selection order).
selection_order_priority = "head_cid"

#: Serve the worker that has been ready to receive the longest
#: (demand-driven heuristics: "the first worker which can receive it").
demand_priority = "legal_start"

#: The ready priorities every engine interprets.
_READY_KEYS = (selection_order_priority, demand_priority)


class ReadyPolicy:
    """Serve pending workers ordered by ``(effective start, priority key,
    worker index)``.

    The effective start is ``max(port_free, legal_start)``: among messages
    receivable at the earliest possible moment, the priority key breaks
    ties, then the lowest worker index; when nothing is receivable now,
    the port jumps to the earliest legal start.  ``priority`` is
    ``"head_cid"`` or ``"legal_start"``.
    """

    def __init__(self, priority: str) -> None:
        if not isinstance(priority, str):
            raise TypeError(
                f"ReadyPolicy needs a priority key {_READY_KEYS}, "
                f"got {type(priority).__name__}"
            )
        if priority not in _READY_KEYS:
            raise ValueError(
                f"unknown ready priority {priority!r}; known: {_READY_KEYS}"
            )
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

    def fresh(self) -> "ReadyPolicy":
        """Stateless: the policy itself drives any number of simulations."""
        return self
