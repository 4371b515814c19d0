"""Port service policies.

The one-port master must decide, whenever its port frees, which worker's
next pipeline message to post.  Two families cover all the paper's
algorithms, and each is plain data that every engine interprets:

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
flat-array :class:`~repro.sim.fastpath.FastEngine` behind ``simulate``,
``fast_simulate`` and the dynamic driver, and the batch engine with its
kernels (:mod:`repro.sim.batch`) -- interprets it as one scalar comparison
over its own state layout.  These two policies are the only ones a
:class:`~repro.sim.plan.Plan` accepts, so every engine runs every plan.
"""

from __future__ import annotations

from typing import Sequence

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
