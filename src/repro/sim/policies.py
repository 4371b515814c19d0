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

Ready priorities are *declarative*: a :class:`PolicyKeySpec` names a
lexicographic tuple of per-worker fields (lower is served first) drawn from
a small vocabulary (:data:`POLICY_KEY_FIELDS`).  Because the spec is data,
every engine -- the reference event engine, the flat-array fast path
(:mod:`repro.sim.fastpath`) and the vectorized batch engine
(:mod:`repro.sim.batch`) -- interprets it directly over its own state
layout instead of calling back into Python per candidate.  These two
policies, with a spec as the ready priority, are the only ones a
:class:`~repro.sim.plan.Plan` accepts, so every engine runs every plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import Engine

__all__ = [
    "StrictOrderPolicy",
    "ReadyPolicy",
    "PolicyKeySpec",
    "POLICY_KEY_FIELDS",
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

    def next_choice(self, engine: Engine) -> int | None:
        """Index of the worker whose head message to post, or ``None`` when
        the schedule is complete."""
        if self._pos >= len(self.order):
            return None
        widx = self.order[self._pos]
        self._pos += 1
        if engine.head(widx) is None:
            raise RuntimeError(
                f"strict order names worker {widx} at position {self._pos - 1} "
                "but it has no pending message"
            )
        return widx

    def fresh(self) -> "StrictOrderPolicy":
        """A copy with its cursor reset, safe to drive a new simulation."""
        return StrictOrderPolicy(self.order)


# ----------------------------------------------------------------------
# declarative ready-priority key specs
# ----------------------------------------------------------------------

#: Vocabulary of per-worker fields a :class:`PolicyKeySpec` may name.  Each
#: maps to a reference-engine getter; the fast path and the batch engine
#: interpret the same names over their own arrays.
POLICY_KEY_FIELDS: dict[str, Callable[[Engine, int], float | int]] = {
    # chunk id of the worker's head message (chunk ids are allocated in
    # selection order, so this is "earliest-selected first")
    "head_cid": lambda engine, widx: engine.head(widx).chunk.cid,
    # earliest legal start of the head message ("ready to receive the
    # longest" when minimized)
    "legal_start": lambda engine, widx: engine.legal_start(widx),
    # the worker's index (the universal final tie-break)
    "worker_index": lambda engine, widx: widx,
}


@dataclass(frozen=True)
class PolicyKeySpec:
    """Declarative ready priority: a lexicographic tuple of per-worker
    fields; *lower* keys are served first.

    The spec is plain data, so every engine interprets it natively (no
    Python callback per candidate); calling it as ``spec(engine, widx)``
    evaluates the key on the reference engine.
    """

    fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("a key spec needs at least one field")
        unknown = [f for f in self.fields if f not in POLICY_KEY_FIELDS]
        if unknown:
            raise ValueError(
                f"unknown key field(s) {unknown}; known: {sorted(POLICY_KEY_FIELDS)}"
            )

    def __call__(self, engine: Engine, widx: int) -> tuple:
        """Evaluate the key on the reference engine."""
        return tuple(POLICY_KEY_FIELDS[f](engine, widx) for f in self.fields)


#: Serve the earliest-selected chunk first (heterogeneous execution: chunk
#: ids are allocated in selection order), ties to the lowest worker index.
selection_order_priority = PolicyKeySpec(("head_cid", "worker_index"))

#: Serve the worker that has been ready to receive the longest
#: (demand-driven heuristics: "the first worker which can receive it").
demand_priority = PolicyKeySpec(("legal_start", "worker_index"))


class ReadyPolicy:
    """Serve pending workers ordered by ``(effective start, priority)``.

    The effective start is ``max(port_free, legal_start)``: among messages
    receivable at the earliest possible moment, the priority breaks ties;
    when nothing is receivable now, the port jumps to the earliest legal
    start.  ``priority`` must be a :class:`PolicyKeySpec`.
    """

    def __init__(self, priority: PolicyKeySpec) -> None:
        if not isinstance(priority, PolicyKeySpec):
            raise TypeError(
                f"ReadyPolicy needs a PolicyKeySpec priority, got {type(priority).__name__}"
            )
        self.priority = priority

    def next_choice(self, engine: Engine) -> int | None:
        """Index of the pending worker ranked first, or ``None`` when every
        worker has drained."""
        best: tuple | None = None
        best_widx: int | None = None
        for widx in range(engine.platform.p):
            if engine.head(widx) is None:
                continue
            key = (engine.effective_start(widx), self.priority(engine, widx))
            if best is None or key < best:
                best = key
                best_widx = widx
        return best_widx

    def fresh(self) -> "ReadyPolicy":
        """Stateless: the policy itself drives any number of simulations."""
        return self
