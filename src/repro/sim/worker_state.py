"""Per-worker pipeline rules of the one-port simulator.

A worker executes its assigned chunks strictly in assignment order; within a
chunk the message pipeline is ``C_SEND``, then one message per round, then
``C_RETURN``.  Because worker computation is sequential and depends only on
message completion times, the whole worker timeline is a deterministic
recurrence driven by the master's port schedule -- no event heap is needed.

Buffer rules enforced through *legal start* times:

* the C blocks of chunk ``n+1`` may only start arriving after chunk ``n``'s
  results left the worker (the C buffers are reused);
* round ``g`` (globally indexed per worker) may only start arriving after
  the compute of round ``g - depth`` finished (``depth`` = prefetch depth of
  the worker's memory layout: 2 with double buffering, 1 without);
* a chunk's ``C_RETURN`` may only start after its last round was computed.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CMode", "c_message_count"]


def c_message_count(c_mode: "CMode") -> int:
    """Port messages a chunk's C blocks cost under ``c_mode``: the
    ``C_SEND`` (any mode but NONE) plus the ``C_RETURN`` (BOTH only).
    The single definition behind every per-chunk message-count formula
    (plan step counts, strict-order splicing, pending-message audits)."""
    return (1 if c_mode is not CMode.NONE else 0) + (
        1 if c_mode is CMode.BOTH else 0
    )


class CMode(Enum):
    """Which C messages a simulation includes.

    ``BOTH`` is the real execution.  The reduced modes exist for the
    heterogeneous selection heuristics of Section 5, which may ignore C
    traffic (``NONE``) or count only the initial C chunk send
    (``SEND_ONLY``) when ranking candidate workers.
    """

    BOTH = "both"
    SEND_ONLY = "send_only"
    NONE = "none"
