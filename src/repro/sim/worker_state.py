"""Per-worker runtime state for the one-port simulator.

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

from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..core.chunks import Chunk
from ..core.ops import ComputeEvent, MsgKind
from ..platform.model import Worker

__all__ = ["CMode", "HeadMsg", "WorkerSim", "c_message_count"]


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


@dataclass(frozen=True)
class HeadMsg:
    """The next message of a worker's pipeline."""

    kind: MsgKind
    nblocks: int
    round_idx: int  # -1 for C messages
    chunk: Chunk


class WorkerSim:
    """Mutable simulation state of one worker."""

    __slots__ = (
        "worker",
        "depth",
        "c_mode",
        "chunks",
        "chunk_pos",
        "stage",
        "rounds_posted",
        "comp_ring",
        "comp_free",
        "last_comp_end",
        "c_return_end",
        "blocks_in",
        "blocks_out",
        "updates_done",
        "compute_busy",
        "chunks_done",
        "messages_posted",
    )

    def __init__(self, worker: Worker, depth: int, c_mode: CMode = CMode.BOTH) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.worker = worker
        self.depth = depth
        self.c_mode = c_mode
        self.chunks: list[Chunk] = []
        self.chunk_pos = 0
        # stage within current chunk: 0 = C_SEND, 1..R = round (stage-1), R+1 = C_RETURN
        self.stage = 0 if c_mode is not CMode.NONE else 1
        self.rounds_posted = 0
        self.comp_ring: deque[float] = deque(maxlen=depth)
        self.comp_free = 0.0
        self.last_comp_end = 0.0
        self.c_return_end = 0.0
        self.blocks_in = 0
        self.blocks_out = 0
        self.updates_done = 0
        self.compute_busy = 0.0
        self.chunks_done = 0
        self.messages_posted = 0

    # ------------------------------------------------------------------
    def assign(self, chunk: Chunk) -> None:
        """Append a chunk to this worker's pipeline."""
        self.chunks.append(chunk)

    @property
    def has_pending(self) -> bool:
        """True when at least one message remains to post."""
        return self.chunk_pos < len(self.chunks)

    def head(self) -> HeadMsg | None:
        """Describe the next pipeline message, or ``None`` when drained."""
        if not self.has_pending:
            return None
        ch = self.chunks[self.chunk_pos]
        nr = len(ch.rounds)
        if self.stage == 0:
            return HeadMsg(MsgKind.C_SEND, ch.c_blocks, -1, ch)
        if self.stage <= nr:
            rd = ch.rounds[self.stage - 1]
            return HeadMsg(MsgKind.ROUND, rd.in_blocks, self.stage - 1, ch)
        return HeadMsg(MsgKind.C_RETURN, ch.c_blocks, -1, ch)

    def legal_start(self, msg: HeadMsg) -> float:
        """Earliest time the head message may start, per the buffer rules."""
        if msg.kind is MsgKind.C_SEND:
            return self.c_return_end
        if msg.kind is MsgKind.ROUND:
            if self.rounds_posted < self.depth:
                return 0.0
            # ring holds compute ends of the last `depth` rounds;
            # its leftmost entry is round (rounds_posted - depth).
            return self.comp_ring[0]
        # C_RETURN: all rounds of the chunk have been posted already
        return self.last_comp_end

    def post(self, msg: HeadMsg, start: float, end: float) -> ComputeEvent | None:
        """Commit the head message as occupying the port on [start, end].

        For rounds, schedules the corresponding compute and returns its
        event; otherwise returns ``None``.
        """
        self.messages_posted += 1
        compute_evt: ComputeEvent | None = None
        if msg.kind is MsgKind.ROUND:
            rd = msg.chunk.rounds[msg.round_idx]
            cs = max(end, self.comp_free)
            ce = cs + rd.updates * self.worker.w
            self.comp_ring.append(ce)
            self.comp_free = ce
            self.last_comp_end = ce
            self.rounds_posted += 1
            self.blocks_in += msg.nblocks
            self.updates_done += rd.updates
            self.compute_busy += ce - cs
            compute_evt = ComputeEvent(cs, ce, self.worker.index, msg.chunk.cid, msg.round_idx, rd.updates)
        elif msg.kind is MsgKind.C_SEND:
            self.blocks_in += msg.nblocks
        else:  # C_RETURN
            self.blocks_out += msg.nblocks
            self.c_return_end = end
        self._advance(msg)
        return compute_evt

    # ------------------------------------------------------------------
    def _advance(self, msg: HeadMsg) -> None:
        # the chunk is done after its C_RETURN, or after its last round
        # when there is no C_RETURN stage
        last_round = msg.kind is MsgKind.ROUND and msg.round_idx == len(msg.chunk.rounds) - 1
        if (last_round and self.c_mode is not CMode.BOTH) or msg.kind is MsgKind.C_RETURN:
            self.chunk_pos += 1
            self.stage = 0 if self.c_mode is not CMode.NONE else 1
            self.chunks_done += 1
        else:
            self.stage += 1
