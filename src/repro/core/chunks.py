"""Chunk plans: which C blocks a worker computes, and in what rounds.

A *chunk* is a rectangular set of C blocks (``h x w``, at most
``chunk_side x chunk_side`` for the owning worker's layout) processed by a
single worker under the repeated pattern of the paper:

1. the master sends the chunk's C blocks (``h*w`` blocks),
2. a sequence of *rounds* streams the needed A and B data; round ``g``
   carries ``b_blocks + a_blocks`` input blocks and enables ``updates``
   block updates on the chunk,
3. the master retrieves the chunk's final C blocks (``h*w`` blocks).

For the maximum re-use layouts a round is one value of ``k``: ``w`` blocks of
row ``B[k, j0:j0+w]`` plus ``h`` blocks of column ``A[i0:i0+h, k]``, enabling
``h*w`` updates -- ``t`` rounds in total.  For the Toledo layout a round is a
``k``-range of width up to ``sigma``: square chunks ``A[I, K]`` and
``B[K, J]``, enabling ``h*w*|K|`` updates.

Chunks of C are allocated *columnwise*: a worker owns one or more *panels*
(runs of consecutive block columns, at most ``chunk_side`` wide) and walks
each panel top to bottom in chunks of at most ``chunk_side`` rows.  This
mirrors the paper's experimental simplification of assigning only full
matrix column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .blocks import BlockGrid, ceil_div

__all__ = [
    "RoundSpec",
    "Chunk",
    "Panel",
    "PanelAllocator",
    "PanelCursor",
    "max_reuse_rounds",
    "toledo_rounds",
    "make_chunk",
    "assert_partition",
]


@dataclass(frozen=True)
class RoundSpec:
    """One round of input data for a chunk.

    Attributes
    ----------
    k_lo, k_hi:
        Half-open range of the inner (shared) dimension covered by the round.
    a_blocks:
        Number of A blocks carried (``h * (k_hi - k_lo)``).
    b_blocks:
        Number of B blocks carried (``w * (k_hi - k_lo)``).
    updates:
        Block updates enabled once the round's data arrived
        (``h * w * (k_hi - k_lo)``).
    """

    k_lo: int
    k_hi: int
    a_blocks: int
    b_blocks: int
    updates: int

    @property
    def in_blocks(self) -> int:
        """Total input blocks of the round (A + B)."""
        return self.a_blocks + self.b_blocks

    def __post_init__(self) -> None:
        if self.k_hi <= self.k_lo:
            raise ValueError("round must cover a non-empty k range")
        if min(self.a_blocks, self.b_blocks, self.updates) < 1:
            raise ValueError("round payload must be positive")


@dataclass(frozen=True)
class Chunk:
    """A rectangular piece of C assigned to one worker.

    ``rows = [i0, i0+h)`` and ``cols = [j0, j0+w)`` in block coordinates.
    ``rounds`` fully determine the input traffic and the compute work.
    """

    cid: int
    worker: int
    i0: int
    h: int
    j0: int
    w: int
    rounds: tuple[RoundSpec, ...]

    def __post_init__(self) -> None:
        if self.h < 1 or self.w < 1:
            raise ValueError("chunk must be non-empty")
        if self.i0 < 0 or self.j0 < 0:
            raise ValueError("chunk origin must be non-negative")
        if not self.rounds:
            raise ValueError("chunk needs at least one round")

    @property
    def c_blocks(self) -> int:
        """Number of C blocks in the chunk (sent once, returned once)."""
        return self.h * self.w

    @property
    def total_updates(self) -> int:
        """Total block updates needed to finish the chunk."""
        return sum(rd.updates for rd in self.rounds)

    @property
    def input_blocks(self) -> int:
        """Total A+B blocks streamed for the chunk."""
        return sum(rd.in_blocks for rd in self.rounds)

    @property
    def comm_blocks(self) -> int:
        """All blocks through the port for this chunk (C in, A/B, C out)."""
        return 2 * self.c_blocks + self.input_blocks

    def row_range(self) -> range:
        return range(self.i0, self.i0 + self.h)

    def col_range(self) -> range:
        return range(self.j0, self.j0 + self.w)


@lru_cache(maxsize=4096)
def max_reuse_rounds(h: int, w: int, t: int) -> tuple[RoundSpec, ...]:
    """Round structure of the maximum re-use layouts: one round per ``k``
    carrying a B row segment (``w`` blocks) and an A column segment
    (``h`` blocks), enabling ``h*w`` updates.

    Memoized: ``RoundSpec`` is immutable and a plan routinely builds
    thousands of chunks with identical ``(h, w, t)``, so sharing one tuple
    removes the dominant allocation cost of plan construction (and lets the
    fast path digest each distinct round structure once, by identity).
    """
    return tuple(
        RoundSpec(k_lo=k, k_hi=k + 1, a_blocks=h, b_blocks=w, updates=h * w) for k in range(t)
    )


@lru_cache(maxsize=4096)
def toledo_rounds(h: int, w: int, t: int, sigma: int) -> tuple[RoundSpec, ...]:
    """Round structure of the BMM baseline: rounds cover ``k`` ranges of
    width up to ``sigma`` with square(ish) A and B chunks."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    rounds = []
    for k_lo in range(0, t, sigma):
        k_hi = min(k_lo + sigma, t)
        depth = k_hi - k_lo
        rounds.append(
            RoundSpec(
                k_lo=k_lo,
                k_hi=k_hi,
                a_blocks=h * depth,
                b_blocks=w * depth,
                updates=h * w * depth,
            )
        )
    return tuple(rounds)


def make_chunk(
    cid: int,
    worker: int,
    i0: int,
    h: int,
    j0: int,
    w: int,
    t: int,
    *,
    toledo: bool = False,
    sigma: int | None = None,
) -> Chunk:
    """Build a chunk with the appropriate round structure."""
    if toledo:
        if sigma is None:
            raise ValueError("Toledo chunks need sigma")
        rounds = toledo_rounds(h, w, t, sigma)
    else:
        rounds = max_reuse_rounds(h, w, t)
    return Chunk(cid=cid, worker=worker, i0=i0, h=h, j0=j0, w=w, rounds=rounds)


@dataclass(frozen=True)
class Panel:
    """A run of consecutive block columns of C owned by one worker."""

    j0: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.j0 < 0:
            raise ValueError("invalid panel")


class PanelAllocator:
    """Hands out column panels left to right across the ``s`` block columns.

    Both the heterogeneous selection (phase 1 grants) and the dynamic
    demand-driven algorithms use this: a worker asking for a panel of width
    ``mu`` receives the next ``min(mu, remaining)`` free columns.
    """

    def __init__(self, s: int) -> None:
        if s < 1:
            raise ValueError("need at least one column")
        self._s = s
        self._next = 0

    @property
    def columns_left(self) -> int:
        """Block columns not yet granted."""
        return self._s - self._next

    @property
    def exhausted(self) -> bool:
        return self._next >= self._s

    def grant(self, width: int) -> Panel | None:
        """Grant the next panel of at most ``width`` columns; ``None`` when
        all columns are gone."""
        if width < 1:
            raise ValueError("panel width must be positive")
        if self.exhausted:
            return None
        w = min(width, self.columns_left)
        panel = Panel(self._next, w)
        self._next += w
        return panel

    def clone(self) -> "PanelAllocator":
        """Copy with the same remaining-column state (what-if replays)."""
        other = PanelAllocator(self._s)
        other._next = self._next
        return other


class PanelCursor:
    """Enumerates a worker's chunks down its granted panels.

    Panels may be appended while iterating (grants interleave with
    selection).  Chunks are at most ``side x side`` blocks; the bottom chunk
    of a panel is shorter when ``r % side != 0``.
    """

    def __init__(self, worker: int, side: int, grid: BlockGrid, *, toledo: bool = False) -> None:
        if side < 1:
            raise ValueError("chunk side must be >= 1")
        self.worker = worker
        self.side = side
        self.grid = grid
        self.toledo = toledo
        self._panels: list[Panel] = []
        self._panel_idx = 0
        self._row = 0

    def add_panel(self, panel: Panel) -> None:
        self._panels.append(panel)

    @property
    def chunks_per_panel(self) -> int:
        """Chunks needed to walk one panel top to bottom (``ceil(r/side)``)."""
        return ceil_div(self.grid.r, self.side)

    @property
    def has_next(self) -> bool:
        return self._panel_idx < len(self._panels)

    def next_chunk(self, cid: int) -> Chunk | None:
        """Materialize the next chunk, or ``None`` when no panel remains."""
        if not self.has_next:
            return None
        panel = self._panels[self._panel_idx]
        i0 = self._row
        h = min(self.side, self.grid.r - i0)
        chunk = make_chunk(
            cid,
            self.worker,
            i0,
            h,
            panel.j0,
            panel.width,
            self.grid.t,
            toledo=self.toledo,
            sigma=self.side if self.toledo else None,
        )
        self._row += h
        if self._row >= self.grid.r:
            self._row = 0
            self._panel_idx += 1
        return chunk

    def clone(self) -> "PanelCursor":
        """Copy with the same walk position (what-if replays)."""
        other = PanelCursor(self.worker, self.side, self.grid, toledo=self.toledo)
        other._panels = list(self._panels)
        other._panel_idx = self._panel_idx
        other._row = self._row
        return other


def assert_partition(chunks: Sequence[Chunk], grid: BlockGrid) -> None:
    """Check that ``chunks`` tile C exactly: every block of the ``r x s``
    grid belongs to exactly one chunk and every chunk covers ``k = 0..t``.

    Raises ``AssertionError`` with a diagnostic on violation.
    """
    seen: dict[tuple[int, int], int] = {}
    for ch in chunks:
        ks = sorted((rd.k_lo, rd.k_hi) for rd in ch.rounds)
        cursor = 0
        for k_lo, k_hi in ks:
            if k_lo != cursor:
                raise AssertionError(
                    f"chunk {ch.cid}: rounds leave a k gap at {cursor} (next round starts {k_lo})"
                )
            cursor = k_hi
        if cursor != grid.t:
            raise AssertionError(f"chunk {ch.cid}: rounds stop at k={cursor}, expected {grid.t}")
        for i in ch.row_range():
            for j in ch.col_range():
                if not (0 <= i < grid.r and 0 <= j < grid.s):
                    raise AssertionError(f"chunk {ch.cid}: block ({i},{j}) outside the grid")
                if (i, j) in seen:
                    raise AssertionError(
                        f"block ({i},{j}) covered by chunks {seen[(i, j)]} and {ch.cid}"
                    )
                seen[(i, j)] = ch.cid
    missing = grid.r * grid.s - len(seen)
    if missing:
        raise AssertionError(f"{missing} C blocks not covered by any chunk")
