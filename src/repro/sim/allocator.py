"""Dynamic chunk allocation for the demand-driven algorithms.

ODDOML and BMM do not pre-compute an assignment of C blocks to workers: a
worker that drained its pipeline asks the master for more work and receives
the next free column panel (its own chunk-side wide), which it then walks
top to bottom.  The allocator materializes exactly one chunk per drained
worker per engine iteration, so panel hand-out order follows the demand
order of the simulation.

Every engine drives an allocator through the same engine-agnostic
:meth:`PanelDemandAllocator.refill_via` call before each port decision;
:class:`repro.schedulers.coded.CodedDemandAllocator` duck-types that
surface.
"""

from __future__ import annotations

from typing import Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import PanelAllocator, PanelCursor

__all__ = ["PanelDemandAllocator"]


class PanelDemandAllocator:
    """Hand out column panels on demand.

    Parameters
    ----------
    grid:
        The block grid being computed.
    sides:
        Per-worker chunk side (``mu_i`` for the max re-use layout,
        ``sigma_i`` for Toledo's).  Workers whose side is 0 are excluded
        (insufficient memory).
    toledo:
        Whether chunks use Toledo's round structure.
    """

    def __init__(self, grid: BlockGrid, sides: Sequence[int], *, toledo: bool = False) -> None:
        self.grid = grid
        self.panels = PanelAllocator(grid.s)
        self.cursors: list[PanelCursor | None] = [
            PanelCursor(w, side, grid, toledo=toledo) if side >= 1 else None
            for w, side in enumerate(sides)
        ]
        self._next_cid = 0

    @property
    def exhausted(self) -> bool:
        """True when every C column has been granted."""
        return self.panels.exhausted

    def refill_via(self, has_pending, assign_chunk) -> None:
        """Assign one chunk to each drained worker: ``has_pending(widx)``
        reports whether a worker still has messages queued,
        ``assign_chunk(widx, chunk)`` installs a new chunk.  Every engine
        drives the same grant logic through this, so panel hand-out order
        is identical in all of them."""
        for widx, cursor in enumerate(self.cursors):
            if cursor is None:
                continue
            if has_pending(widx):
                continue
            if not cursor.has_next:
                panel = self.panels.grant(cursor.side)
                if panel is None:
                    continue
                cursor.add_panel(panel)
            chunk = cursor.next_chunk(self._next_cid)
            if chunk is not None:
                self._next_cid += 1
                assign_chunk(widx, chunk)

    @property
    def sides(self) -> list[int]:
        """Per-worker chunk side (0 = excluded)."""
        return [0 if cur is None else cur.side for cur in self.cursors]

    @property
    def toledo(self) -> bool:
        """Whether materialized chunks use Toledo's round structure."""
        return any(cur.toledo for cur in self.cursors if cur is not None)

    @property
    def next_cid(self) -> int:
        """Chunk id the next materialized chunk will receive."""
        return self._next_cid

    def rebase_cids(self, next_cid: int) -> None:
        """Continue numbering materialized chunks from ``next_cid`` (the
        dynamic layer splices allocators into runs with existing chunks)."""
        if next_cid < self._next_cid:
            raise ValueError("cannot rebase chunk ids backwards")
        self._next_cid = next_cid

    def clone(self) -> "PanelDemandAllocator":
        """Copy with identical grant/walk state, so a what-if continuation
        can consume panels without disturbing this allocator."""
        other = PanelDemandAllocator.__new__(PanelDemandAllocator)
        other.grid = self.grid
        other.panels = self.panels.clone()
        other.cursors = [None if cur is None else cur.clone() for cur in self.cursors]
        other._next_cid = self._next_cid
        return other
