"""I/O-volume model for out-of-core matrix product (paper Section 8).

The paper closes by asking "whether our memory layout could prove useful in
the context of out-of-core algorithms".  The mapping is direct: the master
becomes the disk, the single worker becomes RAM with ``m`` block buffers,
and the communication volume becomes the I/O volume.  For a product with
``r x t``, ``t x s`` and ``r x s`` block operands:

* **maximum re-use** (chunk side ``mu``, ``1 + mu + mu^2 <= m``):
  every C block is read once and written once; every chunk streams
  ``mu`` A-blocks and ``mu`` B-blocks per ``k`` -- total
  ``2 r s + 2 t r s / mu`` block transfers;
* **Toledo thirds** (side ``sigma = sqrt(m/3)``): same shape with ``sigma``
  -- total ``2 r s + 2 t r s / sigma``, worse by ``~sqrt(3)`` in the
  streaming term;
* **lower bound**: ``r s t / sqrt(8 m / 27)`` transfers by the Section 3
  bound, plus the compulsory traffic ``r t + t s + 2 r s`` is a valid
  alternative floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.blocks import BlockGrid
from ..core.layout import max_reuse_mu, toledo_sigma
from ..theory.bounds import ccr_lower_bound

__all__ = ["IOModel", "max_reuse_io", "toledo_io", "io_lower_bound"]


@dataclass(frozen=True)
class IOModel:
    """Predicted block I/O of one out-of-core execution."""

    layout: str
    chunk_side: int
    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


def _chunks(grid: BlockGrid, side: int) -> list[tuple[int, int, int, int]]:
    """(i0, h, j0, w) tiling of C by side x side chunks."""
    out = []
    for j0 in range(0, grid.s, side):
        w = min(side, grid.s - j0)
        for i0 in range(0, grid.r, side):
            h = min(side, grid.r - i0)
            out.append((i0, h, j0, w))
    return out


def max_reuse_io(grid: BlockGrid, m: int) -> IOModel:
    """Exact predicted I/O of the maximum re-use layout (ragged aware)."""
    mu = max_reuse_mu(m)
    reads = writes = 0
    for _i0, h, _j0, w in _chunks(grid, mu):
        reads += h * w  # C in
        writes += h * w  # C out
        reads += grid.t * (h + w)  # A column + B row per k
    return IOModel("max-reuse", mu, reads, writes)


def toledo_io(grid: BlockGrid, m: int) -> IOModel:
    """Exact predicted I/O of the Toledo thirds layout (ragged aware)."""
    sigma = toledo_sigma(m)
    reads = writes = 0
    for _i0, h, _j0, w in _chunks(grid, sigma):
        reads += h * w
        writes += h * w
        reads += grid.t * (h + w)  # sigma-deep A/B tiles, t/sigma of them
    return IOModel("toledo", sigma, reads, writes)


def io_lower_bound(grid: BlockGrid, m: int) -> float:
    """Block-I/O floor: the CCR bound on the re-streamed traffic, never less
    than the compulsory volume (touch every operand once, C twice)."""
    compulsory = grid.a_blocks + grid.b_blocks + 2 * grid.c_blocks
    ccr_floor = grid.total_updates * ccr_lower_bound(m)
    return max(float(compulsory), ccr_floor)
