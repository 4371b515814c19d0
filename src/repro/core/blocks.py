"""Block decomposition of the ``C <- C + A.B`` kernel.

The paper manipulates square ``q x q`` blocks of matrix coefficients (q = 80
or 100 in practice, to harness Level-3 BLAS).  Matrix ``A`` (``nA x nAB``
elements) becomes an ``r x t`` grid of blocks, ``B`` (``nAB x nB``) a
``t x s`` grid, and ``C`` (``nA x nB``) an ``r x s`` grid:

* ``r = nA / q``   -- row stripes of A and C,
* ``t = nAB / q``  -- the shared (inner) dimension,
* ``s = nB / q``   -- column stripes of B and C.

Everything downstream (memory layouts, chunk plans, the simulator, the
schedulers) works in *block units*: a communication of ``X`` blocks costs
``X * c_i`` seconds on the link to worker ``i`` and a *block update*
``C_ij += A_ik . B_kj`` costs ``w_i`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BlockGrid", "ceil_div", "block_slices"]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``, positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    return -(-a // b)


@dataclass(frozen=True)
class BlockGrid:
    """Shape of the block-partitioned matrix product ``C <- C + A.B``.

    Attributes
    ----------
    r:
        Number of block rows of ``A`` and ``C``.
    t:
        Number of blocks along the shared dimension (columns of ``A``,
        rows of ``B``).
    s:
        Number of block columns of ``B`` and ``C``.
    q:
        Side of one square block, in matrix coefficients.  Only used when
        converting to/from element dimensions; the scheduling layer never
        needs it.
    """

    r: int
    t: int
    s: int
    q: int = 80

    def __post_init__(self) -> None:
        for name in ("r", "t", "s", "q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"BlockGrid.{name} must be a positive integer, got {v!r}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_elements(cls, n_a: int, n_ab: int, n_b: int, q: int = 80) -> "BlockGrid":
        """Build a grid from element dimensions (``A`` is ``n_a x n_ab``, ``B``
        is ``n_ab x n_b``).  Dimensions that are not multiples of ``q`` are
        rounded up (the trailing blocks are conceptually zero-padded; the
        paper always uses exact multiples)."""
        if min(n_a, n_ab, n_b) < 1:
            raise ValueError("matrix dimensions must be positive")
        return cls(r=ceil_div(n_a, q), t=ceil_div(n_ab, q), s=ceil_div(n_b, q), q=q)

    @classmethod
    def paper_instance(cls, s_elements: int = 80_000) -> "BlockGrid":
        """The paper's experimental shape: ``A`` is 8000 x 8000 and ``B`` is
        8000 x ``s_elements`` with q = 80 (Section 6)."""
        return cls.from_elements(8000, 8000, s_elements, q=80)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def c_blocks(self) -> int:
        """Number of blocks of the result matrix ``C`` (``r * s``)."""
        return self.r * self.s

    @property
    def a_blocks(self) -> int:
        """Number of blocks of ``A`` (``r * t``)."""
        return self.r * self.t

    @property
    def b_blocks(self) -> int:
        """Number of blocks of ``B`` (``t * s``)."""
        return self.t * self.s

    @property
    def total_updates(self) -> int:
        """Total number of block updates ``C_ij += A_ik.B_kj`` (``r * s * t``)."""
        return self.r * self.s * self.t

    @property
    def block_bytes(self) -> int:
        """Bytes of one ``q x q`` block of float64 coefficients."""
        return self.q * self.q * 8

    @property
    def flops_per_update(self) -> int:
        """Floating-point operations of one block update (``2 q^3``)."""
        return 2 * self.q**3

    def minimal_io_blocks(self) -> int:
        """Lower bound on blocks through the master port ignoring memory
        limits: A and B once each, C in and out (``rt + ts + 2rs``)."""
        return self.a_blocks + self.b_blocks + 2 * self.c_blocks

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockGrid(r={self.r}, t={self.t}, s={self.s}, q={self.q})"


def block_slices(i: int, n_blocks: int, q: int, n_elements: int) -> slice:
    """Element slice of block index ``i`` along an axis of ``n_elements``
    partitioned into ``n_blocks`` blocks of side ``q`` (the last block may be
    ragged).  Used by the numerical executor."""
    if not 0 <= i < n_blocks:
        raise IndexError(f"block index {i} out of range [0, {n_blocks})")
    lo = i * q
    hi = min((i + 1) * q, n_elements)
    if lo >= n_elements:
        raise IndexError(f"block {i} starts beyond the matrix ({lo} >= {n_elements})")
    return slice(lo, hi)
