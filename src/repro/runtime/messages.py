"""Message vocabulary the master posts to its workers, threads or processes.

Mirrors the MPI message kinds of the paper's implementation: a C chunk
going out, one round of A/B data, a request to return the finished C chunk,
and a shutdown marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CChunkMsg", "RoundMsg", "ReturnRequest", "Shutdown"]


@dataclass
class CChunkMsg:
    """C blocks of a chunk, sent master -> worker."""

    cid: int
    rows: slice
    cols: slice
    data: np.ndarray


@dataclass
class RoundMsg:
    """One round of A/B data for the worker's resident chunk."""

    cid: int
    round_idx: int
    a_data: np.ndarray  # A[I, K] slab
    b_data: np.ndarray  # B[K, J] slab
    updates: int = 1  # block updates this round performs


@dataclass
class ReturnRequest:
    """Master asks for the finished chunk back on the worker's outbox."""

    cid: int


@dataclass
class Shutdown:
    """End of work."""
