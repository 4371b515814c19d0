"""The heterogeneous star platform of the paper.

A platform is a master ``P_0`` (holding all matrix files, no processing
capability) and ``p`` workers ``P_1..P_p``.  Worker ``P_i`` is described by
three scalars:

* ``c`` -- seconds for the master to send (or receive) **one block** to/from
  ``P_i`` (linear cost, no latency, one-port at the master),
* ``w`` -- seconds for ``P_i`` to perform **one block update**
  ``C_ij += A_ik.B_kj``,
* ``m`` -- number of block buffers that fit in ``P_i``'s memory.

A *fully homogeneous* platform has identical ``(c, w, m)`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Worker", "Platform"]


@dataclass(frozen=True)
class Worker:
    """One worker of the star platform (see module docstring for units)."""

    index: int
    c: float
    w: float
    m: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("worker index must be non-negative")
        if self.c <= 0 or self.w <= 0:
            raise ValueError(f"worker {self.index}: c and w must be positive")
        if self.m < 1:
            raise ValueError(f"worker {self.index}: memory must be >= 1 block")

    @property
    def bandwidth_score(self) -> float:
        """Blocks per second on the link (``1/c``)."""
        return 1.0 / self.c

    @property
    def speed_score(self) -> float:
        """Block updates per second (``1/w``)."""
        return 1.0 / self.w


class Platform:
    """An ordered collection of workers behind a single one-port master."""

    def __init__(self, workers: Sequence[Worker], name: str = "") -> None:
        if not workers:
            raise ValueError("a platform needs at least one worker")
        idx = [wk.index for wk in workers]
        if idx != list(range(len(workers))):
            raise ValueError("worker indices must be 0..p-1 in order")
        self._workers = tuple(workers)
        self.name = name

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_params(
        cls,
        cs: Iterable[float],
        ws: Iterable[float],
        ms: Iterable[int],
        name: str = "",
    ) -> "Platform":
        """Build a platform from parallel parameter sequences."""
        cs, ws, ms = list(cs), list(ws), list(ms)
        if not len(cs) == len(ws) == len(ms):
            raise ValueError("parameter sequences must have equal length")
        return cls(
            [Worker(i, c, w, m) for i, (c, w, m) in enumerate(zip(cs, ws, ms))], name=name
        )

    @classmethod
    def homogeneous(cls, p: int, c: float, w: float, m: int, name: str = "") -> "Platform":
        """``p`` identical workers."""
        if p < 1:
            raise ValueError("need at least one worker")
        return cls([Worker(i, c, w, m) for i in range(p)], name=name or f"hom-{p}")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of workers."""
        return len(self._workers)

    @property
    def workers(self) -> tuple[Worker, ...]:
        return self._workers

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __getitem__(self, i: int) -> Worker:
        return self._workers[i]

    @property
    def cs(self) -> list[float]:
        return [wk.c for wk in self._workers]

    @property
    def ws(self) -> list[float]:
        return [wk.w for wk in self._workers]

    @property
    def ms(self) -> list[int]:
        return [wk.m for wk in self._workers]

    @property
    def is_homogeneous(self) -> bool:
        """True when all workers share identical parameters."""
        first = self._workers[0]
        return all(
            wk.c == first.c and wk.w == first.w and wk.m == first.m for wk in self._workers
        )

    # ------------------------------------------------------------------
    # derived platforms
    # ------------------------------------------------------------------
    def subplatform(self, indices: Sequence[int], name: str = "") -> "Platform":
        """Platform restricted to ``indices`` (reindexed 0..k-1).  The
        returned workers carry their original index in ``name`` so results
        can be mapped back."""
        if not indices:
            raise ValueError("subplatform needs at least one worker")
        seen = set()
        workers = []
        for new_idx, old_idx in enumerate(indices):
            if old_idx in seen:
                raise ValueError(f"duplicate worker index {old_idx}")
            seen.add(old_idx)
            wk = self._workers[old_idx]
            workers.append(
                Worker(new_idx, wk.c, wk.w, wk.m, name=wk.name or f"orig-{old_idx}")
            )
        return Platform(workers, name=name or f"{self.name}-sub")

    def virtual_homogeneous(
        self, indices: Sequence[int], c: float, w: float, m: int, name: str = ""
    ) -> "Platform":
        """Homogeneous platform of ``len(indices)`` workers with apparent
        parameters ``(c, w, m)`` -- the Hom/HomI construction where enrolled
        workers are all assumed to be as bad as the threshold."""
        return Platform.homogeneous(len(indices), c, w, m, name=name or "virtual")

    def scaled(self, c_factor: float = 1.0, w_factor: float = 1.0, name: str = "") -> "Platform":
        """Uniformly scale link and compute costs (used to emulate the
        paper's artificial slow-downs)."""
        return Platform(
            [
                Worker(wk.index, wk.c * c_factor, wk.w * w_factor, wk.m, wk.name)
                for wk in self._workers
            ],
            name=name or self.name,
        )

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable parameter table."""
        lines = [f"Platform {self.name or '<anon>'} with {self.p} workers:"]
        for wk in self._workers:
            lines.append(
                f"  P{wk.index + 1}: c={wk.c:.6g} s/block, w={wk.w:.6g} s/update, "
                f"m={wk.m} blocks" + (f" ({wk.name})" if wk.name else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Platform(name={self.name!r}, p={self.p})"
