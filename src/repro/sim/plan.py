"""Execution plans: everything the engine needs to run one algorithm.

A scheduler (see :mod:`repro.schedulers`) compiles a platform + block grid
into a :class:`Plan`: static per-worker chunk assignments and/or a dynamic
allocator, a port policy, and per-worker prefetch depths.  ``simulate``
executes plans; schedulers stay free of simulation mechanics.

A plan is the single gate for what the engines interpret: its policy is a
:class:`StrictOrderPolicy` naming workers of the plan, or a
:class:`ReadyPolicy` (whose priority is a declarative key spec), and only
a ready policy may be driven by a demand allocator.  Every engine runs
every plan the constructor accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.chunks import Chunk
from .allocator import PanelDemandAllocator
from .policies import ReadyPolicy, StrictOrderPolicy
from .worker_state import CMode

__all__ = ["Plan"]


@dataclass
class Plan:
    """A ready-to-simulate schedule.

    Attributes
    ----------
    assignments:
        ``assignments[w]`` is the ordered chunk list pre-assigned to worker
        ``w`` (empty for dynamic algorithms).
    policy:
        Port service policy: a strict order or a ready policy.
    depths:
        Per-worker prefetch depth (2 = double-buffered rounds, 1 = no
        overlap).
    allocator:
        Optional on-demand chunk source (ODDOML / BMM / CodedRL) driving a
        ready policy; anything with the :class:`PanelDemandAllocator`
        ``refill_via`` surface.
    c_mode:
        Which C messages to simulate; real executions use ``CMode.BOTH``.
    collect_events:
        Whether the simulation keeps full traces.
    meta:
        Free-form scheduler annotations (algorithm name, variant, ...).
    """

    assignments: list[list[Chunk]]
    policy: StrictOrderPolicy | ReadyPolicy
    depths: list[int]
    allocator: PanelDemandAllocator | None = None
    c_mode: CMode = CMode.BOTH
    collect_events: bool = True
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.assignments) != len(self.depths):
            raise ValueError("assignments and depths must cover the same workers")
        for widx, chunks in enumerate(self.assignments):
            for ch in chunks:
                if ch.worker != widx:
                    raise ValueError(
                        f"chunk {ch.cid} owned by worker {ch.worker} listed under {widx}"
                    )
        policy = self.policy
        if isinstance(policy, StrictOrderPolicy):
            if self.allocator is not None:
                raise TypeError("a strict order cannot be driven by a demand allocator")
            order = policy.order
            p = len(self.assignments)
            if order and (min(order) < 0 or max(order) >= p):
                pos = next(i for i, w in enumerate(order) if not 0 <= w < p)
                raise ValueError(
                    f"strict order names worker {order[pos]} at position {pos}, "
                    f"outside the plan's workers [0, {p})"
                )
        elif not isinstance(policy, ReadyPolicy):
            raise TypeError(
                "a plan's policy must be a StrictOrderPolicy or a ReadyPolicy, "
                f"got {type(policy).__name__}"
            )

    @property
    def static_chunks(self) -> list[Chunk]:
        """All statically assigned chunks in cid order."""
        out = [ch for chunks in self.assignments for ch in chunks]
        out.sort(key=lambda ch: ch.cid)
        return out
