"""The paper's homogeneous algorithm (Section 4) and its Hom/HomI wrappers.

Core algorithm (paper Algorithms 1 and 2): with ``mu`` the largest integer
such that ``mu^2 + 4 mu <= m``, enroll ``P = min(p, ceil(mu w / (2c)))``
workers -- the smallest number that saturates the master's port while
keeping every enrolled worker busy.  C is split into ``mu``-wide column
panels dealt round-robin to the ``P`` workers; each panel is walked top to
bottom in ``mu x mu`` chunks.  The master's program is a fixed message
order: for every batch of ``P`` chunks, send the C chunks, then interleave
the ``t`` rounds across the ``P`` workers (so each worker's round ``k+1``
arrives while it computes round ``k``), then collect the C chunks.

On a heterogeneous platform the wrappers first *extract* a virtual
homogeneous platform:

* **Hom** tries every memory size present; enrolled workers are those with
  at least that much memory, and their apparent speed/bandwidth is the
  worst among them.
* **HomI** ("improved") tries every (memory, bandwidth, speed) threshold
  triple present; enrolled workers must be at least as good on *all three*
  dimensions, and apparent parameters are the thresholds themselves.

Each virtual platform is evaluated by simulating the homogeneous algorithm
on it; the best one wins and the schedule is then executed on the *real*
(heterogeneous) workers.

The threshold search is the planning bottleneck at paper scale, so it is
bulk-evaluated: candidate triples are first *deduplicated* by their
simulation signature ``(n, mu, c, w)`` -- the virtual makespan depends on
nothing else -- keeping the first occurrence (which is also the one
``min()`` would select among equals), and the surviving candidates are
scored in one :func:`~repro.sim.batch.batch_simulate` call instead of a
Python loop of individual simulations.

On *dynamic* platforms the one-shot choice can be wrong one event later;
:meth:`HomScheduler.reselection_candidates` re-enumerates the threshold
candidates on the current (time-varying) parameters for the adaptive
wrapper's boundary-time re-selection (``mode="reselect"``), which scores
them in context through the shared-prefix incremental batch search -- see
:mod:`repro.schedulers.adaptive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.blocks import BlockGrid, ceil_div
from ..core.chunks import Chunk, make_chunk
from ..core.layout import overlapped_mu
from ..platform.model import Platform
from ..sim.batch import batch_simulate
from ..sim.plan import Plan
from ..sim.policies import StrictOrderPolicy
from .base import Scheduler, SchedulingError
from .geometry import PartitionGeometry, make_geometry

__all__ = [
    "homogeneous_worker_count",
    "homogeneous_plan",
    "HomScheduler",
    "HomIScheduler",
    "ReselectionChoice",
]


def homogeneous_worker_count(p: int, mu: int, c: float, w: float) -> int:
    """The paper's resource selection ``P = min(p, ceil(mu w / (2c)))``:
    the smallest worker count whose aggregate round time
    ``P * 2 mu t c`` covers one worker's chunk compute time ``mu^2 t w``."""
    if p < 1 or mu < 1:
        raise ValueError("need p >= 1 and mu >= 1")
    return max(1, min(p, math.ceil(mu * w / (2 * c))))


def homogeneous_plan(
    grid: BlockGrid,
    *,
    n_workers: int,
    mu: int,
    enrolled: list[int],
    total_workers: int,
) -> Plan:
    """Build the strict-order plan of Algorithm 1.

    ``enrolled`` lists the *real* worker indices that participate, already
    restricted to the selected ``P = n_workers`` (``len(enrolled)``); chunks
    are dealt to them round-robin by column panel.
    """
    if len(enrolled) != n_workers:
        raise ValueError("enrolled list must have exactly n_workers entries")
    if mu < 1:
        raise SchedulingError("mu < 1: not enough memory for the overlapped layout")
    panels = [(j0, min(mu, grid.s - j0)) for j0 in range(0, grid.s, mu)]
    row_chunks = [(i0, min(mu, grid.r - i0)) for i0 in range(0, grid.r, mu)]
    assignments: list[list[Chunk]] = [[] for _ in range(total_workers)]
    order: list[int] = []
    cid = 0
    # batches: one cycle of P panels, walked row-band by row-band
    for cycle_start in range(0, len(panels), n_workers):
        batch_panels = panels[cycle_start : cycle_start + n_workers]
        for i0, h in row_chunks:
            batch: list[tuple[int, Chunk]] = []
            for slot, (j0, width) in enumerate(batch_panels):
                widx = enrolled[slot]
                ch = make_chunk(cid, widx, i0, h, j0, width, grid.t)
                cid += 1
                assignments[widx].append(ch)
                batch.append((widx, ch))
            # Algorithm 1 message order: C sends, interleaved rounds, C receives
            for widx, _ in batch:
                order.append(widx)  # C_SEND
            for _k in range(grid.t):
                for widx, _ in batch:
                    order.append(widx)  # ROUND k
            for widx, _ in batch:
                order.append(widx)  # C_RETURN
    return Plan(
        assignments=assignments,
        policy=StrictOrderPolicy(order),
        depths=[2] * total_workers,
        meta={"mu": mu, "P": n_workers, "enrolled": list(enrolled)},
    )


@dataclass(frozen=True)
class _VirtualChoice:
    """One candidate virtual homogeneous platform."""

    enrolled: tuple[int, ...]
    c: float
    w: float
    m: int
    estimate: float
    mu: int
    n_workers: int


def _evaluate_candidates(
    platform: Platform,
    grid: BlockGrid,
    thresholds: list[tuple[list[int], float, float, int]],
) -> list[_VirtualChoice]:
    """Bulk-evaluate threshold candidates ``(enrolled, c, w, m)``.

    Candidates are deduplicated by their simulation signature
    ``(n, mu, c, w)`` -- the virtual platform's makespan depends on nothing
    else -- keeping the *first* occurrence, which is exactly the candidate
    ``min()`` would retain among equal estimates, so the selected schedule
    is unchanged.  The survivors are scored in one batch.
    """
    specs: list[tuple[list[int], float, float, int, int, int]] = []
    seen: set[tuple[int, int, float, float]] = set()
    for enrolled, c_app, w_app, m_thr in thresholds:
        try:
            mu = overlapped_mu(m_thr)
        except ValueError:
            continue
        n = homogeneous_worker_count(len(enrolled), mu, c_app, w_app)
        key = (n, mu, c_app, w_app)
        if key in seen:
            continue
        seen.add(key)
        specs.append((enrolled, c_app, w_app, m_thr, n, mu))
    runs = []
    plan_cache: dict[tuple[int, int], Plan] = {}
    for _enrolled, c_app, w_app, m_thr, n, mu in specs:
        virtual = Platform.homogeneous(n, c_app, w_app, m_thr, name="virtual")
        # the scoring plan depends only on (n, mu): share one read-only
        # plan object across candidates that differ only in (c, w, m)
        plan = plan_cache.get((n, mu))
        if plan is None:
            plan = homogeneous_plan(
                grid, n_workers=n, mu=mu, enrolled=list(range(n)), total_workers=n
            )
            plan_cache[(n, mu)] = plan
        runs.append((virtual, plan))
    estimates = batch_simulate(runs)
    out = []
    for (enrolled, c_app, w_app, m_thr, n, mu), est in zip(specs, estimates):
        # rank candidate real workers: fastest compute, then fastest link
        ranked = sorted(enrolled, key=lambda i: (platform[i].w, platform[i].c, i))
        out.append(
            _VirtualChoice(
                enrolled=tuple(ranked[:n]),
                c=c_app,
                w=w_app,
                m=m_thr,
                estimate=float(est),
                mu=mu,
                n_workers=n,
            )
        )
    return out


@dataclass(frozen=True)
class ReselectionChoice:
    """One candidate virtual platform of a *boundary-time* re-selection.

    Unlike :class:`_VirtualChoice` it carries no makespan estimate: the
    scenario-aware score of a re-selection candidate is the makespan of the
    whole *continued* run (executed prefix + replanned suffix), which only
    the caller — the incremental shared-prefix batch search in
    :mod:`repro.schedulers.adaptive` — can compute.
    """

    #: Chosen workers (indices into the platform the search ran on), ranked
    #: fastest-first by current ``(w, c)``.
    workers: tuple[int, ...]
    mu: int
    n_workers: int
    c: float
    w: float
    m: int


def homogeneous_port_blocks(grid: BlockGrid, mu: int) -> int:
    """Total port traffic (blocks) of the homogeneous tiling of ``grid``
    with chunk side ``mu``: every C block crosses twice, and each of the
    ``ceil(s/mu) x ceil(r/mu)`` chunks streams ``(h + w)`` A/B blocks per
    round over ``t`` rounds.  Independent of the worker count -- the
    tiling, not the deal, determines the traffic."""
    panels = ceil_div(grid.s, mu)
    rows = ceil_div(grid.r, mu)
    return 2 * grid.r * grid.s + grid.t * (panels * grid.r + rows * grid.s)


class HomScheduler(Scheduler):
    """Hom: homogeneous algorithm with memory-threshold platform extraction.

    ``geometry`` selects the partition family (see
    :mod:`repro.schedulers.geometry`); the layer variant plans on the
    transposed grid and is registered as ``HomL``.  ``objective`` selects
    the scoring rule of the threshold search (see
    :mod:`repro.experiments.objectives`); the default compares candidates
    on their virtual makespan exactly as before.
    """

    name = "Hom"

    def __init__(
        self,
        *,
        geometry: "PartitionGeometry | str | None" = None,
        objective=None,
    ) -> None:
        self.geometry = make_geometry(geometry)
        if self.geometry.suffix:
            self.name = f"{type(self).name}{self.geometry.suffix}"
        if objective is not None:
            self.with_objective(objective)

    @property
    def signature(self) -> str:
        sig = self.name
        if self.geometry.name != "grid":
            sig = f"{type(self).name}|{self.geometry.signature}"
        if self.objective is not None and not self.objective.is_makespan:
            sig = f"{sig}|{self.objective.signature}"
        return sig

    def reselection_candidates(self, platform: Platform) -> list[ReselectionChoice]:
        """Threshold candidates for re-selecting the virtual platform
        *mid-run*, on the current (time-varying) parameters.

        The static search dedupes by the virtual simulation signature
        ``(n, mu, c, w)`` because a from-scratch virtual makespan depends on
        nothing else.  In context that is wrong: two threshold triples with
        equal signatures can enroll *different real workers*, whose current
        speeds differ — so boundary candidates dedupe by what actually
        distinguishes their continuations, ``(n, mu, chosen workers)``.
        Scoring (and the choice) happens in the caller's shared-prefix
        incremental batch search, not here.
        """
        out: list[ReselectionChoice] = []
        seen: set[tuple[int, int, tuple[int, ...]]] = set()
        for enrolled, c_app, w_app, m_thr in self._thresholds(platform):
            try:
                mu = overlapped_mu(m_thr)
            except ValueError:
                continue
            n = homogeneous_worker_count(len(enrolled), mu, c_app, w_app)
            ranked = sorted(enrolled, key=lambda i: (platform[i].w, platform[i].c, i))
            chosen = tuple(ranked[:n])
            key = (n, mu, chosen)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                ReselectionChoice(
                    workers=chosen, mu=mu, n_workers=n, c=c_app, w=w_app, m=m_thr
                )
            )
        return out

    def _thresholds(self, platform: Platform) -> list[tuple[list[int], float, float, int]]:
        out = []
        for m_thr in sorted(set(platform.ms)):
            enrolled = [i for i in range(platform.p) if platform[i].m >= m_thr]
            c_app = max(platform[i].c for i in enrolled)
            w_app = max(platform[i].w for i in enrolled)
            out.append((enrolled, c_app, w_app, m_thr))
        return out

    def _candidates(self, platform: Platform, grid: BlockGrid) -> list[_VirtualChoice]:
        return _evaluate_candidates(platform, grid, self._thresholds(platform))

    def _pick(self, candidates: list[_VirtualChoice], pgrid: BlockGrid) -> _VirtualChoice:
        """Select the best threshold candidate under the active objective.

        The default makespan objective takes the original comparison
        verbatim (bit-identical); cost-aware objectives price each
        candidate's enrollment and tiling traffic analytically."""
        objective = self.objective
        if objective is None or objective.is_makespan:
            return min(candidates, key=lambda ch: ch.estimate)
        from ..experiments.objectives import PlanScore

        def _score(ch: _VirtualChoice) -> float:
            return objective.score(
                PlanScore(
                    makespan=ch.estimate,
                    workers=ch.n_workers,
                    port_blocks=homogeneous_port_blocks(pgrid, ch.mu),
                    block_bytes=pgrid.block_bytes,
                )
            )

        best = min(candidates, key=_score)
        if _score(best) == float("inf"):
            raise SchedulingError(
                f"{self.name}: no threshold candidate is admissible under "
                f"objective {objective.signature}"
            )
        return best

    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        pgrid = self.geometry.plan_grid(grid)
        candidates = self._candidates(platform, pgrid)
        if not candidates:
            raise SchedulingError(f"{self.name}: no feasible virtual platform")
        best = self._pick(candidates, pgrid)
        plan = homogeneous_plan(
            pgrid,
            n_workers=best.n_workers,
            mu=best.mu,
            enrolled=list(best.enrolled),
            total_workers=platform.p,
        )
        plan.meta.update(
            {
                "algorithm": self.name,
                "virtual_estimate": best.estimate,
                "apparent": {"c": best.c, "w": best.w, "m": best.m},
            }
        )
        return self.geometry.finalize(plan, grid)


class HomIScheduler(HomScheduler):
    """HomI: homogeneous algorithm with (memory, bandwidth, speed) threshold
    triples -- a finer-grained virtual platform search."""

    name = "HomI"

    def _thresholds(self, platform: Platform) -> list[tuple[list[int], float, float, int]]:
        out = []
        for m_thr in sorted(set(platform.ms)):
            for c_thr in sorted(set(platform.cs)):
                for w_thr in sorted(set(platform.ws)):
                    enrolled = [
                        i
                        for i in range(platform.p)
                        if platform[i].m >= m_thr
                        and platform[i].c <= c_thr
                        and platform[i].w <= w_thr
                    ]
                    if enrolled:
                        out.append((enrolled, c_thr, w_thr, m_thr))
        return out
