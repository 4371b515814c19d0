"""Coded-redundancy schedulers: tolerate stragglers with spare work, not replanning.

The adaptive family (:mod:`repro.schedulers.adaptive`) reacts to platform
events by *replanning* — migrating chunks, re-running the selection.  The
coded family applies the orthogonal strategy of rateless coded matrix
multiplication (see PAPERS.md): tile C into *stripes* and over-provision
each stripe with interchangeable *coded shares*, so that the product is
complete as soon as any ``k`` distinct shares of every stripe return —
whichever workers happen to be fast.  Late or crashed shares are simply
abandoned; nothing is ever migrated or replanned.

Stripe model
------------
C is tiled into ``side x side`` rectangles (ragged at the right/bottom
edges), where ``side`` is the smallest overlapped chunk side ``mu_i``
among the enrolled workers, so any share fits any enrolled worker's
memory.  A *share* of a stripe is an ordinary :class:`~repro.core.chunks.Chunk`
over the stripe's rectangle carrying ``seg = ceil(t / k)`` max-re-use
rounds: it models one coded linear combination of the ``t`` inner block
steps, sized so that any ``k`` decoded shares reconstruct the stripe (an
MDS-style code over the inner dimension, as in polynomial / rateless coded
matmul).  Shares cost real port time and real compute whether or not they
end up being used — the difference between issued and useful work is the
family's *wasted work* metric.

Two variants:

``Coded`` (:class:`CodedScheduler`)
    fixed-rate MDS-like: exactly ``n = k + redundancy`` shares per stripe,
    statically staggered across the enrolled workers so one stripe's
    shares land on distinct workers whenever ``n <= p``.  The plan is a
    plain assignment plan — all three engines (reference / fast / batch)
    replay it unchanged.

``CodedRL`` (:class:`RatelessCodedScheduler`)
    rateless: a :class:`CodedDemandAllocator` streams shares to drained
    workers, always targeting the undecoded stripe with the fewest issued
    shares.  Wired to a live :class:`DecodeTracker` (the decode-aware
    dynamic run) it keeps streaming until every stripe decodes; replayed
    statically (no tracker) it caps issuance at ``k + redundancy`` per
    stripe so plain engine replays terminate.

The decode-completion criterion itself lives in
:func:`repro.sim.dynamic.simulate_dynamic` (``completion=`` hook): the run
stops at the decisive ``k``-th return of the last undecoded stripe,
abandoning every in-flight share (recorded as killed) and every unstarted
one.  :func:`repro.sim.validate.validate_dynamic` audits such runs with a
decode criterion (>= ``k`` distinct returns per stripe) instead of the
exact grid tiling that replanned runs must satisfy.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk, make_chunk
from ..platform.model import Platform
from ..sim.dynamic import PlatformTimeline, simulate_dynamic
from ..sim.engine import SimResult
from ..sim.plan import Plan
from ..sim.policies import ReadyPolicy, demand_priority
from .base import Scheduler, SchedulingError
from .selection import usable_mus

__all__ = [
    "CODED_FAMILY_VERSION",
    "CodedDemandAllocator",
    "CodedScheduler",
    "DecodeTracker",
    "RatelessCodedScheduler",
    "build_stripes",
    "decode_threshold",
]

#: Version tag of the decode-completion semantics; folded into dynamic
#: result-cache keys so cached coded makespans are invalidated when the
#: criterion changes (mirrors ``ADAPTIVE_CONTROLLER_VERSION``).
CODED_FAMILY_VERSION = "coded-v1"


def decode_threshold(t: int, k: int | None) -> int:
    """Resolve the decode threshold: explicit ``k`` clamped to ``[1, t]``,
    default ``min(4, t)``."""
    if k is None:
        return max(1, min(4, t))
    if k < 1:
        raise ValueError("decode threshold k must be >= 1")
    return min(k, t)


def build_stripes(grid: BlockGrid, side: int) -> list[tuple[int, int, int, int]]:
    """Tile the C grid into ``side x side`` stripes (ragged at the edges).

    Returns ``(i0, h, j0, w)`` rectangles in column-major stripe order —
    the same walk direction as the panel cursors, so share demand sweeps C
    left to right.
    """
    if side < 1:
        raise ValueError("stripe side must be >= 1")
    stripes = []
    for j0 in range(0, grid.s, side):
        w = min(side, grid.s - j0)
        for i0 in range(0, grid.r, side):
            h = min(side, grid.r - i0)
            stripes.append((i0, h, j0, w))
    return stripes


class DecodeTracker:
    """Decode state of one coded run: returns per stripe, satisfied when
    every stripe has ``k`` of them.

    Implements the ``completion`` protocol of
    :func:`repro.sim.dynamic.simulate_dynamic` (``on_return`` /
    ``satisfied``) and doubles as the rateless allocator's issuance
    feedback (decoded stripes stop attracting shares).
    """

    def __init__(self, stripes: Sequence[Sequence[int]], k: int) -> None:
        if k < 1:
            raise ValueError("decode threshold k must be >= 1")
        self.k = k
        self.stripes = [tuple(rect) for rect in stripes]
        n = len(self.stripes)
        self.returns = [0] * n
        self.decoded = [False] * n
        self.decode_time: float | None = None
        self._undecoded = n
        self._share_stripe: dict[int, int] = {}

    # -- registration ---------------------------------------------------
    def register(self, cid: int, sid: int) -> None:
        """Declare share ``cid`` as belonging to stripe ``sid``."""
        if not 0 <= sid < len(self.stripes):
            raise ValueError(f"stripe {sid} out of range")
        self._share_stripe[cid] = sid

    def stripe_of(self, cid: int) -> int | None:
        return self._share_stripe.get(cid)

    # -- completion protocol --------------------------------------------
    @property
    def satisfied(self) -> bool:
        return self._undecoded == 0

    def on_return(self, cid: int, end: float) -> None:
        """Record the ``C_RETURN`` of share ``cid`` ending at ``end``."""
        sid = self._share_stripe.get(cid)
        if sid is None:
            raise KeyError(f"C return of unregistered share {cid}")
        self.returns[sid] += 1
        if not self.decoded[sid] and self.returns[sid] >= self.k:
            self.decoded[sid] = True
            self._undecoded -= 1
            if self._undecoded == 0:
                self.decode_time = end

    # -- reporting ------------------------------------------------------
    @property
    def total_returns(self) -> int:
        return sum(self.returns)


class CodedDemandAllocator:
    """Stream coded shares to drained workers (the rateless variant).

    Duck-types :class:`~repro.sim.allocator.PanelDemandAllocator`'s
    engine-facing surface (``refill_via`` / ``clone`` / ``next_cid`` /
    ``rebase_cids`` / ``sides`` / ``toledo``), so every engine and the
    dynamic driver drive it unchanged.  Issuance targets
    the undecoded stripe with the fewest issued shares (ties to the lowest
    stripe index).  Without an attached :class:`DecodeTracker` issuance is
    capped at ``k + redundancy`` shares per stripe, making plain static
    replays terminate as a fixed-rate code; with a tracker, decoded
    stripes stop attracting shares and streaming continues until every
    stripe decodes.
    """

    def __init__(
        self,
        stripes: Sequence[tuple[int, int, int, int]],
        seg: int,
        enrolled: Sequence[int],
        p: int,
        cap: int,
    ) -> None:
        if cap < 1:
            raise ValueError("per-stripe issuance cap must be >= 1")
        self.stripes = [tuple(rect) for rect in stripes]
        self.seg = seg
        self.enrolled = list(enrolled)
        self.p = p
        self.cap = cap
        self.issued = [0] * len(self.stripes)
        self.tracker: DecodeTracker | None = None
        self._next_cid = 0
        self._enrolled_set = set(self.enrolled)

    def attach(self, tracker: DecodeTracker) -> None:
        """Wire the live decode state in (rateless streaming mode)."""
        self.tracker = tracker

    # -- issuance -------------------------------------------------------
    def _pick_stripe(self) -> int | None:
        tracker = self.tracker
        best = -1
        best_issued = 0
        for sid, count in enumerate(self.issued):
            if tracker is not None:
                if tracker.decoded[sid]:
                    continue
            elif count >= self.cap:
                continue
            if best < 0 or count < best_issued:
                best, best_issued = sid, count
        return None if best < 0 else best

    def refill_via(self, has_pending, assign_chunk) -> None:
        """Engine-agnostic refill: one share per drained enrolled worker
        per engine iteration, in ascending worker order — the same demand
        discipline as the panel allocator, so both engines hand shares out
        in an identical order."""
        for widx in self.enrolled:
            if has_pending(widx):
                continue
            sid = self._pick_stripe()
            if sid is None:
                return
            i0, h, j0, w = self.stripes[sid]
            chunk = make_chunk(self._next_cid, widx, i0, h, j0, w, self.seg)
            self._next_cid += 1
            self.issued[sid] += 1
            if self.tracker is not None:
                self.tracker.register(chunk.cid, sid)
            assign_chunk(widx, chunk)

    # -- PanelDemandAllocator surface -----------------------------------
    @property
    def exhausted(self) -> bool:
        """True when no further share can be issued right now."""
        return self._pick_stripe() is None

    @property
    def sides(self) -> list[int]:
        side = max((max(rect[1], rect[3]) for rect in self.stripes), default=0)
        return [side if i in self._enrolled_set else 0 for i in range(self.p)]

    @property
    def toledo(self) -> bool:
        return False

    @property
    def next_cid(self) -> int:
        return self._next_cid

    def rebase_cids(self, next_cid: int) -> None:
        if next_cid < self._next_cid:
            raise ValueError("cannot rebase chunk ids backwards")
        self._next_cid = next_cid

    def clone(self) -> "CodedDemandAllocator":
        other = CodedDemandAllocator.__new__(CodedDemandAllocator)
        other.stripes = self.stripes
        other.seg = self.seg
        other.enrolled = self.enrolled
        other.p = self.p
        other.cap = self.cap
        other.issued = list(self.issued)
        other.tracker = self.tracker
        other._next_cid = self._next_cid
        other._enrolled_set = self._enrolled_set
        return other


class _CodedBase(Scheduler):
    """Shared stripe geometry, plan metadata and the decode-aware runner."""

    def __init__(self, redundancy: int = 1, k: int | None = None) -> None:
        if redundancy < 0:
            raise ValueError("redundancy must be >= 0")
        self.redundancy = redundancy
        self.k = k

    @property
    def signature(self) -> str:
        return self._objective_sig(f"{self.name}(r={self.redundancy},k={self.k})")

    # -- geometry -------------------------------------------------------
    def _geometry(self, platform: Platform, grid: BlockGrid):
        mus = usable_mus(platform)
        enrolled = [i for i, mu in enumerate(mus) if mu >= 1]
        if not enrolled:
            raise SchedulingError("no worker has enough memory for the overlapped layout")
        side = min(mus[i] for i in enrolled)
        k = decode_threshold(grid.t, self.k)
        seg = math.ceil(grid.t / k)
        stripes = build_stripes(grid, side)
        return enrolled, side, k, seg, stripes

    def _meta(self, k, redundancy, side, seg, stripes) -> dict:
        return {
            "algorithm": self.name,
            "coded": {
                "k": k,
                "redundancy": redundancy,
                "side": side,
                "seg": seg,
                "stripes": [list(rect) for rect in stripes],
            },
        }

    # -- decode-aware dynamic entry point -------------------------------
    def run_dynamic(
        self,
        platform: Platform,
        grid: BlockGrid,
        timeline: PlatformTimeline | None = None,
        collect_events: bool = False,
        *,
        record_events: bool = False,
        engine: str = "fast",
    ) -> SimResult:
        """Race the coded shares on ``platform`` under ``timeline`` and
        stop at the decode threshold.

        Mirrors :meth:`repro.schedulers.adaptive.AdaptiveScheduler.run_dynamic`:
        the result's ``meta["dynamic"]`` carries ``mode="coded"`` plus a
        ``coded`` annex with the decode time and the wasted-work split
        (issued minus useful updates / port blocks).  The makespan is the
        decode time — the instant the master can reconstruct C — not the
        drain time of abandoned shares' sunk computes.
        """
        plan = self.plan(platform, grid)
        plan.collect_events = collect_events
        ann = plan.meta["coded"]
        tracker = DecodeTracker(ann["stripes"], ann["k"])
        rect_sid = {tuple(rect): sid for sid, rect in enumerate(tracker.stripes)}
        for chunks in plan.assignments:
            for ch in chunks:
                tracker.register(ch.cid, rect_sid[(ch.i0, ch.h, ch.j0, ch.w)])
        if isinstance(plan.allocator, CodedDemandAllocator):
            plan.allocator.attach(tracker)
        result = simulate_dynamic(
            platform,
            plan,
            timeline,
            grid,
            engine=engine,
            completion=tracker,
            record_events=record_events,
        )
        if tracker.decode_time is not None:
            result.makespan = tracker.decode_time
        dyn = result.meta["dynamic"]
        dyn["mode"] = "coded"
        useful_updates = 0
        useful_blocks = 0
        k, seg = ann["k"], ann["seg"]
        for i0, h, j0, w in ann["stripes"]:
            useful_updates += k * seg * h * w
            useful_blocks += k * (2 * h * w + seg * (h + w))
        dyn["coded"] = {
            "k": k,
            "redundancy": ann["redundancy"],
            "stripes": len(ann["stripes"]),
            "decode_time": tracker.decode_time,
            "shares_returned": tracker.total_returns,
            "useful_updates": useful_updates,
            "wasted_updates": result.total_updates - useful_updates,
            "useful_blocks": useful_blocks,
            "wasted_blocks": result.blocks_through_port - useful_blocks,
        }
        result.meta.setdefault("algorithm", self.name)
        return result


class CodedScheduler(_CodedBase):
    """Fixed-rate MDS-like coding: ``k + redundancy`` shares per stripe,
    statically staggered across the enrolled workers."""

    name = "Coded"

    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        enrolled, side, k, seg, stripes = self._geometry(platform, grid)
        n = k + self.redundancy
        assignments: list[list[Chunk]] = [[] for _ in range(platform.p)]
        cid = 0
        for sid, (i0, h, j0, w) in enumerate(stripes):
            for j in range(n):
                widx = enrolled[(sid + j) % len(enrolled)]
                assignments[widx].append(make_chunk(cid, widx, i0, h, j0, w, seg))
                cid += 1
        return Plan(
            assignments=assignments,
            policy=ReadyPolicy(demand_priority),
            depths=[2] * platform.p,
            meta=self._meta(k, self.redundancy, side, seg, stripes),
        )


class RatelessCodedScheduler(_CodedBase):
    """Rateless coding: shares stream to free ports on demand until the
    decode threshold is met (capped at ``k + redundancy`` per stripe when
    replayed without a live decode tracker)."""

    name = "CodedRL"

    def plan(self, platform: Platform, grid: BlockGrid) -> Plan:
        enrolled, side, k, seg, stripes = self._geometry(platform, grid)
        allocator = CodedDemandAllocator(
            stripes, seg, enrolled, platform.p, cap=k + self.redundancy
        )
        return Plan(
            assignments=[[] for _ in range(platform.p)],
            policy=ReadyPolicy(demand_priority),
            depths=[2] * platform.p,
            allocator=allocator,
            meta=self._meta(k, self.redundancy, side, seg, stripes),
        )
