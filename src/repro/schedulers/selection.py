"""Incremental resource selection (Section 5).

Worker memories differ, so workers receive chunks of different sizes
(``mu_i x mu_i``) and no closed-form allocation exists.  The paper
pre-computes the allocation with a *step-by-step simulation*: selections
are made one chunk at a time against a model of the master port and of the
workers' ready times.

**Selection-time model** (chunk granularity).  Assigning the next chunk to
``P_i`` occupies the port for ``D_i = 2 mu_i t c_i`` seconds of A/B traffic
(plus ``mu_i^2 c_i`` when the variant counts the C-chunk send), starting at

    start = max(port_free, ready_i)

because the overlapped layout has no cross-chunk prefetch: a worker's next
chunk cannot stream in before the worker finished computing the previous
one (its C buffers and round buffers are still in use) -- this is the
"ready time" the paper insists on.  The worker then computes the chunk in
``mu_i^2 t w_i`` seconds, throttled by data arrival:

    comp_end = max(ready_i, start + lead) + mu_i^2 t w_i   (compute-bound)
    comp_end = start + D_i + mu_i^2 w_i                    (port-bound)

whichever is later, where ``lead`` is the time of the first round's
arrival.  In the port-bound limit the *local* ratio (chunk work over port
time consumed) reduces to ``mu_i / (2 c_i)`` -- precisely the
bandwidth-centric LP ordering key -- while overloading a worker degrades
both ratios through ``ready_i``, which is what makes the selection
memory-feasible where the LP is not.

Selection criteria (the paper's eight Het variants plus min-min):

* **global**: total work assigned so far divided by the completion time of
  the candidate chunk's last communication (maximize);
* **local**: the candidate chunk's work divided by the port time it
  occupies, idle waits included (maximize);
* each optionally with one-selection **look-ahead** (a candidate's score is
  the best pair score over all possible next selections), and optionally
  **counting the C-chunk send** in the simulated timeline;
* **min-min** (OMMOML): minimize the candidate chunk's completion time.

Grant bookkeeping: a worker selected ``ceil(r / mu_i)`` times has earned
``mu_i`` block columns of the real matrix and is granted the next free
column panel; the phase stops when every column is granted.  The same
machinery replays arbitrary sequences (e.g. round-robin for ORROML), so all
chunk-ordered algorithms share one phase-2 plan builder
(:func:`build_plan_from_sequence`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ..core.blocks import BlockGrid, ceil_div
from ..core.chunks import Chunk, PanelAllocator, PanelCursor
from ..core.layout import overlapped_mu
from ..platform.model import Platform
from ..sim.plan import Plan
from ..sim.policies import ReadyPolicy, selection_order_priority
from .base import SchedulingError

__all__ = [
    "Variant",
    "ALL_VARIANTS",
    "usable_mus",
    "SelectionOutcome",
    "SelectionState",
    "incremental_selection",
    "min_min_selection",
    "round_robin_sequence",
    "build_plan_from_sequence",
]


@dataclass(frozen=True)
class Variant:
    """One of the eight Het selection variants."""

    scope: str  # "global" or "local"
    lookahead: bool
    count_c: bool

    def __post_init__(self) -> None:
        if self.scope not in ("global", "local"):
            raise ValueError(f"unknown scope {self.scope!r}")

    @property
    def label(self) -> str:
        la = "+la" if self.lookahead else ""
        cc = "+c" if self.count_c else ""
        return f"{self.scope}{la}{cc}"


#: The paper's eight variants: {global, local} x {look-ahead, not} x {C cost, not}.
ALL_VARIANTS: tuple[Variant, ...] = tuple(
    Variant(scope, la, cc)
    for scope in ("global", "local")
    for la in (False, True)
    for cc in (False, True)
)


def usable_mus(platform: Platform) -> list[int]:
    """Per-worker overlapped chunk side ``mu_i`` (0 when the worker lacks
    the minimum memory and must be excluded)."""
    mus = []
    for wk in platform:
        try:
            mus.append(overlapped_mu(wk.m))
        except ValueError:
            mus.append(0)
    return mus


@dataclass
class SelectionOutcome:
    """Result of a selection phase."""

    sequence: list[int]  # worker index per selection, in order
    mus: list[int]
    variant: Variant | None = None
    meta: dict = field(default_factory=dict)


class SelectionState:
    """O(p) analytic state of the selection-time model (see module doc).

    Min-min and the adaptive band placement score candidates with
    :meth:`speculate` / :meth:`rollback`: one assignment only touches three
    scalars (``port_free``, ``ready[widx]``, ``total_work``), so a what-if
    is a delta-update plus an O(1) undo token instead of an O(p)
    :meth:`copy` per candidate.  Tokens must be rolled back in LIFO order
    when nested.  :func:`incremental_selection` inlines :meth:`assign`'s
    arithmetic into its own flat loop.
    """

    __slots__ = ("platform", "grid", "mus", "count_c", "port_free", "ready", "total_work")

    def __init__(
        self, platform: Platform, grid: BlockGrid, mus: Sequence[int], count_c: bool
    ) -> None:
        self.platform = platform
        self.grid = grid
        self.mus = list(mus)
        self.count_c = count_c
        self.port_free = 0.0
        self.ready = [0.0] * platform.p
        self.total_work = 0

    def copy(self) -> "SelectionState":
        other = SelectionState.__new__(SelectionState)
        other.platform = self.platform
        other.grid = self.grid
        other.mus = self.mus
        other.count_c = self.count_c
        other.port_free = self.port_free
        other.ready = list(self.ready)
        other.total_work = self.total_work
        return other

    def chunk_work(self, widx: int) -> int:
        """Block updates of one idealized chunk on ``widx`` (clipped to r)."""
        mu = self.mus[widx]
        return min(mu, self.grid.r) * mu * self.grid.t

    def assign(self, widx: int) -> tuple[float, float]:
        """Commit one chunk to ``widx``; returns ``(comm_end, comp_end)``."""
        wk = self.platform[widx]
        mu = self.mus[widx]
        h = min(mu, self.grid.r)
        t = self.grid.t
        c_cost = (h * mu * wk.c) if self.count_c else 0.0
        data = (h + mu) * t * wk.c  # per round: h A blocks + mu B blocks
        start = max(self.port_free, self.ready[widx])
        comm_end = start + c_cost + data
        lead = c_cost + (h + mu) * wk.c  # first round delivered
        per_round = h * mu * wk.w
        comp_begin = max(self.ready[widx], start + lead)
        comp_end = max(comp_begin + t * per_round, comm_end + per_round)
        self.port_free = comm_end
        self.ready[widx] = comp_end
        self.total_work += self.chunk_work(widx)
        return comm_end, comp_end

    def speculate(self, widx: int) -> tuple[tuple, float, float]:
        """Commit one chunk to ``widx`` like :meth:`assign`, returning an
        undo token alongside ``(comm_end, comp_end)``."""
        token = (widx, self.port_free, self.ready[widx], self.total_work)
        comm_end, comp_end = self.assign(widx)
        return token, comm_end, comp_end

    def rollback(self, token: tuple) -> None:
        """Undo one :meth:`speculate` (LIFO order when nested)."""
        widx, port_free, ready_w, total_work = token
        self.port_free = port_free
        self.ready[widx] = ready_w
        self.total_work = total_work


def incremental_selection(
    platform: Platform, grid: BlockGrid, variant: Variant
) -> SelectionOutcome:
    """Run the paper's incremental selection under ``variant``.

    One flat loop over the selection-time model: each usable worker's
    chunk constants are computed once, with the operands and operation
    order of :meth:`SelectionState.assign`, so every score is
    bit-identical to speculating the candidate on a :class:`SelectionState`
    and rolling it back.  Ties go to the lowest worker index (a candidate
    replaces the incumbent only on a strictly higher score).
    """
    mus = usable_mus(platform)
    usable = [i for i, mu in enumerate(mus) if mu >= 1]
    if not usable:
        raise SchedulingError("no worker has enough memory for the overlapped layout")

    r, t = grid.r, grid.t
    # (widx, c_cost, data, lead, per_round, t * per_round, work) per worker
    consts = []
    for i in usable:
        wk = platform[i]
        mu = mus[i]
        h = min(mu, r)
        c_cost = (h * mu * wk.c) if variant.count_c else 0.0
        data = (h + mu) * t * wk.c
        lead = c_cost + (h + mu) * wk.c
        per_round = h * mu * wk.w
        consts.append((i, c_cost, data, lead, per_round, t * per_round, h * mu * t))
    pairs = [(j, c_cost, data, work) for j, c_cost, data, _, _, _, work in consts]
    by_global = variant.scope == "global"
    lookahead = variant.lookahead
    inf = float("inf")

    port_free = 0.0
    ready = [0.0] * platform.p
    total = 0
    sequence: list[int] = []
    panels = PanelAllocator(grid.s)
    since_grant = [0] * platform.p
    need = [ceil_div(r, mu) if mu >= 1 else 0 for mu in mus]
    while not panels.exhausted:
        best = None
        best_score = best_start = best_comm_end = 0.0
        for cand in consts:
            i, c_cost, data, lead, per_round, t_round, work = cand
            ready_i = ready[i]
            start = ready_i if ready_i > port_free else port_free
            comm_end = start + c_cost + data
            if not lookahead:
                if by_global:
                    score = (total + work) / comm_end if comm_end > 0 else inf
                else:
                    elapsed = comm_end - port_free
                    score = work / elapsed if elapsed > 0 else inf
            else:
                comp_end = max(max(ready_i, start + lead) + t_round, comm_end + per_round)
                score = -inf
                for j, c_cost2, data2, work2 in pairs:
                    ready_j = comp_end if j == i else ready[j]
                    start2 = ready_j if ready_j > comm_end else comm_end
                    comm_end2 = start2 + c_cost2 + data2
                    if by_global:
                        pair = (total + work + work2) / comm_end2 if comm_end2 > 0 else inf
                    else:
                        elapsed = comm_end2 - port_free
                        pair = (work + work2) / elapsed if elapsed > 0 else inf
                    if pair > score:
                        score = pair
            if best is None or score > best_score:
                best, best_score, best_start, best_comm_end = cand, score, start, comm_end
        # commit the winner exactly as SelectionState.assign does
        best_w, _, _, lead, per_round, t_round, work = best
        comp_begin = max(ready[best_w], best_start + lead)
        ready[best_w] = max(comp_begin + t_round, best_comm_end + per_round)
        port_free = best_comm_end
        total += work
        sequence.append(best_w)
        since_grant[best_w] += 1
        if since_grant[best_w] == need[best_w]:
            since_grant[best_w] = 0
            panels.grant(mus[best_w])
    return SelectionOutcome(sequence=sequence, mus=mus, variant=variant)


def min_min_selection(platform: Platform, grid: BlockGrid) -> SelectionOutcome:
    """OMMOML's selection: repeatedly give the next chunk to the worker that
    would finish it first (port availability and compute backlog included;
    the C-chunk send is counted, ties go to the first worker in index
    order)."""
    mus = usable_mus(platform)
    usable = [i for i, mu in enumerate(mus) if mu >= 1]
    if not usable:
        raise SchedulingError("no worker has enough memory for the overlapped layout")
    state = SelectionState(platform, grid, mus, count_c=True)
    sequence: list[int] = []
    panels = PanelAllocator(grid.s)
    since_grant = [0] * platform.p
    need = [ceil_div(grid.r, mu) if mu >= 1 else 0 for mu in mus]
    while not panels.exhausted:
        best_w, best_done = -1, float("inf")
        for i in usable:
            token, _, comp_end = state.speculate(i)
            state.rollback(token)
            if comp_end < best_done:
                best_w, best_done = i, comp_end
        sequence.append(best_w)
        state.assign(best_w)
        since_grant[best_w] += 1
        if since_grant[best_w] == need[best_w]:
            since_grant[best_w] = 0
            panels.grant(mus[best_w])
    return SelectionOutcome(sequence=sequence, mus=mus, meta={"criterion": "min-min"})


def round_robin_sequence(platform: Platform, grid: BlockGrid) -> SelectionOutcome:
    """ORROML's 'selection': cycle over every usable worker until all
    columns are granted (no resource selection at all)."""
    mus = usable_mus(platform)
    usable = [i for i, mu in enumerate(mus) if mu >= 1]
    if not usable:
        raise SchedulingError("no worker has enough memory for the overlapped layout")
    sequence: list[int] = []
    panels = PanelAllocator(grid.s)
    since_grant = [0] * platform.p
    need = [ceil_div(grid.r, mu) if mu >= 1 else 0 for mu in mus]
    for widx in itertools.cycle(usable):
        if panels.exhausted:
            break
        sequence.append(widx)
        since_grant[widx] += 1
        if since_grant[widx] == need[widx]:
            since_grant[widx] = 0
            panels.grant(mus[widx])
    return SelectionOutcome(sequence=sequence, mus=mus, meta={"criterion": "round-robin"})


# ----------------------------------------------------------------------
# phase 2: sequence -> executable plan
# ----------------------------------------------------------------------
def build_plan_from_sequence(
    platform: Platform, grid: BlockGrid, outcome: SelectionOutcome
) -> Plan:
    """Convert a selection sequence into a runnable plan.

    Replays the sequence to reproduce the panel grants, walks each worker's
    granted panels with a :class:`PanelCursor` (ragged edges become
    rectangular chunks), assigns chunk ids in selection order, and installs
    the earliest-selected-first port policy.  Trailing selections that never
    earned a grant are dropped (the paper stops as soon as all blocks are
    allocated columnwise).
    """
    mus = outcome.mus
    panels = PanelAllocator(grid.s)
    cursors: list[PanelCursor | None] = [
        PanelCursor(i, mu, grid) if mu >= 1 else None for i, mu in enumerate(mus)
    ]
    since_grant = [0] * platform.p
    need = [ceil_div(grid.r, mu) if mu >= 1 else 0 for mu in mus]
    for widx in outcome.sequence:
        if panels.exhausted:
            break
        since_grant[widx] += 1
        if since_grant[widx] == need[widx]:
            since_grant[widx] = 0
            panel = panels.grant(mus[widx])
            if panel is not None:
                cursor = cursors[widx]
                assert cursor is not None
                cursor.add_panel(panel)
    if not panels.exhausted:
        raise SchedulingError("selection sequence did not cover all columns")

    assignments: list[list[Chunk]] = [[] for _ in range(platform.p)]
    cid = 0
    for widx in outcome.sequence:
        cursor = cursors[widx]
        if cursor is None:
            continue
        chunk = cursor.next_chunk(cid)
        if chunk is None:
            continue  # trailing selection past this worker's real supply
        cid += 1
        assignments[widx].append(chunk)
    enrolled = [i for i, chunks in enumerate(assignments) if chunks]
    return Plan(
        assignments=assignments,
        policy=ReadyPolicy(selection_order_priority),
        depths=[2] * platform.p,
        meta={
            "enrolled": enrolled,
            "selections": len(outcome.sequence),
            "variant": outcome.variant.label if outcome.variant else outcome.meta.get("criterion"),
        },
    )
