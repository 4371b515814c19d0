"""Online adaptive rescheduling over dynamic platforms.

Every paper algorithm plans against a platform whose parameters never
change; :class:`AdaptiveScheduler` wraps one of them and evaluates it on a
:class:`~repro.sim.dynamic.PlatformTimeline` in three modes:

``oblivious``
    Plan once on the *initial* platform and replay the plan under the
    timeline — what a static scheduler actually experiences when the
    platform shifts under it.
``adaptive``
    Replay the same initial plan, but at every event boundary consider
    *online rescheduling*: reclaim the not-yet-started work of degraded or
    unreachable workers, replan the reclaimed columns with the wrapped
    scheduler on the *now-current* platform, and optionally abandon
    (kill + re-execute elsewhere) in-flight chunks.  Candidate reactions —
    continue unchanged, migrate, migrate + kill — are scored by cloning the
    live run (:meth:`~repro.sim.dynamic.DynamicRun.probe`) and running each
    to completion under the current parameters; the best one is applied.
    Partial row-bands that no column-level replan can absorb are assigned
    to the earliest-finishing healthy worker through the Section 5
    selection-time model (:class:`~repro.schedulers.selection
    .SelectionState`'s ``speculate``/``rollback``).
``reselect``
    Everything ``adaptive`` does, plus *scenario-aware threshold
    re-selection* for the virtual-platform algorithms (Hom/HomI — any base
    scheduler exposing ``reselection_candidates``): at each event boundary
    the whole remaining unstarted work of **every** worker is reclaimed and
    the virtual-platform threshold search is re-run on the *current*
    degraded/healthy parameters.  Each surviving threshold candidate's
    replanned suffix is spliced behind the run's executed history and the
    candidate population is scored in one incremental
    :meth:`~repro.sim.batch.BatchEngine.shared_prefix` batch — the shared
    executed-so-far prefix is simulated once and broadcast, only the
    divergent replanned tails are replayed — so re-searching at every
    boundary costs a fraction of the from-scratch ``_evaluate_candidates``
    replay.  The best threshold
    candidate then competes against ``continue``/``migrate`` on probe
    clones like any other reaction; bases without a threshold search fall
    back to plain ``adaptive`` behaviour.
``clairvoyant``
    Plan once on the timeline's *final* platform (knowing, up front, what
    the platform will become), choosing between enrolling everyone and
    fencing off the finally-degraded workers by simulated makespan — the
    reference an online algorithm should be measured against.

Adaptive replanning is *coordinate-faithful*: reclaimed whole columns are
re-planned on a reduced grid and the resulting chunks are mapped back onto
the real reclaimed (row, column) coordinates — splitting a chunk wherever
its reduced columns are not contiguous in the original matrix, which
duplicates that chunk's per-round A traffic (the genuine communication
price of scattering).  The spliced plan is therefore a legal plan over the
original grid: together with the partial row-bands (always placed at real
coordinates) the surviving chunks tile C exactly, every reclaimed block is
re-sent exactly once, and :func:`repro.sim.validate.validate_dynamic` can
audit any adaptive run recorded with ``record_events=True``.  Abandoned
(killed) in-flight work is still re-executed, so ``total_updates`` counts
sunk partial computes; the validator accounts killed chunks separately via
``meta["dynamic"]["killed_cids"]``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from ..core.blocks import BlockGrid
from ..core.chunks import Chunk, PanelCursor, RoundSpec, make_chunk
from ..obs import counter, stopwatch, trace
from ..platform.model import Platform, Worker
from ..sim.allocator import PanelDemandAllocator
from ..sim.batch import shared_prefix_makespans
from ..sim.dynamic import DynamicRun, DynamicStall, PlatformTimeline, simulate_dynamic
from ..sim.engine import SimResult
from ..sim.fastpath import fast_simulate
from ..sim.plan import Plan
from ..sim.policies import StrictOrderPolicy
from ..sim.worker_state import c_message_count
from .base import Scheduler, SchedulingError
from .homogeneous import homogeneous_plan
from .selection import SelectionState, usable_mus

__all__ = ["ADAPTIVE_CONTROLLER_VERSION", "DYNAMIC_MODES", "AdaptiveScheduler"]

#: Evaluation modes per base algorithm (see the module docstring).
DYNAMIC_MODES = ("oblivious", "adaptive", "reselect", "clairvoyant")

#: Version tag of the online controller's decision logic (suspect
#: detection, candidate construction, scoring).  The dynamic result cache
#: keys controlled-mode runs on it (:func:`repro.experiments.parallel
#: .dynamic_task_key`), so a change to the boundary heuristics that can
#: move a recorded makespan must bump it — that invalidates every stored
#: adaptive/reselect payload at once.
ADAPTIVE_CONTROLLER_VERSION = "controller-v1"

#: Modes whose runs are steered online at event boundaries.
_CONTROLLED_MODES = ("adaptive", "reselect")

_INF = math.inf

#: A reclaimed rectangle of C blocks awaiting reassignment.
_Band = tuple[int, int, int, int]  # (i0, h, j0, width)


def _column_runs(ch: Chunk, col_map: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal contiguous ``(real_j0, width)`` runs of ``ch``'s columns
    under ``col_map`` (reduced column index -> real column, ascending)."""
    real = [col_map[j] for j in range(ch.j0, ch.j0 + ch.w)]
    runs: list[tuple[int, int]] = []
    start = prev = real[0]
    for rj in real[1:]:
        if rj == prev + 1:
            prev = rj
        else:
            runs.append((start, prev - start + 1))
            start = prev = rj
    runs.append((start, prev - start + 1))
    return runs


def _narrowed_rounds(ch: Chunk, width: int) -> tuple[RoundSpec, ...]:
    """``ch``'s round structure restricted to ``width`` of its columns
    (layout-agnostic: every round keeps its k-range; B and update payloads
    scale with the width, A payloads stay per-row-per-k)."""
    if width == ch.w:
        return ch.rounds
    return tuple(
        RoundSpec(
            k_lo=rd.k_lo,
            k_hi=rd.k_hi,
            a_blocks=ch.h * (rd.k_hi - rd.k_lo),
            b_blocks=width * (rd.k_hi - rd.k_lo),
            updates=ch.h * width * (rd.k_hi - rd.k_lo),
        )
        for rd in ch.rounds
    )


def _remap_subplan(
    plan: Plan,
    include: Sequence[int],
    p: int,
    cid_base: int,
    col_map: Sequence[int] | None = None,
) -> Plan:
    """Widen a plan built on ``subplatform(include)`` back to ``p`` workers.

    Chunk ids are re-allocated from ``cid_base`` (in original selection
    order, so ready policies keep their "earliest selected first"
    semantics) and stay unique next to chunks an in-flight run already
    owns; excluded workers get empty pipelines.  Strict orders are
    index-mapped; spec-based ready policies and ``c_mode`` carry over; a
    demand allocator is rebuilt with excluded workers' sides zeroed.

    With ``col_map`` the plan was built on a *reduced grid* whose column
    ``j`` stands for real column ``col_map[j]``: every chunk is mapped back
    onto real (row, column) coordinates, splitting wherever its reduced
    columns are not contiguous in the original matrix so each part is a
    true rectangle of the original grid.  Splitting duplicates the
    per-round A traffic of the extra parts — the real communication price
    of scattered reclaimed columns.  Strict orders are re-expanded: each
    original message slot is replaced by one slot per part, so per-worker
    occurrence counts match the split streams while the interleaving is
    preserved.
    """
    if col_map is not None and plan.allocator is not None:
        raise SchedulingError("cannot remap a demand allocator onto scattered columns")
    # geometry pass: the (real_j0, width, rounds) parts of every chunk
    geoms: list[list[list[tuple[int, int, tuple[RoundSpec, ...]]]]] = []
    for chunks in plan.assignments:
        per_worker = []
        for ch in chunks:
            if col_map is None:
                per_worker.append([(ch.j0, ch.w, ch.rounds)])
            else:
                per_worker.append(
                    [(j0, w, _narrowed_rounds(ch, w)) for j0, w in _column_runs(ch, col_map)]
                )
        geoms.append(per_worker)
    # allocate ids in original-cid order (parts of one chunk consecutively)
    next_id = cid_base
    cid_of: dict[tuple[int, int], int] = {}
    for _cid, sw, pos in sorted(
        (ch.cid, sw, pos)
        for sw, chunks in enumerate(plan.assignments)
        for pos, ch in enumerate(chunks)
    ):
        cid_of[(sw, pos)] = next_id
        next_id += len(geoms[sw][pos])
    assignments: list[list[Chunk]] = [[] for _ in range(p)]
    depths = [2] * p
    for sw, chunks in enumerate(plan.assignments):
        rw = include[sw]
        depths[rw] = plan.depths[sw]
        for pos, ch in enumerate(chunks):
            cid = cid_of[(sw, pos)]
            for j0, w, rounds in geoms[sw][pos]:
                assignments[rw].append(
                    Chunk(cid=cid, worker=rw, i0=ch.i0, h=ch.h, j0=j0, w=w, rounds=rounds)
                )
                cid += 1
    policy = plan.policy
    if isinstance(policy, StrictOrderPolicy):
        order: list[int] = []
        pos_of = [0] * len(plan.assignments)
        within = [0] * len(plan.assignments)
        extra = c_message_count(plan.c_mode)
        for sw in policy.order:
            ch = plan.assignments[sw][pos_of[sw]]
            n_msgs = len(ch.rounds) + extra
            # every part repeats the original chunk's message structure, so
            # each original slot expands to exactly one slot per part
            order.extend([include[sw]] * len(geoms[sw][pos_of[sw]]))
            within[sw] += 1
            if within[sw] == n_msgs:
                within[sw] = 0
                pos_of[sw] += 1
        policy = StrictOrderPolicy(order)
    allocator = plan.allocator
    if allocator is not None:
        if not isinstance(allocator, PanelDemandAllocator):
            raise SchedulingError(f"cannot remap allocator {type(allocator).__name__}")
        sides = [0] * p
        for sw, side in enumerate(allocator.sides):
            sides[include[sw]] = side
        remapped = PanelDemandAllocator(allocator.grid, sides, toledo=allocator.toledo)
        remapped.rebase_cids(cid_base)
        allocator = remapped
    return Plan(
        assignments=assignments,
        policy=policy,
        depths=depths,
        allocator=allocator,
        c_mode=plan.c_mode,
        meta=dict(plan.meta),
    )


def _group_reclaimed(
    chunks: Sequence[Chunk], r: int, *, columns_ok: bool
) -> tuple[list[int], list[_Band]]:
    """Split reclaimed chunks into whole real columns and partial row-bands.

    Chunks reclaimed from one worker walk panels top-to-bottom, so per
    panel ``(j0, width)`` they form a contiguous bottom band — but chunks
    reclaimed from *several* workers (the re-selection path, or a kill
    after an earlier band migration) can leave row gaps owned by kept or
    completed chunks, so each panel group is split into its maximal
    contiguous row runs rather than summed blindly.  With ``columns_ok``,
    a run covering rows 0..r contributes its *real column indices*
    (eligible for a reduced-grid replan through the base scheduler, mapped
    back via ``_remap_subplan``'s ``col_map``); every other run stays a
    band.  Returns ``(sorted real columns, bands)``.
    """
    panels: dict[tuple[int, int], list[Chunk]] = {}
    for ch in chunks:
        panels.setdefault((ch.j0, ch.w), []).append(ch)
    cols: list[int] = []
    bands: list[_Band] = []
    for (j0, width), group in panels.items():
        group.sort(key=lambda ch: ch.i0)
        runs: list[tuple[int, int]] = []
        start = group[0].i0
        end = start + group[0].h
        for ch in group[1:]:
            if ch.i0 == end:
                end = ch.i0 + ch.h
            else:
                runs.append((start, end - start))
                start, end = ch.i0, ch.i0 + ch.h
        runs.append((start, end - start))
        for i0, h in runs:
            if columns_ok and i0 == 0 and h == r:
                cols.extend(range(j0, j0 + width))
            else:
                bands.append((i0, h, j0, width))
    cols.sort()
    return cols, bands


class AdaptiveScheduler:
    """Evaluate a base scheduler on a dynamic platform (see module doc).

    Not a static :class:`~repro.schedulers.base.Scheduler`: there is no
    single plan to compile — use :meth:`run_dynamic`.
    """

    def __init__(self, base: Scheduler, mode: str = "adaptive") -> None:
        if mode not in DYNAMIC_MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {DYNAMIC_MODES}")
        self.base = base
        self.mode = mode

    @property
    def name(self) -> str:
        return f"{self.base.name}[{self.mode}]"

    @property
    def objective(self):
        """The base scheduler's scoring objective
        (:mod:`repro.experiments.objectives`; ``None`` = pure makespan).
        Boundary decisions score candidate reactions under it, so e.g. a
        cost objective keeps a crashed worker's chunks unmigrated when the
        extra traffic costs more than the time it saves."""
        return getattr(self.base, "objective", None)

    def _continuation_score(self, makespan: float, chunks_by_worker) -> float:
        """Objective score of one candidate continuation: ``makespan`` as
        simulated, priced over the candidate's full chunk layout.  The
        default makespan objective returns ``makespan`` unchanged (the
        original comparison)."""
        objective = self.objective
        if objective is None or objective.is_makespan:
            return makespan
        from ..experiments.objectives import PlanScore

        workers = sum(1 for chs in chunks_by_worker if chs)
        port_blocks = sum(ch.comm_blocks for chs in chunks_by_worker for ch in chs)
        return objective.score(
            PlanScore(
                makespan=makespan,
                workers=workers,
                port_blocks=port_blocks,
                block_bytes=self._grid.block_bytes,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AdaptiveScheduler {self.name}>"

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run_dynamic(
        self,
        platform: Platform,
        grid: BlockGrid,
        timeline: PlatformTimeline,
        *,
        record_events: bool = False,
    ) -> SimResult:
        """Plan per the mode, replay under ``timeline``, return the result
        (``meta["dynamic"]`` records mode, events and replan decisions).

        ``record_events`` records the full trace (plus the killed-chunk
        audit) in every mode, adaptive included, so the
        result can be audited with
        :func:`repro.sim.validate.validate_dynamic`.
        """
        self._platform = platform
        self._grid = grid
        self._decisions: list[str] = []
        self._boundary_seconds: list[float] = []
        self._reselect_stats = {
            "boundaries": 0,
            "searches": 0,
            "candidates": 0,
            "prefix_steps": 0,
            "suffix_steps": 0,
            # what a from-scratch replay of every candidate would have
            # simulated: sum of full candidate plan lengths
            "full_steps": 0,
        }
        with trace(
            "plan", algorithm=self.name, mode=self.mode
        ), stopwatch("plan.seconds") as planning:
            if self.mode == "clairvoyant":
                plan = self._clairvoyant_plan(platform, grid, timeline)
            else:
                plan = self.base.plan(platform, grid)
        if plan.meta.get("coded") and self.mode in _CONTROLLED_MODES:
            # replanning migrates grid-tiling chunks; coded stripe shares
            # are the *alternative* to replanning (repro.schedulers.coded
            # run_dynamic is their decode-aware entry point)
            raise SchedulingError(
                f"mode={self.mode!r} cannot wrap the coded-redundancy "
                f"family ({self.base.name}); use its own run_dynamic"
            )
        if isinstance(plan.allocator, PanelDemandAllocator):
            self._sides = plan.allocator.sides  # before any grants
            self._toledo = plan.allocator.toledo
        else:
            self._sides = usable_mus(platform)
            self._toledo = False
        controller = self._on_boundary if self.mode in _CONTROLLED_MODES else None
        result = simulate_dynamic(
            platform,
            plan,
            timeline,
            grid,
            controller=controller,
            record_events=record_events,
        )
        result.meta.setdefault("algorithm", self.name)
        result.meta.setdefault("planning_seconds", planning.elapsed)
        result.meta["dynamic"]["mode"] = self.mode
        if self.mode in _CONTROLLED_MODES:
            result.meta["dynamic"]["decisions"] = list(self._decisions)
            result.meta["dynamic"]["boundary_seconds"] = sum(self._boundary_seconds)
        if self.mode == "reselect":
            result.meta["dynamic"]["reselect"] = dict(self._reselect_stats)
            for key, val in self._reselect_stats.items():
                if val:
                    counter(f"reselect.{key}").inc(val)
        return result

    # ------------------------------------------------------------------
    # clairvoyant planning
    # ------------------------------------------------------------------
    def _clairvoyant_plan(
        self, platform: Platform, grid: BlockGrid, timeline: PlatformTimeline
    ) -> Plan:
        final = timeline.final_platform(platform)
        dead = timeline.crashed_at(_INF, final=True)
        degraded = set(timeline.affected_workers(platform, _INF)) | dead
        candidates: list[Plan] = []
        seen: set[frozenset] = set()
        for exclude in (frozenset(dead), frozenset(degraded)):
            if exclude in seen:
                continue
            seen.add(exclude)
            include = [i for i in range(platform.p) if i not in exclude]
            if not include:
                continue
            try:
                if len(include) == platform.p:
                    cand = self.base.plan(final, grid)
                else:
                    sub = final.subplatform(include)
                    cand = _remap_subplan(
                        self.base.plan(sub, grid), include, platform.p, 0
                    )
            except SchedulingError:
                continue
            candidates.append(cand)
        if not candidates:
            raise SchedulingError(f"{self.name}: no feasible plan on the final platform")
        scores = [fast_simulate(final, cand).makespan for cand in candidates]
        best = min(range(len(candidates)), key=lambda i: (scores[i], i))
        plan = candidates[best]
        plan.meta["clairvoyant_estimate"] = scores[best]
        return plan

    # ------------------------------------------------------------------
    # online rescheduling
    # ------------------------------------------------------------------
    def _on_boundary(self, run: DynamicRun, applied) -> None:
        """Controller entry point: every event boundary is individually
        timed (``adaptive.boundary_seconds``; per-boundary wall times are
        summed into ``meta["dynamic"]["boundary_seconds"]``)."""
        counter("adaptive.boundaries").inc()
        with trace(
            "boundary", mode=self.mode, t=applied[-1].time if applied else 0.0
        ), stopwatch("adaptive.boundary_seconds") as sw:
            self._boundary_decision(run, applied)
        self._boundary_seconds.append(sw.elapsed)

    def _boundary_decision(self, run: DynamicRun, applied) -> None:
        now = applied[-1].time if applied else 0.0
        p = run.engine.platform.p
        suspects = {
            i
            for i in range(p)
            if run.avail[i] > now
            or run.cur_cs[i] != run.base_cs[i]
            or run.cur_ws[i] != run.base_ws[i]
        }
        candidates: list[tuple[str, Callable[[DynamicRun], None] | None]] = [
            ("continue", None)
        ]
        for kill in (False, True):
            migration = self._build_migration(run, suspects, kill)
            if migration is not None:
                candidates.append((f"migrate{'+kill' if kill else ''}", migration))
            if not suspects:
                break  # without suspects, kill=True is identical
        if self.mode == "reselect":
            self._reselect_stats["boundaries"] += 1
            for kill in (False, True):
                reselection = self._build_reselection(run, suspects, kill)
                if reselection is not None:
                    candidates.append(
                        (f"reselect{'+kill' if kill else ''}", reselection)
                    )
        if len(candidates) == 1:
            # nothing to decide: skip the (full-simulation) scoring pass
            self._decisions.append(f"t={now:g}:continue")
            return
        objective = self.objective
        rescore = objective is not None and not objective.is_makespan
        best_label, best_apply, best_score = "continue", None, _INF
        for label, migration in candidates:
            probe = run.probe()
            try:
                if migration is not None:
                    migration(probe)
                score = probe.finish()
            except (DynamicStall, RuntimeError, SchedulingError):
                continue
            if rescore:
                score = self._continuation_score(
                    score, [probe.chunk_history(w) for w in range(p)]
                )
            if score < best_score:
                best_label, best_apply, best_score = label, migration, score
        if best_apply is not None:
            best_apply(run)
        self._decisions.append(f"t={now:g}:{best_label}")

    def _build_migration(
        self, run: DynamicRun, suspects: set[int], kill: bool
    ) -> Callable[[DynamicRun], None] | None:
        """Compile one candidate reaction into a closure applicable to the
        live run or any probe of it; ``None`` when it is a no-op or cannot
        be built."""
        platform = self._platform
        grid = self._grid
        p = platform.p
        sides = self._sides
        healthy = [
            i
            for i in range(p)
            if i not in suspects and run.avail[i] != _INF and sides[i] >= 1
        ]
        if not healthy:
            return None

        # -- what gets reclaimed (read-only; probes replay this exactly)
        reclaimed: list[Chunk] = []
        for w in sorted(suspects):
            pending = run.pending_chunks(w)
            if pending and run.chunk_started(w) and not kill:
                pending = pending[1:]
            reclaimed.extend(pending)
        # allocator runs: un-walked panel remainders held by suspect
        # cursors, plus cursor exclusion/re-inclusion
        new_allocator = None
        if run.allocator is not None:
            new_allocator = run.allocator.clone()
            changed = False
            for w in range(p):
                cursor = new_allocator.cursors[w]
                if w in suspects and cursor is not None:
                    while cursor.has_next:
                        ch = cursor.next_chunk(0)  # placeholder cid: geometry only
                        if ch is not None:
                            reclaimed.append(ch)
                            changed = True
                    new_allocator.cursors[w] = None
                    changed = True
                elif (
                    w not in suspects
                    and cursor is None
                    and sides[w] >= 1
                    and run.avail[w] != _INF
                ):
                    new_allocator.cursors[w] = PanelCursor(
                        w, sides[w], new_allocator.grid, toledo=self._toledo
                    )
                    changed = True
            if not changed:
                new_allocator = None
        if not reclaimed and new_allocator is None:
            return None

        # whole columns can go back through the wrapped scheduler; a demand
        # allocator re-grants its own columns, so for allocator runs every
        # already-granted reclaimed group is reassigned directly as a band
        cols, bands = _group_reclaimed(
            reclaimed, grid.r, columns_ok=run.allocator is None
        )
        cid_base = run.next_cid()

        # -- replan whole columns with the wrapped scheduler on the
        #    now-current platform, mapping the reduced-grid subplan back
        #    onto the real reclaimed column coordinates
        subplan = None
        if cols:
            cur = Platform(
                [
                    Worker(k, run.cur_cs[i], run.cur_ws[i], platform[i].m)
                    for k, i in enumerate(healthy)
                ],
                name="replan",
            )
            reduced = BlockGrid(r=grid.r, t=grid.t, s=len(cols), q=grid.q)
            try:
                subplan = _remap_subplan(
                    self.base.plan(cur, reduced), healthy, p, cid_base, col_map=cols
                )
            except SchedulingError:
                return None
            cid_base += sum(len(chs) for chs in subplan.assignments)

        # -- assign partial bands via the selection-time model
        band_chunks: list[Chunk] = []
        if bands:
            band_chunks = self._materialize_bands(
                self._band_placements(run, bands, healthy), cid_base
            )
            cid_base += len(band_chunks)

        # -- strict orders: the spliced tail covering replacement messages
        order_tail: list[int] | None = None
        if run._order is not None:
            extra = c_message_count(run.c_mode)
            order_tail = []
            if subplan is not None:
                order_tail.extend(subplan.policy.order)
            for ch in band_chunks:
                order_tail.extend([ch.worker] * (len(ch.rounds) + extra))

        new_chunks: list[tuple[int, Chunk]] = []
        if subplan is not None:
            for rw, chunks in enumerate(subplan.assignments):
                for ch in chunks:
                    new_chunks.append((rw, ch))
        for ch in band_chunks:
            new_chunks.append((ch.worker, ch))

        cid_top = cid_base  # first id above every chunk this migration makes

        def apply(target: DynamicRun) -> None:
            for w in sorted(suspects):
                target.reclaim_unstarted(w)
                if kill:
                    target.kill_in_flight(w)
            if order_tail is not None:
                # count pending messages before appending replacements
                target.rebuild_strict_order(order_tail)
            if new_allocator is not None:
                alloc = new_allocator.clone()
                alloc.rebase_cids(max(alloc.next_cid, cid_top))
                target.set_allocator(alloc)
            elif target.allocator is not None:
                # no cursor changes, but the replacement chunks below
                # consume ids the allocator would otherwise grant next --
                # without the rebase a later grant duplicates a chunk id
                target.allocator.rebase_cids(
                    max(target.allocator.next_cid, cid_top)
                )
            for w, ch in new_chunks:
                target.append_chunk(w, ch)

        return apply

    def _band_placements(
        self, run: DynamicRun, bands: Sequence[_Band], healthy: Sequence[int]
    ) -> list[tuple[int, int, int, int, int]]:
        """Greedy targets for reclaimed partial bands on the current
        parameters: ``(i0, h, j0, width, target)`` per band.  Placement
        depends only on the live run state, so one placement pass serves
        every candidate of a boundary (they differ only in chunk ids)."""
        platform = self._platform
        p = platform.p
        sides = self._sides
        eng = run.engine
        mus = [sides[i] if i in healthy else 0 for i in range(p)]
        state = SelectionState(
            Platform(
                [
                    Worker(i, run.cur_cs[i], run.cur_ws[i], platform[i].m)
                    for i in range(p)
                ],
                name="bands",
            ),
            self._grid,
            mus,
            count_c=True,
        )
        state.port_free = eng.port_free
        state.ready = list(eng._comp_free)
        return list(self._place_bands(bands, state, healthy))

    def _materialize_bands(
        self, placements: Sequence[tuple[int, int, int, int, int]], cid_base: int
    ) -> list[Chunk]:
        """Cut placed bands into memory-sized chunks, ids from ``cid_base``."""
        out: list[Chunk] = []
        for i0, h, j0, width, target in placements:
            side = self._sides[target]
            for dj in range(0, width, side):
                bw = min(side, width - dj)
                for di in range(0, h, side):
                    bh = min(side, h - di)
                    out.append(
                        make_chunk(
                            cid_base,
                            target,
                            i0 + di,
                            bh,
                            j0 + dj,
                            bw,
                            self._grid.t,
                            toledo=self._toledo,
                            sigma=side if self._toledo else None,
                        )
                    )
                    cid_base += 1
        return out

    def _build_reselection(
        self, run: DynamicRun, suspects: set[int], kill: bool
    ) -> Callable[[DynamicRun], None] | None:
        """Compile the scenario-aware threshold re-selection reaction.

        Reclaims the unstarted work of *every* worker (re-selection may
        redistribute, shrink or grow the enrolled set — not just shed a
        suspect's load; with ``kill`` it also abandons suspects' in-flight
        chunks), re-runs the base scheduler's virtual-platform threshold
        search on the current parameters — both over every reachable
        worker and over the suspects-fenced subset, mirroring the
        clairvoyant planner's enroll-all/fence-degraded pair — and scores
        every surviving candidate as a *continuation of this run*: each
        candidate's full strict order is the executed history plus the
        surviving pending messages plus its replanned tail, and the whole
        population is submitted as one shared-prefix batch — the common
        executed+pending prefix simulates once, only the divergent
        replanned tails replay.  Returns the best candidate's apply
        closure (``None`` when re-selection does not apply: no threshold
        search on the base, allocator/ready-policy runs, or nothing
        reclaimable as whole columns).
        """
        candidates_of = getattr(self.base, "reselection_candidates", None)
        if candidates_of is None or run._order is None or run.allocator is not None:
            return None
        platform = self._platform
        grid = self._grid
        p = platform.p
        sides = self._sides
        frontier = run.frontier
        victims = (
            [w for w in sorted(suspects) if run.chunk_started(w)] if kill else []
        )
        if kill and not victims:
            return None  # identical to the no-kill variant
        healthy = [
            i for i in range(p) if run.avail[i] <= frontier and sides[i] >= 1
        ]
        if not healthy:
            return None

        # -- reclaim: suspects shed everything unstarted (victims also
        #    their in-flight chunk); healthy workers keep any partially
        #    walked panel (its leading chunks with i0 > 0 — migrating a
        #    partial panel splits it into bands and re-pays its A traffic)
        #    and contribute only the untouched whole panels behind it
        reclaimed: list[Chunk] = []
        donors: list[tuple[int, int]] = []  # (worker, keep_extra)
        keep_extra = [0] * p
        for w in range(p):
            pending = run.pending_chunks(w)
            if not pending:
                continue
            rest = pending[1:] if run.chunk_started(w) else pending
            if w not in suspects:
                while keep_extra[w] < len(rest) and rest[keep_extra[w]].i0 > 0:
                    keep_extra[w] += 1
                rest = rest[keep_extra[w] :]
            if rest:
                donors.append((w, keep_extra[w]))
                reclaimed.extend(rest)
            if w in victims:
                reclaimed.append(pending[0])
        if not reclaimed:
            return None
        cols, bands = _group_reclaimed(reclaimed, grid.r, columns_ok=True)
        if not cols:
            return None  # nothing a threshold replan can re-spread
        cid_base = run.next_cid()

        # -- re-run the threshold search on the current parameters, over
        #    the reachable workers and over the suspects-fenced subset
        pools = [healthy]
        fenced = [i for i in healthy if i not in suspects]
        if fenced and fenced != healthy:
            pools.append(fenced)
        reduced = BlockGrid(r=grid.r, t=grid.t, s=len(cols), q=grid.q)
        subplans = []
        seen: set[tuple[int, int, tuple[int, ...]]] = set()
        for pool in pools:
            cur = Platform(
                [
                    Worker(k, run.cur_cs[i], run.cur_ws[i], platform[i].m)
                    for k, i in enumerate(pool)
                ],
                name="reselect",
            )
            for choice in candidates_of(cur):
                include = [pool[j] for j in choice.workers]
                key = (choice.n_workers, choice.mu, tuple(include))
                if key in seen:
                    continue
                seen.add(key)
                try:
                    sub = _remap_subplan(
                        homogeneous_plan(
                            reduced,
                            n_workers=choice.n_workers,
                            mu=choice.mu,
                            enrolled=list(range(choice.n_workers)),
                            total_workers=choice.n_workers,
                        ),
                        include,
                        p,
                        cid_base,
                        col_map=cols,
                    )
                except SchedulingError:
                    continue
                subplans.append(sub)
        if not subplans:
            return None
        placements = self._band_placements(run, bands, healthy) if bands else []

        # -- score all candidates in one incremental shared-prefix batch
        extra = c_message_count(run.c_mode)
        survivors: list[list[Chunk]] = []
        need = []
        for w in range(p):
            history = run.chunk_history(w)
            pending = run.pending_chunks(w)
            keep = len(history) - len(pending)
            msgs = 0
            if run.chunk_started(w):
                if w in victims:
                    pending = pending[1:]
                else:
                    keep += 1
                    msgs += run.in_flight_messages(w)
                    pending = pending[1:]
            keep += keep_extra[w]
            msgs += sum(len(ch.rounds) + extra for ch in pending[: keep_extra[w]])
            survivors.append(history[:keep])
            need.append(msgs)
        prefix_order = run.executed_order()
        if victims:
            # the scoring history drops the victims' posted messages (same
            # FIFO suffix rule kill_in_flight applies to the live history)
            posted = {}
            for w in victims:
                ch = run.pending_chunks(w)[0]
                posted[w] = len(ch.rounds) + extra - run.in_flight_messages(w)
            for idx in range(len(prefix_order) - 1, -1, -1):
                w = prefix_order[idx]
                if posted.get(w, 0) > 0:
                    del prefix_order[idx]
                    posted[w] -= 1
                    if not any(posted.values()):
                        break
        for widx in run.pending_order():
            if need[widx] > 0:
                prefix_order.append(widx)
                need[widx] -= 1
        prefix_steps = len(prefix_order)
        score_platform = Platform(
            [
                Worker(i, run.cur_cs[i], run.cur_ws[i], platform[i].m)
                for i in range(p)
            ],
            name="reselect-score",
        )
        depths = run.depths()
        tails: list[tuple[list[tuple[int, Chunk]], list[int]]] = []
        runs = []
        for sub in subplans:
            n_sub = sum(len(chs) for chs in sub.assignments)
            band_chunks = self._materialize_bands(placements, cid_base + n_sub)
            new_chunks = [
                (rw, ch) for rw, chs in enumerate(sub.assignments) for ch in chs
            ] + [(ch.worker, ch) for ch in band_chunks]
            order_tail = list(sub.policy.order)
            for ch in band_chunks:
                order_tail.extend([ch.worker] * (len(ch.rounds) + extra))
            tails.append((new_chunks, order_tail))
            assignments: list[list[Chunk]] = [list(chs) for chs in survivors]
            for rw, ch in new_chunks:
                assignments[rw].append(ch)
            runs.append(
                (
                    score_platform,
                    Plan(
                        assignments=assignments,
                        policy=StrictOrderPolicy(prefix_order + order_tail),
                        depths=depths,
                        c_mode=run.c_mode,
                    ),
                )
            )
        scores = shared_prefix_makespans(runs, prefix_steps)
        stats = self._reselect_stats
        stats["searches"] += 1
        stats["candidates"] += len(runs)
        stats["prefix_steps"] += prefix_steps
        stats["suffix_steps"] += sum(len(tail) for _chs, tail in tails)
        stats["full_steps"] += len(runs) * prefix_steps + sum(
            len(tail) for _chs, tail in tails
        )
        objective = self.objective
        if objective is None or objective.is_makespan:
            best = min(range(len(runs)), key=lambda i: (scores[i], i))
        else:
            rescored = [
                self._continuation_score(float(scores[i]), runs[i][1].assignments)
                for i in range(len(runs))
            ]
            best = min(range(len(runs)), key=lambda i: (rescored[i], i))
        new_chunks, order_tail = tails[best]

        def apply(target: DynamicRun) -> None:
            for w, keep in donors:
                target.reclaim_unstarted(w, keep_extra=keep)
            for w in victims:
                target.kill_in_flight(w)
            target.rebuild_strict_order(order_tail)
            for w, ch in new_chunks:
                target.append_chunk(w, ch)

        return apply

    @staticmethod
    def _place_bands(
        bands: Sequence[_Band], state: SelectionState, healthy: Sequence[int]
    ) -> Iterator[tuple[int, int, int, int, int]]:
        """Greedy earliest-completion placement of reclaimed bands, largest
        first, speculating each candidate through the selection-time model
        and rolling back (Section 5's delta-update idiom)."""
        for i0, h, j0, width in sorted(bands, key=lambda b: (-(b[1] * b[3]), b[0], b[2])):
            best, best_done = healthy[0], _INF
            for i in healthy:
                token, _, comp_end = state.speculate(i)
                state.rollback(token)
                if comp_end < best_done:
                    best, best_done = i, comp_end
            state.assign(best)
            yield i0, h, j0, width, best
