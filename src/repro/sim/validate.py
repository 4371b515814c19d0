"""Trace invariant validation.

Every simulation with event collection enabled can be audited against the
model's ground rules.  The validator recomputes, from the raw event trace:

1. **one-port**: master port events never overlap;
2. **message timing**: each message's duration is ``nblocks * c_i``;
3. **worker sequentiality**: per-worker compute events never overlap and
   each lasts ``updates * w_i``;
4. **dependencies**: a round's compute starts at/after its message ended;
   a chunk's ``C_RETURN`` starts at/after its last compute ended; a chunk's
   ``C_SEND`` starts at/after the previous chunk's ``C_RETURN`` ended (on
   the same worker); a chunk's first compute starts after its ``C_SEND``;
5. **memory**: the sweep-line block occupancy of every worker never exceeds
   its memory capacity ``m_i`` (C chunks resident from ``C_SEND`` start to
   ``C_RETURN`` end; round data resident from message start to compute end);
6. **prefetch depth**: at most ``depth`` rounds of data resident at once.

These checks back both the unit tests and the hypothesis property tests.

:func:`validate_dynamic` extends the same audit to *dynamic* runs (traces
recorded by :func:`repro.sim.dynamic.simulate_dynamic` with
``record_events=True``): message and compute durations are priced against
the **time-varying** worker parameters a :class:`~repro.sim.dynamic
.PlatformTimeline` puts in force at each message's start (the driver's
documented message-granularity semantics), no message may start inside a
worker's crash window, killed (abandoned) chunks may be partial but must
never return C blocks, every surviving chunk must complete exactly once,
and — the coordinate-faithfulness guarantee — the surviving chunks must
tile the block grid exactly, so reclaimed work is re-sent exactly once.
Coded-redundancy runs (``meta["coded"]`` annex) swap the tiling check for
a *decode audit*: the declared stripes tile the grid, every surviving
share sits on a stripe, and each stripe returned at least ``k`` distinct
shares — abandoned coded shares need not be re-executed anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from ..core.ops import MsgKind, PortEvent
from .engine import SimResult

__all__ = [
    "InvariantViolation",
    "ValidationReport",
    "validate_result",
    "validate_dynamic",
]

_EPS = 1e-9


class InvariantViolation(AssertionError):
    """A simulation trace broke one of the model's ground rules."""


@dataclass(frozen=True)
class ValidationReport:
    """Summary of a successful validation."""

    n_port_events: int
    n_compute_events: int
    max_occupancy: dict[int, int]
    peak_resident_rounds: dict[int, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        occ = ", ".join(f"P{w + 1}:{v}" for w, v in sorted(self.max_occupancy.items()))
        return (
            f"validated {self.n_port_events} port events / "
            f"{self.n_compute_events} compute events; peak occupancy {occ}"
        )


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantViolation(msg)


def validate_result(result: SimResult, *, check_memory: bool = True) -> ValidationReport:
    """Audit a :class:`SimResult`; raises :class:`InvariantViolation` on any
    breach, otherwise returns a :class:`ValidationReport`."""
    port = sorted(result.port_events, key=lambda e: (e.start, e.end))
    comps = sorted(result.compute_events, key=lambda e: (e.worker, e.start))
    _check(
        bool(port),
        "no port events collected: validate a Scheduler.run(collect_events=True) result",
    )

    # 1-2: one-port and message durations ------------------------------
    prev_end = 0.0
    for evt in port:
        _check(evt.start >= prev_end - _EPS, f"port events overlap at t={evt.start}")
        prev_end = evt.end
        c = result.platform[evt.worker].c
        _check(
            abs(evt.duration - evt.nblocks * c) <= _EPS * max(1.0, evt.end),
            f"message duration {evt.duration} != {evt.nblocks} * c_{evt.worker}",
        )

    # index events for dependency checks -------------------------------
    chunk_by_id = {ch.cid: ch for ch in result.chunks}
    round_msg_end: dict[tuple[int, int], float] = {}
    c_send: dict[int, PortEvent] = {}
    c_return: dict[int, PortEvent] = {}
    per_worker_c_events: dict[int, list[PortEvent]] = {}
    for evt in port:
        if evt.kind is MsgKind.ROUND:
            _check(
                (evt.cid, evt.round_idx) not in round_msg_end,
                f"round ({evt.cid},{evt.round_idx}) sent twice",
            )
            round_msg_end[(evt.cid, evt.round_idx)] = evt.end
        elif evt.kind is MsgKind.C_SEND:
            _check(evt.cid not in c_send, f"chunk {evt.cid} C sent twice")
            c_send[evt.cid] = evt
            per_worker_c_events.setdefault(evt.worker, []).append(evt)
        else:
            _check(evt.cid not in c_return, f"chunk {evt.cid} C returned twice")
            c_return[evt.cid] = evt
            per_worker_c_events.setdefault(evt.worker, []).append(evt)

    # 3: worker compute sequentiality and durations ---------------------
    last_comp_end_by_worker: dict[int, float] = {}
    last_comp_end_by_chunk: dict[int, float] = {}
    first_comp_start_by_chunk: dict[int, float] = {}
    for evt in comps:
        w = result.platform[evt.worker].w
        _check(
            abs(evt.duration - evt.updates * w) <= _EPS * max(1.0, evt.end),
            f"compute duration {evt.duration} != {evt.updates} * w_{evt.worker}",
        )
        prev = last_comp_end_by_worker.get(evt.worker, 0.0)
        _check(
            evt.start >= prev - _EPS,
            f"worker {evt.worker} computes overlap at t={evt.start}",
        )
        last_comp_end_by_worker[evt.worker] = evt.end
        # 4a: round data arrived before compute
        end = round_msg_end.get((evt.cid, evt.round_idx))
        _check(end is not None, f"compute of unsent round ({evt.cid},{evt.round_idx})")
        _check(
            evt.start >= end - _EPS,
            f"round ({evt.cid},{evt.round_idx}) computed before its data arrived",
        )
        last_comp_end_by_chunk[evt.cid] = max(last_comp_end_by_chunk.get(evt.cid, 0.0), evt.end)
        first_comp_start_by_chunk.setdefault(evt.cid, evt.start)

    # 4b: C dependencies -------------------------------------------------
    for cid, ret in c_return.items():
        _check(cid in c_send, f"chunk {cid} returned but never sent")
        _check(
            ret.start >= last_comp_end_by_chunk.get(cid, float("inf")) - _EPS,
            f"chunk {cid} returned before its last compute finished",
        )
    for cid, first in first_comp_start_by_chunk.items():
        if cid in c_send:
            _check(
                first >= c_send[cid].end - _EPS,
                f"chunk {cid} computed before its C blocks arrived",
            )
    for widx, evts in per_worker_c_events.items():
        evts.sort(key=lambda e: e.start)
        open_cid: int | None = None
        for evt in evts:
            if evt.kind is MsgKind.C_SEND:
                _check(
                    open_cid is None,
                    f"worker {widx}: C chunk {evt.cid} sent while chunk {open_cid} still resident",
                )
                open_cid = evt.cid
            else:
                _check(open_cid == evt.cid, f"worker {widx}: C return order broken at {evt.cid}")
                open_cid = None

    # 5-6: memory occupancy sweep ---------------------------------------
    max_occ: dict[int, int] = {}
    peak_rounds: dict[int, int] = {}
    if check_memory:
        deltas: dict[int, list[tuple[float, int, int]]] = {}

        def add(widx: int, time: float, blocks: int, rounds: int) -> None:
            deltas.setdefault(widx, []).append((time, blocks, rounds))

        comp_end_by_round = {(e.cid, e.round_idx): e.end for e in comps}
        for evt in port:
            ch = chunk_by_id.get(evt.cid)
            _check(ch is not None, f"event references unknown chunk {evt.cid}")
            if evt.kind is MsgKind.C_SEND:
                add(evt.worker, evt.start, ch.c_blocks, 0)
            elif evt.kind is MsgKind.C_RETURN:
                add(evt.worker, evt.end, -ch.c_blocks, 0)
            else:
                free_at = comp_end_by_round.get((evt.cid, evt.round_idx))
                _check(
                    free_at is not None,
                    f"round ({evt.cid},{evt.round_idx}) sent but never computed",
                )
                add(evt.worker, evt.start, evt.nblocks, +1)
                add(evt.worker, free_at, -evt.nblocks, -1)
        for widx, events in deltas.items():
            events.sort(key=lambda x: (x[0], x[1]))  # frees (negative) before grabs at ties
            occ = rounds = 0
            m_i = result.platform[widx].m
            depth = None
            for time, dblocks, drounds in events:
                occ += dblocks
                rounds += drounds
                max_occ[widx] = max(max_occ.get(widx, 0), occ)
                peak_rounds[widx] = max(peak_rounds.get(widx, 0), rounds)
                _check(
                    occ <= m_i,
                    f"worker {widx} holds {occ} blocks at t={time} but m={m_i}",
                )
            _check(occ == 0, f"worker {widx} ends with {occ} resident blocks")

    return ValidationReport(
        n_port_events=len(port),
        n_compute_events=len(comps),
        max_occupancy=max_occ,
        peak_resident_rounds=peak_rounds,
    )


# ----------------------------------------------------------------------
# dynamic-run validation
# ----------------------------------------------------------------------
def _param_segments(timeline, base) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """Piecewise-constant per-worker ``(cs, ws)`` segments of the timeline,
    one per value-event boundary, each materialized through
    :meth:`PlatformTimeline.params_at` — the single source of truth for the
    event-to-price arithmetic, so the validator can never diverge from the
    driver's pricing.  Lookups take the *last* segment at or before a time,
    which is exactly ``params_at`` of that time."""
    times = [0.0]
    cs_seg = [list(base.cs)]
    ws_seg = [list(base.ws)]
    for ev in timeline.events:
        if ev.kind in ("crash", "join"):
            continue  # availability, not prices
        cs, ws = timeline.params_at(base, ev.time)
        times.append(ev.time)
        cs_seg.append(cs)
        ws_seg.append(ws)
    return times, cs_seg, ws_seg


def _crash_windows(timeline) -> dict[int, list[tuple[float, float]]]:
    """Per-worker half-open ``[crash, join)`` unreachability windows (the
    last one unbounded when no join ever comes)."""
    open_at: dict[int, float] = {}
    out: dict[int, list[tuple[float, float]]] = {}
    for ev in timeline.events:
        if ev.kind == "crash" and ev.worker not in open_at:
            open_at[ev.worker] = ev.time
        elif ev.kind == "join" and ev.worker in open_at:
            out.setdefault(ev.worker, []).append((open_at.pop(ev.worker), ev.time))
    for widx, t0 in open_at.items():
        out.setdefault(widx, []).append((t0, math.inf))
    return out


def _audit_decode(coded_meta, chunk_by_id, c_return, grid) -> None:
    """Decode audit of a coded-redundancy run (see
    :mod:`repro.schedulers.coded`): the declared stripes tile the grid
    exactly, every surviving share sits exactly on one stripe's rectangle,
    and every stripe collected at least ``k`` distinct returned shares.
    Exactly-once decoding follows from the trace checks above: each share
    returns at most once and maps to exactly one stripe."""
    k = int(coded_meta["k"])
    stripes = [tuple(rect) for rect in coded_meta["stripes"]]
    rect_sid: dict[tuple, int] = {}
    for sid, rect in enumerate(stripes):
        _check(rect not in rect_sid, f"duplicate stripe rectangle {rect}")
        rect_sid[rect] = sid
    if grid is not None:
        seen = [[False] * grid.s for _ in range(grid.r)]
        for i0, h, j0, w in stripes:
            _check(
                h >= 1 and w >= 1 and 0 <= i0 and i0 + h <= grid.r and 0 <= j0 and j0 + w <= grid.s,
                f"stripe {(i0, h, j0, w)} out of grid bounds",
            )
            for i in range(i0, i0 + h):
                row = seen[i]
                for j in range(j0, j0 + w):
                    _check(not row[j], f"stripes overlap at C[{i},{j}]")
                    row[j] = True
        _check(
            all(all(row) for row in seen),
            "stripes leave C cells uncovered",
        )
    returned = [0] * len(stripes)
    for cid, ch in chunk_by_id.items():
        sid = rect_sid.get((ch.i0, ch.h, ch.j0, ch.w))
        _check(
            sid is not None,
            f"surviving chunk {cid} rectangle {(ch.i0, ch.h, ch.j0, ch.w)} "
            "is not a stripe",
        )
        if cid in c_return:
            returned[sid] += 1
    for sid, n in enumerate(returned):
        _check(
            n >= k,
            f"stripe {sid} decoded only {n} of the required {k} shares",
        )


def validate_dynamic(
    result: SimResult,
    timeline,
    *,
    grid=None,
    base_platform=None,
    check_memory: bool = True,
) -> ValidationReport:
    """Audit a recorded dynamic run against the model's ground rules under
    time-varying worker parameters.

    ``result`` must carry traces — run :func:`~repro.sim.dynamic
    .simulate_dynamic` (or :meth:`AdaptiveScheduler.run_dynamic`) with
    ``record_events=True``.  ``timeline`` is the
    :class:`~repro.sim.dynamic.PlatformTimeline` the run executed under;
    ``base_platform`` defaults to ``result.platform`` (the *base* platform
    — events are re-derived from the timeline, never trusted from the
    trace).  Checks, on top of everything :func:`validate_result` checks:

    * message durations equal ``nblocks * c_i`` **at the message's start
      time** and compute durations ``updates * w_i`` at the round's message
      start — the driver's event-boundary cost-rescaling semantics;
    * no message starts inside a worker's ``[crash, join)`` window;
    * killed chunks (``meta["dynamic"]["killed_cids"]``) may be partial but
      never return C blocks and never appear in the surviving chunk set;
      their resident blocks are freed at the recorded kill time
      (``meta["dynamic"]["kills"]``; the worker discards the abandoned
      data — only the sunk communication and compute *time* stay on the
      books), falling back to their last trace event when no kill time was
      recorded;
    * every surviving chunk completes exactly once (C in, every round, C
      out per the recorded ``c_mode``), and the surviving chunks **tile the
      block grid exactly** (``grid`` defaults to ``result.grid``; pass or
      record one to get the coverage check) — reclaimed blocks are re-sent
      exactly once, killed work is re-executed elsewhere exactly once.

    Raises :class:`InvariantViolation` on any breach; returns a
    :class:`ValidationReport`.
    """
    platform = base_platform if base_platform is not None else result.platform
    dyn_meta = result.meta.get("dynamic") or {}
    killed = set(dyn_meta.get("killed_cids", ()))
    port = sorted(result.port_events, key=lambda e: (e.start, e.end))
    comps = sorted(result.compute_events, key=lambda e: (e.worker, e.start))
    _check(
        bool(port),
        "no port events collected: validate a dynamic run made with record_events=True",
    )
    c_mode = dyn_meta.get("c_mode")
    if c_mode is not None:
        expect_c_send = c_mode != "NONE"
        expect_c_return = c_mode == "BOTH"
    else:  # traced run without the audit annex
        expect_c_send = any(e.kind is MsgKind.C_SEND for e in port)
        expect_c_return = any(e.kind is MsgKind.C_RETURN for e in port)

    times, cs_seg, ws_seg = _param_segments(timeline, platform)
    windows = _crash_windows(timeline)

    def params_at(t: float) -> tuple[list[float], list[float]]:
        idx = bisect_right(times, t) - 1
        return cs_seg[idx], ws_seg[idx]

    # one-port, crash windows, time-varying message pricing ---------------
    prev_end = 0.0
    for evt in port:
        _check(evt.start >= prev_end - _EPS, f"port events overlap at t={evt.start}")
        prev_end = evt.end
        for t0, t1 in windows.get(evt.worker, ()):
            _check(
                not (t0 <= evt.start < t1),
                f"message to worker {evt.worker} starts at t={evt.start} "
                f"inside its crash window [{t0}, {t1})",
            )
        cs, _ws = params_at(evt.start)
        _check(
            abs(evt.duration - evt.nblocks * cs[evt.worker]) <= _EPS * max(1.0, evt.end),
            f"message duration {evt.duration} != {evt.nblocks} * "
            f"c_{evt.worker}(t={evt.start})",
        )

    # index events, payload consistency -----------------------------------
    chunk_by_id = {ch.cid: ch for ch in result.chunks}
    _check(
        len(chunk_by_id) == len(result.chunks),
        "duplicate chunk ids in the surviving chunk set",
    )
    round_msg: dict[tuple[int, int], PortEvent] = {}
    c_send: dict[int, PortEvent] = {}
    c_return: dict[int, PortEvent] = {}
    per_worker_c_events: dict[int, list[PortEvent]] = {}
    for evt in port:
        ch = chunk_by_id.get(evt.cid)
        _check(
            ch is not None or evt.cid in killed,
            f"event references unknown chunk {evt.cid} (neither surviving nor killed)",
        )
        if evt.kind is MsgKind.ROUND:
            _check(
                (evt.cid, evt.round_idx) not in round_msg,
                f"round ({evt.cid},{evt.round_idx}) sent twice",
            )
            round_msg[(evt.cid, evt.round_idx)] = evt
            if ch is not None:
                _check(
                    0 <= evt.round_idx < len(ch.rounds),
                    f"chunk {evt.cid} has no round {evt.round_idx}",
                )
                _check(
                    evt.nblocks == ch.rounds[evt.round_idx].in_blocks,
                    f"round ({evt.cid},{evt.round_idx}) carried {evt.nblocks} "
                    f"blocks, chunk geometry says {ch.rounds[evt.round_idx].in_blocks}",
                )
        elif evt.kind is MsgKind.C_SEND:
            _check(evt.cid not in c_send, f"chunk {evt.cid} C sent twice")
            c_send[evt.cid] = evt
            per_worker_c_events.setdefault(evt.worker, []).append(evt)
        else:
            _check(evt.cid not in c_return, f"chunk {evt.cid} C returned twice")
            c_return[evt.cid] = evt
            per_worker_c_events.setdefault(evt.worker, []).append(evt)
        if ch is not None and evt.kind is not MsgKind.ROUND:
            _check(
                evt.nblocks == ch.c_blocks,
                f"C message of chunk {evt.cid} carried {evt.nblocks} blocks, "
                f"geometry says {ch.c_blocks}",
            )

    for cid in killed:
        _check(cid not in chunk_by_id, f"killed chunk {cid} still in the surviving set")
        _check(cid not in c_return, f"killed chunk {cid} returned C blocks")

    # compute sequentiality, time-varying compute pricing, dependencies ----
    last_comp_end_by_worker: dict[int, float] = {}
    last_comp_end_by_chunk: dict[int, float] = {}
    first_comp_start_by_chunk: dict[int, float] = {}
    for evt in comps:
        msg = round_msg.get((evt.cid, evt.round_idx))
        _check(msg is not None, f"compute of unsent round ({evt.cid},{evt.round_idx})")
        _ws_now = params_at(msg.start)[1]
        _check(
            abs(evt.duration - evt.updates * _ws_now[evt.worker])
            <= _EPS * max(1.0, evt.end),
            f"compute duration {evt.duration} != {evt.updates} * "
            f"w_{evt.worker}(t={msg.start})",
        )
        ch = chunk_by_id.get(evt.cid)
        if ch is not None:
            _check(
                evt.updates == ch.rounds[evt.round_idx].updates,
                f"round ({evt.cid},{evt.round_idx}) computed {evt.updates} "
                f"updates, geometry says {ch.rounds[evt.round_idx].updates}",
            )
        prev = last_comp_end_by_worker.get(evt.worker, 0.0)
        _check(
            evt.start >= prev - _EPS,
            f"worker {evt.worker} computes overlap at t={evt.start}",
        )
        last_comp_end_by_worker[evt.worker] = evt.end
        _check(
            evt.start >= msg.end - _EPS,
            f"round ({evt.cid},{evt.round_idx}) computed before its data arrived",
        )
        last_comp_end_by_chunk[evt.cid] = max(
            last_comp_end_by_chunk.get(evt.cid, 0.0), evt.end
        )
        first_comp_start_by_chunk.setdefault(evt.cid, evt.start)

    for cid, ret in c_return.items():
        _check(cid in c_send, f"chunk {cid} returned but never sent")
        _check(
            ret.start >= last_comp_end_by_chunk.get(cid, float("inf")) - _EPS,
            f"chunk {cid} returned before its last compute finished",
        )
    for cid, first in first_comp_start_by_chunk.items():
        if cid in c_send:
            _check(
                first >= c_send[cid].end - _EPS,
                f"chunk {cid} computed before its C blocks arrived",
            )
    for widx, evts in per_worker_c_events.items():
        evts.sort(key=lambda e: e.start)
        open_cid: int | None = None
        for evt in evts:
            if evt.kind is MsgKind.C_SEND:
                _check(
                    open_cid is None or open_cid in killed,
                    f"worker {widx}: C chunk {evt.cid} sent while chunk "
                    f"{open_cid} still resident",
                )
                open_cid = evt.cid
            else:
                _check(
                    open_cid == evt.cid,
                    f"worker {widx}: C return order broken at {evt.cid}",
                )
                open_cid = None
        _check(
            open_cid is None or open_cid in killed,
            f"worker {widx} ends with chunk {open_cid} resident",
        )

    # completeness: every surviving chunk executed exactly once ------------
    rounds_seen: dict[int, set[int]] = {}
    for cid, ridx in round_msg:
        rounds_seen.setdefault(cid, set()).add(ridx)
    comp_end_by_round = {(e.cid, e.round_idx): e.end for e in comps}
    for key in round_msg:
        _check(
            key in comp_end_by_round,
            f"round ({key[0]},{key[1]}) sent but never computed",
        )
    for cid, ch in chunk_by_id.items():
        if expect_c_send:
            _check(cid in c_send, f"chunk {cid} never received its C blocks")
        got = rounds_seen.get(cid, set())
        _check(
            got == set(range(len(ch.rounds))),
            f"chunk {cid} ran rounds {sorted(got)} of {len(ch.rounds)}",
        )
        if expect_c_return:
            _check(cid in c_return, f"chunk {cid} never returned its C blocks")

    # coverage ------------------------------------------------------------
    # Replanned runs must tile the grid exactly with their surviving
    # chunks; coded runs (meta["coded"] annex present) are audited by the
    # decode criterion instead — abandoned coded shares leave no hole, any
    # k distinct returns per stripe reconstruct it.
    if grid is None:
        grid = result.grid
    coded_meta = result.meta.get("coded")
    if coded_meta is not None:
        _audit_decode(coded_meta, chunk_by_id, c_return, grid)
    elif grid is not None:
        # Dispatch the tiling audit on the recorded partition geometry
        # (meta["geometry"], stamped by repro.schedulers.geometry; absent
        # means the default square-chunk grid).  Unknown names raise
        # rather than silently skipping the audit.
        from ..schedulers.geometry import audit_tiling

        try:
            audit_tiling(result.chunks, grid, result.meta.get("geometry"))
        except AssertionError as exc:
            raise InvariantViolation(
                f"surviving chunks do not tile the grid: {exc}"
            ) from None

    # makespan is the last trace event ------------------------------------
    # For coded runs the makespan is the decisive C return — the last
    # *port* event; sunk computes of shares abandoned at the decode
    # threshold may legitimately end later.
    last = max(e.end for e in port)
    if comps and coded_meta is None:
        last = max(last, max(e.end for e in comps))
    _check(
        abs(last - result.makespan) <= _EPS * max(1.0, last),
        f"makespan {result.makespan} != last trace event end {last}",
    )

    # memory occupancy sweep (killed chunks freed at their last event) -----
    max_occ: dict[int, int] = {}
    peak_rounds: dict[int, int] = {}
    if check_memory:
        kill_time = dict(
            (int(cid), t) for cid, t in dyn_meta.get("kills", ())
        )
        discard_at: dict[int, float] = {}
        for evt in port:
            if evt.cid in killed:
                discard_at[evt.cid] = max(discard_at.get(evt.cid, 0.0), evt.end)
        for evt in comps:
            if evt.cid in killed:
                discard_at[evt.cid] = max(discard_at.get(evt.cid, 0.0), evt.end)
        discard_at.update(kill_time)  # recorded kill times are authoritative
        deltas: dict[int, list[tuple[float, int, int]]] = {}

        def add(widx: int, time: float, blocks: int, rounds: int) -> None:
            deltas.setdefault(widx, []).append((time, blocks, rounds))

        for evt in port:
            if evt.kind is MsgKind.C_SEND:
                add(evt.worker, evt.start, evt.nblocks, 0)
                if evt.cid in killed:
                    add(evt.worker, discard_at[evt.cid], -evt.nblocks, 0)
            elif evt.kind is MsgKind.C_RETURN:
                add(evt.worker, evt.end, -evt.nblocks, 0)
            else:
                free_at = comp_end_by_round[(evt.cid, evt.round_idx)]
                if evt.cid in killed and discard_at[evt.cid] < free_at:
                    free_at = discard_at[evt.cid]
                add(evt.worker, evt.start, evt.nblocks, +1)
                add(evt.worker, free_at, -evt.nblocks, -1)
        for widx, events in deltas.items():
            events.sort(key=lambda x: (x[0], x[1]))  # frees before grabs at ties
            occ = rounds = 0
            m_i = platform[widx].m
            for time, dblocks, drounds in events:
                occ += dblocks
                rounds += drounds
                max_occ[widx] = max(max_occ.get(widx, 0), occ)
                peak_rounds[widx] = max(peak_rounds.get(widx, 0), rounds)
                _check(
                    occ <= m_i,
                    f"worker {widx} holds {occ} blocks at t={time} but m={m_i}",
                )
            _check(occ == 0, f"worker {widx} ends with {occ} resident blocks")

    return ValidationReport(
        n_port_events=len(port),
        n_compute_events=len(comps),
        max_occupancy=max_occ,
        peak_resident_rounds=peak_rounds,
    )
