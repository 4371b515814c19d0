"""Same-time event ordering in :class:`PlatformTimeline` — regression pins.

Events at equal timestamps apply in *insertion order* (builders insert
after existing same-time events; every consumer walks the list front to
back).  These tests pin the edge cases that order decides:

* ``crash(t, i)`` immediately followed by ``join(t, i)`` is an empty
  outage ``[t, t)`` — the worker is up at ``t`` and a dynamic run prices
  exactly like the empty timeline;
* the *reverse* insertion (``join`` before ``crash`` at the same time)
  leaves the worker down, because the crash applies last and only scans
  *later* events for its matching join;
* two same-time parameter events on one worker: the last-inserted wins.
"""

from __future__ import annotations

import pytest

from repro.core.blocks import BlockGrid
from repro.platform.model import Platform, Worker
from repro.schedulers.registry import make_scheduler
from repro.sim.dynamic import (
    DynamicStall,
    PlatformTimeline,
    TimelineEvent,
    simulate_dynamic,
)
from repro.sim.fastpath import fast_simulate
from tests.dynamic_oracle import on_engine


def _platform(p: int = 2) -> Platform:
    return Platform([Worker(i, c=1.0, w=4.0, m=21) for i in range(p)])


GRID = BlockGrid(r=6, t=4, s=12, q=2)


class TestCrashJoinSameTime:
    def test_crash_then_join_is_empty_outage(self):
        tl = PlatformTimeline().crash(10.0, 0).join(10.0, 0)
        assert tl.crashed_at(10.0) == set()
        assert tl.crashed_at(9.999) == set()  # crash not yet due
        assert tl.crashed_at(10.0, final=True) == set()

    def test_crash_then_join_prices_like_empty_timeline(self):
        platform = _platform()
        sched = make_scheduler("ODDOML")
        base = fast_simulate(platform, sched.plan(platform, GRID), GRID)
        tl = PlatformTimeline().crash(base.makespan / 2, 0).join(base.makespan / 2, 0)
        for engine in ("fast", "reference"):
            with on_engine(engine):
                dyn = simulate_dynamic(platform, sched.plan(platform, GRID), tl, GRID)
            assert dyn.makespan == base.makespan

    def test_join_inserted_before_crash_leaves_worker_down(self):
        t = 10.0
        tl = PlatformTimeline(
            [TimelineEvent(t, "join", 0), TimelineEvent(t, "crash", 0)]
        )
        # same-time events keep insertion order; the crash, applied last,
        # finds no later join and wins
        assert tl.events[0].kind == "join" and tl.events[1].kind == "crash"
        assert tl.crashed_at(t) == {0}
        assert tl.crashed_at(t, final=True) == {0}

    def test_join_before_crash_stalls_pending_worker(self):
        platform = _platform()
        sched = make_scheduler("ODDOML")
        tl = PlatformTimeline(
            [TimelineEvent(1.0, "join", 0), TimelineEvent(1.0, "crash", 0)]
        )
        with pytest.raises(DynamicStall):
            simulate_dynamic(platform, sched.plan(platform, GRID), tl, GRID)

    def test_builder_keeps_insertion_order_at_equal_times(self):
        tl = PlatformTimeline().join(5.0, 1).crash(5.0, 1).straggle(5.0, 0, 2.0)
        assert [ev.kind for ev in tl.events] == ["join", "crash", "straggle"]


class TestSameTimeParameterEvents:
    def test_last_inserted_parameter_event_wins(self):
        base = _platform(1)
        tl = PlatformTimeline().straggle(3.0, 0, 8.0).recover(3.0, 0)
        cs, ws = tl.params_at(base, 3.0)
        assert (cs[0], ws[0]) == (base[0].c, base[0].w)

        tl = PlatformTimeline().recover(3.0, 0).straggle(3.0, 0, 8.0)
        cs, ws = tl.params_at(base, 3.0)
        assert ws[0] == base[0].w * 8.0

    def test_params_at_includes_events_at_exact_time(self):
        base = _platform(1)
        tl = PlatformTimeline().set_speed(3.0, 0, 9.0)
        _, ws = tl.params_at(base, 3.0)
        assert ws[0] == 9.0
        _, ws = tl.params_at(base, 2.999)
        assert ws[0] == base[0].w

    def test_same_time_set_events_last_wins(self):
        base = _platform(1)
        tl = PlatformTimeline().set_bandwidth(2.0, 0, 5.0).set_bandwidth(2.0, 0, 7.0)
        cs, _ = tl.params_at(base, 2.0)
        assert cs[0] == 7.0

    def test_driver_applies_same_time_events_in_insertion_order(self):
        """The segmented driver prices the run with the last-inserted
        same-time event in force — straggle-then-recover is a no-op."""
        platform = _platform()
        sched = make_scheduler("ODDOML")
        base = fast_simulate(platform, sched.plan(platform, GRID), GRID)
        at = base.makespan / 3
        noop = PlatformTimeline().straggle(at, 0, 50.0).recover(at, 0)
        dyn = simulate_dynamic(platform, sched.plan(platform, GRID), noop, GRID)
        assert dyn.makespan == base.makespan

        slowed = PlatformTimeline().recover(at, 0).straggle(at, 0, 50.0)
        dyn = simulate_dynamic(platform, sched.plan(platform, GRID), slowed, GRID)
        assert dyn.makespan > base.makespan
