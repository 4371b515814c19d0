"""Dynamics subsystem: timelines, segmented simulation, adaptive modes.

The contract wall of :mod:`repro.sim.dynamic` and
:mod:`repro.schedulers.adaptive`:

* an empty :class:`PlatformTimeline` is **bit-identical** to
  ``fast_simulate`` — property-tested across every registry scheduler and
  across the hand-built CMode × depth × policy matrix;
* the fast and reference interpretations of a non-trivial timeline agree
  exactly;
* ``adaptive`` equals ``oblivious`` when no events fire;
* crash windows block service (and raise :class:`DynamicStall` when no
  join ever comes);
* online rescheduling actually rescues Het and the demand-driven heuristic
  from a mid-run straggler.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.dynamic as dynamic
from repro.core.blocks import BlockGrid
from repro.core.chunks import PanelAllocator, PanelCursor
from repro.experiments.harness import DynamicInstance, run_dynamic_experiment
from repro.experiments.sweeps import (
    DYNAMIC_SCENARIOS,
    dynamic_scenario,
    dynamic_sweep,
    straggler_scenario,
    straggler_sweep,
)
from repro.platform.model import Platform, Worker
from repro.schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.dynamic import (
    DynamicRun,
    DynamicStall,
    PlatformTimeline,
    TimelineEvent,
    simulate_dynamic,
)
from repro.sim.fastpath import FastEngine, fast_simulate
from repro.sim.plan import Plan
from repro.sim.policies import (
    ReadyPolicy,
    StrictOrderPolicy,
    demand_priority,
    selection_order_priority,
)
from repro.sim.validate import validate_dynamic
from repro.sim.worker_state import CMode
from tests.dynamic_oracle import PerMessageRun, reference_engine, simulate_dynamic_reference
from tests.reference_engine import Engine


def assert_equivalent(ref, dyn):
    """Exact equality of everything but traces."""
    assert dyn.makespan == ref.makespan
    assert dyn.port_busy == ref.port_busy
    assert dyn.total_updates == ref.total_updates
    assert dyn.blocks_through_port == ref.blocks_through_port
    assert dyn.worker_stats == ref.worker_stats


# ----------------------------------------------------------------------
# timeline semantics
# ----------------------------------------------------------------------
class TestTimeline:
    def test_builders_sort_and_chain(self):
        tl = (
            PlatformTimeline()
            .recover(30.0, 0)
            .straggle(5.0, 0, 4.0)
            .set_bandwidth(5.0, 1, 2.5)
        )
        assert [ev.time for ev in tl.events] == [5.0, 5.0, 30.0]
        assert len(tl) == 3 and not tl.empty

    def test_equal_times_keep_insertion_order(self):
        tl = PlatformTimeline().straggle(5.0, 0, 2.0).set_speed(5.0, 0, 9.0)
        assert [ev.kind for ev in tl.events] == ["straggle", "set_speed"]

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TimelineEvent(1.0, "explode", 0)
        with pytest.raises(ValueError, match="finite"):
            TimelineEvent(float("inf"), "crash", 0)
        with pytest.raises(ValueError, match="positive"):
            TimelineEvent(1.0, "straggle", 0, -2.0)
        with pytest.raises(ValueError, match="no value"):
            TimelineEvent(1.0, "crash", 0, 1.0)
        with pytest.raises(ValueError, match="needs a positive"):
            TimelineEvent(1.0, "set_speed", 0)

    def test_validate_for_platform(self, het_platform):
        tl = PlatformTimeline().crash(1.0, 9)
        with pytest.raises(ValueError, match="worker 9"):
            tl.validate_for(het_platform)

    def test_params_at_piecewise(self, het_platform):
        base_w0 = het_platform[0].w
        tl = (
            PlatformTimeline()
            .straggle(10.0, 0, 4.0)
            .set_bandwidth(20.0, 1, 7.0)
            .recover(30.0, 0)
        )
        cs, ws = tl.params_at(het_platform, 0.0)
        assert ws[0] == base_w0 and cs[1] == het_platform[1].c
        cs, ws = tl.params_at(het_platform, 10.0)  # inclusive
        assert ws[0] == base_w0 * 4.0
        cs, ws = tl.params_at(het_platform, 25.0)
        assert ws[0] == base_w0 * 4.0 and cs[1] == 7.0
        cs, ws = tl.params_at(het_platform, 35.0)
        assert ws[0] == base_w0 and cs[1] == 7.0

    def test_straggle_composes_against_base(self, het_platform):
        tl = PlatformTimeline().straggle(1.0, 0, 4.0).straggle(2.0, 0, 2.0)
        _cs, ws = tl.params_at(het_platform, 3.0)
        assert ws[0] == het_platform[0].w * 2.0  # replaces, not stacks

    def test_platform_views(self, het_platform):
        tl = PlatformTimeline().set_speed(10.0, 2, 9.0)
        final = tl.final_platform(het_platform)
        assert final[2].w == 9.0 and final[2].m == het_platform[2].m
        assert tl.affected_workers(het_platform, 5.0) == []
        assert tl.affected_workers(het_platform, 10.0) == [2]

    def test_crashed_at(self):
        tl = PlatformTimeline().crash(5.0, 1).join(9.0, 1).crash(12.0, 2)
        assert tl.crashed_at(6.0) == {1}
        assert tl.crashed_at(10.0) == set()
        assert tl.crashed_at(20.0) == {2}
        assert tl.crashed_at(0.0, final=True) == {2}


# ----------------------------------------------------------------------
# empty timeline == fast path, bit-identical (scheduler matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_registry_empty_timeline_identical(name, het_platform, ragged_grid):
    sched = make_scheduler(name)
    ref = fast_simulate(het_platform, sched.plan(het_platform, ragged_grid), ragged_grid)
    dyn = simulate_dynamic(
        het_platform, sched.plan(het_platform, ragged_grid), PlatformTimeline(), ragged_grid
    )
    assert_equivalent(ref, dyn)
    assert dyn.meta["dynamic"] == {"events": 0, "events_applied": 0}


workers_st = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=5, max_value=60),
    ),
    min_size=1,
    max_size=5,
)
grids_st = st.builds(
    BlockGrid,
    r=st.integers(min_value=1, max_value=9),
    t=st.integers(min_value=1, max_value=7),
    s=st.integers(min_value=1, max_value=11),
)


@settings(max_examples=25, deadline=None)
@given(params=workers_st, grid=grids_st)
def test_property_empty_timeline_all_schedulers(params, grid):
    platform = Platform([Worker(i, c, w, m) for i, (c, w, m) in enumerate(params)])
    for name in sorted(SCHEDULERS):
        sched = make_scheduler(name)
        try:
            ref_plan = sched.plan(platform, grid)
        except SchedulingError:
            continue
        ref = fast_simulate(platform, ref_plan, grid)
        dyn = simulate_dynamic(platform, sched.plan(platform, grid), None, grid)
        assert_equivalent(ref, dyn)


# hand-built plans: CMode × depth × policy coverage (mirrors the fast-path
# equivalence wall)
def _chunk_assignments(platform, grid, sides, rng):
    panels = PanelAllocator(grid.s)
    cursors = [PanelCursor(i, side, grid) for i, side in enumerate(sides)]
    cid = 0
    assignments = [[] for _ in range(platform.p)]
    while not panels.exhausted:
        widx = rng.randrange(platform.p)
        panel = panels.grant(sides[widx])
        cursors[widx].add_panel(panel)
        while cursors[widx].has_next:
            ch = cursors[widx].next_chunk(cid)
            assignments[widx].append(ch)
            cid += 1
    return assignments


def _message_counts(assignments, c_mode):
    extra = (1 if c_mode is not CMode.NONE else 0) + (1 if c_mode is CMode.BOTH else 0)
    return [sum(len(ch.rounds) + extra for ch in chunks) for chunks in assignments]


@pytest.mark.parametrize("c_mode", list(CMode))
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "policy_factory",
    [
        lambda order: StrictOrderPolicy(order),
        lambda order: ReadyPolicy(selection_order_priority),
        lambda order: ReadyPolicy(demand_priority),
    ],
    ids=["strict", "ready-cid", "ready-demand"],
)
def test_empty_timeline_mode_matrix(c_mode, depth, policy_factory, het_platform, small_grid):
    rng = random.Random(13)
    assignments = _chunk_assignments(het_platform, small_grid, [2, 3, 1, 2], rng)
    counts = _message_counts(assignments, c_mode)
    order = [w for w, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(order)

    def build():
        return Plan(
            assignments=[list(chs) for chs in assignments],
            policy=policy_factory(order),
            depths=[depth] * het_platform.p,
            c_mode=c_mode,
        )

    ref = fast_simulate(het_platform, build(), small_grid)
    dyn = simulate_dynamic(het_platform, build(), PlatformTimeline(), small_grid)
    assert_equivalent(ref, dyn)


# ----------------------------------------------------------------------
# events: fast == reference interpretation
# ----------------------------------------------------------------------
def test_reference_oracle_replaces_the_driver_engine(het_platform, small_grid):
    """The test-side oracle really swaps what the driver builds: inside the
    block a run is the per-message loop on the reference event engine,
    whose runs keep its own trace without ``record_events`` and refuse
    online control; outside it the driver is native on ``FastEngine``."""
    sched = make_scheduler("Het")
    tl = PlatformTimeline().straggle(5.0, 0, 4.0)
    fast = simulate_dynamic(het_platform, sched.plan(het_platform, small_grid), tl, small_grid)
    with reference_engine():
        run = dynamic.DynamicRun(het_platform, sched.plan(het_platform, small_grid), tl.events)
        assert type(run) is PerMessageRun and type(run.engine) is Engine
        ref = simulate_dynamic(het_platform, sched.plan(het_platform, small_grid), tl, small_grid)
        with pytest.raises(TypeError, match="fast engine"):
            simulate_dynamic(
                het_platform,
                sched.plan(het_platform, small_grid),
                tl,
                small_grid,
                controller=lambda run, applied: None,
            )
    assert dynamic.DynamicRun is DynamicRun and dynamic.FastEngine is FastEngine
    assert fast.port_events == () and ref.port_events
    assert ref.makespan == fast.makespan
    assert simulate_dynamic_reference(
        het_platform, sched.plan(het_platform, small_grid), tl, small_grid
    ).port_events == ref.port_events


@pytest.mark.parametrize("name", ["Het", "ODDOML", "Hom", "BMM", "OMMOML"])
def test_event_interpretations_agree(name, het_platform, ragged_grid):
    sched = make_scheduler(name)
    nominal = fast_simulate(
        het_platform, sched.plan(het_platform, ragged_grid), ragged_grid
    ).makespan
    tl = (
        PlatformTimeline()
        .straggle(0.1 * nominal, 0, 8.0)
        .set_bandwidth(0.2 * nominal, 1, het_platform[1].c * 4.0)
        .crash(0.3 * nominal, 2)
        .join(0.6 * nominal, 2)
        .recover(0.7 * nominal, 0)
    )
    fast = simulate_dynamic(het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid)
    ref = simulate_dynamic_reference(
        het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid
    )
    assert_equivalent(ref, fast)
    assert fast.meta["dynamic"]["events_applied"] > 0


def test_events_change_outcomes(het_platform, ragged_grid):
    sched = make_scheduler("ODDOML")
    nominal = fast_simulate(
        het_platform, sched.plan(het_platform, ragged_grid), ragged_grid
    ).makespan
    tl = PlatformTimeline().straggle(0.2 * nominal, 0, 16.0)
    slowed = simulate_dynamic(het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid)
    assert slowed.makespan > nominal


def test_crash_without_join_stalls(het_platform, ragged_grid):
    sched = make_scheduler("Het")
    tl = PlatformTimeline().crash(1.0, 0)
    with pytest.raises(DynamicStall):
        simulate_dynamic(het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid)


def test_crash_window_delays_service(het_platform, ragged_grid):
    sched = make_scheduler("ODDOML")
    nominal = fast_simulate(
        het_platform, sched.plan(het_platform, ragged_grid), ragged_grid
    ).makespan
    tl = PlatformTimeline().crash(0.1 * nominal, 0).join(2.0 * nominal, 0)
    out = simulate_dynamic(het_platform, sched.plan(het_platform, ragged_grid), tl, ragged_grid)
    assert out.makespan >= nominal


# ----------------------------------------------------------------------
# adaptive wrapper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["Het", "ODDOML", "Hom", "BMM"])
def test_adaptive_equals_oblivious_without_events(name, het_platform, ragged_grid):
    tl = PlatformTimeline()
    static = fast_simulate(
        het_platform, make_scheduler(name).plan(het_platform, ragged_grid), ragged_grid
    )
    obl = AdaptiveScheduler(make_scheduler(name), "oblivious").run_dynamic(
        het_platform, ragged_grid, tl
    )
    adp = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
        het_platform, ragged_grid, tl
    )
    assert_equivalent(static, obl)
    assert_equivalent(static, adp)
    assert adp.meta["dynamic"]["mode"] == "adaptive"
    assert adp.meta["dynamic"]["decisions"] == []


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        AdaptiveScheduler(make_scheduler("Het"), "psychic")


def test_record_events_traces_every_mode(het_platform, small_grid):
    """``record_events`` is the one trace switch of a dynamic run: it
    traces oblivious and adaptive runs alike, and the trace validates."""
    tl = PlatformTimeline().straggle(5.0, 0, 4.0)
    for mode in ("oblivious", "adaptive"):
        wrapper = AdaptiveScheduler(make_scheduler("Het"), mode)
        plain = wrapper.run_dynamic(het_platform, small_grid, tl)
        assert plain.port_events == ()
        traced = AdaptiveScheduler(make_scheduler("Het"), mode).run_dynamic(
            het_platform, small_grid, tl, record_events=True
        )
        assert traced.port_events and traced.compute_events, mode
        assert traced.makespan == plain.makespan, mode
        validate_dynamic(traced, tl, grid=small_grid)


@pytest.fixture(scope="module")
def onset_case():
    """A small straggler-onset case where rescheduling has room to act."""
    platform, grid, timeline = dynamic_scenario("straggler-onset", 16.0, scale=0.6)
    return platform, grid, timeline


@pytest.mark.parametrize("name", ["Het", "ODDOML"])
def test_adaptive_rescues_straggler_onset(name, onset_case):
    platform, grid, timeline = onset_case
    results = {
        mode: AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
            platform, grid, timeline
        )
        for mode in DYNAMIC_MODES
    }
    obl = results["oblivious"].makespan
    adp = results["adaptive"].makespan
    clv = results["clairvoyant"].makespan
    assert obl > 1.5 * clv  # ignoring the onset is expensive
    assert adp < 0.8 * obl  # rescheduling recovers most of it
    decisions = results["adaptive"].meta["dynamic"]["decisions"]
    assert decisions and "migrate" in decisions[0]


def test_adaptive_crash_forever_migrates(onset_case):
    platform, grid, _ = onset_case
    nominal = make_scheduler("Het").run(platform, grid, collect_events=False).makespan
    tl = PlatformTimeline().crash(0.25 * nominal, 0)
    with pytest.raises(DynamicStall):
        AdaptiveScheduler(make_scheduler("Het"), "oblivious").run_dynamic(platform, grid, tl)
    out = AdaptiveScheduler(make_scheduler("Het"), "adaptive").run_dynamic(platform, grid, tl)
    assert out.makespan > 0
    assert any("migrate" in d for d in out.meta["dynamic"]["decisions"])


def test_adaptive_strict_order_base(onset_case):
    """Strict-order plans (Hom) survive order splicing under migration."""
    platform, grid, timeline = onset_case
    out = {
        mode: AdaptiveScheduler(make_scheduler("Hom"), mode).run_dynamic(
            platform, grid, timeline
        ).makespan
        for mode in DYNAMIC_MODES
    }
    assert out["adaptive"] <= out["oblivious"]


# ----------------------------------------------------------------------
# scenarios, sweeps, harness
# ----------------------------------------------------------------------
class TestScenarios:
    def test_straggler_scenario_shared_definition(self):
        base, grid, tl = straggler_scenario(8.0, scale=0.1, p=4)
        assert base[0].name == "straggler"
        static = tl.final_platform(base)
        assert static[0].w == base[0].w * 8.0
        assert all(static[i].w == base[i].w for i in range(1, 4))

    def test_static_straggler_sweep_unchanged_shape(self):
        sweep = straggler_sweep(slowdowns=(1.0, 8.0), scale=0.1, p=4,
                                algorithms=("Het", "ORROML"))
        assert [pt.ratio for pt in sweep.points] == [1.0, 8.0]
        hit = sweep.points[-1]
        assert hit.makespans["ORROML"] >= hit.makespans["Het"]

    def test_dynamic_scenario_kinds(self):
        for scenario in DYNAMIC_SCENARIOS:
            platform, grid, tl = dynamic_scenario(scenario, 4.0, scale=0.3)
            assert platform.p == 8 and len(tl) >= 1
            tl.validate_for(platform)
        with pytest.raises(ValueError, match="unknown scenario"):
            dynamic_scenario("meteor-strike", 2.0)

    def test_dynamic_sweep_small(self):
        sweep = dynamic_sweep(
            "straggler-onset", (8.0,), algorithms=("ODDOML",), scale=0.3
        )
        assert len(sweep.points) == 1
        pt = sweep.points[0]
        assert set(pt.makespans["ODDOML"]) == set(DYNAMIC_MODES)
        assert "obl/clv" in sweep.table()

    def test_run_dynamic_experiment(self, het_platform, small_grid):
        tl = PlatformTimeline().straggle(5.0, 0, 8.0)
        res = run_dynamic_experiment(
            "dyn",
            [DynamicInstance("x", het_platform, small_grid, tl)],
            [make_scheduler("ODDOML")],
            modes=("oblivious", "adaptive"),
        )
        assert res.algorithms == ["ODDOML[oblivious]", "ODDOML[adaptive]"]
        assert len(res.measurements) == 2
        for m in res.measurements:
            assert m.makespan > 0 and m.bound > 0
            assert m.meta["dynamic"]["mode"] in ("oblivious", "adaptive")


def test_cli_dynamic_subcommand(capsys):
    from repro.cli import main

    assert (
        main(
            [
                "dynamic",
                "--scenario",
                "straggler-onset",
                "--severities",
                "8",
                "--algorithms",
                "ODDOML",
                "--scale",
                "0.25",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "straggler-onset" in out and "obl/clv" in out


def test_cli_dynamic_reselect_flag(capsys, tmp_path):
    from repro.cli import main

    args = [
        "dynamic",
        "--scenario",
        "straggler-onset",
        "--severities",
        "8",
        "--algorithms",
        "Hom",
        "--scale",
        "0.3",
        "--reselect",
        "--recover",
        "0.6",
        "--cache",
        str(tmp_path / "dyn-cache"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Hom:res" in out  # the reselect column made it into the table
    # second invocation is served from the cache and prints the same table
    assert main(args) == 0
    assert capsys.readouterr().out == out
