"""Tests for repro.obs: the metrics registry, the span tracer and the
profiling instrumentation that rides on them.

The tracer tests enforce the two contracts the instrumentation depends
on: disabled mode allocates nothing (every ``trace()`` call returns the
one shared no-op object), and enabled mode produces well-formed span
trees (balanced enter/exit, monotonic timestamps, children contained in
their parents) across the scheduler x engine x dynamic-mode matrix.
"""

import json
import sys

import pytest

from repro import obs
from repro.core.blocks import BlockGrid
from repro.experiments.harness import Instance, run_experiment
from repro.experiments.sweeps import dynamic_scenario
from repro.obs import (
    Counter,
    Gauge,
    Timer,
    counter,
    disable_tracing,
    enable_tracing,
    gauge,
    get_tracer,
    merge_snapshots,
    phase_attribution,
    registry,
    run_metadata,
    snapshot,
    snapshot_delta,
    stopwatch,
    timer,
    trace,
    tracing,
    tracing_enabled,
)
from repro.platform.model import Platform
from repro.schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.kernels import KERNEL_NAMES


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


class TestMetrics:
    def test_get_or_create_shares_instances(self):
        a = counter("test.obs.shared")
        b = counter("test.obs.shared")
        assert a is b
        base = a.value
        a.inc()
        b.inc(2)
        assert a.value == base + 3

    def test_type_clash_raises(self):
        counter("test.obs.clash")
        with pytest.raises(TypeError):
            gauge("test.obs.clash")
        with pytest.raises(TypeError):
            timer("test.obs.clash")

    def test_instrument_kinds(self):
        c = Counter("c")
        c.inc(5)
        assert c.snapshot() == 5
        c.reset()
        assert c.value == 0
        g = Gauge("g")
        g.set(0.25)
        assert g.snapshot() == 0.25
        t = Timer("t")
        t.add(1.5)
        t.add(0.5)
        assert t.snapshot() == {"seconds": 2.0, "count": 2}

    def test_stopwatch_elapsed_and_timer(self):
        t = timer("test.obs.sw")
        before = t.snapshot()
        with t.time() as sw:
            pass
        assert sw.elapsed >= 0.0
        after = t.snapshot()
        assert after["count"] == before["count"] + 1
        assert after["seconds"] >= before["seconds"]
        # unnamed stopwatch reports nowhere but still measures
        with stopwatch() as sw2:
            pass
        assert sw2.elapsed >= 0.0

    def test_snapshot_and_delta(self):
        before = snapshot()
        counter("test.obs.delta").inc(7)
        timer("test.obs.delta_t").add(0.25)
        delta = snapshot_delta(before)
        assert delta["test.obs.delta"] == 7
        assert delta["test.obs.delta_t"] == {"seconds": 0.25, "count": 1}
        # unchanged instruments are dropped from the delta
        assert "cache.result.hits" not in snapshot_delta(snapshot())

    def test_merge_snapshots(self):
        a = {"x": 1, "t": {"seconds": 1.0, "count": 2}}
        b = {"x": 2, "y": 5, "t": {"seconds": 0.5, "count": 1}}
        merged = merge_snapshots(a, b)
        assert merged == {
            "x": 3,
            "y": 5,
            "t": {"seconds": 1.5, "count": 3},
        }

    def test_registry_snapshot_sorted(self):
        counter("test.obs.zz")
        counter("test.obs.aa")
        names = list(registry.snapshot())
        assert names == sorted(names)


class TestDisabledTracing:
    def test_disabled_returns_shared_noop(self):
        assert not tracing_enabled()
        assert get_tracer() is None
        # no span objects are allocated: every call yields the one
        # module-level no-op singleton
        assert trace("a") is trace("b", attr=1)
        with trace("outer") as sp:
            assert sp.set(x=1) is sp

    def test_enable_disable_roundtrip(self):
        tr = enable_tracing()
        assert tracing_enabled()
        assert enable_tracing() is tr  # idempotent
        assert disable_tracing() is tr
        assert not tracing_enabled()

    def test_tracing_contextmanager(self):
        with tracing() as tr:
            with trace("inside"):
                pass
            assert get_tracer() is tr
        assert not tracing_enabled()
        assert [s.name for s in tr.roots] == ["inside"]


def _assert_well_formed(tracer):
    """Balanced enter/exit, monotonic stamps, children inside parents."""
    assert tracer.open_spans() == 0
    assert tracer.roots
    for span in tracer.walk():
        assert span.t1 >= span.t0 > 0.0
        assert span.cpu1 >= span.cpu0
        for child in span.children:
            assert child.t0 >= span.t0
            assert child.t1 <= span.t1 + 1e-9


class TestEnabledTracing:
    def test_nested_span_tree(self):
        with tracing() as tr:
            with trace("a", k=1):
                with trace("b"):
                    pass
                with trace("c") as c:
                    c.set(found=True)
        _assert_well_formed(tr)
        (root,) = tr.roots
        assert root.name == "a"
        assert root.attrs == {"k": 1}
        assert [ch.name for ch in root.children] == ["b", "c"]
        assert root.children[1].attrs == {"found": True}
        assert root.wall_seconds >= sum(ch.wall_seconds for ch in root.children)

    def test_to_dict_shape(self):
        with tracing() as tr:
            with trace("top", arr=(1, 2)):
                with trace("kid"):
                    pass
        doc = tr.to_dict()
        assert {"meta", "spans"} <= set(doc)
        (top,) = doc["spans"]
        assert top["name"] == "top"
        assert top["attrs"] == {"arr": [1, 2]}
        assert top["children"][0]["name"] == "kid"
        json.dumps(doc)  # JSON-serializable end to end

    def test_chrome_export_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        with tracing() as tr:
            with trace("outer"):
                with trace("inner", worker=3):
                    pass
        n = tr.write_chrome(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == n == 2
        for evt in events:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(evt)
            assert evt["ph"] == "X"
            assert evt["dur"] >= 0.0
        assert [e["name"] for e in events] == ["outer", "inner"]  # sorted by ts
        assert doc["otherData"]["python"]

    def test_phase_attribution_charges_outermost_once(self):
        with tracing() as tr:
            with trace("simulate_dynamic"):
                with trace("boundary"):
                    with trace("plan"):
                        pass
            with trace("plan"):
                pass
        phases = phase_attribution(
            tr.roots,
            {"planning": {"plan"}, "simulation": {"simulate_dynamic", "boundary"}},
        )
        sim, planning = phases["simulation"], phases["planning"]
        # the nested boundary/plan inside simulate_dynamic count once,
        # under simulation; only the top-level plan is planning
        assert sim == pytest.approx(tr.roots[0].wall_seconds)
        assert planning == pytest.approx(tr.roots[1].wall_seconds)


def _instances():
    plat = Platform.homogeneous(2, 1.0, 1.0, 45)
    return [Instance("g1", plat, BlockGrid(r=4, t=3, s=6))]


class TestInstrumentedMatrix:
    @pytest.mark.parametrize("validate", [False, True], ids=["fast", "reference"])
    @pytest.mark.parametrize("algorithm", ["Hom", "Het"])
    def test_experiment_span_trees(self, validate, algorithm):
        scheds = [make_scheduler(algorithm)]
        with tracing() as tr:
            res = run_experiment("obs", _instances(), scheds, validate=validate)
        assert res.measurements
        _assert_well_formed(tr)
        names = {s.name for s in tr.walk()}
        assert {"experiment", "plan", "simulate"} <= names

    @pytest.mark.parametrize("mode", DYNAMIC_MODES)
    def test_dynamic_span_trees(self, mode):
        platform, grid, timeline = dynamic_scenario(
            "straggler-onset", 4.0, p=4, scale=0.1
        )
        wrapper = AdaptiveScheduler(make_scheduler("Hom"), mode)
        with tracing() as tr:
            sim = wrapper.run_dynamic(platform, grid, timeline)
        assert sim.makespan > 0
        _assert_well_formed(tr)
        names = {s.name for s in tr.walk()}
        assert "plan" in names
        assert "simulate_dynamic" in names
        if mode in ("adaptive", "reselect"):
            assert "boundary" in names

    def test_experiment_metrics_delta(self):
        res = run_experiment("obs", _instances(), [make_scheduler("Hom")])
        assert "plan.seconds" in res.metrics
        assert res.metrics["plan.seconds"]["count"] >= 1

    def test_dynamic_boundary_metrics(self):
        platform, grid, timeline = dynamic_scenario(
            "straggler-onset", 4.0, p=4, scale=0.1
        )
        before = snapshot()
        wrapper = AdaptiveScheduler(make_scheduler("Hom"), "adaptive")
        sim = wrapper.run_dynamic(platform, grid, timeline)
        delta = snapshot_delta(before)
        assert delta["adaptive.boundaries"] >= 1
        assert delta["dynamic.segments"] >= 2
        assert sim.meta["dynamic"]["boundary_seconds"] >= 0.0


class TestRunMetadata:
    def test_keys_and_types(self):
        meta = run_metadata()
        assert {
            "python", "numpy", "cpu_count", "machine", "kernel", "git", "bytecode_cache"
        } <= set(meta)
        assert isinstance(meta["cpu_count"], int)
        assert meta["bytecode_cache"] is (not sys.dont_write_bytecode)
        assert meta["kernel"] in KERNEL_NAMES
        json.dumps(meta)

    @pytest.mark.parametrize("dont_write", [True, False])
    def test_bytecode_cache_follows_the_interpreter(self, monkeypatch, dont_write):
        """Under PYTHONDONTWRITEBYTECODE (or -B) every fresh process
        recompiles the package, so set-up times are only comparable
        between records that agree on this key."""
        monkeypatch.setattr(sys, "dont_write_bytecode", dont_write)
        assert run_metadata()["bytecode_cache"] is (not dont_write)

    def test_module_reexports(self):
        for name in ("trace", "counter", "snapshot", "run_metadata", "Tracer"):
            assert hasattr(obs, name)
