"""Edges of ``FastEngine``'s one posting loop (``_drain``).

Every post -- a static ``run_plan`` replay, every window of the dynamic
driver and the tests' one-message ``post_next`` -- goes through the same
loop, which also records the dynamic driver's traces.  These tests pin its
error paths and that what-if probes (engine clones) never write into a
recorded trace.  Each runs under every available kernel backend.
"""

from __future__ import annotations

import pytest

from repro.core.chunks import make_chunk
from repro.experiments.sweeps import dynamic_scenario
from repro.platform.model import Platform
from repro.schedulers.adaptive import AdaptiveScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.dynamic import DynamicRun, PlatformTimeline
from repro.sim.fastpath import FastEngine
from repro.sim.kernels import available_backends
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy
from repro.sim.validate import validate_dynamic
from tests.per_mode import kernel_env
from tests.reference_engine import post_next

KERNELS = available_backends()


def _one_chunk_engine() -> FastEngine:
    plat = Platform.homogeneous(2, 1.0, 1.0, 50)
    eng = FastEngine(plat)
    eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 1))
    return eng


@pytest.mark.parametrize("kernel", KERNELS)
def test_post_next_on_drained_worker_raises(kernel):
    """One message is a one-entry strict window, so posting a drained
    worker raises the strict-order error at position 0 and posts nothing."""
    with kernel_env(kernel):
        eng = _one_chunk_engine()
        with pytest.raises(
            RuntimeError,
            match="strict order names worker 1 at position 0 but it has no pending message",
        ):
            post_next(eng, 1)
        assert eng.port_free == 0.0 and eng.has_pending(0)
        posts = 0
        while eng.has_pending(0):
            post_next(eng, 0)
            posts += 1
        assert posts == 3  # C send, one round, C return
        with pytest.raises(
            RuntimeError,
            match="strict order names worker 0 at position 0 but it has no pending message",
        ):
            post_next(eng, 0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_strict_order_naming_drained_worker_raises(kernel):
    """Worker 0's one chunk is three messages (C send, one round, C
    return); a fourth entry for it names a drained worker."""
    with kernel_env(kernel):
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        ch = make_chunk(0, 0, 0, 1, 0, 1, 1)
        plan = Plan(
            assignments=[[ch], []], policy=StrictOrderPolicy([0, 0, 0, 0]), depths=[2, 2]
        )
        eng = FastEngine(plat, depths=plan.depths, c_mode=plan.c_mode)
        with pytest.raises(
            RuntimeError, match="strict order names worker 0 at position 3"
        ):
            eng.run_plan(plan)
        # the three legal posts stay on the books
        assert eng.all_done and eng.last_end > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_clone_of_recording_engine_does_not_record(kernel):
    with kernel_env(kernel):
        eng = _one_chunk_engine()
        eng._log = ([], [])
        other = eng.clone()
        assert other._log is None
        while other.has_pending(0):
            post_next(other, 0)
        assert eng._log == ([], [])


def _permanent_crash_case():
    platform, grid, _tl = dynamic_scenario("straggler-onset", 2.0, scale=0.4)
    nominal = make_scheduler("Het").run(platform, grid, collect_events=False).makespan
    return platform, grid, PlatformTimeline().crash(0.25 * nominal, 0)


def _straggler_case():
    return dynamic_scenario("straggler-onset", 16.0, scale=0.5)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "name, case", [("Hom", _straggler_case), ("Het", _permanent_crash_case)], ids=["strict", "ready"]
)
def test_recorded_adaptive_trace_has_one_event_per_live_post(kernel, name, case, monkeypatch):
    """Probes clone the live engine and post to completion; none of those
    posts may reach the recorded trace.  The live engine's own counters
    witness its posts: the recorded port events carry exactly its blocks,
    and their durations, summed in posting order, are its port busy time
    bit for bit."""
    live: list = []
    init = DynamicRun.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.append(self.engine)

    clones = [0]
    clone = FastEngine.clone

    def counting_clone(self):
        clones[0] += 1
        return clone(self)

    monkeypatch.setattr(DynamicRun, "__init__", tracked)
    monkeypatch.setattr(FastEngine, "clone", counting_clone)
    with kernel_env(kernel):
        platform, grid, timeline = case()
        sim = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
            platform, grid, timeline, record_events=True
        )
    assert len(live) == 1
    engine = live[0]
    assert any("migrate" in d for d in sim.meta["dynamic"]["decisions"])
    assert clones[0] > 0
    assert sim.port_events
    assert sum(ev.nblocks for ev in sim.port_events) == engine.blocks_through_port
    busy = 0.0
    for ev in sim.port_events:
        busy += ev.end - ev.start
    assert busy == engine.port_busy == sim.port_busy
    validate_dynamic(sim, timeline, grid=grid)
