"""Edges of ``FastEngine``'s one posting loop (``_drain``).

Every post -- ``post_next``, a static ``run_plan`` replay and the dynamic
driver's event-free windows -- goes through the same loop, which also
records the dynamic driver's traces.  These tests pin its error paths and
that what-if probes (engine clones) never write into a recorded trace.
Each runs under every available kernel backend.
"""

from __future__ import annotations

import pytest

import repro.sim.dynamic as dynamic
from repro.core.chunks import make_chunk
from repro.experiments.sweeps import dynamic_scenario
from repro.platform.model import Platform
from repro.schedulers.adaptive import AdaptiveScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.dynamic import PlatformTimeline
from repro.sim.fastpath import FastEngine
from repro.sim.kernels import available_backends
from repro.sim.plan import Plan
from repro.sim.policies import StrictOrderPolicy
from repro.sim.validate import validate_dynamic
from tests.per_mode import kernel_env

KERNELS = available_backends()


def _one_chunk_engine() -> FastEngine:
    plat = Platform.homogeneous(2, 1.0, 1.0, 50)
    eng = FastEngine(plat)
    eng.assign_chunk(0, make_chunk(0, 0, 0, 1, 0, 1, 1))
    return eng


@pytest.mark.parametrize("kernel", KERNELS)
def test_post_next_on_drained_worker_raises(kernel):
    with kernel_env(kernel):
        eng = _one_chunk_engine()
        with pytest.raises(RuntimeError, match="worker 1 has no pending message to post"):
            eng.post_next(1)
        while eng.has_pending(0):
            eng.post_next(0)
        with pytest.raises(RuntimeError, match="worker 0 has no pending message to post"):
            eng.post_next(0)


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
            other.post_next(0)
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
    posts may reach the recorded trace.  A recorded run walks the
    per-message loop, so the live engine posts once per ``post_next``."""
    adapters: list = []

    class Tracked(dynamic._FastAdapter):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            adapters.append(self)

    live_posts = [0]
    clones = [0]
    post_next, clone = FastEngine.post_next, FastEngine.clone

    def counting_post(self, widx, min_start=0.0):
        if adapters and self is adapters[0].engine:
            live_posts[0] += 1
        return post_next(self, widx, min_start)

    def counting_clone(self):
        clones[0] += 1
        return clone(self)

    monkeypatch.setattr(dynamic, "_FastAdapter", Tracked)
    monkeypatch.setattr(FastEngine, "post_next", counting_post)
    monkeypatch.setattr(FastEngine, "clone", counting_clone)
    with kernel_env(kernel):
        platform, grid, timeline = case()
        sim = AdaptiveScheduler(make_scheduler(name), "adaptive").run_dynamic(
            platform, grid, timeline, record_events=True
        )
    assert len(adapters) == 1
    assert any("migrate" in d for d in sim.meta["dynamic"]["decisions"])
    assert clones[0] > 0
    assert len(sim.port_events) == live_posts[0] > 0
    assert sum(ev.nblocks for ev in sim.port_events) == sim.blocks_through_port
    validate_dynamic(sim, timeline, grid=grid)
