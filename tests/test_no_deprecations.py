"""The suite's own code paths emit no internal DeprecationWarning.

No deprecated path is left: a :class:`~repro.sim.policies.ReadyPolicy`
takes one of its two priority keys, and engines read it straight from
``policy.priority``.  This wall runs a representative workload — every
registry scheduler through the traced, fast, batch and dynamic replays
plus the experiment harness — and asserts nothing under ``repro`` raises a
DeprecationWarning.  The per-message event engine lives on the test side
(``tests/reference_engine.py``), with no alias left in ``repro.sim``,
and the interpreted kernel backend is gone, with no alias left in
``repro.sim.kernels``.

It also pins the trace switches: each entry point has exactly one
(``collect_events`` on ``Scheduler.run``, ``record_events`` on the dynamic
driver and both ``run_dynamic`` entry points, ``validate`` on ``run_experiment``), no
public function takes an ``engine``, and a plan carries no trace flag.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import warnings

import pytest

import repro
from repro.core.blocks import BlockGrid
from repro.experiments.harness import Instance, run_experiment
from repro.platform.model import Platform, Worker
from repro.schedulers.adaptive import AdaptiveScheduler
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.batch import batch_outcomes
from repro.sim.dynamic import PlatformTimeline, simulate_dynamic
from repro.sim.fastpath import fast_simulate
from tests.per_mode import per_mode_outcomes


def _representative_workload():
    platform = Platform(
        [
            Worker(0, c=1.0, w=1.0, m=21),
            Worker(1, c=0.5, w=2.0, m=32),
            Worker(2, c=2.0, w=0.5, m=12),
        ]
    )
    grid = BlockGrid(r=5, t=4, s=9, q=2)
    runs = []
    for name in sorted(SCHEDULERS):
        sched = make_scheduler(name)
        sched.run(platform, grid)  # traced replay
        fast_simulate(platform, sched.plan(platform, grid), grid)
        runs.append((platform, sched.plan(platform, grid)))
        batch_outcomes([(platform, sched.plan(platform, grid))])
        simulate_dynamic(
            platform,
            sched.plan(platform, grid),
            PlatformTimeline().straggle(1.0, 0, 2.0),
            grid,
        )
    per_mode_outcomes(runs)
    run_experiment("w", [Instance("i", platform, grid)])
    AdaptiveScheduler(make_scheduler("ODDOML"), "adaptive").run_dynamic(
        platform, grid, PlatformTimeline().straggle(1.0, 0, 4.0)
    )


def test_suite_emits_no_internal_deprecation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _representative_workload()
    internal = [
        w
        for w in caught
        if issubclass(w.category, DeprecationWarning) and "repro" in (w.filename or "")
    ]
    assert internal == [], [str(w.message) for w in internal]


# ----------------------------------------------------------------------
# one trace switch per entry point
# ----------------------------------------------------------------------
_TRACE_WORDS = ("collect", "record", "event", "engine", "trace", "validate")


def _trace_params(fn) -> dict[str, object]:
    """The trace-related parameters of ``fn`` and their defaults."""
    return {
        name: param.default
        for name, param in inspect.signature(fn).parameters.items()
        if any(word in name for word in _TRACE_WORDS)
    }


def test_each_entry_point_has_one_trace_switch():
    from repro.schedulers.base import Scheduler
    from repro.schedulers.coded import CodedScheduler

    assert _trace_params(Scheduler.run) == {"collect_events": True}
    assert _trace_params(simulate_dynamic) == {"record_events": False}
    assert _trace_params(AdaptiveScheduler.run_dynamic) == {"record_events": False}
    assert _trace_params(CodedScheduler.run_dynamic) == {"record_events": False}
    assert _trace_params(run_experiment) == {"validate": False}


def _public_functions():
    """Every public function and method defined in ``src/repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (
                        meth_name == "__init__" or not meth_name.startswith("_")
                    ):
                        yield f"{module.__name__}.{name}.{meth_name}", meth


def test_no_public_function_takes_an_engine():
    offenders = [
        qual
        for qual, fn in _public_functions()
        if "engine" in inspect.signature(fn).parameters
    ]
    assert offenders == []


def test_plan_has_no_trace_flag():
    from repro.sim.plan import Plan
    from repro.sim.policies import StrictOrderPolicy

    with pytest.raises(TypeError, match="collect_events"):
        Plan(assignments=[[]], policy=StrictOrderPolicy([]), depths=[2], collect_events=False)


def test_event_engine_lives_in_tests():
    import repro.sim
    from repro.sim import engine, policies, worker_state

    for name in ("Engine", "WorkerSim", "HeadMsg"):
        assert name not in repro.sim.__all__
        for module in (repro.sim, engine, worker_state):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for policy in (policies.StrictOrderPolicy, policies.ReadyPolicy):
        assert not hasattr(policy, "next_choice") and not hasattr(policy, "fresh")


def test_per_message_driver_lives_in_tests():
    """Every dynamic run takes native windows: the driver's per-message
    loop and its engine adapter are the test-side oracle only."""
    from repro.sim import dynamic
    from repro.sim.fastpath import FastEngine

    assert not hasattr(dynamic, "_FastAdapter")
    for name in ("_choose", "_choose_strict", "_choose_ready", "_advance_window", "_engine"):
        assert not hasattr(dynamic.DynamicRun, name), name
    assert not hasattr(FastEngine, "post_next")


def test_c_source_is_the_one_kernel_text():
    """The interpreted kernel backend is gone: the C source is the
    kernels' one text, and the numpy per-step path is its oracle."""
    from repro.sim import kernels

    for name in ("PythonBackend", "_strict_run", "_ready_run"):
        assert not hasattr(kernels, name), name
    assert "python" not in kernels.KERNEL_NAMES
