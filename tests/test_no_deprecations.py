"""The suite's own code paths emit no internal DeprecationWarning.

No deprecated path is left: a :class:`~repro.sim.policies.ReadyPolicy`
takes one of its two priority keys, and engines read it straight from
``policy.priority``.  This wall runs a representative workload — every
registry scheduler through the reference, fast, batch and dynamic engines
plus the experiment harness — and asserts nothing under ``repro`` raises a
DeprecationWarning.
"""

from __future__ import annotations

import warnings

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
        sched.run(platform, grid)  # reference engine
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
