"""Experiment harness: run algorithm suites over instance suites.

An *instance* is a (platform, grid) pair with a label.  The harness runs
every algorithm on every instance, records makespans / enrollment / the
steady-state bound, and exposes the paper's relative metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.blocks import BlockGrid
from ..obs import merge_snapshots, snapshot, snapshot_delta, trace
from ..platform.model import Platform
from ..schedulers.base import Scheduler, SchedulingError
from ..schedulers.registry import default_suite
from ..sim.validate import validate_result
from ..theory.steady_state import makespan_lower_bound
from .metrics import Measurement, relative_table, summarize_relative
from .objectives import Objective, PlanScore, make_objective

__all__ = [
    "Instance",
    "DynamicInstance",
    "ExperimentResult",
    "run_experiment",
    "run_dynamic_experiment",
]


@dataclass(frozen=True)
class Instance:
    """One experimental configuration."""

    label: str
    platform: Platform
    grid: BlockGrid


@dataclass(frozen=True)
class DynamicInstance:
    """One dynamic-platform configuration: an instance plus the event
    timeline it runs under (see :mod:`repro.sim.dynamic`)."""

    label: str
    platform: Platform
    grid: BlockGrid
    timeline: "PlatformTimeline"


@dataclass
class ExperimentResult:
    """All measurements of one experiment (one paper figure)."""

    name: str
    instances: list[str]
    algorithms: list[str]
    measurements: list[Measurement] = field(default_factory=list)
    failures: dict[tuple[str, str], str] = field(default_factory=dict)
    #: registry delta of this experiment's run (see ``repro.obs.metrics``):
    #: planning/cache/kernel counters and timers accumulated while it ran
    metrics: dict = field(default_factory=dict)

    def get(self, algorithm: str, instance: str) -> Measurement:
        for m in self.measurements:
            if m.algorithm == algorithm and m.instance == instance:
                return m
        raise KeyError((algorithm, instance))

    def relative(self, metric: str = "cost") -> dict[tuple[str, str], float]:
        return relative_table(self.measurements, metric)

    def summary(self, metric: str = "cost") -> dict[str, dict[str, float]]:
        return summarize_relative(self.measurements, metric)

    def bound_ratios(self, algorithm: str) -> list[float]:
        """Makespan / steady-state lower bound for one algorithm."""
        return [
            m.bound_ratio
            for m in self.measurements
            if m.algorithm == algorithm and m.bound_ratio == m.bound_ratio
        ]

    def merged_with(self, other: "ExperimentResult", name: str = "") -> "ExperimentResult":
        """Union of two experiments (instances are prefixed by experiment
        name to stay unique) -- used by the Figure 9 summary."""
        merged = ExperimentResult(
            name=name or f"{self.name}+{other.name}",
            instances=[],
            algorithms=sorted(set(self.algorithms) | set(other.algorithms)),
        )
        for src in (self, other):
            for m in src.measurements:
                label = f"{src.name}:{m.instance}"
                merged.measurements.append(
                    Measurement(m.algorithm, label, m.makespan, m.n_enrolled, m.bound, m.meta)
                )
                if label not in merged.instances:
                    merged.instances.append(label)
        merged.metrics = merge_snapshots(self.metrics, other.metrics)
        return merged


def _resolve_objective(schedulers, objective) -> Objective | None:
    """Resolve ``objective`` and apply it to every scheduler of the suite
    (so searching algorithms optimize it and their cache signatures fold
    it in); ``None`` leaves the suite untouched and returns ``None``."""
    if objective is None:
        return None
    obj = make_objective(objective)
    for sched in schedulers:
        sched.with_objective(obj)
    return obj


def _annotate_objective(
    meta: dict,
    objective: Objective,
    *,
    makespan: float,
    workers: int,
    port_blocks,
    block_bytes: int,
) -> dict:
    """Record the active objective's verdict on one measurement: its name,
    its score, and the dollar cost it prices the run at."""
    score = PlanScore(
        makespan=float(makespan),
        workers=int(workers),
        port_blocks=int(port_blocks or 0),
        block_bytes=int(block_bytes),
    )
    meta["objective"] = objective.name
    meta["objective_score"] = objective.score(score)
    meta["dollars"] = objective.dollars(score)
    return meta


def run_experiment(
    name: str,
    instances: Sequence[Instance],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    validate: bool = False,
    parallel=None,
    cache=None,
    objective=None,
) -> ExperimentResult:
    """Run ``schedulers`` (default: the paper's seven) on every instance.

    Algorithms that cannot schedule an instance (e.g. not enough memory
    anywhere) are recorded under ``failures`` instead of aborting the whole
    experiment.  With ``validate`` the full trace is collected and audited
    against the one-port/memory/dependency invariants.

    Every run goes through :meth:`~repro.schedulers.base.Scheduler.run`:
    eventless runs replay on the fast path (batch-replayable plans through
    a single-instance :class:`~repro.sim.batch.BatchEngine` on the
    compiled kernel).  ``validate`` is the trace switch: it replays each
    plan in process with full event traces (same makespans, bit for bit;
    the golden wall pins this) and audits them.

    ``parallel`` fans whole (algorithm, instance) runs out across worker
    processes (see :func:`repro.experiments.parallel.resolve_workers` for
    accepted values).  ``cache`` (a path or
    :class:`~repro.experiments.parallel.ResultCache`) skips runs whose
    content-addressed result is already stored (keyed by
    :func:`~repro.experiments.parallel.task_key`).  Both are ignored, with
    a warning, when ``validate`` asks for full traces.

    Every run, in process or in a worker, plans and replays on the
    process's kernel backend (``REPRO_KERNEL``, inherited by worker
    processes; see :mod:`repro.sim.kernels`); every backend is
    bit-identical, so cached results stay valid.

    ``objective`` (a name, spec string, or
    :class:`~repro.experiments.objectives.Objective`) is applied to every
    scheduler of the suite via
    :meth:`~repro.schedulers.base.Scheduler.with_objective`: searching
    algorithms optimize it instead of raw makespan, and each measurement's
    ``meta`` records the objective's name, score and dollar cost.  The
    default ``None`` leaves the suite untouched — bit-identical to the
    pre-objective harness.

    The returned result's ``metrics`` dict is the metrics-registry delta
    of the run (planning/cache/kernel instruments — see
    :mod:`repro.obs.metrics`), and the whole experiment runs under an
    ``experiment`` span when tracing is enabled.
    """
    before = snapshot()
    with trace("experiment", name=name):
        result = _run_experiment(
            name,
            instances,
            schedulers,
            validate=validate,
            parallel=parallel,
            cache=cache,
            objective=objective,
        )
    result.metrics = snapshot_delta(before)
    return result


def _run_experiment(
    name: str,
    instances: Sequence[Instance],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    validate: bool = False,
    parallel=None,
    cache=None,
    objective=None,
) -> ExperimentResult:
    scheds = list(schedulers) if schedulers is not None else default_suite()
    obj = _resolve_objective(scheds, objective)
    result = ExperimentResult(
        name=name,
        instances=[inst.label for inst in instances],
        algorithms=[s.name for s in scheds],
    )
    bounds = {inst.label: makespan_lower_bound(inst.platform, inst.grid) for inst in instances}

    use_runner = parallel is not None or cache is not None
    if use_runner and validate:
        import warnings

        warnings.warn(
            "parallel=/cache= are ignored when validate is set: they need "
            "the eventless fast path",
            stacklevel=2,
        )
    elif use_runner:
        from .parallel import RunTask, run_tasks

        pairs = [(sched, inst) for inst in instances for sched in scheds]
        tasks = [
            RunTask(scheduler=sched, platform=inst.platform, grid=inst.grid)
            for sched, inst in pairs
        ]
        payloads = run_tasks(tasks, parallel=parallel, cache=cache)
        for (sched, inst), payload in zip(pairs, payloads):
            if "error" in payload:
                result.failures[(sched.name, inst.label)] = payload["error"]
                continue
            meta = dict(payload.get("meta") or {})
            if obj is not None:
                _annotate_objective(
                    meta,
                    obj,
                    makespan=payload["makespan"],
                    workers=payload["n_enrolled"],
                    port_blocks=payload.get("port_blocks"),
                    block_bytes=inst.grid.block_bytes,
                )
            result.measurements.append(
                Measurement(
                    algorithm=sched.name,
                    instance=inst.label,
                    makespan=payload["makespan"],
                    n_enrolled=payload["n_enrolled"],
                    bound=bounds[inst.label],
                    meta=meta,
                )
            )
        return result

    for inst in instances:
        bound = bounds[inst.label]
        for sched in scheds:
            try:
                sim = sched.run(inst.platform, inst.grid, collect_events=validate)
            except SchedulingError as exc:
                result.failures[(sched.name, inst.label)] = str(exc)
                continue
            if validate:
                validate_result(sim)
            meta = dict(sim.meta)
            if obj is not None:
                meta["objective"] = obj.name
                meta["objective_score"] = obj.evaluate_result(sim)
                meta["dollars"] = obj.result_dollars(sim)
            result.measurements.append(
                Measurement(
                    algorithm=sched.name,
                    instance=inst.label,
                    makespan=sim.makespan,
                    n_enrolled=sim.n_enrolled,
                    bound=bound,
                    meta=meta,
                )
            )
    return result


def run_dynamic_experiment(
    name: str,
    instances: Sequence[DynamicInstance],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    modes: Sequence[str] | None = None,
    validate: bool = False,
    objective=None,
) -> ExperimentResult:
    """Run every scheduler × dynamic mode on every timeline instance.

    Each base algorithm is wrapped in an
    :class:`~repro.schedulers.adaptive.AdaptiveScheduler` per mode
    (``oblivious`` / ``adaptive`` / ``reselect`` / ``clairvoyant`` by
    default), and each measurement is labelled ``"<alg>[<mode>]"``.  The recorded bound is the
    steady-state lower bound on the timeline's *final* platform — exact for
    degrade-once scenarios, indicative otherwise.  Instances a wrapper
    cannot schedule (or that stall on a crashed worker) land in
    ``failures``.

    With ``validate`` every run — adaptive rescheduling included — is
    recorded (``record_events=True``) and audited by
    :func:`~repro.sim.validate.validate_dynamic` against its instance's
    timeline: time-varying one-port/memory/dependency invariants, crash
    windows, and exact block-grid coverage.

    ``objective`` is applied to every base scheduler (the adaptive
    wrappers inherit it for their boundary decisions) and each
    measurement's ``meta`` records its name, score and dollars — billed
    over the timeline's alive windows, so crashed workers stop costing
    money at their crash time.
    """
    from ..schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
    from ..sim.dynamic import DynamicStall
    from ..sim.validate import validate_dynamic

    scheds = list(schedulers) if schedulers is not None else default_suite()
    obj = _resolve_objective(scheds, objective)
    mode_list = list(modes) if modes is not None else list(DYNAMIC_MODES)
    wrappers = [
        AdaptiveScheduler(sched, mode) for sched in scheds for mode in mode_list
    ]
    result = ExperimentResult(
        name=name,
        instances=[inst.label for inst in instances],
        algorithms=[w.name for w in wrappers],
    )
    before = snapshot()
    with trace("experiment", name=name, dynamic=True):
        for inst in instances:
            final = inst.timeline.final_platform(inst.platform)
            bound = makespan_lower_bound(final, inst.grid)
            for wrapper in wrappers:
                try:
                    sim = wrapper.run_dynamic(
                        inst.platform, inst.grid, inst.timeline, record_events=validate
                    )
                except (SchedulingError, DynamicStall) as exc:
                    result.failures[(wrapper.name, inst.label)] = str(exc)
                    continue
                if validate:
                    validate_dynamic(sim, inst.timeline, grid=inst.grid)
                meta = dict(sim.meta)
                if obj is not None:
                    meta["objective"] = obj.name
                    meta["objective_score"] = obj.evaluate_result(
                        sim, timeline=inst.timeline
                    )
                    meta["dollars"] = obj.result_dollars(
                        sim, timeline=inst.timeline
                    )
                result.measurements.append(
                    Measurement(
                        algorithm=wrapper.name,
                        instance=inst.label,
                        makespan=sim.makespan,
                        n_enrolled=sim.n_enrolled,
                        bound=bound,
                        meta=meta,
                    )
                )
    result.metrics = snapshot_delta(before)
    return result
