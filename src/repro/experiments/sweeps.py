"""Parameter sweeps beyond the paper's fixed configurations.

The paper "assesses the impact of the degree of heterogeneity" with a few
fixed ratios (2 and 4).  These sweeps systematize that question: vary the
large/small ratio of every platform dimension continuously and track how
each algorithm's relative cost, Het's enrollment and the distance to the
steady-state bound evolve -- the kind of sensitivity study a user deploying
the library on an unknown platform needs.

Every sweep builds its runs as a task list
(:class:`~repro.experiments.parallel.RunTask` per static point,
:class:`~repro.experiments.parallel.DynamicTask` per dynamic mode) and
hands it to :func:`~repro.experiments.parallel.run_tasks`, which executes,
caches and fans out; the sweeps only assemble the payloads into points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.blocks import BlockGrid
from ..obs import trace
from ..platform.generators import fully_heterogeneous, scale_grid, scale_platform
from ..schedulers.registry import make_scheduler
from ..theory.steady_state import makespan_lower_bound
from .parallel import DynamicTask, RunTask, _as_cache, run_tasks

__all__ = [
    "SweepPoint",
    "HeterogeneitySweep",
    "heterogeneity_sweep",
    "straggler_sweep",
    "straggler_scenario",
    "CANONICAL_SEVERITIES",
    "DYNAMIC_SCENARIOS",
    "DynamicPoint",
    "DynamicSweep",
    "dynamic_scenario",
    "dynamic_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """Measurements at one heterogeneity ratio."""

    ratio: float
    makespans: dict[str, float]
    enrollment: dict[str, int]
    bound: float

    def relative(self, algorithm: str) -> float:
        best = min(self.makespans.values())
        return self.makespans[algorithm] / best

    def gain_over(self, algorithm: str, baseline: str) -> float:
        return 1.0 - self.makespans[algorithm] / self.makespans[baseline]


@dataclass
class HeterogeneitySweep:
    """A full ratio sweep."""

    algorithms: list[str]
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, algorithm: str) -> list[tuple[float, float]]:
        """(ratio, relative cost) series for one algorithm."""
        return [(pt.ratio, pt.relative(algorithm)) for pt in self.points]

    def table(self) -> str:
        lines = [
            f"{'ratio':>6}"
            + "".join(f"{a:>9}" for a in self.algorithms)
            + f"{'Het/bound':>11}{'Het wrk':>8}"
        ]
        for pt in self.points:
            lines.append(
                f"{pt.ratio:>6.2f}"
                + "".join(f"{pt.relative(a):>9.3f}" for a in self.algorithms)
                + f"{pt.makespans['Het'] / pt.bound:>11.2f}"
                + f"{pt.enrollment['Het']:>8}"
            )
        return "\n".join(lines)


def _measure_points(
    labelled_platforms: Sequence[tuple[float, "Platform"]],
    grid: BlockGrid,
    algorithms: Sequence[str],
    parallel,
    cache,
    objective=None,
) -> list[SweepPoint]:
    """Shared sweep core: run every algorithm on every (ratio, platform)
    point, skipping infeasible combinations.  The whole sweep is one flat
    task list, so with ``parallel`` a multi-ratio sweep saturates the
    worker pool instead of fanning out one point at a time."""
    scheds = [make_scheduler(name, objective=objective) for name in algorithms]
    tasks = [
        RunTask(sched, plat, grid)
        for _ratio, plat in labelled_platforms
        for sched in scheds
    ]
    payloads = run_tasks(tasks, parallel=parallel, cache=cache)
    points: list[SweepPoint] = []
    for at, (ratio, plat) in enumerate(labelled_platforms):
        row = payloads[at * len(algorithms) : (at + 1) * len(algorithms)]
        ok = [(name, pl) for name, pl in zip(algorithms, row) if "error" not in pl]
        points.append(
            SweepPoint(
                ratio=ratio,
                makespans={name: pl["makespan"] for name, pl in ok},
                enrollment={name: pl["n_enrolled"] for name, pl in ok},
                bound=makespan_lower_bound(plat, grid),
            )
        )
    return points


def heterogeneity_sweep(
    ratios: Sequence[float] = (1.01, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0),
    *,
    scale: float = 0.25,
    algorithms: Sequence[str] = ("Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM"),
    s_elements: int = 80_000,
    parallel=None,
    cache=None,
    objective=None,
) -> HeterogeneitySweep:
    """Run every algorithm over fully heterogeneous platforms whose
    large/small parameter ratio sweeps over ``ratios``.

    ``parallel``, ``cache`` and ``objective`` mean what they mean for
    :func:`~repro.experiments.harness.run_experiment`; each point plans
    and replays on the process's kernel backend (``REPRO_KERNEL``), and
    its makespans equal a traced replay's bit for bit."""
    sweep = HeterogeneitySweep(algorithms=list(algorithms))
    grid = scale_grid(BlockGrid.paper_instance(s_elements), scale)
    labelled = []
    for ratio in ratios:
        plat = fully_heterogeneous(ratio)
        if scale != 1.0:
            plat = scale_platform(plat, scale)
        labelled.append((ratio, plat))
    sweep.points.extend(
        _measure_points(
            labelled, grid, algorithms, parallel, cache, objective=objective
        )
    )
    return sweep


def straggler_scenario(
    slowdown: float,
    *,
    scale: float = 0.25,
    p: int = 8,
    s_elements: int = 80_000,
    at: float = 0.0,
) -> tuple["Platform", BlockGrid, "PlatformTimeline"]:
    """The straggler scenario, defined once for both evaluation paths.

    Returns ``(base_platform, grid, timeline)``: a homogeneous paper-scale
    platform whose worker 0 (named ``"straggler"``) is slowed ``slowdown``×
    by a timeline event at ``at``.  The *static* :func:`straggler_sweep`
    materializes the post-event platform via
    :meth:`~repro.sim.dynamic.PlatformTimeline.final_platform` (an onset at
    t=0 and a from-the-start slowdown price identically); the *dynamic*
    path replays the same timeline mid-run.
    """
    from ..core.layout import blocks_from_mb
    from ..platform.generators import (
        BASE_BANDWIDTH_MBPS,
        BASE_GFLOPS,
        c_from_mbps,
        scaled_memory,
        w_from_gflops,
    )
    from ..platform.model import Platform, Worker
    from ..sim.dynamic import PlatformTimeline

    grid = scale_grid(BlockGrid.paper_instance(s_elements), scale)
    c = c_from_mbps(BASE_BANDWIDTH_MBPS)
    w = w_from_gflops(BASE_GFLOPS) / scale
    m = scaled_memory(blocks_from_mb(1024), scale)
    workers = [
        Worker(i, c, w, m, name="straggler" if i == 0 else "") for i in range(p)
    ]
    platform = Platform(workers, name=f"straggler-x{slowdown:g}")
    timeline = PlatformTimeline().straggle(at, 0, slowdown)
    return platform, grid, timeline


def straggler_sweep(
    slowdowns: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    *,
    scale: float = 0.25,
    p: int = 8,
    algorithms: Sequence[str] = ("Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM"),
    s_elements: int = 80_000,
    parallel=None,
    cache=None,
    objective=None,
) -> HeterogeneitySweep:
    """Degrade one worker of an otherwise homogeneous platform by a growing
    compute slowdown and watch who copes.

    A selection-aware algorithm should drop (or down-weight) the straggler
    and converge to the (p-1)-worker makespan; heterogeneity-blind ones keep
    feeding it panels and inherit its pace.  The returned object reuses the
    :class:`HeterogeneitySweep` shape with ``ratio`` = the slowdown factor.
    The slowdown itself is expressed as a :func:`straggler_scenario`
    timeline event, so this static sweep and the dynamic-platform scenarios
    share one definition.
    """
    sweep = HeterogeneitySweep(algorithms=list(algorithms))
    labelled = []
    for slowdown in slowdowns:
        base, grid, timeline = straggler_scenario(
            slowdown, scale=scale, p=p, s_elements=s_elements
        )
        labelled.append(
            (slowdown, timeline.final_platform(base, name=f"straggler-x{slowdown:g}"))
        )
    sweep.points.extend(
        _measure_points(
            labelled, grid, algorithms, parallel, cache, objective=objective
        )
    )
    return sweep


# ----------------------------------------------------------------------
# dynamic-platform sweeps (oblivious vs adaptive vs clairvoyant)
# ----------------------------------------------------------------------

#: Scenario families of :func:`dynamic_sweep`.
DYNAMIC_SCENARIOS = ("straggler-onset", "bandwidth-degradation", "crash-recovery")

#: Canonical severity per named scenario: the single definition behind the
#: golden dynamic freeze (``tests/data/golden_dynamic.json``) and the
#: invariant wall, so the two always exercise the same named runs.
CANONICAL_SEVERITIES = {
    "straggler-onset": 8.0,
    "bandwidth-degradation": 4.0,
    "crash-recovery": 0.2,
}


@dataclass(frozen=True)
class DynamicPoint:
    """Measurements at one scenario severity.

    ``makespans[algorithm][mode]`` holds the makespan of that algorithm's
    oblivious / adaptive / clairvoyant evaluation; ``bound`` is the
    steady-state lower bound on the scenario's final platform.
    """

    severity: float
    makespans: dict[str, dict[str, float]]
    bound: float

    def ratio(self, algorithm: str, mode: str, reference: str = "clairvoyant") -> float:
        """Makespan of ``mode`` relative to ``reference`` (NaN if missing)."""
        per_alg = self.makespans.get(algorithm, {})
        if mode not in per_alg or reference not in per_alg:
            return float("nan")
        return per_alg[mode] / per_alg[reference]


@dataclass
class DynamicSweep:
    """A severity sweep of one dynamic scenario."""

    scenario: str
    algorithms: list[str]
    modes: list[str]
    points: list[DynamicPoint] = field(default_factory=list)

    def table(self) -> str:
        """Severity × (algorithm, mode) makespans, with the
        oblivious/clairvoyant and adaptive/clairvoyant gaps."""
        gaps = "clairvoyant" in self.modes
        header = f"{'sev':>6}"
        for alg in self.algorithms:
            for mode in self.modes:
                header += f"{alg + ':' + mode[:3]:>15}"
            if gaps:
                header += f"{'obl/clv':>10}{'adp/clv':>10}"
        lines = [header]
        for pt in self.points:
            row = f"{pt.severity:>6g}"
            for alg in self.algorithms:
                for mode in self.modes:
                    ms = pt.makespans.get(alg, {}).get(mode)
                    row += f"{ms:>15.1f}" if ms is not None else f"{'-':>15}"
                if gaps:
                    for num in ("oblivious", "adaptive"):
                        ratio = pt.ratio(alg, num)
                        row += f"{ratio:>10.2f}" if ratio == ratio else f"{'-':>10}"
            lines.append(row)
        return "\n".join(lines)


def dynamic_scenario(
    scenario: str,
    severity: float,
    *,
    p: int = 8,
    mu: int = 8,
    scale: float = 1.0,
    onset_frac: float = 0.3,
    recover_frac: float | None = None,
) -> tuple["Platform", BlockGrid, "PlatformTimeline"]:
    """Build one dynamic-platform instance: ``(platform, grid, timeline)``.

    The base platform is homogeneous with synthetic units (``c = 1``,
    ``w = 4 = 2 · (2pc/mu)`` — comfortably compute-bound, so every worker
    enrolls) and a deliberately small chunk side ``mu`` so each worker owns
    several chunks — the granularity online rescheduling needs.  Event
    times are placed at ``onset_frac`` of the steady-state lower bound.

    Scenarios (``severity`` =):
      * ``straggler-onset`` — slowdown factor of worker 0's compute;
      * ``bandwidth-degradation`` — factor on workers 0 and 1's link cost;
      * ``crash-recovery`` — outage length as a fraction of the bound
        (worker 0 crashes, then rejoins).

    With ``recover_frac`` every degraded worker recovers its base
    parameters at that fraction of the bound (straggler / bandwidth
    scenarios; crash-recovery already rejoins).  Transient degradations
    are where boundary-time threshold re-selection earns its keep: a
    recovery boundary has *no* suspects, so generic migration never
    re-enrolls the recovered worker — only re-selection puts it back to
    work (see ``benchmarks/test_bench_reselect.py``).
    """
    from ..platform.model import Platform, Worker
    from ..sim.dynamic import PlatformTimeline

    if scenario not in DYNAMIC_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; known: {DYNAMIC_SCENARIOS}")
    if severity <= 0:
        raise ValueError("severity must be positive")
    c = 1.0
    w = 4.0 * p * c / mu  # 2 × the enroll-everyone threshold 2pc/mu
    m = mu * mu + 4 * mu
    platform = Platform(
        [Worker(i, c, w, m) for i in range(p)], name=f"dyn-{scenario}-{severity:g}"
    )
    grid = BlockGrid(
        r=max(1, round(24 * scale)),
        t=max(2, round(20 * scale)),
        s=max(p, round(240 * scale)),
        q=4,
    )
    bound = makespan_lower_bound(platform, grid)
    at = onset_frac * bound
    timeline = PlatformTimeline()
    if scenario == "straggler-onset":
        timeline.straggle(at, 0, severity)
    elif scenario == "bandwidth-degradation":
        timeline.set_bandwidth(at, 0, c * severity)
        timeline.set_bandwidth(at, 1, c * severity)
    else:  # crash-recovery
        timeline.crash(at, 0)
        timeline.join(at + severity * bound, 0)
    if recover_frac is not None and scenario != "crash-recovery":
        if recover_frac <= onset_frac:
            raise ValueError("recover_frac must come after onset_frac")
        for widx in sorted({ev.worker for ev in timeline.events}):
            timeline.recover(recover_frac * bound, widx)
    return platform, grid, timeline


#: Scenario -> :func:`repro.sim.dynamic.random_timeline` family, for the
#: stochastic sweep mode.
_SCENARIO_FAMILIES = {
    "straggler-onset": "straggler",
    "bandwidth-degradation": "bandwidth",
    "crash-recovery": "crash",
}


def dynamic_sweep(
    scenario: str = "straggler-onset",
    severities: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    *,
    algorithms: Sequence[str] = ("Het", "ODDOML"),
    modes: Sequence[str] | None = None,
    p: int = 8,
    mu: int = 8,
    scale: float = 1.0,
    onset_frac: float = 0.3,
    recover_frac: float | None = None,
    stochastic: bool = False,
    seed: int = 0,
    rate: float = 3.0,
    cache=None,
    redundancy: int = 1,
    decode_k: int | None = None,
    objective=None,
) -> DynamicSweep:
    """Quantify oblivious vs adaptive vs reselect vs clairvoyant scheduling
    on one dynamic scenario across severities.

    Every base algorithm is evaluated through
    :class:`~repro.schedulers.adaptive.AdaptiveScheduler` in each mode;
    combinations that cannot be scheduled (or stall on a permanent crash)
    are left out of the point's ``makespans``.  ``recover_frac`` makes the
    scripted degradations transient (see :func:`dynamic_scenario`).

    The coded-redundancy family races on the *redundancy* axis instead of
    the replanning one: naming ``"Coded"`` or ``"CodedRL"`` in
    ``algorithms`` runs that scheduler's decode-aware
    :meth:`~repro.schedulers.coded._CodedBase.run_dynamic` once per
    severity under the pseudo-mode ``"coded"`` (appended to the sweep's
    mode columns; the replanning modes show ``-`` for it and vice versa).
    ``redundancy`` / ``decode_k`` parameterize those schedulers.

    With ``stochastic`` each severity's scripted timeline is replaced by a
    seeded random Poisson event process of the scenario's family
    (:func:`~repro.sim.dynamic.random_timeline`; ``rate`` expected events
    over the steady-state-bound horizon).  ``severity`` then scales the
    event magnitudes: the degradation-factor range for straggler /
    bandwidth scenarios (clamped to the generator's 1.5 floor — a
    stochastic point labeled below 1.5 draws 1.5× degradations, unlike the
    scripted mode which applies the literal factor), the outage fraction
    for crash-recovery.  The draw is deterministic in ``(seed, scenario,
    severity)``, so a sweep is reproducible from its seed alone.

    ``cache`` (a path or :class:`~repro.experiments.parallel.ResultCache`)
    skips runs whose content-addressed payload is already stored.  Keys
    come from :func:`~repro.experiments.parallel.dynamic_task_key`: they
    cover the full event content of the timeline *plus* the stochastic
    generator spec (seed/family/severity/rate), so re-running with a
    different seed or rate can never surface another draw's stale
    makespans; reselect-mode payloads are additionally keyed on the batch
    engine version their boundary re-searches ran under.

    ``objective`` (a name, spec string, or
    :class:`~repro.experiments.objectives.Objective`) is applied to every
    base scheduler; the adaptive wrappers inherit it for their boundary
    decisions, and the signatures it folds into keep cached payloads per
    objective.
    """
    import random as _random

    from ..schedulers.adaptive import DYNAMIC_MODES
    from ..schedulers.coded import CodedScheduler, RatelessCodedScheduler
    from ..sim.dynamic import random_timeline

    if stochastic and recover_frac is not None:
        raise ValueError(
            "recover_frac applies to scripted timelines only; stochastic "
            "draws schedule their own recovery events (see random_timeline)"
        )
    coded_family = {"Coded": CodedScheduler, "CodedRL": RatelessCodedScheduler}
    mode_list = list(modes) if modes is not None else list(DYNAMIC_MODES)
    display_modes = list(mode_list)
    if any(name in coded_family for name in algorithms) and "coded" not in display_modes:
        display_modes.append("coded")
    store = _as_cache(cache)
    sweep = DynamicSweep(
        scenario=scenario, algorithms=list(algorithms), modes=display_modes
    )
    for severity in severities:
        with trace("sweep.point", scenario=scenario, severity=severity):
            platform, grid, timeline = dynamic_scenario(
                scenario,
                severity,
                p=p,
                mu=mu,
                scale=scale,
                onset_frac=onset_frac,
                recover_frac=recover_frac,
            )
            generator = ""
            if stochastic:
                rng = _random.Random(f"{seed}|{scenario}|{severity!r}")
                horizon = makespan_lower_bound(platform, grid)
                if scenario == "crash-recovery":
                    timeline = random_timeline(
                        rng, "crash", platform, horizon, rate=rate, outage_frac=severity
                    )
                else:
                    timeline = random_timeline(
                        rng,
                        _SCENARIO_FAMILIES[scenario],
                        platform,
                        horizon,
                        rate=rate,
                        severity=max(severity, 1.5),
                    )
                generator = (
                    f"stochastic:{seed}|{_SCENARIO_FAMILIES[scenario]}|"
                    f"{severity!r}|{rate!r}"
                )
            final = timeline.final_platform(platform)
            runs: list[tuple[str, DynamicTask]] = []
            for name in algorithms:
                if name in coded_family:
                    # Coded schedulers decode-complete instead of replanning:
                    # one run per severity under the pseudo-mode "coded".
                    sched = coded_family[name](redundancy=redundancy, k=decode_k)
                    pairs = [(sched, "coded")]
                else:
                    pairs = [
                        (make_scheduler(name, objective=objective), mode)
                        for mode in mode_list
                        if mode != "coded"
                    ]
                runs += [
                    (
                        name,
                        DynamicTask(
                            sched, mode, platform, grid, timeline, generator=generator
                        ),
                    )
                    for sched, mode in pairs
                ]
            payloads = run_tasks([task for _name, task in runs], cache=store)
            makespans: dict[str, dict[str, float]] = {}
            for (name, task), payload in zip(runs, payloads):
                if "error" not in payload:
                    makespans.setdefault(name, {})[task.mode] = payload["makespan"]
            sweep.points.append(
                DynamicPoint(
                    severity=severity,
                    makespans=makespans,
                    bound=makespan_lower_bound(final, grid),
                )
            )
    return sweep
