"""Command-line interface: ``repro-mm`` (or ``python -m repro``).

Subcommands
-----------
``figure``    run one paper figure (fig4..fig8) and print relative tables
``summary``   run the Figure 9 cross-experiment summary
``run``       run one algorithm on one platform/grid with full event
              traces, print details/Gantt (``--execute``
              performs the schedule for real on the threaded runtime and
              checks the result against C + A @ B)
``serve``     multi-process scheduling service: admit N concurrent
              matrix-product jobs onto a sharded worker-process pool
``sweep``     relative cost vs degree of heterogeneity
``dynamic``   dynamic-platform scenarios: oblivious/adaptive/reselect/clairvoyant
``profile``   run a figure or dynamic scenario under the tracer, print a
              phase-attribution table (planning/simulation/cache)
``bounds``    print the Section 3 CCR bounds for a memory size
``table2``    demonstrate the bandwidth-centric memory infeasibility
``platforms`` list the built-in platform generators

Every subcommand takes the same two process-wide options, defined once
on a shared parent parser: ``--kernel`` picks the simulation kernel
backend (it sets ``REPRO_KERNEL`` before dispatch, so planning searches,
replays and worker processes all use it), and ``--trace FILE`` (or
``REPRO_TRACE=FILE``) writes a Chrome/Perfetto-loadable trace of the
whole invocation -- open it at https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core.blocks import BlockGrid
from .experiments.figures import FIGURES, run_figure, run_summary
from .experiments.report import format_fig9, format_relative_table, format_summary
from .experiments.table2 import table2_demo
from .platform import generators as gen
from .schedulers.registry import SCHEDULERS, canonical_name, make_scheduler
from .sim.kernels import KERNEL_ENV, KERNEL_NAMES
from .sim.trace import gantt_ascii, worker_utilization
from .theory import bounds as th_bounds
from .theory import ccr as th_ccr

__all__ = ["main", "build_parser"]

_PLATFORMS = {
    "memory-het": gen.memory_heterogeneous,
    "comm-het": gen.comm_heterogeneous,
    "comp-het": gen.comp_heterogeneous,
    "fully-het-2": lambda: gen.fully_heterogeneous(2.0),
    "fully-het-4": lambda: gen.fully_heterogeneous(4.0),
    "real-aug2007": gen.real_platform_aug2007,
    "real-nov2006": gen.real_platform_nov2006,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mm",
        description="Matrix product on heterogeneous master-worker platforms (PPoPP'08)",
    )
    # process-wide options, inherited by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--kernel",
        default=None,
        choices=KERNEL_NAMES,
        help="simulation kernel backend of this process -- planning "
        "searches, replay and worker processes alike (sets "
        "$REPRO_KERNEL; default: $REPRO_KERNEL, else 'c' when its kernels "
        "build here and 'numpy' otherwise); all backends are "
        "bit-identical, and a requested backend that is unavailable "
        "falls back to numpy with a warning",
    )
    common.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome/Perfetto trace of this invocation to FILE "
        "(also enabled by REPRO_TRACE=FILE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def algorithm_type(value: str):
        try:
            return canonical_name(value)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def add_objective_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--objective",
            default=None,
            metavar="OBJ",
            help="scoring objective: 'makespan' (default), 'cost' (dollars: "
            "per-worker-second + per-byte port traffic), 'cost@SECONDS' "
            "(cheapest schedule meeting a deadline), or 'blend:WEIGHT' "
            "(makespan + WEIGHT x dollars)",
        )

    def parallel_type(value: str):
        if value == "auto":
            return "auto"
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer or 'auto', got {value!r}"
            ) from None
        if n < 0:
            raise argparse.ArgumentTypeError("worker count must be >= 0")
        return n

    def add_runner_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--parallel",
            default=None,
            type=parallel_type,
            metavar="N",
            help="fan runs out over N worker processes ('auto' = one per core)",
        )
        p.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="content-addressed result cache directory (reruns become lookups)",
        )
        add_objective_opt(p)

    p_fig = sub.add_parser("figure", parents=[common], help="run one paper figure")
    p_fig.add_argument("fig", choices=sorted(FIGURES))
    p_fig.add_argument("--scale", type=float, default=1.0, help="problem scale (1.0 = paper)")
    p_fig.add_argument("--algorithms", default=None, help="comma-separated subset")
    p_fig.add_argument(
        "--validate",
        action="store_true",
        help="simulate with full event traces and audit them",
    )
    add_runner_opts(p_fig)

    p_sum = sub.add_parser("summary", parents=[common], help="run the Figure 9 summary")
    p_sum.add_argument("--scale", type=float, default=0.3)
    p_sum.add_argument("--figures", default="fig4,fig5,fig6,fig7,fig8")
    add_runner_opts(p_sum)

    p_run = sub.add_parser("run", parents=[common], help="run one algorithm on one instance")
    p_run.add_argument(
        "--algorithm",
        default="Het",
        type=algorithm_type,
        choices=sorted(SCHEDULERS),
        help="algorithm (case-insensitive registry name)",
    )
    p_run.add_argument(
        "--geometry",
        default="grid",
        choices=("grid", "layer"),
        help="partition geometry: the paper's square-chunk column panels "
        "(default) or layer-based horizontal bands (Hom/HomI/Het only; "
        "equivalent to the HomL/HomIL/HetL registry variants)",
    )
    p_run.add_argument("--platform", default="memory-het", choices=sorted(_PLATFORMS))
    p_run.add_argument("--scale", type=float, default=0.2)
    p_run.add_argument("--r", type=int, default=None, help="block rows (overrides scale)")
    p_run.add_argument("--t", type=int, default=None)
    p_run.add_argument("--s", type=int, default=None)
    p_run.add_argument(
        "--q", type=int, default=None, help="block side in elements (default: paper's 80)"
    )
    p_run.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_run.add_argument(
        "--execute",
        action="store_true",
        help="perform the schedule for real on the threaded runtime "
        "(worker threads, numpy block arithmetic) and report wall-clock "
        "stats plus the max error against C + A @ B",
    )
    p_run.add_argument("--save", default=None, metavar="FILE", help="write the result as JSON")
    p_run.add_argument(
        "--platform-file", default=None, metavar="FILE", help="load the platform from JSON"
    )
    add_objective_opt(p_run)

    p_srv = sub.add_parser(
        "serve",
        parents=[common],
        help="multi-process scheduling service: admit concurrent jobs "
        "onto a sharded worker-process pool",
    )
    p_srv.add_argument("--jobs", type=int, default=4, help="matrix-product jobs to submit")
    p_srv.add_argument("--platform", default="memory-het", choices=sorted(_PLATFORMS))
    p_srv.add_argument(
        "--hom",
        default=None,
        metavar="P:C:W:M",
        help="use a homogeneous platform instead (worker count : c : w : "
        "memory-in-blocks, e.g. 8:1:1:45)",
    )
    p_srv.add_argument("--scale", type=float, default=0.15, help="platform/grid scale")
    p_srv.add_argument(
        "--algorithm",
        default="HomI",
        type=algorithm_type,
        choices=sorted(SCHEDULERS),
        help="admission-time planner, case-insensitive (Hom/HomI = the "
        "paper's threshold search as admission controller)",
    )
    p_srv.add_argument("--r", type=int, default=None, help="block rows (overrides scale)")
    p_srv.add_argument("--t", type=int, default=None)
    p_srv.add_argument("--s", type=int, default=None)
    p_srv.add_argument(
        "--q", type=int, default=8, help="block side in elements (small default: "
        "service jobs move real matrices through process queues)"
    )
    p_srv.add_argument(
        "--max-workers-per-job",
        type=int,
        default=None,
        metavar="N",
        help="hard shard cap: admission only sees the first N free workers",
    )
    p_srv.add_argument(
        "--serial",
        action="store_true",
        help="admit one job at a time (the serial throughput baseline)",
    )
    p_srv.add_argument("--seed", type=int, default=0, help="job-instance RNG seed")
    add_objective_opt(p_srv)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="relative cost vs degree of heterogeneity"
    )
    p_sweep.add_argument("--scale", type=float, default=0.25)
    p_sweep.add_argument(
        "--ratios", default="1.01,1.5,2,3,4,6,8", help="comma-separated ratio list"
    )
    add_runner_opts(p_sweep)

    from .experiments.sweeps import DYNAMIC_SCENARIOS
    from .schedulers.adaptive import DYNAMIC_MODES

    p_dyn = sub.add_parser(
        "dynamic",
        parents=[common],
        help="dynamic-platform scenarios: oblivious vs adaptive vs clairvoyant",
    )
    p_dyn.add_argument("--scenario", default="straggler-onset", choices=DYNAMIC_SCENARIOS)
    p_dyn.add_argument(
        "--severities",
        default="2,4,8,16",
        help="comma-separated severity list (slowdown / bandwidth factor / "
        "outage fraction, per scenario)",
    )
    p_dyn.add_argument(
        "--algorithms", default="Het,ODDOML", help="comma-separated subset"
    )
    p_dyn.add_argument(
        "--modes",
        default="oblivious,adaptive,clairvoyant",
        help=f"comma-separated evaluation modes (known: {','.join(DYNAMIC_MODES)})",
    )
    p_dyn.add_argument(
        "--reselect",
        action="store_true",
        help="also evaluate mode=reselect: scenario-aware threshold "
        "re-selection for Hom/HomI at every event boundary (shared-prefix "
        "incremental batch re-search; other bases fall back to adaptive)",
    )
    p_dyn.add_argument(
        "--scheduler",
        action="append",
        default=None,
        choices=("coded", "coded-rl"),
        metavar="NAME",
        help="also race a coded-redundancy scheduler (coded = fixed-rate "
        "k+r shares per stripe, coded-rl = rateless streaming); repeatable",
    )
    p_dyn.add_argument(
        "--redundancy",
        type=int,
        default=1,
        help="extra coded shares per stripe beyond the decode threshold",
    )
    p_dyn.add_argument(
        "--decode-k",
        type=int,
        default=None,
        metavar="K",
        help="decode threshold k (shares needed per stripe; default min(4, t))",
    )
    p_dyn.add_argument("--scale", type=float, default=0.5, help="problem scale")
    p_dyn.add_argument("--workers", type=int, default=8, help="platform size p")
    p_dyn.add_argument(
        "--onset", type=float, default=0.3, help="event time as a fraction of the bound"
    )
    p_dyn.add_argument(
        "--recover",
        type=float,
        default=None,
        metavar="FRAC",
        help="degraded workers recover at this fraction of the bound "
        "(transient degradations — where re-selection can re-enroll)",
    )
    p_dyn.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed dynamic result cache (keys cover the full "
        "timeline content and the stochastic seed/rate)",
    )
    p_dyn.add_argument(
        "--stochastic",
        action="store_true",
        help="replace each severity's scripted timeline with a seeded random "
        "Poisson event process of the scenario's family",
    )
    p_dyn.add_argument(
        "--seed", type=int, default=0, help="stochastic timeline seed (reproducible)"
    )
    p_dyn.add_argument(
        "--rate",
        type=float,
        default=3.0,
        help="expected stochastic events over the steady-state-bound horizon",
    )
    add_objective_opt(p_dyn)

    p_prof = sub.add_parser(
        "profile",
        parents=[common],
        help="run a small workload under the tracer and print where the "
        "time went (planning vs simulation vs cache)",
    )
    target = p_prof.add_mutually_exclusive_group()
    target.add_argument(
        "--figure",
        default=None,
        choices=sorted(FIGURES),
        metavar="FIG",
        help="profile one paper figure (default: fig7)",
    )
    target.add_argument(
        "--dynamic",
        default=None,
        metavar="SCENARIO",
        choices=DYNAMIC_SCENARIOS,
        help="profile a dynamic-platform scenario instead of a figure",
    )
    p_prof.add_argument("--scale", type=float, default=0.3, help="problem scale")
    p_prof.add_argument("--algorithms", default=None, help="comma-separated subset")
    p_prof.add_argument(
        "--severity", type=float, default=8.0, help="dynamic scenario severity"
    )
    p_prof.add_argument(
        "--modes",
        default="oblivious,adaptive",
        help="dynamic evaluation modes (comma-separated)",
    )

    p_bounds = sub.add_parser("bounds", parents=[common], help="Section 3 CCR bounds")
    p_bounds.add_argument("--memory", type=int, default=5242, help="worker memory in blocks")
    p_bounds.add_argument("--t", type=int, default=100)

    sub.add_parser(
        "table2", parents=[common], help="bandwidth-centric memory infeasibility demo"
    )
    sub.add_parser("platforms", parents=[common], help="list built-in platforms")
    return parser


def _algorithms(spec: str | None):
    if spec is None:
        return None
    return [make_scheduler(name.strip()) for name in spec.split(",") if name.strip()]


def _cmd_figure(args: argparse.Namespace) -> int:
    res = run_figure(
        args.fig,
        args.scale,
        _algorithms(args.algorithms),
        validate=args.validate,
        parallel=args.parallel,
        cache=args.cache,
        objective=args.objective,
    )
    print(format_relative_table(res, "cost"))
    print()
    print(format_relative_table(res, "work"))
    print()
    print(format_summary(res, "cost"))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    res = run_summary(
        args.scale,
        figures=figures,
        parallel=args.parallel,
        cache=args.cache,
        objective=args.objective,
    )
    print(format_fig9(res))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.platform_file:
        from .utils.persist import load_platform

        platform = load_platform(args.platform_file)
    else:
        platform = _PLATFORMS[args.platform]()
        if args.scale != 1.0:
            platform = gen.scale_platform(platform, args.scale)
    base = gen.scale_grid(BlockGrid.paper_instance(), args.scale)
    grid = BlockGrid(
        r=args.r or base.r,
        t=args.t or base.t,
        s=args.s or base.s,
        q=args.q or base.q,
    )
    algorithm = args.algorithm
    if args.geometry == "layer" and not algorithm.endswith("L"):
        layered = f"{algorithm}L"
        if layered not in SCHEDULERS:
            print(
                f"error: --geometry layer is not available for {algorithm} "
                "(layer variants exist for Hom/HomI/Het)",
                file=sys.stderr,
            )
            return 2
        algorithm = layered
    sched = make_scheduler(algorithm, objective=args.objective)
    from .schedulers.base import SchedulingError

    try:
        res = sched.run(platform, grid)
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(platform.describe())
    print(f"\ngrid: {grid}\nalgorithm: {sched.name}\n")
    print(res.summary())
    if args.objective:
        from .experiments.objectives import make_objective

        obj = make_objective(args.objective)
        print(
            f"objective: {obj.signature}  score = "
            f"{obj.evaluate_result(res):g}  dollars = "
            f"{obj.result_dollars(res):g}"
        )
    util = worker_utilization(res)
    print("worker compute utilization: " + ", ".join(f"P{w + 1}:{u:.0%}" for w, u in util.items()))
    if res.meta.get("variant"):
        print(f"selection variant: {res.meta['variant']}")
    from .sim.analysis import analyze

    print("\n" + analyze(res).report())
    if args.gantt:
        print()
        print(gantt_ascii(res, width=100))
    if args.execute:
        import numpy as np

        from .execution.executor import random_instance, reference_product
        from .runtime.local import ThreadedRuntime

        a, b, c = random_instance(grid, rng=0)
        got, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        err = float(np.max(np.abs(got - reference_product(a, b, c))))
        print(
            f"\nthreaded execution: {stats.wall_seconds:.3f}s wall, "
            f"{stats.messages} messages, {stats.total_updates} block updates "
            f"across {len([u for u in stats.updates_per_worker.values() if u])} "
            f"workers\noverlap fraction    : {stats.overlap_fraction:.1%}\n"
            f"max |err| vs C + A@B: {err:.2e}"
        )
    if args.save:
        from .utils.persist import save_result

        save_result(res, args.save, include_events=True)
        print(f"\nresult written to {args.save}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from .execution.executor import random_instance, reference_product
    from .platform.model import Platform
    from .service import SchedulingService

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.hom is not None:
        try:
            p_raw, c_raw, w_raw, m_raw = args.hom.split(":")
            platform = Platform.homogeneous(
                int(p_raw), float(c_raw), float(w_raw), int(m_raw), name="serve-hom"
            )
        except ValueError:
            print(
                f"error: --hom expects P:C:W:M (e.g. 8:1:1:45), got {args.hom!r}",
                file=sys.stderr,
            )
            return 2
    else:
        platform = _PLATFORMS[args.platform]()
        if args.scale != 1.0:
            platform = gen.scale_platform(platform, args.scale)
    base = gen.scale_grid(BlockGrid.paper_instance(), args.scale)
    grid = BlockGrid(
        r=args.r or base.r, t=args.t or base.t, s=args.s or base.s, q=args.q
    )
    print(platform.describe())
    print(
        f"\ngrid: {grid}\nadmission planner: {args.algorithm}"
        f"{' (serial baseline)' if args.serial else ''}\n"
    )
    rng = np.random.default_rng(args.seed)
    with SchedulingService(
        platform,
        algorithm=args.algorithm,
        max_workers_per_job=args.max_workers_per_job,
        max_concurrent_jobs=1 if args.serial else None,
        objective=args.objective,
    ) as svc:
        specs = [
            svc.make_job(grid, *random_instance(grid, rng)) for _ in range(args.jobs)
        ]
        stats = svc.run_jobs(specs)
    by_id = {spec.job_id: spec for spec in specs}
    max_err = max(
        float(
            np.max(
                np.abs(
                    r.output
                    - reference_product(
                        by_id[r.job_id].a, by_id[r.job_id].b, by_id[r.job_id].c
                    )
                )
            )
        )
        for r in stats.per_job
    )
    print(stats.table())
    print(f"\nall outputs checked against C + A @ B: max |err| = {max_err:.2e}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import heterogeneity_sweep

    ratios = tuple(float(x) for x in args.ratios.split(",") if x.strip())
    sweep = heterogeneity_sweep(
        ratios,
        scale=args.scale,
        parallel=args.parallel,
        cache=args.cache,
        objective=args.objective,
    )
    print(
        f"relative cost vs heterogeneity ratio (fully-het platforms, scale {args.scale})"
    )
    print(sweep.table())
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from .experiments.sweeps import dynamic_sweep

    if args.stochastic and args.recover is not None:
        print(
            "error: --recover applies to scripted timelines only; "
            "--stochastic draws its own recovery events",
            file=sys.stderr,
        )
        return 2
    severities = tuple(float(x) for x in args.severities.split(",") if x.strip())
    try:
        algorithms = tuple(
            canonical_name(a.strip()) for a in args.algorithms.split(",") if a.strip()
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if args.reselect and "reselect" not in modes:
        # keep clairvoyant last so the table's ratio columns stay meaningful
        at = modes.index("clairvoyant") if "clairvoyant" in modes else len(modes)
        modes.insert(at, "reselect")
    if args.scheduler:
        coded_names = {"coded": "Coded", "coded-rl": "CodedRL"}
        for spec in args.scheduler:
            name = coded_names[spec]
            if name not in algorithms:
                algorithms = algorithms + (name,)
    sweep = dynamic_sweep(
        args.scenario,
        severities,
        algorithms=algorithms,
        modes=tuple(modes),
        p=args.workers,
        scale=args.scale,
        onset_frac=args.onset,
        recover_frac=args.recover,
        stochastic=args.stochastic,
        seed=args.seed,
        rate=args.rate,
        cache=args.cache,
        redundancy=args.redundancy,
        decode_k=args.decode_k,
        objective=args.objective,
    )
    if args.stochastic:
        print(
            f"{args.scenario} — stochastic timelines (seed {args.seed}, "
            f"~{args.rate:g} events per run; rerun with --seed {args.seed} "
            f"to reproduce; p={args.workers}, scale {args.scale})"
        )
    else:
        print(
            f"{args.scenario} (p={args.workers}, scale {args.scale}, event at "
            f"{args.onset:g}× the steady-state bound)"
        )
    print(sweep.table())
    if "clairvoyant" in modes and "oblivious" in modes:
        print(
            "\nobl/clv = what ignoring the events costs; adp/clv = how much "
            "of that online rescheduling recovers (1.00 = clairvoyant)"
        )
    return 0


# phase vocabulary for ``repro-mm profile`` (see docs/architecture.md);
# each span name is charged to exactly one phase, outermost-first
_PROFILE_PHASES = {
    "planning": {"plan"},
    "simulation": {
        "simulate",
        "simulate_dynamic",
        "batch.compile",
        "batch.run",
        "boundary",
        "runtime.execute",
        "kernel.build",
    },
    "cache": {"cache"},
}


def _cmd_profile(args: argparse.Namespace) -> int:
    from .experiments.sweeps import dynamic_sweep
    from .obs import (
        disable_tracing,
        enable_tracing,
        phase_attribution,
        snapshot,
        snapshot_delta,
        trace,
        tracing_enabled,
    )

    created = not tracing_enabled()
    tracer = enable_tracing()
    before = snapshot()
    try:
        if args.dynamic is not None:
            algorithms = tuple(
                a.strip() for a in (args.algorithms or "Het").split(",") if a.strip()
            )
            modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
            with trace(
                "profile", target=args.dynamic, severity=args.severity
            ) as root:
                dynamic_sweep(
                    args.dynamic,
                    (args.severity,),
                    algorithms=algorithms,
                    modes=modes,
                    scale=args.scale,
                )
            label = f"dynamic scenario {args.dynamic} (severity {args.severity:g})"
        else:
            fig = args.figure or "fig7"
            with trace("profile", target=fig) as root:
                run_figure(fig, args.scale, _algorithms(args.algorithms))
            label = f"figure {fig}"
        metrics = snapshot_delta(before)
    finally:
        if created:
            disable_tracing()

    total = root.wall_seconds
    phases = phase_attribution([root], _PROFILE_PHASES)
    other = max(0.0, total - sum(phases.values()))
    print(f"profile: {label}, scale {args.scale:g}")
    print(f"{'phase':<12}{'seconds':>10}{'share':>8}")
    for name, secs in [*phases.items(), ("other", other), ("total", total)]:
        share = secs / total if total > 0 else 0.0
        print(f"{name:<12}{secs:>10.3f}{share:>7.1%}")
    interesting = (
        "plan.seconds",
        "batch.compile_seconds",
        "batch.step_seconds",
        "sim.fast_runs",
        "sim.fast_seconds",
        "dynamic.segments",
        "adaptive.boundary_seconds",
        "cache.result.hits",
        "cache.result.misses",
    )
    lines = []
    for key in interesting:
        if key in metrics:
            val = metrics[key]
            if isinstance(val, dict):
                val = f"{val['seconds']:.3f}s /{val['count']}"
            lines.append(f"  {key} = {val}")
    if lines:
        print("metrics:")
        print("\n".join(lines))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    m, t = args.memory, args.t
    print(f"memory m = {m} blocks, t = {t}")
    print(f"  lower bound (this paper)   sqrt(27/8m) : {th_bounds.ccr_lower_bound(m):.6f}")
    print(f"  lower bound (Toledo et al.) sqrt(1/8m) : {th_bounds.toledo_ccr_lower_bound(m):.6f}")
    print(f"  maximum re-use CCR      2/t + 2/mu     : {th_ccr.max_reuse_ccr(m, t):.6f}")
    print(f"  maximum re-use CCR_inf  2/mu           : {th_ccr.max_reuse_ccr_asymptotic(m):.6f}")
    print(f"  Toledo layout CCR       2/t + 2/sigma  : {th_ccr.toledo_ccr(m, t):.6f}")
    print(f"  optimality gap of max re-use           : {th_ccr.optimality_gap(m):.4f} (-> sqrt(32/27) = 1.0887)")
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    print("Table 2: minimal chunk side mu to reach 80% of the steady-state bound")
    print(f"{'x':>6}{'rho (upd/s)':>14}{'required mu':>13}{'memory (blocks)':>17}")
    for row in table2_demo():
        mu = "unreached" if row.required_mu is None else str(row.required_mu)
        mem = "-" if row.required_memory is None else str(row.required_memory)
        print(f"{row.x:>6g}{row.rho:>14.4f}{mu:>13}{mem:>17}")
    print("(the requirement grows with x: the LP solution needs unbounded buffers)")
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    for _name, factory in sorted(_PLATFORMS.items()):
        print(factory().describe())
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel:
        # one backend per process: planning, replay and inherited workers
        os.environ[KERNEL_ENV] = args.kernel
    handlers = {
        "figure": _cmd_figure,
        "summary": _cmd_summary,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "dynamic": _cmd_dynamic,
        "profile": _cmd_profile,
        "bounds": _cmd_bounds,
        "table2": _cmd_table2,
        "platforms": _cmd_platforms,
    }
    trace_path = args.trace or os.environ.get("REPRO_TRACE")
    if not trace_path:
        return handlers[args.command](args)
    from .obs import enable_tracing, trace, tracing_enabled

    created = not tracing_enabled()
    tracer = enable_tracing()
    try:
        with trace("repro-mm", command=args.command):
            return handlers[args.command](args)
    finally:
        n = tracer.write_chrome(trace_path)
        print(
            f"trace: {n} events written to {trace_path} "
            "(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
        if created:
            from .obs import disable_tracing

            disable_tracing()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
