"""Simulator performance: one-port engine event throughput.

Not a paper figure -- this guards the substrate that every experiment rests
on: a paper-scale figure must stay interactive (hundreds of thousands of
port messages per second).  The kernel-ladder tests time the same strict /
ready recurrence through every rung of the execution stack -- per-run
scalar fast path, per-step numpy batch, and each available compiled
kernel backend (see :mod:`repro.sim.kernels`) -- asserting the rungs stay
bit-identical while the compiled ones get faster.  Each engine rung also
reports its compile time (``BatchEngine`` construction), the cost that
dominates a planning-bound figure.
"""

import time

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.platform.generators import memory_heterogeneous
from repro.schedulers.demand_driven import ODDOMLScheduler
from repro.schedulers.heterogeneous import HetScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.batch import BatchEngine, _plan_steps
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import KERNEL_ENV, available_backends, get_backend
from repro.sim.plan import Plan
from repro.sim.policies import ReadyPolicy, StrictOrderPolicy


def test_engine_throughput_oddoml(benchmark, emit):
    """Messages/second through the demand-driven engine at paper scale."""
    plat = memory_heterogeneous()
    grid = BlockGrid.paper_instance(80_000)
    sched = ODDOMLScheduler()

    def run():
        return sched.run(plat, grid, collect_events=False)

    res = benchmark(run)
    n_msgs = sum(st.chunks for st in res.worker_stats) * (grid.t + 2)
    emit(
        "engine_throughput",
        f"ODDOML paper-scale simulation: ~{n_msgs} port messages, "
        f"{res.total_updates} block updates simulated",
    )
    assert res.total_updates == grid.total_updates


def test_het_planning_cost(benchmark, emit):
    """Full Het planning (8 selection variants + 8 trial simulations)."""
    plat = memory_heterogeneous()
    grid = BlockGrid.paper_instance(80_000)
    sched = HetScheduler()
    plan = benchmark.pedantic(lambda: sched.plan(plat, grid), rounds=1, iterations=1)
    emit(
        "het_planning",
        f"Het planning at paper scale: variant={plan.meta['variant']}, "
        f"selections={plan.meta['selections']}, "
        f"enrolled={plan.meta['enrolled']}",
    )
    assert plan.meta["variant"] in plan.meta["variant_makespans"]


# ----------------------------------------------------------------------
# the kernel ladder: scalar -> per-step numpy -> compiled whole-run
# ----------------------------------------------------------------------
_LADDER_B = 16
_LADDER_ROUNDS = 5


def _clone(plan: Plan) -> Plan:
    if isinstance(plan.policy, StrictOrderPolicy):
        policy = StrictOrderPolicy(plan.policy.order)
    else:
        policy = ReadyPolicy(plan.policy.priority)
    return Plan(
        assignments=[list(chunks) for chunks in plan.assignments],
        policy=policy,
        depths=list(plan.depths),
        c_mode=plan.c_mode,
    )


def _time_engine(engine: BatchEngine, rounds: int = _LADDER_ROUNDS) -> float:
    """Best-of-N wall time of one full batch replay (state restored between
    rounds, so compile cost is excluded)."""
    token = engine.checkpoint()
    best = float("inf")
    for _ in range(rounds):
        engine.restore(token)
        t0 = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - t0)
    return best


def _compiled(runs, kernel: str) -> tuple[BatchEngine, float]:
    """A fresh engine over ``runs`` on the ``kernel`` backend (selected
    through the environment, as a user selects it) and its construction
    (compile) time."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv(KERNEL_ENV, kernel)
        t0 = time.perf_counter()
        engine = BatchEngine(runs)
        return engine, time.perf_counter() - t0


def _ladder(scheduler_name: str):
    """Time one paper-scale plan population through every ladder rung.

    Returns ``(steps_per_plan, rows)`` where each row is
    ``(label, seconds, compile_seconds or None, warmup_seconds or None,
    makespans)``.
    """
    plat = memory_heterogeneous()
    grid = BlockGrid.paper_instance(80_000)
    plan = make_scheduler(scheduler_name).plan(plat, grid)
    runs = [(plat, _clone(plan)) for _ in range(_LADDER_B)]

    rows = []
    with pytest.MonkeyPatch.context() as env:
        env.setenv(KERNEL_ENV, "numpy")
        t0 = time.perf_counter()
        scalar = [fast_simulate(p, _clone(pl)).makespan for p, pl in runs]
    rows.append(("scalar", time.perf_counter() - t0, None, None, np.array(scalar)))

    numpy_engine, compile_s = _compiled(runs, "numpy")
    rows.append(
        ("numpy", _time_engine(numpy_engine), compile_s, None, numpy_engine.makespans())
    )

    for name in available_backends():
        if name == "numpy":
            continue
        backend = get_backend(name)
        t0 = time.perf_counter()
        backend.ensure_ready()  # C build+load, timed separately
        warmup = time.perf_counter() - t0
        engine, compile_s = _compiled([(plat, _clone(plan)) for _ in range(_LADDER_B)], name)
        rows.append((name, _time_engine(engine), compile_s, warmup, engine.makespans()))
    return _plan_steps(plan), rows


def _report_ladder(name: str, scheduler_name: str, emit) -> None:
    steps, rows = _ladder(scheduler_name)
    base = dict((label, secs) for label, secs, _c, _w, _m in rows)["numpy"]
    reference = rows[0][4]
    lines = [
        f"{name}: {scheduler_name} plan, {steps} steps x {_LADDER_B} instances "
        f"(run: best of {_LADDER_ROUNDS}; compile: BatchEngine construction)"
    ]
    data = {"steps": steps, "batch": _LADDER_B, "rungs": {}}
    for label, secs, compile_s, warmup, makespans in rows:
        assert np.array_equal(makespans, reference), label  # bit-identical
        extra = f", compile {compile_s * 1e3:.2f} ms" if compile_s is not None else ""
        if warmup is not None:
            extra += f", warm-up {warmup * 1e3:.1f} ms"
        lines.append(
            f"  {label:>7}: {secs * 1e3:8.2f} ms  ({base / secs:6.1f}x vs numpy{extra})"
        )
        data["rungs"][label] = {
            "seconds": secs,
            "speedup_vs_numpy": base / secs,
            "compile_seconds": compile_s,
            "warmup_seconds": warmup,
        }
    emit(name, "\n".join(lines), data=data)
    # the compiled backend must beat the per-step numpy path handily
    for label, secs, _c, _w, _m in rows:
        if label == "c":
            assert base / secs >= 3.0, (label, base / secs)


def test_kernel_ladder_strict(emit):
    """Compiled-vs-numpy-vs-scalar ladder on the strict-order recurrence."""
    _report_ladder("kernel_ladder_strict", "Hom", emit)


def test_kernel_ladder_ready(emit):
    """The same ladder through the ready-mode port selection."""
    _report_ladder("kernel_ladder_ready", "ORROML", emit)
