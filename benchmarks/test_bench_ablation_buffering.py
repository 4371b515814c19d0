"""Ablation: what the overlapped layout's double buffering actually buys.

The paper's design argument: two spare rounds of buffers (mu^2 + 4mu
layout) let a worker's communication overlap its computation; Toledo's
layout has no spare buffers and serializes.  We quantify by running the
*same* demand-driven schedule with prefetch depth 2 vs 1, and the strict
Algorithm-1 order vs the ready-order policy.
"""

from repro.core.blocks import BlockGrid
from repro.platform.generators import memory_heterogeneous, scale_grid, scale_platform
from repro.schedulers.demand_driven import ODDOMLScheduler
from repro.schedulers.homogeneous import HomScheduler
from repro.sim.engine import simulate


def _depth_ablation(scale: float):
    plat = scale_platform(memory_heterogeneous(), scale) if scale != 1.0 else memory_heterogeneous()
    grid = scale_grid(BlockGrid.paper_instance(80_000), scale)
    sched = ODDOMLScheduler()
    out = {}
    for depth in (1, 2, 3, 4):
        plan = sched.plan(plat, grid)
        plan.depths = [depth] * plat.p
        out[depth] = simulate(plat, plan, grid).makespan
    return out


def test_prefetch_depth(benchmark, bench_scale, emit):
    res = benchmark.pedantic(lambda: _depth_ablation(bench_scale), rounds=1, iterations=1)
    base = res[2]
    lines = ["Prefetch-depth ablation (demand-driven schedule, memory-het platform)"]
    for depth, mk in sorted(res.items()):
        lines.append(f"  depth {depth}: makespan {mk:>10.1f}s ({mk / base:>6.3f}x of depth 2)")
    lines.append("depth 1 = Toledo-style no overlap; depth 2 = the paper's layout")
    emit("ablation_prefetch", "\n".join(lines))
    assert res[1] >= res[2] - 1e-9  # overlap never hurts
    assert res[2] <= res[1]  # double buffering is the win
    # diminishing returns beyond the paper's choice
    assert abs(res[3] - res[2]) / base < abs(res[1] - res[2]) / base + 1e-9


def test_strict_vs_ready_order(benchmark, bench_scale, emit):
    """Algorithm 1's fixed order vs opportunistic ready-order service of the
    same homogeneous chunk assignment."""
    plat = (
        scale_platform(memory_heterogeneous(), bench_scale)
        if bench_scale != 1.0
        else memory_heterogeneous()
    )
    grid = scale_grid(BlockGrid.paper_instance(80_000), bench_scale)

    def run():
        from repro.sim.policies import ReadyPolicy, selection_order_priority

        sched = HomScheduler()
        strict_plan = sched.plan(plat, grid)
        strict = simulate(plat, strict_plan, grid).makespan
        ready_plan = sched.plan(plat, grid)
        ready_plan.policy = ReadyPolicy(selection_order_priority)
        ready = simulate(plat, ready_plan, grid).makespan
        return strict, ready

    strict, ready = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_port_order",
        "Port service ablation (Hom assignment, memory-het platform)\n"
        f"  strict Algorithm-1 order : {strict:>10.1f}s\n"
        f"  ready-order service      : {ready:>10.1f}s ({ready / strict:.3f}x)",
    )
    # Algorithm 1's interleaving is already near-optimal: ready order should
    # not beat it by much, nor lose by much
    assert 0.8 <= ready / strict <= 1.2
