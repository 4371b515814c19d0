"""Section 4: impact of the start-up (C I/O) overhead.

Paper: sequentializing C sends/receives loses 2cP time units every tw,
bounded by mu/t + 2c/(tw); the worked example (c=2, w=4.5, mu=4, t=100,
P=5) loses at most ~4%.  The benchmark verifies the analytic estimate
against a simulation with and without C traffic.
"""

from repro.core.blocks import BlockGrid
from repro.platform.model import Platform
from repro.schedulers.homogeneous import HomScheduler
from repro.sim.engine import simulate
from repro.theory.overhead import c_io_overhead, paper_example


def _measured_overhead() -> tuple[float, float]:
    """Simulated fraction of time attributable to C traffic for the paper's
    example parameters, vs the analytic estimate."""
    c, w, mu, t = 2.0, 4.5, 4, 100
    m = mu * mu + 4 * mu
    est = c_io_overhead(c, w, mu, t)
    plat = Platform.homogeneous(est.n_workers, c, w, m)
    grid = BlockGrid(r=mu, t=t, s=mu * est.n_workers * 3)
    sched = HomScheduler()
    with_c = sched.run(plat, grid, collect_events=False).makespan
    plan = sched.plan(plat, grid)
    from repro.sim.worker_state import CMode

    plan.c_mode = CMode.NONE
    # strip C messages from the strict order: each chunk batch loses its
    # C_SEND and C_RETURN slots
    from repro.schedulers.selection import usable_mus  # noqa: F401  (doc import)

    order = plan.policy.order
    # rebuild: every worker occurrence count per chunk drops by 2
    new_order = []
    counts: dict[int, int] = {}
    per_chunk = t + 2
    for widx in order:
        k = counts.get(widx, 0) % per_chunk
        counts[widx] = counts.get(widx, 0) + 1
        if k == 0 or k == per_chunk - 1:
            continue  # C_SEND / C_RETURN slot
        new_order.append(widx)
    from repro.sim.policies import StrictOrderPolicy

    plan.policy = StrictOrderPolicy(new_order)
    without_c = simulate(plat, plan, grid).makespan
    return (with_c - without_c) / with_c, est.fraction


def test_overhead_example(benchmark, emit):
    measured, estimated = benchmark.pedantic(_measured_overhead, rounds=1, iterations=1)
    est = paper_example()
    text = "\n".join(
        [
            "Section 4 start-up overhead (c=2, w=4.5, mu=4, t=100)",
            f"enrolled workers P        : {est.n_workers} (paper: 5)",
            f"analytic loss fraction    : {est.fraction:.3%} (paper: ~4%)",
            f"analytic bound mu/t+2c/tw : {est.fraction_bound:.3%}",
            f"simulated C-I/O fraction  : {measured:.3%}",
        ]
    )
    emit("overhead", text)
    assert est.n_workers == 5
    assert measured <= est.fraction_bound + 0.02
