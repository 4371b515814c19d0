"""Multi-process scheduling service: job throughput on a sharded pool.

Not a paper figure -- measures the service's reason to exist: a queue of
matrix-product jobs finishes faster when the threshold search admits them
onto disjoint shards of the worker-process pool than when the same pool
serves them one at a time.  Both runs move real numpy blocks through
``multiprocessing`` queues and every output is checked against C + A @ B.
"""

import os
import time

import numpy as np

from repro.core.blocks import BlockGrid
from repro.execution.executor import random_instance, reference_product
from repro.platform.model import Platform
from repro.service import SchedulingService

POOL_SIZE = 8


def _run(platform, grid, jobs, *, serial, seed):
    rng = np.random.default_rng(seed)
    with SchedulingService(
        platform,
        algorithm="HomI",
        max_concurrent_jobs=1 if serial else None,
    ) as svc:
        specs = [svc.make_job(grid, *random_instance(grid, rng)) for _ in range(jobs)]
        t0 = time.perf_counter()
        stats = svc.run_jobs(specs)
        wall = time.perf_counter() - t0
    by_id = {s.job_id: s for s in specs}
    err = max(
        float(
            np.max(
                np.abs(
                    r.output
                    - reference_product(by_id[r.job_id].a, by_id[r.job_id].b, by_id[r.job_id].c)
                )
            )
        )
        for r in stats.per_job
    )
    return stats, wall, err


def test_service_throughput(bench_scale, emit):
    scale = min(bench_scale, 1.0)
    jobs = max(4, round(6 * scale))
    grid = BlockGrid(r=6, t=6, s=12, q=max(8, round(48 * scale)))
    platform = Platform.homogeneous(POOL_SIZE, 1.0, 1.0, 45, name="service-pool")

    conc, wall_c, err_c = _run(platform, grid, jobs, serial=False, seed=2026)
    ser, wall_s, err_s = _run(platform, grid, jobs, serial=True, seed=2026)

    # the tentpole acceptance: >= 2 jobs actually shared the pool, on
    # disjoint shards, and every output was exact
    assert conc.max_concurrent >= 2, "no two jobs ever ran concurrently"
    assert ser.max_concurrent == 1
    assert conc.failures == 0 and ser.failures == 0
    tol = 1e-9 * grid.t * grid.q
    assert err_c < tol and err_s < tol

    speedup = wall_s / wall_c
    cores = os.cpu_count() or 1
    lines = [
        f"scheduling service throughput ({jobs} jobs, grid {grid}, "
        f"pool of {POOL_SIZE} workers, HomI admission, {cores} host cores)",
        "",
        f"{'mode':<12}{'wall s':>9}{'jobs/s':>9}{'GFLOP/s':>10}"
        f"{'peak jobs':>11}{'pool util':>11}",
    ]
    for label, st, wall in (("concurrent", conc, wall_c), ("serial", ser, wall_s)):
        lines.append(
            f"{label:<12}{wall:>9.3f}{st.jobs_per_second:>9.2f}"
            f"{st.gflops:>10.3f}{st.max_concurrent:>11d}"
            f"{st.pool_utilization:>10.1%}"
        )
    lines += [
        "",
        f"sharded-concurrency speedup: {speedup:.2f}x "
        f"(max |err| vs C + A @ B: {max(err_c, err_s):.2e})",
    ]
    if cores < POOL_SIZE:
        lines.append(
            f"note: {cores} host cores for {POOL_SIZE} worker processes -- "
            "concurrent shards time-slice the CPUs, so the speedup measures "
            "overhead, not parallelism"
        )
    emit(
        "service_throughput",
        "\n".join(lines),
        data={
            "jobs": jobs,
            "grid": {"r": grid.r, "t": grid.t, "s": grid.s, "q": grid.q},
            "pool_size": POOL_SIZE,
            "cpu_count": cores,
            "algorithm": "HomI",
            "speedup": speedup,
            "concurrent": {
                "wall_seconds": wall_c,
                "jobs_per_second": conc.jobs_per_second,
                "gflops": conc.gflops,
                "max_concurrent": conc.max_concurrent,
                "pool_utilization": conc.pool_utilization,
                "shards": [list(r.shard) for r in conc.per_job],
            },
            "serial": {
                "wall_seconds": wall_s,
                "jobs_per_second": ser.jobs_per_second,
                "gflops": ser.gflops,
                "max_concurrent": ser.max_concurrent,
                "pool_utilization": ser.pool_utilization,
            },
            "max_abs_err": max(err_c, err_s),
        },
    )
