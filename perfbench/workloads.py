"""The three workloads: seeded inputs, the timed body, the output gate.

Each workload class builds its inputs from the seed in ``__init__`` (part
of set-up), runs its timed body in :meth:`body`, and checks the body's
outputs in :meth:`gate` (outside the timed region).  Every call uses the
program's defaults: no ``kernel=``, ``engine=``, result cache or
parallel fan-out.
"""

from __future__ import annotations

import queue
import random
import threading
import time

# ----------------------------------------------------------------------
# fig7: regenerate the paper's Figure 7
# ----------------------------------------------------------------------


class Fig7:
    """``run_experiment("fig7", fig7_instances(1.0, seed))``: 12 fully
    heterogeneous platforms x the paper's 7 algorithms = 84 runs."""

    name = "fig7"
    #: nominal seconds of one repetition (set-up + body) on a 2-core host
    nominal_rep_s = 5.0

    def __init__(self, seed: int) -> None:
        from repro.experiments import fig7_instances

        self.instances = fig7_instances(1.0, seed=seed)

    def body(self) -> dict:
        from repro.experiments import run_experiment

        result = run_experiment("fig7", self.instances)
        outputs = {f"{m.algorithm}@{m.instance}": m.makespan for m in result.measurements}
        failures = {f"{alg}@{inst}": msg for (alg, inst), msg in result.failures.items()}
        return {
            "attempted": len(result.algorithms) * len(result.instances),
            "failures": failures,
            "outputs": outputs,
        }

    def gate(self, outputs: dict) -> dict:
        """Every makespan equals the reference engine's, and
        ``validate_result`` accepts the reference trace."""
        from repro.schedulers import default_suite
        from repro.sim import validate_result

        bad = {}
        for inst in self.instances:
            for sched in default_suite():
                key = f"{sched.name}@{inst.label}"
                try:
                    sim = sched.run(inst.platform, inst.grid, collect_events=True)
                    validate_result(sim)
                except Exception as exc:  # noqa: BLE001 - reported per run
                    bad[key] = f"reference run failed: {type(exc).__name__}: {exc}"
                    continue
                if outputs.get(key) != sim.makespan:
                    bad[key] = f"makespan {outputs.get(key)!r} != reference {sim.makespan!r}"
        return bad


# ----------------------------------------------------------------------
# dynamic: seeded timelines through the adaptive/reselect driver
# ----------------------------------------------------------------------


def _event_mix(timeline) -> tuple:
    """How many events of each kind a timeline holds."""
    counts: dict = {}
    for event in timeline.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return tuple(sorted(counts.items()))


class Dynamic:
    """Seeded ``random_timeline(Random(seed), "mixed", rate=3, severity=8)``
    draws on the ``dynamic_scenario`` base platform (p=8, mu=8, grid
    24x20x240), each run through ``AdaptiveScheduler.run_dynamic`` for
    ``HomI[reselect]``, ``Het[adaptive]`` and ``ODDOML[adaptive]``.

    A timeline's cost follows its shape: its event mix (how many crashes,
    joins, straggles, bandwidth changes and recoveries it holds) and how
    early the events come.  The body's shapes are those of the first
    :attr:`timelines` draws at :attr:`mix_seed`, the paper's seed; for
    each, the body takes the first draw of the ``Random(seed)`` stream
    with the same mix and a weight within :attr:`weight_tolerance`.  The
    seed still draws every event's time, worker and magnitude.
    """

    name = "dynamic"
    nominal_rep_s = 10.0
    timelines = 8
    mix_seed = 2008
    #: how far a drawn timeline's event weight may lie from its slot's
    weight_tolerance = 0.1
    algorithms = (("HomI", "reselect"), ("Het", "adaptive"), ("ODDOML", "adaptive"))

    def __init__(self, seed: int) -> None:
        from repro.experiments import dynamic_scenario
        from repro.sim import random_timeline
        from repro.theory import makespan_lower_bound

        self.platform, self.grid, _ = dynamic_scenario(
            "straggler-onset", 8.0, p=8, mu=8, scale=1.0
        )
        horizon = makespan_lower_bound(self.platform, self.grid)

        def draw(rng):
            return random_timeline(rng, "mixed", self.platform, horizon, rate=3, severity=8)

        def shape(timeline):
            # events early in the run cost more: every boundary decision
            # probes the work still left, so each event weighs 1 - t/horizon
            weight = sum(max(0.0, 1.0 - e.time / horizon) for e in timeline.events)
            return _event_mix(timeline), weight

        reference = random.Random(self.mix_seed)
        pending = [shape(draw(reference)) for _ in range(self.timelines)]
        rng = random.Random(seed)
        self.draws = []
        for _ in range(10_000_000):
            timeline = draw(rng)
            mix, weight = shape(timeline)
            for slot in pending:
                if slot[0] == mix and abs(slot[1] - weight) <= self.weight_tolerance:
                    pending.remove(slot)
                    self.draws.append(timeline)
                    break
            if not pending:
                break
        else:
            raise RuntimeError(f"seed {seed}: no timeline of shape {pending[0]}")

    def _runs(self):
        from repro.schedulers import AdaptiveScheduler, make_scheduler

        for i, timeline in enumerate(self.draws):
            for alg, mode in self.algorithms:
                yield f"{alg}[{mode}]@tl{i}", AdaptiveScheduler(make_scheduler(alg), mode), timeline

    def body(self) -> dict:
        from repro.schedulers import SchedulingError
        from repro.sim import DynamicStall

        outputs, failures = {}, {}
        for key, wrapper, timeline in self._runs():
            try:
                res = wrapper.run_dynamic(self.platform, self.grid, timeline)
            except (SchedulingError, DynamicStall) as exc:
                failures[key] = f"{type(exc).__name__}: {exc}"
                continue
            outputs[key] = res.makespan
        return {
            "attempted": len(self.draws) * len(self.algorithms),
            "failures": failures,
            "outputs": outputs,
            "timelines": len(self.draws),
            "events": sum(len(tl) for tl in self.draws),
        }

    def gate(self, outputs: dict) -> dict:
        """An untimed ``record_events=True`` rerun passes ``validate_dynamic``
        and its makespan equals the timed run's exactly."""
        from repro.sim import validate_dynamic

        bad = {}
        for key, wrapper, timeline in self._runs():
            try:
                res = wrapper.run_dynamic(self.platform, self.grid, timeline, record_events=True)
                validate_dynamic(res, timeline, grid=self.grid)
            except Exception as exc:  # noqa: BLE001 - reported per run
                bad[key] = f"recorded rerun failed: {type(exc).__name__}: {exc}"
                continue
            if outputs.get(key) != res.makespan:
                bad[key] = f"makespan {outputs.get(key)!r} != recorded {res.makespan!r}"
        return bad


# ----------------------------------------------------------------------
# serve: real C + A @ B jobs on a worker-process pool
# ----------------------------------------------------------------------


class Serve:
    """A ``SchedulingService`` with HomI admission on 4 worker processes,
    jobs of grid 6x6x12 with q=48.  An open-loop phase (one generator
    thread, evenly spaced due times) is followed by a burst."""

    name = "serve"
    nominal_rep_s = 14.0
    pool = 4
    rate = 4.0  # jobs per second in the open-loop phase, below capacity
    open_jobs = 40
    burst_jobs = 24
    warm_jobs = 4
    distinct_inputs = 8

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.core.blocks import BlockGrid
        from repro.execution.executor import random_instance, reference_product
        from repro.platform.model import Platform

        self.grid = BlockGrid(r=6, t=6, s=12, q=48)
        self.platform = Platform.homogeneous(self.pool, 1.0, 1.0, 45, name="serve-pool")
        rng = np.random.default_rng(seed)
        self.inputs = [random_instance(self.grid, rng) for _ in range(self.distinct_inputs)]
        self.expected = [reference_product(a, b, c) for a, b, c in self.inputs]
        self.tolerance = 1e-9 * self.grid.t * self.grid.q
        self.svc = None
        self.pool_start_s = 0.0

    def start(self) -> None:
        """Start the pool and run the warm-up jobs (part of set-up)."""
        from repro.service import SchedulingService

        self.svc = SchedulingService(self.platform, algorithm="HomI")
        t0 = time.perf_counter()
        self.svc.start()
        self.pool_start_s = time.perf_counter() - t0
        warm = [self._job(i) for i in range(self.warm_jobs)]
        self.svc.run_jobs(warm)

    def _job(self, i: int):
        a, b, c = self.inputs[i % self.distinct_inputs]
        return self.svc.make_job(self.grid, a, b, c, job_id=f"job-{i}")

    def _error(self, i: int, output) -> float:
        import numpy as np

        return float(np.max(np.abs(output - self.expected[i % self.distinct_inputs])))

    def body(self) -> dict:
        failures: dict = {}
        outputs: dict = {}
        records: list = []
        self._open_loop(failures, outputs, records)
        burst = self._burst(failures, outputs, records)
        return {
            "attempted": self.open_jobs + self.burst_jobs,
            "failures": failures,
            "outputs": outputs,
            "latency": [r["latency"] for r in records if r["phase"] == "open"],
            "lag": [r["lag"] for r in records if r["phase"] == "open"],
            "burst_jobs_per_s": burst,
            "records": records,
        }

    def _collect(self, i, fut, phase, due, submitted, failures, outputs, records) -> None:
        key = f"job-{i}"
        try:
            res = fut.result(timeout=120)
        except Exception as exc:  # noqa: BLE001 - a failed or refused job
            failures[key] = f"{type(exc).__name__}: {exc}"
            return
        err = self._error(i, res.output)
        outputs[key] = err
        if not err <= self.tolerance:
            failures[key] = f"max |C - (C + A @ B)| = {err:.3e} > {self.tolerance:.3e}"
        records.append(
            {
                "job": key,
                "phase": phase,
                "latency": res.finished_at - due,
                "lag": submitted - due,
                "wait": res.admission_wait,
                "shard": list(res.shard),
                "started": res.started_at,
                "finished": res.finished_at,
            }
        )

    def _open_loop(self, failures, outputs, records) -> None:
        """One generator thread submits at evenly spaced due times; this
        thread checks each output as it completes and drops it."""
        specs = [self._job(self.warm_jobs + k) for k in range(self.open_jobs)]
        handoff: queue.Queue = queue.Queue()
        start = time.perf_counter() + 0.05
        gap = 1.0 / self.rate

        def generate() -> None:
            for k, spec in enumerate(specs):
                due = start + k * gap
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submitted = time.perf_counter()
                try:
                    fut = self.svc.submit(spec)
                except RuntimeError as exc:
                    handoff.put((k, None, due, submitted, exc))
                    continue
                handoff.put((k, fut, due, submitted, None))

        gen = threading.Thread(target=generate, name="perfbench-generator")
        gen.start()
        try:
            for _ in specs:
                k, fut, due, submitted, exc = handoff.get(timeout=120)
                i = self.warm_jobs + k
                if exc is not None:
                    failures[f"job-{i}"] = f"refused: {exc}"
                    continue
                self._collect(i, fut, "open", due, submitted, failures, outputs, records)
        finally:
            gen.join(timeout=120)

    def _burst(self, failures, outputs, records) -> float:
        """Submit the burst at once; jobs completed per second."""
        first = self.warm_jobs + self.open_jobs
        specs = [self._job(first + k) for k in range(self.burst_jobs)]
        t0 = time.perf_counter()
        futures = [self.svc.submit(spec) for spec in specs]
        for k, fut in enumerate(futures):
            self._collect(first + k, fut, "burst", t0, t0, failures, outputs, records)
        done = [r["finished"] for r in records if r["phase"] == "burst"]
        return len(done) / (max(done) - t0) if done else 0.0

    def gate(self, _outputs: dict) -> dict:
        """After the run no worker is busy and none is quarantined."""
        bad = {}
        svc = self.svc
        # the service exposes no accessor for its busy set; read it under
        # the service's own lock
        with svc._lock:
            busy = sorted(svc._busy)
        if busy:
            bad["pool.busy"] = f"workers still busy after the run: {busy}"
        if svc.dead_workers:
            bad["pool.quarantined"] = f"quarantined workers: {sorted(svc.dead_workers)}"
        if svc.queue_depth:
            bad["pool.queue"] = f"{svc.queue_depth} jobs still queued"
        return bad

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()


WORKLOADS = {w.name: w for w in (Fig7, Dynamic, Serve)}
