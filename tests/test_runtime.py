"""Threaded local runtime: real parallel execution must match C + A@B,
and every worker-failure path must surface as a bounded, chained error
instead of a hang.  The conformance and unknown-message cases also run the
same master loop over pool processes (``ShardRunner``)."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.blocks import BlockGrid
from repro.execution.executor import random_instance, reference_product
from repro.platform.model import Platform, Worker
from repro.runtime import local
from repro.runtime.local import ThreadedRuntime
from repro.runtime.loop import run_worker
from repro.runtime.messages import ReturnRequest, RoundMsg, Shutdown
from repro.schedulers.registry import make_scheduler
from repro.service import ShardRunner, WorkerPool


def _setup(name="ODDOML", grid=None, plat=None):
    grid = grid or BlockGrid(r=5, t=4, s=9, q=3)
    plat = plat or Platform(
        [Worker(0, 1.0, 1.0, 45), Worker(1, 0.5, 2.0, 21), Worker(2, 2.0, 0.5, 32)]
    )
    res = make_scheduler(name).run(plat, grid)
    return res, grid


def _execute(transport, res, grid, a, b, c):
    """Run ``res`` on worker threads or on a pool of worker processes;
    returns (final C, messages, total updates)."""
    if transport == "thread":
        got, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        return got, stats.messages, stats.total_updates
    p = res.platform.p
    with WorkerPool(p) as pool:
        got, stats = ShardRunner(pool).execute(res, grid, a, b, c, worker_map=range(p))
    return got, stats.messages, stats.updates


#: Thread cases are ``[Hom]`` ..., process cases ``[Hom-process]`` ...
CONFORMANCE = [
    pytest.param(transport, name, id=name if transport == "thread" else f"{name}-process")
    for transport in ("thread", "process")
    for name in ("Hom", "Het", "ODDOML", "BMM")
]


class TestThreadedRuntime:
    @pytest.mark.parametrize("transport, name", CONFORMANCE)
    def test_matches_reference(self, transport, name):
        res, grid = _setup(name)
        a, b, c = random_instance(grid, rng=5)
        a0, b0, c0 = a.copy(), b.copy(), c.copy()
        got, messages, updates = _execute(transport, res, grid, a, b, c)
        np.testing.assert_allclose(got, reference_product(a, b, c), atol=1e-9)
        assert messages == len(res.port_events)
        assert updates == grid.total_updates
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        np.testing.assert_array_equal(c, c0)

    def test_updates_distribution_matches_sim(self):
        res, grid = _setup("ODDOML")
        a, b, c = random_instance(grid, rng=6)
        _, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        for st in res.worker_stats:
            assert stats.updates_per_worker.get(st.worker, 0) == st.updates

    def test_inputs_not_mutated(self):
        res, grid = _setup()
        a, b, c = random_instance(grid, rng=7)
        a0, b0, c0 = a.copy(), b.copy(), c.copy()
        ThreadedRuntime().execute(res, grid, a, b, c)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        np.testing.assert_array_equal(c, c0)

    def test_message_count_matches_trace(self):
        res, grid = _setup()
        a, b, c = random_instance(grid, rng=9)
        _, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        assert stats.messages == len(res.port_events)

    def test_requires_events(self):
        res, grid = _setup()
        import dataclasses

        bad = dataclasses.replace(res, port_events=())
        a, b, c = random_instance(grid, rng=10)
        with pytest.raises(ValueError):
            ThreadedRuntime().execute(bad, grid, a, b, c)

    def test_invalid_timeouts(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(reply_timeout=0)
        with pytest.raises(ValueError):
            ThreadedRuntime(join_timeout=-1)


class _FaultyWorker(local._WorkerThread):
    """Fault-injection stand-in for ``_WorkerThread``.

    Runs the shared worker body like the real worker, but its inbox reads
    can be scripted (via class attributes, reset per test) to die at
    startup, raise on the round update after N, raise on a return
    request, or hold the shutdown message until ``release`` is set.
    """

    die_at_startup: frozenset = frozenset()
    fail_after_rounds: dict = {}
    fail_on_return: frozenset = frozenset()
    hang_on_shutdown: frozenset = frozenset()
    release = threading.Event()

    def run(self) -> None:
        rounds = 0

        def receive():
            nonlocal rounds
            msg = self.inbox.get()
            if isinstance(msg, RoundMsg):
                rounds += 1
                if rounds > self.fail_after_rounds.get(self.widx, float("inf")):
                    raise RuntimeError(f"worker {self.widx} poisoned mid-schedule")
            elif isinstance(msg, ReturnRequest) and self.widx in self.fail_on_return:
                raise RuntimeError(f"worker {self.widx} lost the chunk")
            elif isinstance(msg, Shutdown) and self.widx in self.hang_on_shutdown:
                self.release.wait()
            return msg

        try:
            if self.widx in self.die_at_startup:
                raise RuntimeError(f"worker {self.widx} died at startup")
            run_worker(receive, self.outbox.put, self.log)
        except BaseException as exc:  # noqa: BLE001 - mirrors the real worker
            self.error = exc


@pytest.fixture
def faulty_workers(monkeypatch):
    """Install ``_FaultyWorker`` (with a clean script) as the runtime's
    worker class; returns the class for per-test scripting."""
    _FaultyWorker.die_at_startup = frozenset()
    _FaultyWorker.fail_after_rounds = {}
    _FaultyWorker.fail_on_return = frozenset()
    _FaultyWorker.hang_on_shutdown = frozenset()
    _FaultyWorker.release = threading.Event()
    monkeypatch.setattr(local, "_WorkerThread", _FaultyWorker)
    yield _FaultyWorker
    _FaultyWorker.release.set()


#: Generous wall-clock ceiling: every failure test must finish way below
#: this (the pre-fix deadlocks hung forever).
BOUND_SECONDS = 20.0


class TestRuntimeFailurePaths:
    def _run(self, runtime, name="ODDOML"):
        res, grid = _setup(name)
        a, b, c = random_instance(grid, rng=40)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as excinfo:
            runtime.execute(res, grid, a, b, c)
        elapsed = time.perf_counter() - t0
        assert elapsed < BOUND_SECONDS, f"failure took {elapsed:.1f}s to surface"
        return excinfo.value

    def test_error_after_return_request_does_not_deadlock(self, faulty_workers):
        """The C_RETURN deadlock: the worker dies *after* the ReturnRequest
        is enqueued; a blocking reply.get() would hang forever."""
        faulty_workers.fail_on_return = frozenset({0, 1, 2})
        err = self._run(ThreadedRuntime(reply_timeout=10.0))
        assert "failed while returning a chunk" in str(err)
        assert isinstance(err.__cause__, RuntimeError)
        assert "lost the chunk" in str(err.__cause__)

    def test_poisoned_message_mid_schedule_chains_worker_error(self, faulty_workers):
        faulty_workers.fail_after_rounds = {0: 2, 1: 2, 2: 2}
        err = self._run(ThreadedRuntime(reply_timeout=10.0))
        assert isinstance(err.__cause__, RuntimeError)
        assert "poisoned mid-schedule" in str(err.__cause__)

    def test_dead_worker_detected_before_its_next_event(self, faulty_workers):
        """The master must notice a dead worker while the schedule is
        still addressing its peers, not when the victim's turn comes."""
        faulty_workers.die_at_startup = frozenset({2})
        err = self._run(ThreadedRuntime(reply_timeout=10.0))
        assert "worker 2" in str(err)
        assert "died at startup" in str(err.__cause__)

    def test_shutdown_join_timeout_refuses_partial_stats(self, faulty_workers):
        """A thread still alive after the shutdown join must be an error,
        not a silently half-dead stats report."""
        faulty_workers.hang_on_shutdown = frozenset({1})
        res, grid = _setup("ODDOML")
        a, b, c = random_instance(grid, rng=41)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="still alive"):
            ThreadedRuntime(join_timeout=0.3).execute(res, grid, a, b, c)
        assert time.perf_counter() - t0 < BOUND_SECONDS

    def test_healthy_run_unaffected_by_tight_timeouts(self):
        res, grid = _setup("Het")
        a, b, c = random_instance(grid, rng=42)
        got, stats = ThreadedRuntime(reply_timeout=10.0, join_timeout=10.0).execute(
            res, grid, a, b, c
        )
        np.testing.assert_allclose(got, reference_product(a, b, c), atol=1e-9)
        assert stats.total_updates == grid.total_updates


class _PoisonedWorker(local._WorkerThread):
    """A worker thread whose inbox starts with a message outside the vocabulary."""

    def __init__(self, widx: int) -> None:
        super().__init__(widx)
        if widx == 0:
            self.inbox.put(object())


class TestUnknownMessage:
    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_unknown_message_fails_run(self, transport, monkeypatch):
        """Either transport: a worker handed an unknown message fails the
        run, bounded, with the worker's ``TypeError`` in the chained cause."""
        res, grid = _setup("ODDOML")
        a, b, c = random_instance(grid, rng=43)
        if transport == "thread":
            monkeypatch.setattr(local, "_WorkerThread", _PoisonedWorker)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as excinfo:
            if transport == "thread":
                ThreadedRuntime(reply_timeout=10.0).execute(res, grid, a, b, c)
            else:
                with WorkerPool(res.platform.p) as pool:
                    pool[0].inject(object())
                    ShardRunner(pool, reply_timeout=10.0).execute(
                        res, grid, a, b, c, worker_map=range(res.platform.p)
                    )
        assert time.perf_counter() - t0 < BOUND_SECONDS
        assert "unknown message" in str(excinfo.value.__cause__)


#: Kill a pool worker, leave more data on its inbox than a pipe buffers,
#: close the pool: the interpreter must still exit.
_EXIT_AFTER_DEAD_WORKER = """
import os, signal
import numpy as np
from repro.service import WorkerPool

pool = WorkerPool(1).start()
os.kill(pool[0].process.pid, signal.SIGKILL)
pool[0].process.join(timeout=10)
pool[0].inbox.put(np.zeros(200_000))
pool.close()
"""


class TestProcessPoolExit:
    def test_interpreter_exits_after_worker_killed_with_unread_inbox(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _EXIT_AFTER_DEAD_WORKER],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestRuntimeObservability:
    def test_overlap_stats_well_formed(self):
        res, grid = _setup("ODDOML")
        a, b, c = random_instance(grid, rng=11)
        _, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        assert set(stats.queue_wait_per_worker) == set(stats.updates_per_worker)
        assert set(stats.compute_seconds_per_worker) == set(stats.updates_per_worker)
        assert all(v >= 0.0 for v in stats.queue_wait_per_worker.values())
        assert stats.compute_seconds > 0.0
        assert stats.queue_wait_seconds >= 0.0
        assert stats.send_seconds > 0.0
        assert 0.0 <= stats.overlap_fraction <= 1.0
        # overlap can't exceed either side of the intersection
        assert stats.overlap_seconds <= stats.send_seconds + 1e-9
        assert stats.overlap_seconds <= stats.compute_seconds + 1e-9

    def test_idle_workers_record_zero_compute(self):
        res, grid = _setup("Hom", grid=BlockGrid(r=2, t=2, s=2, q=2))
        a, b, c = random_instance(grid, rng=12)
        _, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        for widx, updates in stats.updates_per_worker.items():
            if updates == 0:
                assert stats.compute_seconds_per_worker[widx] == 0.0

    def test_execute_emits_span_and_metrics(self):
        from repro.obs import gauge, snapshot, snapshot_delta, tracing

        res, grid = _setup("Het")
        a, b, c = random_instance(grid, rng=13)
        before = snapshot()
        with tracing() as tr:
            _, stats = ThreadedRuntime().execute(res, grid, a, b, c)
        names = [s.name for s in tr.walk()]
        assert "runtime.execute" in names
        delta = snapshot_delta(before)
        assert delta["runtime.compute_seconds"]["count"] == 1
        assert gauge("runtime.overlap_fraction").value == pytest.approx(
            stats.overlap_fraction
        )
