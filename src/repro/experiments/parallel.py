"""Parallel experiment execution and a content-addressed result cache.

One paper figure is dozens of independent ``(algorithm, instance)`` runs;
the heterogeneity sweeps multiply that by every ratio on the axis.  This
module turns those runs into a flat task list that can

* fan out across cores with a :class:`concurrent.futures.ProcessPoolExecutor`
  (the simulator is pure Python, so processes -- not threads -- are what
  buys real parallelism), and
* skip work that was already done, via a content-addressed on-disk cache.

**Cache key scheme.**  A task's key is the SHA-256 of a canonical string
built from these fingerprints::

    engine | geometry-version | objective-version | algorithm-signature | platform | grid

``engine`` is :data:`ENGINE_FINGERPRINT`, bumped whenever the simulation
semantics change (which would invalidate every stored makespan).
``geometry-version`` / ``objective-version`` are
:data:`~repro.schedulers.geometry.GEOMETRY_VERSION` and
:data:`~repro.experiments.objectives.OBJECTIVE_VERSION` -- salts that
separate pre-geometry payloads from geometry/objective-parameterized
tasks and let a semantic change to either layer invalidate its payloads
without touching the engine fingerprint.  The
algorithm contributes :attr:`~repro.schedulers.base.Scheduler.signature`
(its name plus any constructor configuration, e.g. a restricted Het variant
set).  The platform contributes every worker's exact ``(c, w, m)`` scalars
-- float ``repr`` round-trips exactly, so two platforms share a key iff
they are numerically identical -- and the grid its ``(r, t, s, q)`` shape.
Worker and platform *names* are deliberately excluded: they do not affect
timing.  The simulator is deterministic, so a cache hit is bit-identical
to a rerun; this is what makes content addressing sound.

Payloads are small JSON documents (makespan, enrollment, JSON-safe meta),
stored under ``<root>/<key[:2]>/<key>.json`` to keep directories shallow.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..core.blocks import BlockGrid
from ..obs import counter, trace
from ..platform.model import Platform
from ..schedulers.base import Scheduler, SchedulingError
from ..schedulers.geometry import GEOMETRY_VERSION
from .objectives import OBJECTIVE_VERSION

__all__ = [
    "ENGINE_FINGERPRINT",
    "RunTask",
    "ResultCache",
    "fingerprint_platform",
    "fingerprint_grid",
    "fingerprint_timeline",
    "task_key",
    "dynamic_task_key",
    "resolve_workers",
    "run_tasks",
]

#: Version tag of the *result-producing code*: the simulation semantics AND
#: the scheduler planning heuristics.  Bump it whenever either changes in a
#: way that can move any makespan -- that invalidates every stored payload
#: at once.  (The golden-regression walls catch forgetting to bump: a
#: planner change moves golden makespans, which flags the same commit.)
ENGINE_FINGERPRINT = "one-port-v1"


def fingerprint_platform(platform: Platform) -> str:
    """Canonical string of the timing-relevant platform parameters."""
    return ";".join(f"{wk.index}:{wk.c!r}:{wk.w!r}:{wk.m}" for wk in platform)


def fingerprint_grid(grid: BlockGrid) -> str:
    """Canonical string of the block-grid shape."""
    return f"r={grid.r},t={grid.t},s={grid.s},q={grid.q}"


def fingerprint_timeline(timeline) -> str:
    """Canonical string of a :class:`~repro.sim.dynamic.PlatformTimeline`'s
    timing-relevant content: every event's time, kind, worker and value
    (``repr`` keeps floats exact).  Two stochastic draws collide only if
    they produce literally the same event sequence."""
    return ";".join(
        f"{ev.time!r}:{ev.kind}:{ev.worker}:{ev.value!r}" for ev in timeline.events
    )


def dynamic_task_key(
    scheduler: Scheduler,
    mode: str,
    platform: Platform,
    grid: BlockGrid,
    timeline,
    *,
    generator: str = "",
) -> str:
    """Content-addressed cache key of one dynamic run: ``(base algorithm,
    evaluation mode, instance, timeline)``.

    The timeline is keyed by its full event content, and ``generator``
    additionally folds in how it was produced — the stochastic sweeps pass
    their ``(seed, scenario/family, severity, rate)`` spec — so two
    different seeds (or rates) can never alias even in the astronomically
    unlikely case their parametrization would.  Controlled modes
    (``adaptive``/``reselect``) additionally key on
    :data:`repro.schedulers.adaptive.ADAPTIVE_CONTROLLER_VERSION` — their
    makespans depend on the boundary decision heuristics, not just the
    engine semantics — and ``mode="reselect"`` also on
    :data:`repro.sim.batch.BATCH_ENGINE_VERSION`: its boundary re-search
    *decisions* run on the batch engine, so a batch semantics bump must be
    able to invalidate those payloads independently (the other modes never
    consult the batch layer).
    """
    parts = [
        ENGINE_FINGERPRINT,
        GEOMETRY_VERSION,
        OBJECTIVE_VERSION,
        scheduler.signature,
        f"mode={mode}",
        fingerprint_platform(platform),
        fingerprint_grid(grid),
        fingerprint_timeline(timeline),
    ]
    if generator:
        parts.append(f"generator={generator}")
    if mode in ("adaptive", "reselect"):
        from ..schedulers.adaptive import ADAPTIVE_CONTROLLER_VERSION

        parts.insert(1, ADAPTIVE_CONTROLLER_VERSION)
    if mode == "reselect":
        from ..sim.batch import BATCH_ENGINE_VERSION

        parts.insert(1, BATCH_ENGINE_VERSION)
    if mode == "coded":
        # decode-completion semantics version (see repro.schedulers.coded)
        from ..schedulers.coded import CODED_FAMILY_VERSION

        parts.insert(1, CODED_FAMILY_VERSION)
    canon = "|".join(parts)
    return hashlib.sha256(canon.encode()).hexdigest()


def task_key(scheduler: Scheduler, platform: Platform, grid: BlockGrid) -> str:
    """Content-addressed cache key of one ``(algorithm, instance)`` run,
    as simulated by :meth:`~repro.schedulers.base.Scheduler.run` (every
    engine and kernel backend is bit-identical, so one key per run)."""
    parts = [
        ENGINE_FINGERPRINT,
        GEOMETRY_VERSION,
        OBJECTIVE_VERSION,
        scheduler.signature,
        fingerprint_platform(platform),
        fingerprint_grid(grid),
    ]
    canon = "|".join(parts)
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class RunTask:
    """One schedulable unit: run ``scheduler`` on ``(platform, grid)``.

    All three members pickle, so tasks cross process boundaries as-is.
    """

    scheduler: Scheduler
    platform: Platform
    grid: BlockGrid

    @property
    def key(self) -> str:
        return task_key(self.scheduler, self.platform, self.grid)


def _json_safe(value):
    """Best-effort JSON projection of a result meta dict."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _execute_task(task: RunTask) -> dict:
    """Run one task to a JSON-safe payload (top level so it pickles).

    :class:`SchedulingError` is a deterministic property of the instance,
    so it becomes an ``error`` payload (and is cacheable) rather than an
    exception; genuine bugs still propagate.
    """
    try:
        result = task.scheduler.run(task.platform, task.grid, collect_events=False)
    except SchedulingError as exc:
        return {"error": str(exc)}
    return {
        "makespan": result.makespan,
        "n_enrolled": result.n_enrolled,
        "port_blocks": result.blocks_through_port,
        "meta": _json_safe(result.meta),
    }


class ResultCache:
    """Content-addressed store of task payloads under a root directory,
    with size-capped LRU eviction.

    ``max_entries`` / ``max_bytes`` bound the store (``None`` = unbounded);
    the defaults keep a long-lived service's cache from growing without
    limit while being far above what a full figure suite needs.  Recency is
    tracked through file mtimes -- a hit touches the file -- so eviction
    order survives across processes and restarts.  Touches are *strictly
    monotonic* at nanosecond resolution (a hit stamps ``max(now_ns,
    current + 1)``) and eviction sorts on ``st_mtime_ns`` with the path as
    the final tie-break, so the order stays deterministic even on
    filesystems with coarse (1s) mtime granularity, where plain
    ``os.utime`` touches collide.  Eviction is best-effort under
    concurrency (a racing reader of an evicted key simply re-runs the
    task, exactly like any miss).
    """

    #: Default entry cap (payloads are a few hundred bytes each; a full
    #: figure suite stores a few hundred entries).
    DEFAULT_MAX_ENTRIES = 100_000
    #: Default size cap in bytes.
    DEFAULT_MAX_BYTES = 256 * 1024 * 1024

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_entries: int | None = DEFAULT_MAX_ENTRIES,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(f"cache path {self.root} exists and is not a directory")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # hit/miss/eviction counts feed the process-wide registry
        # (`cache.result.*`); the per-instance view subtracts the values
        # at construction time, so `cache.hits` reads exactly as before
        self._metrics = {
            name: counter(f"cache.result.{name}")
            for name in ("hits", "misses", "evictions")
        }
        self._base = {name: m.value for name, m in self._metrics.items()}
        # in-process estimates: the first capped put scans once to baseline
        # against pre-existing entries, later puts update incrementally and
        # only trigger the authoritative scan inside _evict when the caps
        # are actually approached
        self._count: int | None = None
        self._bytes = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _bump(self, name: str) -> None:
        self._metrics[name].inc()

    @property
    def hits(self) -> int:
        """Lookup hits since this instance was created (registry-backed:
        the process-wide counter is ``cache.result.hits``)."""
        return self._metrics["hits"].value - self._base["hits"]

    @property
    def misses(self) -> int:
        """Lookup misses since this instance was created."""
        return self._metrics["misses"].value - self._base["misses"]

    @property
    def evictions(self) -> int:
        """Entries evicted by this instance's size caps."""
        return self._metrics["evictions"].value - self._base["evictions"]

    def get(self, key: str) -> dict | None:
        with trace("cache", op="get"):
            path = self._path(key)
            try:
                with path.open() as fh:
                    payload = json.load(fh)
            except (FileNotFoundError, json.JSONDecodeError):
                self._bump("misses")
                return None
            self._bump("hits")
            self._touch(path)  # mark recency for LRU eviction
            return payload

    @staticmethod
    def _touch(path: Path) -> None:
        """Advance ``path``'s recency stamp *strictly*: nanosecond wall
        time, or one tick past the current stamp when the clock has not
        visibly advanced (coarse-mtime filesystems) — a hit always moves
        the entry past where it was."""
        import time

        try:
            now = time.time_ns()
            prev = path.stat().st_mtime_ns
            stamp = now if now > prev else prev + 1
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass

    def put(self, key: str, payload: dict) -> None:
        with trace("cache", op="put"):
            self._put(key, payload)

    def _put(self, key: str, payload: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique tmp per writer, atomically renamed: concurrent writers of
        # the same key each publish a complete file, last one wins
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{id(self):x}.tmp")
        text = json.dumps(payload)
        tmp.write_text(text)
        try:
            replaced = path.stat().st_size  # overwriting an existing key
        except OSError:
            replaced = None
        os.replace(tmp, path)
        if self.max_entries is None and self.max_bytes is None:
            return
        if self._count is None:
            # first capped put: establish the baseline with one scan (a
            # pre-existing store may already be near the caps)
            entries = self._entries()
            self._count = len(entries)
            self._bytes = sum(size for _mtime, size, _path in entries)
        elif replaced is None:
            self._count += 1
            self._bytes += len(text)
        else:
            self._bytes += len(text) - replaced
        if (self.max_entries is not None and self._count > self.max_entries) or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            self._evict(keep=path)

    def _entries(self) -> list[tuple[int, int, Path]]:
        """(mtime_ns, size, path) of every stored payload, oldest first;
        the path tie-break keeps the order deterministic when stamps
        collide."""
        out = []
        for path in self.root.glob("*/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime_ns, st.st_size, path))
        out.sort()
        return out

    def _evict(self, keep: Path) -> None:
        """Drop least-recently-used entries down to ~10% below the caps (the
        just-written ``keep`` survives even if it is the oldest).

        The slack is the low-water mark: trimming to exactly the cap would
        leave a full cache re-scanning the whole store on every subsequent
        put; trimming a batch below it amortizes one scan over the next
        ~cap/10 insertions.
        """
        self._sweep_stale_tmp()
        entries = self._entries()
        count = len(entries)
        total = sum(size for _mtime, size, _path in entries)
        target_entries = (
            None if self.max_entries is None else self.max_entries - self.max_entries // 10
        )
        target_bytes = (
            None if self.max_bytes is None else self.max_bytes - self.max_bytes // 10
        )
        for _mtime, size, path in entries:
            if (target_entries is None or count <= target_entries) and (
                target_bytes is None or total <= target_bytes
            ):
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            self._bump("evictions")
        self._count = count
        self._bytes = total

    #: A ``.tmp`` file older than this is an orphan from a killed writer
    #: (live writers hold theirs for milliseconds) and is swept by _evict.
    STALE_TMP_SECONDS = 300.0

    def _sweep_stale_tmp(self) -> None:
        """Remove tmp files orphaned by killed writers; without this they
        would silently accumulate outside the size caps."""
        import time

        cutoff = time.time() - self.STALE_TMP_SECONDS
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                continue

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def _as_cache(cache) -> ResultCache | None:
    if cache is None or cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def resolve_workers(parallel) -> int:
    """Normalize a ``parallel=`` option to a worker-process count.

    ``None``/``False``/``0``/``1`` mean in-process serial execution;
    ``True`` or ``"auto"`` mean one worker per core; an integer >= 2 is
    used as given.
    """
    if parallel is None or parallel is False:
        return 1
    if parallel is True or parallel == "auto":
        return max(1, os.cpu_count() or 1)
    n = int(parallel)
    if n < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel!r}")
    return max(1, n)


def run_tasks(
    tasks: Sequence[RunTask],
    *,
    parallel=None,
    cache=None,
) -> list[dict]:
    """Execute ``tasks``, returning one payload per task, in task order.

    Payloads are either ``{"makespan", "n_enrolled", "meta"}`` or
    ``{"error": message}`` for instances the algorithm cannot schedule.
    Cached tasks are not re-run; misses are executed (across processes when
    ``parallel`` asks for it) and stored back.
    """
    store = _as_cache(cache)
    payloads: list[dict | None] = [None] * len(tasks)
    todo: list[int] = []
    keys: list[str | None] = [None] * len(tasks)
    for idx, task in enumerate(tasks):
        if store is not None:
            keys[idx] = key = task.key
            hit = store.get(key)
            if hit is not None:
                payloads[idx] = hit
                continue
        todo.append(idx)

    workers = min(resolve_workers(parallel), max(1, len(todo)))
    if todo:
        if workers <= 1:
            fresh = [_execute_task(tasks[idx]) for idx in todo]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(_execute_task, [tasks[idx] for idx in todo]))
        for idx, payload in zip(todo, fresh):
            payloads[idx] = payload
            if store is not None:
                store.put(keys[idx], payload)
    assert all(p is not None for p in payloads)
    return payloads  # type: ignore[return-value]
