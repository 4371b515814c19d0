"""Per-layer timing wrappers installed around the program's public entry
points, from outside the program.

:func:`install` replaces each entry point below with a thin wrapper that
records a span (layer, tag, thread, start, end) while a :class:`Recorder`
is armed.  A function is replaced in *every* ``repro`` module that holds
it, so callers that imported it by name (``from ..sim.fastpath import
fast_simulate``) are timed too; methods are replaced on the class that
defines them.  Nothing under ``src/`` changes.

Self time: each thread keeps a stack of open spans; the innermost open
span owns the current instant.  A layer's self time is the sum of the
instants it owned.  For the per-layer table the instants are also split
across threads: an instant owned by ``k`` threads gives ``1/k`` of itself
to each owner, so the table's rows plus the unattributed rest sum to the
body's wall time even when the service runs several threads at once.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time

# Layers in table order.  ``schedulers.plan`` rows are split by algorithm.
LAYERS = (
    "schedulers.run",
    "schedulers.plan",
    "batch.submit",
    "batch.compile",
    "batch.run",
    "batch.shared_prefix",
    "fastpath",
    "kernels",
    "engine",
    "dynamic",
    "adaptive.boundary",
    "adaptive.probe",
    "service.admit",
    "service.execute",
)

ADMISSION_THREAD = "repro-admission"


class _ThreadLog:
    """Spans of one thread: the open-span stack and closed self segments."""

    __slots__ = ("tid", "stack", "segments", "calls", "total", "entries", "extra")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        # frames: [key, segment_start]
        self.stack: list[list] = []
        # (key, t0, t1): an interval the innermost span ``key`` owned
        self.segments: list[tuple] = []
        self.calls: dict = {}
        # inclusive seconds of calls into a layer from outside it
        self.total: dict = {}
        self.entries: dict = {}
        self.extra: dict = {}


class Recorder:
    """Collects spans from every thread while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.window = (0.0, 0.0)
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def arm(self) -> None:
        self.armed = True
        self.window = (time.perf_counter(), 0.0)

    def disarm(self) -> None:
        self.armed = False
        self.window = (self.window[0], time.perf_counter())

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to a named extra counter (kernel steps, port bytes)."""
        if self.armed:
            extra = self._log().extra
            extra[name] = extra.get(name, 0) + value

    def call(self, fn, layer: str, entry: str, tag, count: bool, args, kwargs):
        log = self._log()
        stack = log.stack
        key = (layer, tag)
        now = time.perf_counter()
        if stack:
            parent = stack[-1]
            log.segments.append((parent[0], parent[1], now))
            nested = parent[0][0] == layer
        else:
            nested = False
        log.entries[entry] = log.entries.get(entry, 0) + 1
        if count and not nested:
            log.calls[key] = log.calls.get(key, 0) + 1
        frame = [key, now]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            log.segments.append((key, frame[1], end))
            if stack:
                stack[-1][1] = end
            if not nested:
                log.total[layer] = log.total.get(layer, 0.0) + (end - now)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer calls, self time and wall share inside the armed window.

        Returns ``{"wall_s", "rows", "total", "entries", "extra",
        "threads"}`` where ``rows`` maps ``"layer"`` or ``"layer|tag"`` to
        ``{"calls", "self_s", "share_s"}`` and ``total`` maps a layer to the
        inclusive seconds of calls into it.
        """
        lo, hi = self.window
        with self._lock:
            logs = list(self._logs)
        self_s: dict = {}
        events = []
        for log in logs:
            for key, t0, t1 in log.segments:
                t0, t1 = max(t0, lo), min(t1, hi)
                if t1 <= t0:
                    continue
                self_s[key] = self_s.get(key, 0.0) + (t1 - t0)
                events.append((t0, 1, key))
                events.append((t1, -1, key))
        share = _wall_shares(events)
        rows: dict = {}
        calls, total, entries, extra = {}, {}, {}, {}
        for log in logs:
            for merged, own in (
                (calls, log.calls), (total, log.total),
                (entries, log.entries), (extra, log.extra),
            ):
                for k, v in own.items():
                    merged[k] = merged.get(k, 0) + v
        for key in set(self_s) | set(calls):
            layer, tag = key
            rows[layer if tag is None else f"{layer}|{tag}"] = {
                "calls": calls.get(key, 0),
                "self_s": self_s.get(key, 0.0),
                "share_s": share.get(key, 0.0),
            }
        return {
            "wall_s": hi - lo,
            "rows": rows,
            "total": total,
            "entries": entries,
            "extra": extra,
            "threads": sum(1 for log in logs if log.segments),
        }


def _wall_shares(events: list) -> dict:
    """Split wall time among concurrently-owned segments (``1/k`` each)."""
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict = {}
    n_active = 0
    share: dict = {}
    prev = None
    for t, delta, key in events:
        if prev is not None and n_active and t > prev:
            part = (t - prev) / n_active
            for k, n in active.items():
                if n:
                    share[k] = share.get(k, 0.0) + part * n
        active[key] = active.get(key, 0) + delta
        n_active += delta
        prev = t
    return share


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _make_wrapper(recorder: Recorder, fn, layer: str, entry: str, *, tag_of=None,
                  count: bool = True, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.armed:
            return fn(*args, **kwargs)
        lay = layer(args) if callable(layer) else layer
        tag = tag_of(args) if tag_of is not None else None
        out = recorder.call(fn, lay, entry, tag, count, args, kwargs)
        if after is not None:
            after(recorder, args, out)
        return out

    return wrapper


def _replace_everywhere(orig, wrapped) -> None:
    """Rebind every module-level name in ``repro`` that refers to ``orig``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def import_all() -> None:
    """Import every ``repro`` submodule, so every by-name import exists
    before the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point."""
    import_all()
    from repro.schedulers.adaptive import AdaptiveScheduler
    from repro.schedulers.base import Scheduler
    from repro.service.runner import ShardRunner
    from repro.sim import batch, dynamic, engine, fastpath, kernels

    def wrap_function(module, attr, layer, **kw):
        orig = getattr(module, attr)
        entry = f"{module.__name__}.{attr}"
        _replace_everywhere(orig, _make_wrapper(recorder, orig, layer, entry, **kw))

    def wrap_method(cls, attr, layer, **kw):
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        entry = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        wrapped = _make_wrapper(recorder, fn, layer, entry, **kw)
        setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def admit_or_run(_args):
        if threading.current_thread().name == ADMISSION_THREAD:
            return "service.admit"
        return "schedulers.run"

    def port_bytes(rec, args, result):
        """Computed bytes through the port of each admitted schedule."""
        if threading.current_thread().name == ADMISSION_THREAD:
            rec.add("service.port_bytes", result.blocks_through_port * args[2].block_bytes)

    def kernel_steps(rec, args, _out):
        rec.add("kernels.steps", args[2] - args[1])

    # planning: Scheduler.run (admission in the service) and every plan()
    wrap_method(Scheduler, "run", admit_or_run, after=port_bytes)
    for cls in _subclasses(Scheduler):
        if "plan" in cls.__dict__:
            wrap_method(cls, "plan", "schedulers.plan", tag_of=lambda a: a[0].name)
    # batch layer
    for attr in ("batch_simulate", "batch_outcomes", "shared_prefix_makespans"):
        wrap_function(batch, attr, "batch.submit")
    wrap_method(batch.BatchEngine, "__init__", "batch.compile")
    wrap_method(batch.BatchEngine, "run", "batch.run")
    wrap_method(batch.BatchEngine, "shared_prefix", "batch.shared_prefix")
    # scalar fast path and compiled kernels
    wrap_function(fastpath, "fast_simulate", "fastpath")
    for cls in _subclasses(kernels.KernelBackend):
        for attr in ("strict_run", "ready_run"):
            if attr in cls.__dict__:
                wrap_method(cls, attr, "kernels", after=kernel_steps)
    # reference event engine
    wrap_function(engine, "simulate", "engine")
    # dynamic driver and adaptive decisions
    wrap_function(dynamic, "simulate_dynamic", "dynamic")
    wrap_method(AdaptiveScheduler, "_on_boundary", "adaptive.boundary")
    wrap_method(dynamic.DynamicRun, "probe", "adaptive.probe")
    wrap_method(dynamic.DynamicRun, "finish", "adaptive.probe", count=False)
    # service execution
    wrap_method(ShardRunner, "execute", "service.execute")


# Entry points each workload must call at least once (coverage check).
# ``kernels`` entries are expected only under a whole-run kernel backend.
EXPECTED = {
    "fig7": (
        "repro.schedulers.base.Scheduler.run",
        "repro.schedulers.homogeneous.HomScheduler.plan",
        "repro.schedulers.heterogeneous.HetScheduler.plan",
        "repro.schedulers.round_robin.ORROMLScheduler.plan",
        "repro.schedulers.min_min.OMMOMLScheduler.plan",
        "repro.schedulers.demand_driven.ODDOMLScheduler.plan",
        "repro.schedulers.bmm.BMMScheduler.plan",
        "repro.sim.batch.batch_simulate",
        "repro.sim.batch.batch_outcomes",
        "repro.sim.batch.BatchEngine.__init__",
        "repro.sim.batch.BatchEngine.run",
        "repro.sim.fastpath.fast_simulate",
    ),
    "dynamic": (
        "repro.schedulers.homogeneous.HomScheduler.plan",
        "repro.schedulers.heterogeneous.HetScheduler.plan",
        "repro.schedulers.demand_driven.ODDOMLScheduler.plan",
        "repro.sim.batch.shared_prefix_makespans",
        "repro.sim.batch.BatchEngine.shared_prefix",
        "repro.sim.batch.BatchEngine.__init__",
        "repro.sim.batch.BatchEngine.run",
        "repro.sim.dynamic.simulate_dynamic",
        "repro.schedulers.adaptive.AdaptiveScheduler._on_boundary",
        "repro.sim.dynamic.DynamicRun.probe",
        "repro.sim.dynamic.DynamicRun.finish",
    ),
    "serve": (
        "repro.schedulers.base.Scheduler.run",
        "repro.schedulers.homogeneous.HomScheduler.plan",
        "repro.sim.batch.batch_simulate",
        "repro.sim.engine.simulate",
        "repro.service.runner.ShardRunner.execute",
    ),
}
KERNEL_ENTRIES = ("strict_run", "ready_run")


def coverage_problems(workload: str, entries: dict, whole_run_kernel: bool) -> list[str]:
    """Expected entry points that recorded no call on ``workload``."""
    missing = [e for e in EXPECTED[workload] if not entries.get(e)]
    if whole_run_kernel and workload == "fig7":
        hit = [e for e in entries if e.rsplit(".", 1)[-1] in KERNEL_ENTRIES]
        if not any(entries[e] for e in hit):
            missing.append("KernelBackend.strict_run/ready_run")
    return missing
