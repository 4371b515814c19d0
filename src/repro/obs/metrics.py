"""Metrics registry: named counters, gauges and timers.

Every subsystem that used to keep ad-hoc counters (``ResultCache`` hit
rates, compiled batch streams, kernel fallbacks, reselect boundary-search
stats, ``simulate_dynamic`` event counts) registers its
instruments here under a dotted ``<subsystem>.<name>`` key, so one
:func:`snapshot` answers "what did this process count so far" and one
:func:`snapshot_delta` answers "what did *this run* count".

Instruments are get-or-create by name (two callers asking for
``counter("cache.result.hits")`` share one object) and deliberately
lock-free on the update path: counters are bumped from single-threaded hot
loops, and the threaded runtime aggregates per-worker numbers locally
before publishing them, so plain attribute arithmetic is both correct and
as cheap as instrumentation gets.
"""

from __future__ import annotations

import time
from threading import Lock

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Stopwatch",
    "Timer",
    "counter",
    "gauge",
    "merge_snapshots",
    "registry",
    "snapshot",
    "snapshot_delta",
    "stopwatch",
    "timer",
]


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-written value (fractions, sizes, rates)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value}>"


class Timer:
    """Accumulated duration plus an observation count."""

    __slots__ = ("name", "seconds", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1

    def time(self) -> "Stopwatch":
        """Context manager timing a block into this timer."""
        return Stopwatch(self)

    def reset(self) -> None:
        self.seconds = 0.0
        self.count = 0

    def snapshot(self) -> dict:
        return {"seconds": self.seconds, "count": self.count}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timer {self.name}={self.seconds:.6f}s/{self.count}>"


class Stopwatch:
    """Times a ``with`` block; ``.elapsed`` holds the wall seconds after
    exit (and is reported to the backing :class:`Timer`, when there is
    one).  This is the shared replacement for hand-rolled
    ``time.perf_counter()`` pairs."""

    __slots__ = ("_timer", "_t0", "elapsed")

    def __init__(self, timer: Timer | None = None) -> None:
        self._timer = timer
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        if self._timer is not None:
            self._timer.add(self.elapsed)
        return False


class MetricsRegistry:
    """Name → instrument map with get-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Timer] = {}
        self._lock = Lock()

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.setdefault(name, cls(name))
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def snapshot(self, kind: type | None = None) -> dict:
        """Current value of every instrument (only those of class
        ``kind`` when given), sorted by name.  Counters and gauges map to
        their value, timers to ``{"seconds", "count"}``."""
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._instruments.items())
            if kind is None or isinstance(inst, kind)
        }

    def reset(self) -> None:
        """Zero every instrument (instrument objects stay registered, so
        references held by caches remain live)."""
        for inst in self._instruments.values():
            inst.reset()


#: The process-global default registry; the module-level helpers below all
#: address it, which is what instrumented library code should use.
registry = MetricsRegistry()


def counter(name: str) -> Counter:
    return registry.counter(name)


def gauge(name: str) -> Gauge:
    return registry.gauge(name)


def timer(name: str) -> Timer:
    return registry.timer(name)


def snapshot() -> dict:
    return registry.snapshot()


def stopwatch(name: str | None = None) -> Stopwatch:
    """A :class:`Stopwatch`, reporting into ``timer(name)`` when named."""
    return Stopwatch(registry.timer(name) if name else None)


def snapshot_delta(before: dict, after: dict | None = None) -> dict:
    """``after - before`` per metric (``after`` defaults to the current
    global snapshot), dropping entries that did not move — the shape
    harness results embed as ``ExperimentResult.metrics``."""
    if after is None:
        after = registry.snapshot()
    out: dict = {}
    for name, value in after.items():
        prev = before.get(name)
        if isinstance(value, dict):
            prev = prev or {}
            diff = {k: v - prev.get(k, 0) for k, v in value.items()}
            if any(diff.values()):
                out[name] = diff
        else:
            diff = value - (prev or 0)
            if diff:
                out[name] = diff
    return out


def merge_snapshots(a: dict, b: dict) -> dict:
    """Key-wise sum of two snapshots/deltas (used when experiment results
    are merged, e.g. the Figure 9 summary)."""
    out = dict(a)
    for name, value in b.items():
        if name not in out:
            out[name] = value
        elif isinstance(value, dict):
            out[name] = {
                k: out[name].get(k, 0) + value.get(k, 0)
                for k in set(out[name]) | set(value)
            }
        else:
            out[name] = out[name] + value
    return out
