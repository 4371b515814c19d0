"""Platform parameter estimation (the paper's benchmark step).

Before every algorithm the paper's code probes the platform: it sends and
computes a ``q x q`` block ten times per worker and takes the *median* of
the measured times to estimate ``c_i`` and ``w_i`` (20-80 s, at most 2% of
the total execution time).  This module reproduces that procedure against
any object implementing the probe protocol -- the discrete-event engine, the
threaded runtime, or (in the paper's world) real MPI workers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .model import Platform, Worker

__all__ = ["Probe", "CalibrationResult", "calibrate", "calibrate_platform", "noisy_probe"]


class Probe(Protocol):
    """Anything that can time one block transfer / one block update."""

    def time_send(self, worker: int) -> float:
        """Seconds to move one block to/from ``worker``."""

    def time_update(self, worker: int) -> float:
        """Seconds for one block update on ``worker``."""

    def memory_blocks(self, worker: int) -> int:
        """Block buffers available on ``worker``."""


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated platform and the raw probe samples."""

    platform: Platform
    send_samples: dict[int, list[float]]
    update_samples: dict[int, list[float]]

    def describe(self) -> str:
        return self.platform.describe()


def calibrate(probe: Probe, n_workers: int, *, repetitions: int = 10) -> CalibrationResult:
    """Estimate ``(c_i, w_i, m_i)`` for every worker: median of
    ``repetitions`` probes, exactly like the paper's benchmark step."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    send_samples: dict[int, list[float]] = {}
    update_samples: dict[int, list[float]] = {}
    workers = []
    for i in range(n_workers):
        sends = [probe.time_send(i) for _ in range(repetitions)]
        updates = [probe.time_update(i) for _ in range(repetitions)]
        send_samples[i] = sends
        update_samples[i] = updates
        workers.append(
            Worker(
                i,
                c=statistics.median(sends),
                w=statistics.median(updates),
                m=probe.memory_blocks(i),
            )
        )
    return CalibrationResult(
        platform=Platform(workers, name="calibrated"),
        send_samples=send_samples,
        update_samples=update_samples,
    )


class noisy_probe:
    """Probe over a known platform with multiplicative measurement noise --
    models the paper's real-cluster timing jitter.  The median estimator
    must recover the true parameters within the noise amplitude (tested)."""

    def __init__(self, platform: Platform, noise: float = 0.05, seed: int | None = 0) -> None:
        if not 0 <= noise < 1:
            raise ValueError("noise must be in [0, 1)")
        self.platform = platform
        self.noise = noise
        self.rng = np.random.default_rng(seed)

    def _jitter(self) -> float:
        return 1.0 + self.noise * float(self.rng.uniform(-1.0, 1.0))

    def time_send(self, worker: int) -> float:
        return self.platform[worker].c * self._jitter()

    def time_update(self, worker: int) -> float:
        return self.platform[worker].w * self._jitter()

    def memory_blocks(self, worker: int) -> int:
        return self.platform[worker].m


def calibrate_platform(
    platform: Platform, *, noise: float = 0.05, seed: int | None = 0, repetitions: int = 10
) -> CalibrationResult:
    """Convenience wrapper: calibrate a known platform through a noisy
    probe (what the paper's 20-80 s benchmark step would observe)."""
    return calibrate(noisy_probe(platform, noise, seed), platform.p, repetitions=repetitions)
