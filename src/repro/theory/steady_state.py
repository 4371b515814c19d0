"""Steady-state (bandwidth-centric) throughput bound (Section 5, Table 1).

During one time unit of steady state, worker ``P_i`` receives ``y_i``
blocks (of A and of B) and computes ``x_i`` C blocks.  The linear program

    maximize   sum_i x_i
    subject to sum_i y_i c_i <= 1          (one-port master)
               x_i w_i <= 1                (worker compute)
               x_i / mu_i^2 <= y_i / (2 mu_i)   (data needed per update)

has a *bandwidth-centric* optimal solution [Banino et al.]: sort workers by
``2 c_i / mu_i`` (port seconds per unit of work) and enroll greedily while
``sum 2 c_i / (mu_i w_i) <= 1``; the first non-fitting worker is enrolled
fractionally.  The optimum ``rho = sum x_i`` (C blocks per second; each C
block of a chunk absorbs ``t`` updates over the run, so the *update*
throughput during steady state is ``rho`` chunk-updates per ``w`` -- we
report x in block-update units directly, see below).

Here we use *block updates per second* as the unit of ``x_i`` (i.e.
``x_i <= 1/w_i``), with ``y_i >= 2 x_i / mu_i`` input blocks per second:
a worker updating a ``mu x mu`` chunk consumes ``2 mu`` blocks per ``mu^2``
updates.  This is the same LP up to scaling.

The bound **assumes unbounded buffers**: the paper's Table 2 shows a
platform where realizing it would need arbitrarily many buffers, which is
why Het uses simulation-based selection instead.  The bound still upper
bounds every realizable schedule's useful throughput, a property the test
suite checks against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.blocks import BlockGrid
from ..platform.model import Platform, Worker

__all__ = [
    "WorkerRate",
    "SteadyStateSolution",
    "bandwidth_centric",
    "steady_state_lp",
    "throughput_upper_bound",
    "makespan_lower_bound",
    "table2_platform",
]


@dataclass(frozen=True)
class WorkerRate:
    """Steady-state rates of one worker."""

    worker: int
    x: float  # block updates per second
    y: float  # input blocks per second
    port_fraction: float  # fraction of the master port consumed
    saturated: bool  # compute-bound (x = 1/w)


@dataclass(frozen=True)
class SteadyStateSolution:
    """Solution of the steady-state LP."""

    rho: float  # total block updates per second
    rates: tuple[WorkerRate, ...]
    order: tuple[int, ...]  # workers sorted by bandwidth-centric key

    @property
    def enrolled(self) -> list[int]:
        return [r.worker for r in self.rates if r.x > 0]

    @property
    def port_used(self) -> float:
        return sum(r.port_fraction for r in self.rates)


def _mus(platform: Platform) -> list[int]:
    """Optimistic chunk side per worker for the upper bound.

    The plain maximum re-use ``mu`` (``1 + mu + mu^2 <= m``) dominates both
    the overlapped ``mu`` and Toledo's ``sigma`` for every ``m``, and a
    larger ``mu`` only relaxes the LP's port constraint -- so using it keeps
    the bound an upper bound for *any* of the studied layouts.  Workers
    with fewer than 3 buffers cannot hold one block of each matrix and are
    excluded.
    """
    from ..core.layout import max_reuse_mu

    mus = []
    for wk in platform:
        try:
            mus.append(max_reuse_mu(wk.m))
        except ValueError:
            mus.append(0)
    return mus


def bandwidth_centric(platform: Platform) -> SteadyStateSolution:
    """Closed-form greedy optimum of the steady-state LP.

    Workers are sorted by ``2 c_i / mu_i``; each enrolled worker at full
    compute rate ``x_i = 1/w_i`` consumes port fraction
    ``2 c_i / (mu_i w_i)``; the first worker that does not fit is enrolled
    for the remaining port fraction only.
    """
    mus = _mus(platform)
    usable = [i for i in range(platform.p) if mus[i] >= 1]
    order = sorted(usable, key=lambda i: (2 * platform[i].c / mus[i], i))
    remaining = 1.0
    rates: dict[int, WorkerRate] = {}
    rho = 0.0
    for i in order:
        wk = platform[i]
        full_fraction = 2 * wk.c / (mus[i] * wk.w)  # port share at x = 1/w
        if full_fraction <= remaining:
            x = 1.0 / wk.w
            frac = full_fraction
            saturated = True
        elif remaining > 0:
            x = (remaining / full_fraction) / wk.w
            frac = remaining
            saturated = False
        else:
            x = 0.0
            frac = 0.0
            saturated = False
        remaining -= frac
        rho += x
        rates[i] = WorkerRate(i, x, 2 * x / mus[i] if mus[i] else 0.0, frac, saturated)
    all_rates = tuple(
        rates.get(i, WorkerRate(i, 0.0, 0.0, 0.0, False)) for i in range(platform.p)
    )
    return SteadyStateSolution(rho=rho, rates=all_rates, order=tuple(order))


def steady_state_lp(platform: Platform) -> SteadyStateSolution:
    """Solve the same LP numerically with ``scipy.optimize.linprog``
    (HiGHS); used to cross-check the closed form.

    Variables: ``x_i`` (block updates/s).  At the optimum
    ``y_i = 2 x_i / mu_i``, so the port constraint becomes
    ``sum 2 c_i x_i / mu_i <= 1`` and bounds ``0 <= x_i <= 1/w_i``.
    """
    from scipy.optimize import linprog

    mus = _mus(platform)
    usable = [i for i in range(platform.p) if mus[i] >= 1]
    if not usable:
        return SteadyStateSolution(0.0, tuple(
            WorkerRate(i, 0.0, 0.0, 0.0, False) for i in range(platform.p)
        ), tuple())
    n = len(usable)
    c_vec = -np.ones(n)  # maximize sum x
    a_ub = np.array([[2 * platform[i].c / mus[i] for i in usable]])
    b_ub = np.array([1.0])
    bounds = [(0.0, 1.0 / platform[i].w) for i in usable]
    res = linprog(c_vec, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - LP is always feasible/bounded
        raise RuntimeError(f"steady-state LP failed: {res.message}")
    xs = dict(zip(usable, res.x))
    rates = tuple(
        WorkerRate(
            i,
            xs.get(i, 0.0),
            2 * xs.get(i, 0.0) / mus[i] if mus[i] else 0.0,
            2 * platform[i].c * xs.get(i, 0.0) / mus[i] if mus[i] else 0.0,
            abs(xs.get(i, 0.0) - 1.0 / platform[i].w) < 1e-12,
        )
        for i in range(platform.p)
    )
    order = tuple(sorted(usable, key=lambda i: (2 * platform[i].c / mus[i], i)))
    return SteadyStateSolution(rho=float(-res.fun), rates=rates, order=order)


def throughput_upper_bound(platform: Platform) -> float:
    """Steady-state bound on useful throughput, block updates per second."""
    return bandwidth_centric(platform).rho


def makespan_lower_bound(platform: Platform, grid: BlockGrid) -> float:
    """Optimistic makespan: all ``r s t`` updates at the steady-state rate
    (unbounded memory, no startup, no C traffic) -- the paper's comparison
    point which Het approaches within a factor ~2.3 on average."""
    rho = throughput_upper_bound(platform)
    if rho <= 0:
        return float("inf")
    return grid.total_updates / rho


def table2_platform(x: float = 4.0) -> Platform:
    """The paper's Table 2 example: ``P1 = (c=1, w=2, mu=2)`` and
    ``P2 = (c=x, w=2x, mu=2)``.  Both have ``2 c_i / (mu_i w_i) = 1/2`` so
    the bandwidth-centric LP enrolls both fully, yet realizing the schedule
    needs buffers growing with ``x`` (memory here is ``mu = 2``, i.e. 12
    blocks under the overlapped layout)."""
    if x <= 1:
        raise ValueError("x must exceed 1")
    m_mu2 = 2 * 2 + 4 * 2  # overlapped layout with mu = 2
    return Platform(
        [Worker(0, 1.0, 2.0, m_mu2, name="P1"), Worker(1, float(x), 2.0 * x, m_mu2, name="P2")],
        name=f"table2-x{x:g}",
    )
