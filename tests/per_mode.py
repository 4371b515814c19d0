"""Test helpers: pick the process's kernel backend for a block, and
replay a run list on one ``BatchEngine`` per replay mode.

The kernel backend is a per-process setting read from ``REPRO_KERNEL``
(:func:`repro.sim.kernels.resolve_kernel`); :func:`kernel_env` sets it
for the duration of a ``with`` block and then restores whatever value
(or absence) was there before, so a pinned backend -- e.g. a CI leg run
under ``REPRO_KERNEL=numpy`` -- still holds for every later test.

:func:`repro.sim.batch.batch_outcomes` picks its own split of a run list
from the resolved kernel backend, and under the per-step numpy backend it
sends small groups to the scalar fast path.  The equivalence and golden
walls want the batch engine itself at any group size, so they go through
:func:`per_mode_outcomes` instead: every strict-order group and every
ready group (per priority key) is one :class:`~repro.sim.batch.BatchEngine`
stepped by the process's backend; allocator-driven plans, which no engine
can replay, run through :func:`~repro.sim.fastpath.fast_simulate`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.sim.batch import BatchEngine, _batch_mode
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import KERNEL_ENV


@contextmanager
def kernel_env(name: str):
    """Run the block with ``REPRO_KERNEL=name``, then restore the
    variable's previous value (or unset it again)."""
    previous = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous


def per_mode_outcomes(runs) -> list:
    """Per-run results in input order: ``BatchOutcome`` records from the
    engines, ``SimResult`` for allocator-driven plans (both expose the
    makespan, port busy time and per-worker statistics)."""
    groups: dict = {}
    for i, (_platform, plan) in enumerate(runs):
        groups.setdefault(_batch_mode(plan), []).append(i)
    out: list = [None] * len(runs)
    for i in groups.pop(None, []):
        out[i] = fast_simulate(*runs[i])
    for indices in groups.values():
        engine = BatchEngine([runs[i] for i in indices])
        for i, outcome in zip(indices, engine.run().outcomes()):
            out[i] = outcome
    return out


def per_mode_makespans(runs) -> list[float]:
    """Makespans of :func:`per_mode_outcomes`, in input order."""
    return [res.makespan for res in per_mode_outcomes(runs)]
