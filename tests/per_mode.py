"""Test helper: replay a run list on one ``BatchEngine`` per replay mode.

:func:`repro.sim.batch.batch_outcomes` picks its own split of a run list
from the resolved kernel backend, and under the per-step numpy backend it
sends small groups to the scalar fast path.  The equivalence and golden
walls want the batch engine itself at any group size, so they go through
:func:`per_mode_outcomes` instead: every strict-order group and every
ready group (per priority key) is one :class:`~repro.sim.batch.BatchEngine`
stepped by the given backend; allocator-driven plans, which no engine
can replay, run through :func:`~repro.sim.fastpath.fast_simulate`.
"""

from __future__ import annotations

from repro.sim.batch import BatchEngine, _batch_mode
from repro.sim.fastpath import fast_simulate


def per_mode_outcomes(runs, *, kernel=None, compile_cache=None) -> list:
    """Per-run results in input order: ``BatchOutcome`` records from the
    engines, ``SimResult`` for allocator-driven plans (both expose the
    makespan, port busy time and per-worker statistics)."""
    groups: dict = {}
    for i, (_platform, plan) in enumerate(runs):
        groups.setdefault(_batch_mode(plan), []).append(i)
    out: list = [None] * len(runs)
    for i in groups.pop(None, []):
        out[i] = fast_simulate(*runs[i], kernel=kernel)
    for indices in groups.values():
        engine = BatchEngine(
            [runs[i] for i in indices], compile_cache=compile_cache, kernel=kernel
        )
        for i, outcome in zip(indices, engine.run().outcomes()):
            out[i] = outcome
    return out


def per_mode_makespans(runs, *, kernel=None) -> list[float]:
    """Makespans of :func:`per_mode_outcomes`, in input order."""
    return [res.makespan for res in per_mode_outcomes(runs, kernel=kernel)]
