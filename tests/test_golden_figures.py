"""Golden regression wall over the paper figures and the dynamic scenarios.

``tests/data/golden_figures.json`` freezes the makespan of every
(algorithm, instance) pair of each paper figure at scale 0.1.  All three
engines -- the test-side event engine (``tests/reference_engine.py``), the
fast path and the vectorized batch engine (which simulates each figure's
plans on one engine per replay mode) -- must reproduce every value exactly, so no
engine can silently drift from the semantics that produced the paper's
comparisons, or from the frozen history.

``tests/data/golden_dynamic.json`` does the same for the dynamics
subsystem: the three named scenarios, each evaluated oblivious / adaptive /
clairvoyant for three base algorithms.  Refactors of the adaptive
rescheduling logic (boundary scoring, coordinate-faithful replanning,
order splicing) are regression-pinned exactly like the static figures.

If a behavioural change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_golden_figures.py --regen
    PYTHONPATH=src python tests/test_golden_figures.py --regen-dynamic

after re-checking the relative comparisons (EXPERIMENTS.md shapes / the
figure and dynamic benchmarks) still reproduce.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.figures import FIGURES
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import default_suite
from repro.sim.fastpath import fast_simulate
from tests.per_mode import kernel_env, per_mode_makespans
from tests.reference_engine import simulate_reference

SCALE = 0.1
DATA = pathlib.Path(__file__).parent / "data" / "golden_figures.json"

DYN_SCALE = 0.4
#: scenario -> severity frozen in the dynamic golden file (the canonical
#: table lives in repro.experiments.sweeps, shared with the invariant wall)
from repro.experiments.sweeps import CANONICAL_SEVERITIES as DYN_SCENARIOS  # noqa: E402

DYN_ALGORITHMS = ("Het", "ODDOML", "Hom")
DYN_DATA = pathlib.Path(__file__).parent / "data" / "golden_dynamic.json"


def _iter_runs(fig: str):
    for inst in FIGURES[fig](SCALE):
        for sched in default_suite():
            yield inst, sched


def _collect(engine: str) -> dict[str, dict[str, float]]:
    """``{fig: {"algorithm|instance": makespan}}`` under one engine.

    ``"batch"`` simulates each figure's plans on one
    :class:`~repro.sim.batch.BatchEngine` per replay mode (allocator plans
    through the fast path), whatever the group size and the backend.
    Planning and the fast/batch engines step on the process's kernel
    backend (see :mod:`repro.sim.kernels`).
    """
    out: dict[str, dict[str, float]] = {}
    for fig in sorted(FIGURES):
        table: dict[str, float] = {}
        keys, runs = [], []
        for inst, sched in _iter_runs(fig):
            try:
                plan = sched.plan(inst.platform, inst.grid)
            except SchedulingError:
                continue
            if engine == "fast":
                res = fast_simulate(inst.platform, plan, inst.grid)
            elif engine == "reference":
                res = simulate_reference(inst.platform, plan, inst.grid)
            else:
                keys.append(f"{sched.name}|{inst.label}")
                runs.append((inst.platform, plan))
                continue
            table[f"{sched.name}|{inst.label}"] = res.makespan
        if engine == "batch":
            for key, makespan in zip(keys, per_mode_makespans(runs)):
                table[key] = makespan
        out[fig] = table
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with DATA.open() as fh:
        return json.load(fh)


def test_golden_file_shape(golden):
    assert golden["scale"] == SCALE
    assert sorted(golden["figures"]) == sorted(FIGURES)
    total = sum(len(t) for t in golden["figures"].values())
    assert total >= 200, "golden file lost coverage"


@pytest.mark.parametrize("engine", ["fast", "reference", "batch"])
def test_both_engines_reproduce_golden_figures(engine, golden):
    measured = _collect(engine)
    for fig, table in golden["figures"].items():
        got = measured[fig]
        assert sorted(got) == sorted(table), f"{fig}: (algorithm, instance) set changed"
        for key, expected in table.items():
            assert got[key] == expected, (
                f"{engine} engine drifted on {fig} {key}: {got[key]!r} != golden "
                f"{expected!r}; intentional? regenerate tests/data/golden_figures.json "
                "after re-checking the figure shapes"
            )


@pytest.mark.parametrize("engine", ["fast", "batch"])
@pytest.mark.parametrize("kernel", ["c", "python"])
def test_compiled_backends_reproduce_golden_figures(engine, kernel, golden):
    """Every compiled kernel backend plans and replays the full
    golden-figure set bit-identically (environments without a backend
    skip its rows)."""
    from repro.sim.kernels import available_backends

    if kernel not in available_backends():
        pytest.skip(f"kernel backend {kernel!r} unavailable here")
    with kernel_env(kernel):
        measured = _collect(engine)
    for fig, table in golden["figures"].items():
        got = measured[fig]
        assert sorted(got) == sorted(table), f"{fig}: (algorithm, instance) set changed"
        for key, expected in table.items():
            assert got[key] == expected, (
                f"{engine}/{kernel} drifted on {fig} {key}: {got[key]!r} != "
                f"golden {expected!r}"
            )


def _collect_dynamic() -> dict[str, dict[str, float]]:
    """``{scenario: {"algorithm|mode": makespan}}`` — every run recorded
    and audited by :func:`validate_dynamic` before freezing, so the golden
    file can never pin an invalid trace."""
    from repro.experiments.sweeps import dynamic_scenario
    from repro.schedulers.adaptive import DYNAMIC_MODES, AdaptiveScheduler
    from repro.schedulers.registry import make_scheduler
    from repro.sim.dynamic import DynamicStall
    from repro.sim.validate import validate_dynamic

    out: dict[str, dict[str, float]] = {}
    for scenario, severity in DYN_SCENARIOS.items():
        platform, grid, timeline = dynamic_scenario(scenario, severity, scale=DYN_SCALE)
        table: dict[str, float] = {}
        for name in DYN_ALGORITHMS:
            for mode in DYNAMIC_MODES:
                try:
                    sim = AdaptiveScheduler(make_scheduler(name), mode).run_dynamic(
                        platform, grid, timeline, record_events=True
                    )
                except (SchedulingError, DynamicStall):
                    continue
                validate_dynamic(sim, timeline, grid=grid)
                table[f"{name}|{mode}"] = sim.makespan
        out[scenario] = table
    return out


@pytest.fixture(scope="module")
def golden_dynamic() -> dict:
    with DYN_DATA.open() as fh:
        return json.load(fh)


def test_golden_dynamic_file_shape(golden_dynamic):
    assert golden_dynamic["scale"] == DYN_SCALE
    assert sorted(golden_dynamic["scenarios"]) == sorted(DYN_SCENARIOS)
    total = sum(len(t) for t in golden_dynamic["scenarios"].values())
    assert total >= 36, "dynamic golden file lost coverage"


def test_dynamic_modes_reproduce_golden(golden_dynamic):
    measured = _collect_dynamic()
    for scenario, table in golden_dynamic["scenarios"].items():
        got = measured[scenario]
        assert sorted(got) == sorted(table), f"{scenario}: (algorithm, mode) set changed"
        for key, expected in table.items():
            assert got[key] == expected, (
                f"dynamic makespan drifted on {scenario} {key}: {got[key]!r} != "
                f"golden {expected!r}; intentional? regenerate "
                "tests/data/golden_dynamic.json after re-checking the "
                "oblivious/adaptive/clairvoyant gaps"
            )


def _regen() -> None:
    payload = {"scale": SCALE, "figures": _collect("fast")}
    cross = _collect("reference")
    assert payload["figures"] == cross, "engines disagree; refusing to freeze"
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    total = sum(len(t) for t in payload["figures"].values())
    print(f"froze {total} makespans to {DATA}")


def _regen_dynamic() -> None:
    payload = {"scale": DYN_SCALE, "scenarios": _collect_dynamic()}
    DYN_DATA.parent.mkdir(parents=True, exist_ok=True)
    DYN_DATA.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    total = sum(len(t) for t in payload["scenarios"].values())
    print(f"froze {total} dynamic makespans to {DYN_DATA}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    if "--regen-dynamic" in sys.argv:
        _regen_dynamic()
    if not ({"--regen", "--regen-dynamic"} & set(sys.argv)):
        print(__doc__)
