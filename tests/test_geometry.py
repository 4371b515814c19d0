"""Partition geometries and scoring objectives.

Pins the contract of :mod:`repro.schedulers.geometry` and
:mod:`repro.experiments.objectives`:

* the layer geometry is the grid geometry on the transposed product --
  a layer variant's makespan equals the grid variant's makespan on the
  transposed grid *exactly*, and its chunks tile the real grid;
* the default makespan objective is a no-op: signatures, cache keys and
  every golden-figure makespan are bit-identical with ``objective=
  "makespan"`` threaded through the harness;
* cost objectives price candidates coherently (monotone, deadline-
  inadmissible, timeline-aware billing) and salt signatures/cache keys.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.blocks import BlockGrid
from repro.experiments.objectives import (
    BlendedObjective,
    CostObjective,
    MakespanObjective,
    Objective,
    PlanScore,
    billed_worker_seconds,
    make_objective,
)
from repro.experiments.parallel import dynamic_task_key, task_key
from repro.schedulers.base import SchedulingError
from repro.schedulers.geometry import (
    GEOMETRIES,
    GridGeometry,
    LayerGeometry,
    PartitionGeometry,
    audit_tiling,
    make_geometry,
    transpose_chunk,
)
from repro.schedulers.registry import (
    SCHEDULERS,
    canonical_name,
    layer_suite,
    make_scheduler,
)
from repro.sim.dynamic import PlatformTimeline

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_figures.json"

#: (grid algorithm, layer variant) pairs the geometry registers.
PAIRS = (("Hom", "HomL"), ("HomI", "HomIL"), ("Het", "HetL"))


# ---------------------------------------------------------------------------
# transposition primitive
# ---------------------------------------------------------------------------


class TestTransposeChunk:
    @pytest.fixture
    def chunks(self, het_platform, ragged_grid):
        plan = make_scheduler("Hom").plan(het_platform, ragged_grid)
        chunks = [ch for queue in plan.assignments for ch in queue]
        assert chunks
        return chunks

    def test_involution(self, chunks):
        for ch in chunks:
            back = transpose_chunk(transpose_chunk(ch))
            assert back == ch

    def test_geometry_swap(self, chunks):
        for ch in chunks:
            t = transpose_chunk(ch)
            assert (t.i0, t.h, t.j0, t.w) == (ch.j0, ch.w, ch.i0, ch.h)
            for rd, trd in zip(ch.rounds, t.rounds):
                assert (trd.a_blocks, trd.b_blocks) == (rd.b_blocks, rd.a_blocks)
                assert (trd.k_lo, trd.k_hi, trd.updates) == (rd.k_lo, rd.k_hi, rd.updates)

    def test_costs_preserved(self, chunks):
        geom = GridGeometry()
        for ch in chunks:
            t = transpose_chunk(ch)
            assert geom.chunk_traffic(t) == geom.chunk_traffic(ch)
            assert geom.chunk_updates(t) == geom.chunk_updates(ch)


# ---------------------------------------------------------------------------
# geometry factory / registry surface
# ---------------------------------------------------------------------------


class TestGeometryFactory:
    def test_default_is_grid(self):
        assert isinstance(make_geometry(None), GridGeometry)

    def test_case_insensitive(self):
        assert isinstance(make_geometry("LAYER"), LayerGeometry)
        assert isinstance(make_geometry(" Grid "), GridGeometry)

    def test_instance_passthrough(self):
        geom = LayerGeometry()
        assert make_geometry(geom) is geom

    def test_unknown_lists_registry(self):
        with pytest.raises(KeyError, match=r"unknown geometry.*'grid'.*'layer'"):
            make_geometry("diagonal")

    def test_grid_geometry_is_identity(self, small_grid):
        geom = GridGeometry()
        assert geom.plan_grid(small_grid) is small_grid
        sentinel = object()
        assert geom.finalize(sentinel, small_grid) is sentinel

    def test_layer_plan_grid_transposes(self, ragged_grid):
        pgrid = LayerGeometry().plan_grid(ragged_grid)
        assert (pgrid.r, pgrid.t, pgrid.s, pgrid.q) == (
            ragged_grid.s,
            ragged_grid.t,
            ragged_grid.r,
            ragged_grid.q,
        )

    def test_audit_tiling_rejects_unknown_geometry(self, small_grid):
        with pytest.raises(KeyError, match="unknown geometry"):
            audit_tiling([], small_grid, "diagonal")

    def test_signatures(self):
        assert GridGeometry().signature == "geom=grid"
        assert LayerGeometry().signature == "geom=layer"
        assert sorted(GEOMETRIES) == ["grid", "layer"]


# ---------------------------------------------------------------------------
# layer plans: tiling + exact transposed-grid equivalence
# ---------------------------------------------------------------------------


class TestLayerPlans:
    @pytest.mark.parametrize("grid_name,layer_name", PAIRS)
    def test_layer_chunks_tile_the_real_grid(
        self, grid_name, layer_name, het_platform, ragged_grid
    ):
        plan = make_scheduler(layer_name).plan(het_platform, ragged_grid)
        assert plan.meta["geometry"] == "layer"
        chunks = [ch for queue in plan.assignments for ch in queue]
        audit_tiling(chunks, ragged_grid, "layer")

    @pytest.mark.parametrize("grid_name,layer_name", PAIRS)
    def test_layer_makespan_equals_grid_on_transposed(
        self, grid_name, layer_name, het_platform, ragged_grid
    ):
        """The defining property: a layer plan *is* the grid plan of the
        transposed product, so the makespans match bit-for-bit."""
        tgrid = LayerGeometry().plan_grid(ragged_grid)
        layer = make_scheduler(layer_name).run(
            het_platform, ragged_grid, collect_events=False
        )
        grid = make_scheduler(grid_name).run(het_platform, tgrid, collect_events=False)
        assert layer.makespan == grid.makespan
        assert layer.blocks_through_port == grid.blocks_through_port

    def test_layer_run_validates(self, het_platform, ragged_grid):
        from repro.sim.validate import validate_result

        res = make_scheduler("HomL").run(het_platform, ragged_grid)
        validate_result(res)

    def test_layer_rejects_allocator_plans(self, het_platform, small_grid):
        plan = make_scheduler("ODDOML").plan(het_platform, small_grid)
        assert plan.allocator is not None
        with pytest.raises(ValueError, match="static plans only"):
            LayerGeometry().finalize(plan, small_grid)


# ---------------------------------------------------------------------------
# registry: canonical names, layer variants, signature folding
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_canonical_name_case_insensitive(self):
        assert canonical_name("het") == "Het"
        assert canonical_name(" HETL ") == "HetL"
        assert canonical_name("homil") == "HomIL"

    def test_canonical_name_error_lists_registry(self):
        with pytest.raises(KeyError, match=r"unknown algorithm.*'HetL'"):
            canonical_name("NoSuch")

    def test_layer_suite_names(self):
        assert [s.name for s in layer_suite()] == [
            "Hom", "HomL", "HomI", "HomIL", "Het", "HetL",
        ]

    def test_layer_variants_registered(self):
        for _, layer_name in PAIRS:
            assert layer_name in SCHEDULERS
            sched = make_scheduler(layer_name)
            assert sched.geometry.name == "layer"
            assert sched.name == layer_name

    def test_layer_signature_differs(self):
        assert "geom=layer" in make_scheduler("HomL").signature
        assert make_scheduler("HomL").signature != make_scheduler("Hom").signature

    def test_makespan_objective_keeps_signature(self):
        plain = make_scheduler("Het")
        scored = make_scheduler("Het", objective="makespan")
        assert scored.signature == plain.signature

    def test_cost_objective_folds_into_signature(self):
        for name in ("Hom", "HetL", "ODDOML", "Coded"):
            sig = make_scheduler(name, objective="cost").signature
            assert "obj=cost" in sig, name


# ---------------------------------------------------------------------------
# cache-key soundness
# ---------------------------------------------------------------------------


class TestCacheKeys:
    def test_geometry_salts_task_key(self, het_platform, small_grid):
        k_grid = task_key(make_scheduler("Hom"), het_platform, small_grid)
        k_layer = task_key(make_scheduler("HomL"), het_platform, small_grid)
        assert k_grid != k_layer

    def test_objective_salts_task_key(self, het_platform, small_grid):
        plain = task_key(make_scheduler("Hom"), het_platform, small_grid)
        cost = task_key(make_scheduler("Hom", objective="cost"), het_platform, small_grid)
        makespan = task_key(
            make_scheduler("Hom", objective="makespan"), het_platform, small_grid
        )
        assert plain != cost
        # the makespan objective is the default semantics, so it *shares*
        # the plain payloads deliberately
        assert plain == makespan

    def test_dynamic_key_salted_too(self, het_platform, small_grid):
        timeline = PlatformTimeline()
        keys = {
            dynamic_task_key(sched, "oblivious", het_platform, small_grid, timeline)
            for sched in (
                make_scheduler("Het"),
                make_scheduler("HetL"),
                make_scheduler("Het", objective="cost"),
            )
        }
        assert len(keys) == 3


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


class TestMakeObjective:
    def test_default_is_makespan(self):
        obj = make_objective(None)
        assert isinstance(obj, MakespanObjective) and obj.is_makespan

    def test_case_insensitive(self):
        assert isinstance(make_objective("COST"), CostObjective)
        assert isinstance(make_objective(" Blend "), BlendedObjective)

    def test_instance_passthrough(self):
        obj = CostObjective(deadline=9.0)
        assert make_objective(obj) is obj

    def test_cost_deadline_spec(self):
        obj = make_objective("cost@5")
        assert isinstance(obj, CostObjective) and obj.deadline == 5.0

    def test_blend_weight_spec(self):
        obj = make_objective("blend:2")
        assert isinstance(obj, BlendedObjective) and obj.dollar_weight == 2.0

    def test_errors(self):
        with pytest.raises(KeyError, match="unknown objective"):
            make_objective("fastest")
        with pytest.raises(KeyError, match="bad deadline"):
            make_objective("cost@soon")
        with pytest.raises(KeyError, match="bad weight"):
            make_objective("blend:heavy")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CostObjective(worker_rate=-1.0)
        with pytest.raises(ValueError):
            CostObjective(deadline=0.0)
        with pytest.raises(ValueError):
            BlendedObjective(makespan_weight=0.0, dollar_weight=0.0)


class TestScoring:
    def test_cost_monotone_in_workers_and_traffic(self):
        obj = CostObjective()
        base = PlanScore(makespan=100.0, workers=2, port_blocks=50, block_bytes=8)
        more_workers = PlanScore(makespan=100.0, workers=5, port_blocks=50, block_bytes=8)
        more_traffic = PlanScore(makespan=100.0, workers=2, port_blocks=500, block_bytes=8)
        assert obj.score(base) < obj.score(more_workers)
        assert obj.score(base) < obj.score(more_traffic)

    def test_cost_dollars_formula(self):
        obj = CostObjective(worker_rate=0.5, byte_rate=2.0)
        s = PlanScore(makespan=10.0, workers=3, port_blocks=4, block_bytes=8)
        assert obj.score(s) == 0.5 * 10.0 * 3 + 2.0 * 4 * 8

    def test_deadline_inadmissible(self):
        obj = CostObjective(deadline=50.0)
        late = PlanScore(makespan=50.1, workers=1, port_blocks=1, block_bytes=1)
        on_time = PlanScore(makespan=50.0, workers=1, port_blocks=1, block_bytes=1)
        assert obj.score(late) == float("inf")
        assert obj.score(on_time) < float("inf")

    def test_blend_propagates_inadmissibility(self):
        obj = BlendedObjective(cost=CostObjective(deadline=1.0))
        late = PlanScore(makespan=2.0, workers=1, port_blocks=1, block_bytes=1)
        assert obj.score(late) == float("inf")

    def test_makespan_ignores_pricing(self):
        obj = MakespanObjective()
        s = PlanScore(makespan=7.0, workers=99, port_blocks=999, block_bytes=999)
        assert obj.score(s) == 7.0
        assert obj.dollars(s) == 0.0


class TestBilling:
    def test_static_billing(self):
        assert billed_worker_seconds([0, 1, 2], 10.0) == 30.0
        assert billed_worker_seconds([0, 1, 2], 10.0, PlatformTimeline()) == 30.0

    def test_crash_window_not_billed(self):
        timeline = PlatformTimeline().crash(40.0, 1)
        assert billed_worker_seconds([0, 1], 100.0, timeline) == 100.0 + 40.0

    def test_rejoin_billed_from_join(self):
        timeline = PlatformTimeline().crash(20.0, 0).join(60.0, 0)
        assert billed_worker_seconds([0], 100.0, timeline) == 20.0 + 40.0


class TestObjectiveThreading:
    def test_hom_inadmissible_deadline_raises(self, het_platform, small_grid):
        sched = make_scheduler("Hom", objective="cost@0.001")
        with pytest.raises(SchedulingError, match="admissible"):
            sched.plan(het_platform, small_grid)

    def test_het_inadmissible_deadline_raises(self, het_platform, small_grid):
        sched = make_scheduler("Het", objective="cost@0.001")
        with pytest.raises(SchedulingError, match="admissible"):
            sched.plan(het_platform, small_grid)

    def test_cost_objective_never_picks_pricier_plan(self, het_platform, small_grid):
        """The cost-optimal threshold choice is never more expensive than
        the makespan-optimal one under the same pricing."""
        obj = CostObjective()
        fast = make_scheduler("Hom").run(het_platform, small_grid, collect_events=False)
        cheap = make_scheduler("Hom", objective=obj).run(
            het_platform, small_grid, collect_events=False
        )
        assert obj.evaluate_result(cheap) <= obj.evaluate_result(fast)
        assert cheap.makespan >= fast.makespan  # the trade-off direction

    def test_measurement_meta_annotated(self, het_platform, small_grid):
        from repro.experiments.harness import Instance, run_experiment

        inst = Instance("i", het_platform, small_grid)
        res = run_experiment(
            "obj-meta", [inst], [make_scheduler("Hom")], objective="cost"
        )
        (m,) = res.measurements
        assert m.meta["objective"] == "cost"
        assert m.meta["dollars"] > 0.0
        assert m.meta["objective_score"] == m.meta["dollars"]

    def test_dynamic_measurement_billed_over_alive_windows(self):
        """Dynamic measurements are priced over the timeline's alive
        windows: exactly what billing a direct run_dynamic result gives,
        and below the makespan × enrolled price, since the crash window of
        the enrolled worker 0 is not billed."""
        from repro.experiments.harness import DynamicInstance, run_dynamic_experiment
        from repro.experiments.sweeps import dynamic_scenario
        from repro.schedulers.adaptive import AdaptiveScheduler

        platform, grid, timeline = dynamic_scenario("crash-recovery", 0.2, scale=0.3)
        modes = ("oblivious", "adaptive")
        res = run_dynamic_experiment(
            "bill",
            [DynamicInstance("crash", platform, grid, timeline)],
            [make_scheduler("Het")],
            modes=modes,
            objective="cost",
        )
        assert not res.failures
        obj = CostObjective()
        for mode, m in zip(modes, res.measurements):
            assert m.algorithm == f"Het[{mode}]"
            wrapper = AdaptiveScheduler(make_scheduler("Het", objective=obj), mode)
            sim = wrapper.run_dynamic(platform, grid, timeline)
            assert 0 in sim.enrolled
            assert m.meta["dollars"] == obj.result_dollars(sim, timeline=timeline)
            assert m.meta["objective_score"] == obj.evaluate_result(sim, timeline)
            assert m.meta["dollars"] < obj.dollars(obj.result_score(sim))


# ---------------------------------------------------------------------------
# objective-consistency property: makespan objective reproduces the goldens
# ---------------------------------------------------------------------------


def test_makespan_objective_reproduces_golden_figures():
    """Threading ``objective="makespan"`` through the harness must be a
    no-op: every golden fig4 makespan reproduces bit-identically."""
    from repro.experiments.figures import FIGURES
    from repro.experiments.harness import run_experiment
    from repro.schedulers.registry import default_suite

    with GOLDEN.open() as fh:
        golden = json.load(fh)["figures"]["fig4"]
    res = run_experiment(
        "fig4-objective",
        FIGURES["fig4"](0.1),
        default_suite(),
        objective="makespan",
    )
    got = {f"{m.algorithm}|{m.instance}": m.makespan for m in res.measurements}
    assert sorted(got) == sorted(golden)
    for key, expected in golden.items():
        assert got[key] == expected, (
            f"makespan objective drifted on fig4 {key}: {got[key]!r} != {expected!r}"
        )
    for m in res.measurements:
        assert m.meta["objective"] == "makespan"
        assert m.meta["dollars"] == 0.0
