"""Cross-algorithm integration tests: every scheduler, every platform type."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import assert_partition
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.registry import SCHEDULERS, default_suite, make_scheduler
from repro.sim.validate import validate_result

ALGOS = ["Hom", "HomI", "Het", "ORROML", "OMMOML", "ODDOML", "BMM"]


class TestRegistry:
    def test_known_names(self):
        assert set(ALGOS) <= set(SCHEDULERS)

    def test_default_suite_order(self):
        assert [s.name for s in default_suite()] == ALGOS

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_scheduler("nope")

    def test_instances_are_fresh(self):
        assert make_scheduler("Het") is not make_scheduler("Het")


@pytest.mark.parametrize("name", ALGOS)
class TestAllSchedulers:
    def test_homogeneous_platform(self, name, hom_platform, small_grid):
        res = make_scheduler(name).run(hom_platform, small_grid)
        validate_result(res)
        assert_partition(res.chunks, small_grid)
        assert res.total_updates == small_grid.total_updates
        assert res.meta["algorithm"] == name

    def test_heterogeneous_ragged(self, name, het_platform, ragged_grid):
        res = make_scheduler(name).run(het_platform, ragged_grid)
        validate_result(res)
        assert_partition(res.chunks, ragged_grid)
        assert res.total_updates == ragged_grid.total_updates

    def test_single_worker_platform(self, name, small_grid):
        plat = Platform([Worker(0, 1.0, 1.0, 21)])
        res = make_scheduler(name).run(plat, small_grid)
        validate_result(res)
        assert res.n_enrolled == 1

    def test_makespan_positive_and_finite(self, name, het_platform, small_grid):
        res = make_scheduler(name).run(het_platform, small_grid)
        assert 0 < res.makespan < float("inf")

    def test_infeasible_memory_raises(self, name, small_grid):
        plat = Platform([Worker(0, 1.0, 1.0, 2)])
        with pytest.raises(SchedulingError):
            make_scheduler(name).plan(plat, small_grid)


class TestAlgorithmCharacter:
    """Each heuristic's defining behaviour."""

    def test_oddoml_uses_every_usable_worker(self, het_platform):
        grid = BlockGrid(r=4, t=3, s=40)
        res = make_scheduler("ODDOML").run(het_platform, grid)
        assert res.n_enrolled == het_platform.p

    def test_orroml_uses_every_usable_worker(self, het_platform):
        grid = BlockGrid(r=4, t=3, s=40)
        res = make_scheduler("ORROML").run(het_platform, grid)
        assert res.n_enrolled == het_platform.p

    def test_bmm_ignores_overlap(self, hom_platform, small_grid):
        """BMM never overlaps a worker's compute with its own receive."""
        res = make_scheduler("BMM").run(hom_platform, small_grid)
        comp_by_worker: dict[int, list] = {}
        for evt in res.compute_events:
            comp_by_worker.setdefault(evt.worker, []).append(evt)
        for evt in res.port_events:
            for comp in comp_by_worker.get(evt.worker, []):
                overlap = min(evt.end, comp.end) - max(evt.start, comp.start)
                assert overlap <= 1e-9

    def test_bmm_uses_toledo_chunks(self, hom_platform, small_grid):
        res = make_scheduler("BMM").run(hom_platform, small_grid)
        sigma = 2  # m=21 -> sigma 2
        assert all(ch.h <= sigma and ch.w <= sigma for ch in res.chunks)

    def test_het_excludes_memoryless_worker(self, small_grid):
        plat = Platform(
            [Worker(0, 1.0, 1.0, 45), Worker(1, 1.0, 1.0, 45), Worker(2, 1.0, 1.0, 4)]
        )
        res = make_scheduler("Het").run(plat, small_grid)
        assert 2 not in res.enrolled

    def test_het_reports_variant_scores(self, het_platform, small_grid):
        res = make_scheduler("Het").run(het_platform, small_grid)
        scores = res.meta["variant_makespans"]
        assert len(scores) == 8
        assert res.meta["variant"] in scores
        # the chosen variant realizes its predicted makespan
        assert res.makespan == pytest.approx(scores[res.meta["variant"]])

    @pytest.mark.parametrize("name", ["Het", "HetL"])
    def test_het_returns_winner_as_a_fresh_build(self, name, het_platform, ragged_grid):
        """Het hands back the scored winning candidate; it must equal the
        plan a fresh build of the winning variant's sequence gives."""
        from repro.schedulers.selection import (
            ALL_VARIANTS,
            build_plan_from_sequence,
            incremental_selection,
        )

        sched = make_scheduler(name)
        plan = sched.plan(het_platform, ragged_grid)
        variant = next(v for v in ALL_VARIANTS if v.label == plan.meta["variant"])
        pgrid = sched.geometry.plan_grid(ragged_grid)
        fresh = build_plan_from_sequence(
            het_platform, pgrid, incremental_selection(het_platform, pgrid, variant)
        )
        fresh.meta.update(
            {
                "algorithm": name,
                "variant_makespans": plan.meta["variant_makespans"],
                "predicted_makespan": plan.meta["predicted_makespan"],
            }
        )
        fresh = sched.geometry.finalize(fresh, ragged_grid)
        assert plan.assignments == fresh.assignments
        assert plan.depths == fresh.depths
        assert type(plan.policy) is type(fresh.policy)
        assert plan.policy.priority == fresh.policy.priority
        assert plan.allocator is None and fresh.allocator is None
        assert plan.c_mode == fresh.c_mode
        assert plan.meta == fresh.meta
        assert plan.meta["predicted_makespan"] == min(plan.meta["variant_makespans"].values())

    def test_hom_and_homi_equal_on_homogeneous(self, hom_platform, small_grid):
        hom = make_scheduler("Hom").run(hom_platform, small_grid)
        homi = make_scheduler("HomI").run(hom_platform, small_grid)
        assert hom.makespan == pytest.approx(homi.makespan)

    def test_resource_selection_comm_bound(self, comm_bound_platform, small_grid):
        """With a saturated port, Hom enrolls a single worker."""
        res = make_scheduler("Hom").run(comm_bound_platform, small_grid)
        assert res.n_enrolled == 1

    def test_more_workers_enrolled_comp_bound(self, comp_bound_platform, small_grid):
        res = make_scheduler("Hom").run(comp_bound_platform, small_grid)
        assert res.n_enrolled == comp_bound_platform.p


class TestMaxReuseSingleWorker:
    def test_runs_and_validates(self, small_grid):
        plat = Platform([Worker(0, 1.0, 1.0, 50)])
        res = make_scheduler("MaxReuse1").run(plat, small_grid)
        validate_result(res)
        assert_partition(res.chunks, small_grid)

    def test_plain_mu_used(self, small_grid):
        plat = Platform([Worker(0, 1.0, 1.0, 21)])
        plan = make_scheduler("MaxReuse1").plan(plat, small_grid)
        assert plan.meta["mu"] == 4  # plain layout, not overlapped (3)
