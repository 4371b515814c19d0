"""Unit tests for the demand-driven panel allocator."""

import pytest

from repro.core.blocks import BlockGrid
from repro.core.chunks import assert_partition
from repro.platform.model import Platform
from repro.sim.allocator import PanelDemandAllocator
from repro.sim.engine import Engine, simulate
from repro.sim.plan import Plan
from repro.sim.policies import ReadyPolicy, demand_priority


class TestPanelDemandAllocator:
    def test_refill_assigns_one_chunk_per_idle_worker(self):
        grid = BlockGrid(r=4, t=2, s=8)
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        eng = Engine(plat)
        alloc = PanelDemandAllocator(grid, sides=[2, 2])
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1
        assert len(eng.workers[1].chunks) == 1
        # no double assignment while the pipeline is pending
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1

    def test_excluded_worker_gets_nothing(self):
        grid = BlockGrid(r=4, t=2, s=8)
        plat = Platform.homogeneous(2, 1.0, 1.0, 50)
        eng = Engine(plat)
        alloc = PanelDemandAllocator(grid, sides=[2, 0])
        alloc.refill_via(eng.has_pending, eng.assign_chunk)
        assert len(eng.workers[0].chunks) == 1
        assert len(eng.workers[1].chunks) == 0

    def test_heterogeneous_sides_partition(self):
        grid = BlockGrid(r=5, t=3, s=11)
        plat = Platform.homogeneous(3, 1.0, 1.0, 60)
        alloc = PanelDemandAllocator(grid, sides=[2, 3, 4])
        plan = Plan(
            assignments=[[], [], []],
            policy=ReadyPolicy(demand_priority),
            depths=[2, 2, 2],
            allocator=alloc,
        )
        res = simulate(plat, plan, grid)
        assert_partition(res.chunks, grid)
        assert res.total_updates == grid.total_updates

    def test_toledo_chunks(self):
        grid = BlockGrid(r=4, t=7, s=6)
        plat = Platform.homogeneous(1, 1.0, 1.0, 30)
        alloc = PanelDemandAllocator(grid, sides=[3], toledo=True)
        plan = Plan(
            assignments=[[]],
            policy=ReadyPolicy(demand_priority),
            depths=[1],
            allocator=alloc,
        )
        res = simulate(plat, plan, grid)
        assert_partition(res.chunks, grid)
        # Toledo rounds cover sigma-wide k ranges
        assert all(len(ch.rounds) == 3 for ch in res.chunks)  # ceil(7/3)

    def test_no_usable_worker_never_exhausts(self):
        grid = BlockGrid(r=2, t=2, s=2)
        alloc = PanelDemandAllocator(grid, sides=[0])
        assert not alloc.exhausted
