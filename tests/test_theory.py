"""Tests for the Section 3 bounds and CCR formulas."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.layout import max_reuse_mu
from repro.platform.model import Platform, Worker
from repro.schedulers.single_worker import MaxReuseSingleWorker
from repro.theory.bounds import (
    bound_improvement_factor,
    ccr_lower_bound,
    loomis_whitney,
    max_updates_per_window,
    toledo_ccr_lower_bound,
)
from repro.theory.ccr import (
    max_reuse_ccr,
    max_reuse_ccr_asymptotic,
    maxreuse_vs_toledo_factor,
    measured_ccr,
    optimality_gap,
    toledo_ccr,
    toledo_ccr_asymptotic,
)
from repro.theory.overhead import c_io_overhead, paper_example


class TestBounds:
    def test_loomis_whitney(self):
        assert loomis_whitney(4, 9, 16) == pytest.approx(24.0)

    def test_window_updates(self):
        assert max_updates_per_window(3) == pytest.approx(2.0**1.5)

    def test_improved_vs_toledo(self):
        """The new bound is 3*sqrt(3) times larger."""
        for m in (10, 100, 5242):
            assert ccr_lower_bound(m) / toledo_ccr_lower_bound(m) == pytest.approx(
                bound_improvement_factor()
            )
        assert bound_improvement_factor() == pytest.approx(3 * math.sqrt(3))

    @given(st.integers(1, 10**9))
    def test_bound_positive_decreasing(self, m):
        b = ccr_lower_bound(m)
        assert b > 0
        assert ccr_lower_bound(m + 1) <= b

    def test_window_consistent_with_bound(self):
        """m communications / K updates equals the bound."""
        for m in (10, 100, 1000):
            assert m / max_updates_per_window(m) == pytest.approx(ccr_lower_bound(m))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ccr_lower_bound(0)
        with pytest.raises(ValueError):
            loomis_whitney(-1, 1, 1)


class TestCCRFormulas:
    def test_figure2_value(self):
        """m=21, mu=4: CCR = 2/t + 1/2."""
        assert max_reuse_ccr(21, t=100) == pytest.approx(0.02 + 0.5)

    @given(st.integers(3, 10**6), st.integers(1, 10**4))
    def test_ccr_above_lower_bound(self, m, t):
        assert max_reuse_ccr(m, t) > ccr_lower_bound(m)

    @given(st.integers(27, 10**6))
    def test_toledo_worse_than_max_reuse(self, m):
        assert toledo_ccr_asymptotic(m) >= max_reuse_ccr_asymptotic(m)

    def test_sqrt3_factor_asymptotic(self):
        m = 3 * (10**6) ** 2  # huge, rounding negligible
        ratio = toledo_ccr_asymptotic(m) / max_reuse_ccr_asymptotic(m)
        assert ratio == pytest.approx(maxreuse_vs_toledo_factor(), rel=1e-3)

    def test_optimality_gap_converges(self):
        assert optimality_gap(10**8) == pytest.approx(math.sqrt(32 / 27), rel=1e-3)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            max_reuse_ccr(21, 0)


class TestMeasuredCCR:
    def test_matches_formula_when_divisible(self):
        """Simulated single-worker max re-use realizes exactly 2/t + 2/mu."""
        m = 21  # mu = 4
        mu = max_reuse_mu(m)
        grid = BlockGrid(r=mu * 2, t=10, s=mu * 3)
        plat = Platform([Worker(0, c=1.0, w=1.0, m=m)])
        res = MaxReuseSingleWorker().run(plat, grid)
        assert measured_ccr(res) == pytest.approx(max_reuse_ccr(m, grid.t))

    def test_above_bound(self):
        m = 45
        grid = BlockGrid(r=12, t=8, s=12)
        plat = Platform([Worker(0, c=1.0, w=1.0, m=m)])
        res = MaxReuseSingleWorker().run(plat, grid)
        assert measured_ccr(res) > ccr_lower_bound(m)

    def test_no_updates_rejected(self):
        from repro.sim.fastpath import FastEngine

        res = FastEngine(Platform.homogeneous(1, 1.0, 1.0, 21)).result()
        with pytest.raises(ValueError):
            measured_ccr(res)


class TestOverhead:
    def test_paper_example(self):
        est = paper_example()
        assert est.n_workers == 5
        assert est.fraction == pytest.approx(20 / 450)
        assert est.fraction_bound == pytest.approx(4 / 100 + 4 / 450)

    def test_loss_below_bound(self):
        for c, w, mu, t in [(1.0, 2.0, 3, 50), (0.5, 4.0, 8, 200), (2.0, 4.5, 4, 100)]:
            est = c_io_overhead(c, w, mu, t)
            assert est.fraction <= est.fraction_bound + 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            c_io_overhead(0.0, 1.0, 1, 1)
