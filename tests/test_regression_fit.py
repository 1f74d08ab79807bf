"""Regression fit and efficiency factor (Eq. 1-2) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.regression import efficiency_factor, fit_iteration_pairs


class TestFit:
    def test_exact_line_snaps_to_integers(self):
        fit = fit_iteration_pairs([(i, i) for i in range(10)])
        assert fit.a == 1.0
        assert fit.b == 0.0
        assert fit.r2 == pytest.approx(1.0)

    def test_offset_line(self):
        fit = fit_iteration_pairs([(i, i - 3) for i in range(3, 20)])
        assert fit.a == 1.0
        assert fit.b == -3.0

    def test_fractional_slope(self):
        fit = fit_iteration_pairs([(4 * j, j) for j in range(12)])
        assert fit.a == pytest.approx(0.25)

    def test_noisy_fit_r2_below_one(self):
        rng = np.random.default_rng(0)
        pairs = [(i, i + int(rng.integers(-2, 3))) for i in range(50)]
        fit = fit_iteration_pairs(pairs)
        assert 0.9 < fit.r2 < 1.0
        assert fit.a == pytest.approx(1.0, abs=0.1)
        assert 0.0 <= efficiency_factor(fit.a, fit.b, 50, 50) <= 2.0

    def test_single_pair_degenerates(self):
        fit = fit_iteration_pairs([(5, 7)])
        assert fit.a == 0.0
        assert fit.b == 7.0

    def test_zero_variance_x(self):
        fit = fit_iteration_pairs([(3, 1), (3, 5), (3, 9)])
        assert fit.a == 0.0
        assert fit.b == pytest.approx(5.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_iteration_pairs([])

    @given(
        a=st.integers(1, 5),
        b=st.integers(-5, 5),
        n=st.integers(5, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_recovers_exact_integer_lines(self, a, b, n):
        pairs = [(x, a * x + b) for x in range(n)]
        fit = fit_iteration_pairs(pairs)
        assert fit.a == pytest.approx(a)
        assert fit.b == pytest.approx(b)


class TestEfficiencyFactor:
    def test_perfect_pipeline(self):
        assert efficiency_factor(1.0, 0.0, 100, 100) == pytest.approx(1.0)

    def test_paper_reg_detect_value(self):
        # a=1, b=-1 over ~100 iterations -> e ~ 0.99 (Table IV)
        e = efficiency_factor(1.0, -1.0, 100, 100)
        assert e == pytest.approx((1 - 0.01) ** 2, abs=1e-6)
        assert 0.97 < e < 1.0

    def test_paper_fluidanimate_shape(self):
        # a=0.05 with 20x iteration ratio normalizes back to slope 1
        e = efficiency_factor(0.05, -3.5, 2000, 100)
        assert 0.9 < e < 1.0

    def test_wait_for_everything_is_zero(self):
        # all of y waits for the very end of x
        assert efficiency_factor(0.0, 0.0, 100, 100) == 0.0

    def test_positive_b_exceeds_one(self):
        # Table II: first b iterations of y depend on nothing -> e > 1
        assert efficiency_factor(1.0, 20.0, 100, 100) > 1.0

    def test_fully_negative_line_is_zero(self):
        assert efficiency_factor(0.5, -100.0, 100, 100) == 0.0

    def test_degenerate_trip_counts(self):
        assert efficiency_factor(1.0, 0.0, 0, 100) == 0.0
        assert efficiency_factor(1.0, 0.0, 100, 0) == 0.0

    @given(
        a=st.floats(0.01, 10.0, allow_nan=False),
        b=st.floats(-50.0, 50.0, allow_nan=False),
        nx=st.integers(1, 500),
        ny=st.integers(1, 500),
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_finite(self, a, b, nx, ny):
        e = efficiency_factor(a, b, nx, ny)
        assert e >= 0.0
        assert np.isfinite(e)

    @given(
        b=st.floats(-20.0, -0.1, allow_nan=False),
        nx=st.integers(10, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_b_reduces_efficiency(self, b, nx):
        base = efficiency_factor(1.0, 0.0, nx, nx)
        shifted = efficiency_factor(1.0, b, nx, nx)
        assert shifted <= base + 1e-12

    @given(nx=st.integers(2, 400))
    @settings(max_examples=60, deadline=None)
    def test_normalization_is_scale_free(self, nx):
        # a perfect pipeline is perfect at any size
        assert efficiency_factor(1.0, 0.0, nx, nx) == pytest.approx(1.0)
        # and a 4:1 slope with matching trip counts is also perfect
        assert efficiency_factor(0.25, 0.0, 4 * nx, nx) == pytest.approx(1.0)
