"""Self-checks for the frozen oracle constants.

Each frozen number is recomputed here from its defining closed form, so
a typo in the frozen digits (or a regression in an oracle helper) fails
loudly before any library test runs.
"""

from __future__ import annotations

import math

import pytest
from scipy.special import ndtr

import oracles as orc

REL = 1e-12


def test_linear_a05_constants() -> None:
    assert orc.GROWTH_A05 == pytest.approx(math.exp(0.5), rel=REL)
    assert orc.VAR_UNIT_A05 == pytest.approx(math.expm1(1.0), rel=REL)
    assert orc.ACTION_A05 == pytest.approx(
        orc.GROWTH_A05**2 / (2.0 * orc.VAR_UNIT_A05), rel=REL
    )
    assert orc.ACTION_A05 == pytest.approx(orc.classical_cost(-1.0, 0.0, A=0.5), rel=REL)
    e = math.e
    assert orc.HESS_YY_A05 == pytest.approx(e / (e - 1.0), rel=REL)
    assert orc.HESS_XY_A05 == pytest.approx(-1.0 / (2.0 * math.sinh(0.5)), rel=REL)
    assert orc.HESS_XX_A05 == pytest.approx(1.0 / (e - 1.0), rel=REL)
    # determinant of the cross-section Hessian is zero: rank-one quadratic
    det = orc.HESS_YY_A05 * orc.HESS_XX_A05 - orc.HESS_XY_A05**2
    assert det == pytest.approx(0.0, abs=1e-12)


def test_zero_drift_probe_constants() -> None:
    assert orc.U_ZERO_PROBE == pytest.approx(float(ndtr(-math.sqrt(10.0))), rel=REL)
    assert orc.COST_EPS_ZERO_PROBE == pytest.approx(
        orc.gaussian_cost(-1.0, 0.0, 0.1), rel=REL
    )
    assert orc.GAP_ZERO_PROBE == pytest.approx(
        orc.COST_EPS_ZERO_PROBE - 0.5, rel=REL
    )
    assert orc.SLOPE_Y_ZERO_PROBE == pytest.approx(
        orc.gaussian_slope_y(-1.0, 0.0, 0.1), rel=REL
    )
    assert orc.SLOPE_X_ZERO_PROBE == pytest.approx(
        orc.gaussian_slope_x(-1.0, 0.0, 0.1), rel=REL
    )
    assert orc.GREEN_PEAK_ZERO == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * 0.1), rel=REL
    )
    assert orc.GREEN_PEAK_ZERO == pytest.approx(
        orc.green_kernel(0.0, 0.0, 0.1), rel=REL
    )


def test_gaussian_slopes_match_finite_differences() -> None:
    h = 1e-6
    for A in (0.0, 0.5):
        for y in (-1.5, -1.0, -0.4):
            fd_y = (
                orc.gaussian_cost(y + h, 0.0, 0.1, A)
                - orc.gaussian_cost(y - h, 0.0, 0.1, A)
            ) / (2.0 * h)
            assert orc.gaussian_slope_y(y, 0.0, 0.1, A) == pytest.approx(fd_y, abs=1e-6)
            fd_x = (
                orc.gaussian_cost(y, h, 0.1, A)
                - orc.gaussian_cost(y, -h, 0.1, A)
            ) / (2.0 * h)
            assert orc.gaussian_slope_x(y, 0.0, 0.1, A) == pytest.approx(fd_x, abs=1e-6)


def test_rate_tables() -> None:
    for eps, frozen in zip(orc.RATE_EPS, orc.RATE_GAPS_ZERO):
        gap = orc.gaussian_cost(-1.0, 0.0, eps) - 0.5
        assert frozen == pytest.approx(gap, rel=REL)
    for eps, frozen in zip(orc.RATE_EPS, orc.RATE_GAPS_LINEAR_A05):
        gap = orc.gaussian_cost(-1.0, 0.0, eps, A=0.5) - orc.ACTION_A05
        assert frozen == pytest.approx(gap, rel=REL)
    slope, _, r2 = orc.linear_fit(
        [math.log(e) for e in orc.RATE_EPS],
        [math.log(g) for g in orc.RATE_GAPS_ZERO],
    )
    assert slope == pytest.approx(orc.RATE_SLOPE_ZERO, rel=1e-9)
    assert r2 > 0.999
    slope, _, _ = orc.linear_fit(
        [math.log(e) for e in orc.RATE_EPS],
        [math.log(g) for g in orc.RATE_GAPS_LINEAR_A05],
    )
    assert slope == pytest.approx(orc.RATE_SLOPE_LINEAR_A05, rel=1e-9)


def test_pinned_conditional_constants() -> None:
    mean, var = orc.pinned_moments(-1.0, 1.0, 0.25, 0.1, A=0.0)
    assert mean == pytest.approx(orc.BB_MEAN, rel=REL)
    assert var == pytest.approx(orc.BB_VAR, rel=REL)
    assert orc.pinned_event_prob(-1.0, 1.0, 0.25, 0.1, 4.0, "below") == pytest.approx(
        orc.BB_PROB_BELOW_C4, rel=1e-10
    )
    assert orc.pinned_event_prob(-1.0, 1.0, 0.25, 0.1, 0.25, "above") == pytest.approx(
        orc.BB_PROB_ABOVE_C025, rel=1e-10
    )
    mean, var = orc.pinned_moments(-1.0, 1.0, 0.25, 0.1, A=0.5)
    assert mean == pytest.approx(orc.PIN_MEAN_A05, rel=REL)
    assert var / 0.1 == pytest.approx(orc.PIN_VAR_UNIT_EPS_A05, rel=1e-12)
    # conditional mean equals the two-leg action minimizer
    assert orc.two_leg_minimizer(-1.0, 1.0, 0.25, A=0.5) == pytest.approx(
        orc.PIN_MEAN_A05, rel=1e-12
    )
    assert orc.two_leg_minimizer(-1.0, 1.0, 0.25, A=0.0) == pytest.approx(
        orc.BB_MEAN, rel=1e-12
    )


def test_local_exponent_values() -> None:
    assert orc.local_exponent(4.0, 1.0, 0.25) == pytest.approx(6.0, rel=REL)
    assert orc.local_exponent(0.25, 1.0, 0.25) == pytest.approx(0.375, rel=REL)
    assert orc.fit_abscissa(-1.0, 1.0, 0.25, 0.1) == pytest.approx(2.5, rel=REL)


def test_single_span_exponent_fit_matches_local_value() -> None:
    # the sweep used by the acceptance check: one span, three start points
    T, delta, eps, c = 1.0, 0.25, 0.1, 4.0
    ys = [-1.0, -1.2, -1.4]
    xs = [orc.fit_abscissa(y, T, delta, eps) for y in ys]
    logs = [
        math.log(orc.pinned_event_prob(y, T, delta, eps, c, "below")) for y in ys
    ]
    slope, _, r2 = orc.linear_fit(xs, logs)
    gamma_hat = -slope
    gamma_loc = orc.local_exponent(c, T, delta)
    assert r2 > 0.999
    assert abs(gamma_hat - gamma_loc) / gamma_loc < 0.15


def test_conditioned_exceedance_constant() -> None:
    value = orc.conditioned_exceedance(-1.0, 0.0, 1.0, 1e-3, 0.1)
    assert value == pytest.approx(orc.CONDITIONED_EXCEEDANCE, rel=1e-10)
    # why criterion 06's former 0.99 gate was replaced: the conditioned law
    # itself sits below it, so the gate now targets this law
    assert value < 0.99


def test_cdf_bound_constant() -> None:
    assert orc.CDF_BOUND_AT_ZERO == pytest.approx(
        math.sqrt(math.pi * math.log(2.0)), rel=REL
    )
