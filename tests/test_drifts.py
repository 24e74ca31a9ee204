from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import oracles as orc
from tailcost import drifts


BUILTINS = [
    drifts.zero_drift(),
    drifts.linear_drift(0.5),
    drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi),
    drifts.logcosh_drift(),
    drifts.sin_drift(),
]


def test_spot_check_accepts_builtins() -> None:
    for spec in BUILTINS:
        drifts.spot_check(spec)


def test_builtins_declare_time_dependence() -> None:
    assert [spec.time_homogeneous for spec in BUILTINS] == [True, True, False, True, True]


def test_spot_check_rejects_false_time_homogeneous_flag() -> None:
    forged = dataclasses.replace(
        drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi), time_homogeneous=True
    )
    with pytest.raises(drifts.DriftError, match="time-homogeneous"):
        drifts.spot_check(forged)


def test_spot_check_rejects_false_concavity_flag() -> None:
    base = drifts.sin_drift()
    forged = drifts.DriftSpec(
        name="forged",
        b=base.b,
        db_dy=base.db_dy,
        d2b_dy2=base.d2b_dy2,
        lipschitz_A=base.lipschitz_A,
        is_concave=True,
        vanishes_at_origin=True,
    )
    with pytest.raises(drifts.DriftError):
        drifts.spot_check(forged)


def test_spot_check_rejects_understated_lipschitz_bound() -> None:
    base = drifts.linear_drift(0.5)
    forged = drifts.DriftSpec(
        name="forged",
        b=base.b,
        db_dy=base.db_dy,
        d2b_dy2=base.d2b_dy2,
        lipschitz_A=0.1,
        is_concave=True,
        vanishes_at_origin=True,
    )
    with pytest.raises(drifts.DriftError):
        drifts.spot_check(forged)


def test_spot_check_rejects_false_origin_flag() -> None:
    forged = drifts.DriftSpec(
        name="forged",
        b=lambda y, t: 0.2 + 0.0 * y,
        db_dy=lambda y, t: 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
    )
    with pytest.raises(drifts.DriftError):
        drifts.spot_check(forged)


def test_spot_check_rejects_drift_that_needs_scalar_time() -> None:
    # math.cos takes no array, so a stored path (y_i, s_i) cannot be
    # evaluated in one call
    forged = drifts.DriftSpec(
        name="scalar-time",
        b=lambda y, t: (0.2 + 0.1 * math.cos(t)) * y,
        db_dy=lambda y, t: (0.2 + 0.1 * math.cos(t)) + 0.0 * y,
        d2b_dy2=lambda y, t: 0.0 * y,
        lipschitz_A=0.3,
        is_concave=True,
        vanishes_at_origin=True,
    )
    with pytest.raises(drifts.DriftError, match="broadcast"):
        drifts.spot_check(forged)


def test_derivatives_match_finite_differences() -> None:
    # centered differences at h = 1e-4 across the standard grid and times
    h = 1e-4
    y = np.linspace(-4.0, 4.0, 41)
    for spec in BUILTINS:
        for t in np.linspace(0.0, spec.horizon_T, 11):
            fd = (np.asarray(spec.b(y + h, t)) - np.asarray(spec.b(y - h, t))) / (2.0 * h)
            exact = np.asarray(spec.db_dy(y, t)) + 0.0 * y
            assert np.max(np.abs(fd - exact)) <= 1e-6
            if spec.d2b_dy2 is not None:
                fd2 = (
                    np.asarray(spec.db_dy(y + h, t)) - np.asarray(spec.db_dy(y - h, t))
                ) / (2.0 * h)
                exact2 = np.asarray(spec.d2b_dy2(y, t)) + 0.0 * y
                assert np.max(np.abs(fd2 - exact2)) <= 1e-6


def test_drift_by_name() -> None:
    assert drifts.drift_by_name("zero").name == "zero"
    assert drifts.drift_by_name("linear", A=0.7).lipschitz_A == pytest.approx(0.7)
    assert drifts.drift_by_name("logcosh", c=0.7).lipschitz_A == pytest.approx(0.7)
    tv = drifts.drift_by_name("linear_tv", a0=0.3, a1=0.2, omega=1.0)
    assert tv.lipschitz_A == pytest.approx(0.5)
    assert drifts.drift_by_name("sin", amplitude=0.25).lipschitz_A == pytest.approx(0.25)
    with pytest.raises(drifts.DriftError):
        drifts.drift_by_name("cubic")


def test_logcosh_shape() -> None:
    spec = drifts.logcosh_drift(c=0.5)
    y = np.linspace(-30.0, 30.0, 121)
    b = np.asarray(spec.b(y, 0.0))
    assert np.all(np.isfinite(b))
    assert np.all(b[y != 0.0] < 0.0)
    assert float(spec.b(0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    # even in y, slope saturating at -c * sign(y)
    assert b[0] == pytest.approx(b[-1], rel=1e-12)
    assert float(spec.db_dy(30.0, 0.0)) == pytest.approx(-0.5, abs=1e-12)


def test_characteristic_zero_drift_is_identity() -> None:
    spec = drifts.zero_drift()
    for x in (-1.3, 0.0, 0.7):
        for t in (0.0, 0.3):
            assert drifts.characteristic_F(spec, x, t) == pytest.approx(x, abs=1e-12)


def test_characteristic_linear_drift() -> None:
    spec = drifts.linear_drift(0.5)
    assert drifts.characteristic_F(spec, 1.0, 0.0) == pytest.approx(
        math.exp(-0.5), abs=1e-9
    )
    assert drifts.characteristic_F(spec, -0.8, 0.25) == pytest.approx(
        -0.8 * math.exp(-0.375), abs=1e-9
    )


def test_characteristic_time_varying_linear_matches_stats_route() -> None:
    spec = drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi)
    for x, t in ((1.0, 0.0), (-0.6, 0.4)):
        stats = drifts.linear_stats(spec.A_of_s, t, spec.horizon_T)
        assert drifts.characteristic_F(spec, x, t) == pytest.approx(
            x / stats.Lambda, rel=1e-8
        )


def test_characteristic_logcosh() -> None:
    spec = drifts.logcosh_drift()
    assert drifts.characteristic_F(spec, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(-1.0, 1.0, 5)
    fs = [drifts.characteristic_F(spec, float(x), 0.0) for x in xs]
    assert np.all(np.diff(fs) > 0.0)


def test_linear_stats_constant_coefficients() -> None:
    stats = drifts.linear_stats(lambda s: 0.5, 0.0, 1.0)
    assert stats.Lambda == pytest.approx(orc.GROWTH_A05, rel=1e-10)
    assert stats.sigma2 == pytest.approx(orc.VAR_UNIT_A05, rel=1e-10)
    stats = drifts.linear_stats(lambda s: 0.0, 0.25, 1.0)
    assert stats.Lambda == pytest.approx(1.0, rel=1e-12)
    assert stats.sigma2 == pytest.approx(0.75, rel=1e-12)
    for A in (0.1, 0.25, 0.5, 0.75, 1.0):
        stats = drifts.linear_stats(lambda s, A=A: A, 0.0, 1.0)
        assert stats.Lambda == pytest.approx(math.exp(A), rel=1e-10)
        assert stats.sigma2 == pytest.approx(math.expm1(2.0 * A) / (2.0 * A), rel=1e-10)


def test_linear_stats_time_varying() -> None:
    a0, a1, omega = 0.3, 0.2, 2.0 * math.pi
    spec = drifts.time_varying_linear(a0, a1, omega)
    t = 0.25
    stats = drifts.linear_stats(spec.A_of_s, t, 1.0)
    growth_exact = a0 * (1.0 - t) + a1 * (math.sin(omega) - math.sin(omega * t)) / omega
    assert stats.Lambda == pytest.approx(math.exp(growth_exact), rel=1e-10)

    # independent route for sigma2: dense fixed-order quadrature
    s = np.linspace(t, 1.0, 4001)
    inner = a0 * (1.0 - s) + a1 * (math.sin(omega) - np.sin(omega * s)) / omega
    sigma2_dense = integrate.simpson(np.exp(2.0 * inner), x=s)
    assert stats.sigma2 == pytest.approx(sigma2_dense, rel=1e-9)


@pytest.mark.parametrize("T", [1.0, 4.0])
def test_linear_stats_many_periods(T: float) -> None:
    # eight periods of A on [0, 1], and two periods of A on [0, 4]: more
    # than one 16-node panel resolves
    a0, a1, omega = 0.25, 0.25, 16.0 * math.pi / T
    spec = drifts.time_varying_linear(a0, a1, omega, T=T)
    stats = drifts.linear_stats(spec.A_of_s, 0.0, T)
    assert stats.Lambda == pytest.approx(math.exp(a0 * T + a1 * math.sin(omega * T) / omega), rel=1e-10)
    s = np.linspace(0.0, T, 40001)
    inner = a0 * (T - s) + a1 * (math.sin(omega * T) - np.sin(omega * s)) / omega
    sigma2_dense = integrate.simpson(np.exp(2.0 * inner), x=s)
    assert stats.sigma2 == pytest.approx(sigma2_dense, rel=1e-10)


@pytest.mark.parametrize("A", [-10.0, -4.0, 4.0, 10.0])
def test_linear_stats_strong_growth_over_a_long_horizon(A: float) -> None:
    # exp(2 A (T - s)) spans 8 |A| e-folds on [0, 4]
    stats = drifts.linear_stats(lambda s: A, 0.0, 4.0)
    assert stats.Lambda == pytest.approx(math.exp(4.0 * A), rel=1e-10)
    assert stats.sigma2 == pytest.approx(math.expm1(8.0 * A) / (2.0 * A), rel=1e-10)


def test_linear_stats_refuses_what_the_rule_cannot_resolve() -> None:
    fast = drifts.time_varying_linear(0.25, 0.25, 1000.0 * math.pi)
    with pytest.raises(drifts.ConfigError, match="did not settle"):
        drifts.linear_stats(fast.A_of_s, 0.0, 1.0)
    with pytest.raises(drifts.ConfigError, match="did not settle"):
        drifts.linear_stats(lambda s: 0.5 if s < 0.3 else -0.5, 0.0, 1.0)


def test_linear_stats_rejects_bad_span() -> None:
    with pytest.raises(ValueError):
        drifts.linear_stats(lambda s: 0.5, 1.0, 1.0)


def test_stats_dataclass_rejects_degenerate_values() -> None:
    with pytest.raises(ValueError):
        drifts.LinearDriftStats(Lambda=0.0, sigma2=1.0)
    with pytest.raises(ValueError):
        drifts.LinearDriftStats(Lambda=1.0, sigma2=-1.0)
