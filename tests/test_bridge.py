from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles as orc
from tailcost import bridge, drifts
from tailcost.drifts import DriftSpec
from tailcost.pde import Grid1D, PdeError, _cn_march
from tailcost.simulate import SimConfig

EPS = 0.1
QUERY = bridge.BridgeQuery(y_start=-1.0, T=1.0, delta=0.25, epsilon=EPS)


def _offset_drift() -> DriftSpec:
    # does not vanish at the pin, so the concentration scope must refuse it
    return DriftSpec(
        name="offset",
        b=lambda y, t: 0.1 + 0.0 * y,
        db_dy=lambda y, t: 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=False,
    )


# ------------------------------------------------------------------- types

def test_query_validation() -> None:
    with pytest.raises(ValueError):
        bridge.BridgeQuery(-1.0, 0.0, 0.1, EPS)
    with pytest.raises(ValueError):
        bridge.BridgeQuery(-1.0, 1.0, 0.0, EPS)
    with pytest.raises(ValueError):
        bridge.BridgeQuery(-1.0, 1.0, 0.6, EPS)
    with pytest.raises(ValueError):
        bridge.BridgeQuery(-1.0, 1.0, 0.25, 0.0)
    assert QUERY.sample_time == pytest.approx(0.75)


def test_estimate_validation() -> None:
    with pytest.raises(ValueError):
        bridge.BridgeEstimate(0.0, -1e-3, 0.5, 0.5, "exact-linear")
    with pytest.raises(ValueError):
        bridge.BridgeEstimate(0.0, 0.1, 1.5, 0.5, "exact-linear")
    with pytest.raises(ValueError):
        bridge.BridgeEstimate(0.0, 0.1, 0.5, 0.5, "guesswork")


def test_resources_validation() -> None:
    with pytest.raises(ValueError):
        bridge.GreenResources(n_y=50)
    with pytest.raises(ValueError):
        bridge.GreenResources(n_t=10)


def test_linear_pieces_requires_linear_drift() -> None:
    with pytest.raises(ValueError):
        bridge.linear_pieces(drifts.logcosh_drift(), QUERY)
    leg1, leg2 = bridge.linear_pieces(drifts.zero_drift(), QUERY)
    assert leg1.Lambda == pytest.approx(1.0) and leg1.sigma2 == pytest.approx(0.75)
    assert leg2.Lambda == pytest.approx(1.0) and leg2.sigma2 == pytest.approx(0.25)


# ------------------------------------------------------------ linear route

def test_brownian_bridge_exact() -> None:
    spec = drifts.zero_drift()
    est = bridge.linear_bridge_moments(bridge.linear_pieces(spec, QUERY), QUERY)
    assert est.method == "exact-linear"
    assert est.mean == pytest.approx(orc.BB_MEAN, abs=1e-12)
    assert est.variance == pytest.approx(orc.BB_VAR, abs=1e-12)
    assert est.prob_below == pytest.approx(orc.BB_PROB_BELOW_C4, rel=1e-12)
    assert est.prob_above == pytest.approx(orc.BB_PROB_ABOVE_C025, rel=1e-12)
    assert est.extra["mean_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_growing_drift_mean_is_the_two_leg_minimizer() -> None:
    spec = drifts.linear_drift(0.5)
    pieces = bridge.linear_pieces(spec, QUERY)
    est = bridge.linear_bridge_moments(pieces, QUERY)
    assert est.mean == pytest.approx(orc.PIN_MEAN_A05, abs=1e-12)
    assert est.variance / EPS == pytest.approx(orc.PIN_VAR_UNIT_EPS_A05, rel=1e-12)
    # independent route: minimize the two-leg zero-noise cost numerically
    res = minimize_scalar(lambda z: bridge.two_leg_classical_cost(pieces, -1.0, z),
                          bounds=(-1.0, 0.5), method="bounded",
                          options={"xatol": 1e-10})
    assert res.x == pytest.approx(est.mean, abs=1e-6)
    assert res.x == pytest.approx(orc.two_leg_minimizer(-1.0, 1.0, 0.25, A=0.5), abs=1e-8)


def test_mean_ratio_stays_sandwiched() -> None:
    for A in (0.0, 0.25, 0.5):
        spec = drifts.linear_drift(A) if A else drifts.zero_drift()
        est = bridge.linear_bridge_moments(bridge.linear_pieces(spec, QUERY), QUERY)
        ratio = est.extra["mean_ratio"]
        assert 0.5 < ratio <= 1.0 + 1e-12


def test_mean_decays_with_the_look_back() -> None:
    # at delta = T the slice is the start point itself (mean y, outside the
    # query scope); from there the mean must shrink monotonically toward
    # the pinned endpoint
    spec = drifts.zero_drift()
    last = 1.0  # |y|
    for delta in (0.5, 0.125, 1.0 / 64.0):
        q = bridge.BridgeQuery(-1.0, 1.0, delta, EPS)
        est = bridge.linear_bridge_moments(bridge.linear_pieces(spec, q), q)
        assert abs(est.mean) < last
        last = abs(est.mean)
    assert last < 0.02


# -------------------------------------------------------- quadrature route

def test_green_matches_exact_linear() -> None:
    for A in (0.0, 0.25, 0.5):
        spec = drifts.linear_drift(A) if A else drifts.zero_drift()
        exact = bridge.linear_bridge_moments(bridge.linear_pieces(spec, QUERY), QUERY)
        quad = bridge.conditional_prob_green(spec, QUERY, 4.0, "below")
        assert quad.method == "green-quadrature"
        assert quad.mean == pytest.approx(exact.mean, rel=1e-3)
        assert quad.variance == pytest.approx(exact.variance, rel=1e-3)
        assert abs(quad.prob_below - exact.prob_below) < 1e-3


def test_green_tracks_fast_time_varying_drift() -> None:
    # A(s) takes the same value at s = 0, 1/2 and 1, so both legs must
    # re-evaluate the drift at every time level to follow it
    spec = drifts.time_varying_linear(0.25, 0.25, 4.0 * math.pi)
    exact = bridge.linear_bridge_moments(bridge.linear_pieces(spec, QUERY), QUERY)
    quad = bridge.conditional_prob_green(spec, QUERY, 4.0, "below")
    assert quad.mean == pytest.approx(exact.mean, rel=2e-3)
    assert quad.variance == pytest.approx(exact.variance, rel=2e-3)


@pytest.mark.parametrize("time_homogeneous", [False, True])
def test_non_finite_drift_raises_pde_error(time_homogeneous: bool) -> None:
    spec = DriftSpec(
        name="nan-above-3",
        b=lambda y, t: np.where(np.asarray(y) > 3.0, np.nan, 0.0),
        db_dy=lambda y, t: 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
        time_homogeneous=time_homogeneous,
    )
    with pytest.raises(PdeError, match="nan-above-3"):
        bridge.bridge_kernel(spec, QUERY, bridge.GreenResources(n_y=401, n_t=101))


def test_kernel_with_a_nan_leg_is_refused(monkeypatch: pytest.MonkeyPatch) -> None:
    # a NaN mass compares false against the floor; it must still be refused
    march = bridge._cn_march

    def poisoned(*args, **kwargs):
        leg = march(*args, **kwargs)
        leg[leg.size // 2] = np.nan
        return leg

    monkeypatch.setattr(bridge, "_cn_march", poisoned)
    with pytest.raises(bridge.IllConditionedBridgeError):
        bridge.bridge_kernel(drifts.zero_drift(), QUERY, bridge.GreenResources(n_y=401, n_t=101))


SWEEP = (-1.0, -1.2, -1.4)
FRACTIONS = (bridge.DEFAULT_C_BELOW, bridge.DEFAULT_C_ABOVE)


@pytest.mark.parametrize("spec", [
    drifts.zero_drift(), drifts.logcosh_drift(), drifts.linear_drift(0.5),
    drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi),
], ids=lambda s: s.name)
def test_shared_lattice_columns_match_lone_marches(spec) -> None:
    res = bridge.GreenResources(n_y=401, n_t=101)
    kern = bridge.bridge_kernel(spec, QUERY, res, SWEEP, FRACTIONS)
    xi = kern.xi
    h = (xi[-1] - xi[0]) / (xi.size - 1)
    grid = Grid1D(xi[0], xi[-1], xi.size, 0.0, QUERY.sample_time, res.n_t)
    for i, y in enumerate(SWEEP):
        # no start gets a coarser or narrower lattice than it anchors alone
        query = dataclasses.replace(QUERY, y_start=y)
        ((_, (lo, hi, n)),) = bridge._lattices(spec, query, res, (y,), FRACTIONS)
        assert h <= (hi - lo) / (n - 1) and xi[0] <= lo and xi[-1] >= hi
        point = np.zeros(xi.size)
        point[grid.nearest_node(y)] = 1.0 / grid.h_y
        assert xi[grid.nearest_node(y)] == pytest.approx(y, abs=1e-12)
        lone = np.clip(_cn_march(spec, point, grid, EPS, 0.0, False), 0.0, None)
        assert np.array_equal(kern.fan[i], lone)


def test_kernel_with_a_nan_column_is_refused(monkeypatch: pytest.MonkeyPatch) -> None:
    march = bridge._cn_march

    def poisoned(*args, **kwargs):
        leg = march(*args, **kwargs)
        if leg.ndim == 2:
            leg[1, leg.shape[1] // 2] = np.nan
        return leg

    monkeypatch.setattr(bridge, "_cn_march", poisoned)
    with pytest.raises(bridge.IllConditionedBridgeError, match="y=-1.2"):
        bridge.bridge_kernel(drifts.zero_drift(), QUERY, bridge.GreenResources(n_y=401, n_t=101),
                             SWEEP)


@pytest.mark.parametrize("spec", [
    drifts.linear_drift(0.5), drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi),
], ids=lambda s: s.name)
def test_every_shared_start_meets_the_closed_form(spec) -> None:
    # the invariant:bridge-pair gates, at every start of the shared lattice
    kernels = bridge.bridge_kernels(spec, QUERY, SWEEP, FRACTIONS)
    assert len(kernels) == 1
    for y in SWEEP:
        query = dataclasses.replace(QUERY, y_start=y)
        exact = bridge.linear_bridge_moments(bridge.linear_pieces(spec, query), query)
        below, above = (
            bridge.conditional_prob_green(spec, query, c, side, kernels=kernels)
            for c, side in zip(FRACTIONS, ("below", "above"))
        )
        assert abs(below.mean - exact.mean) <= 2e-3 * abs(exact.mean)
        assert abs(below.variance - exact.variance) <= 2e-3 * exact.variance
        assert abs(below.prob_below - exact.prob_below) <= 1e-3
        assert abs(above.prob_above - exact.prob_above) <= 1e-3


def test_green_normalization() -> None:
    spec = drifts.zero_drift()
    # threshold far to the right of all mass: c*delta*y/T = -100
    full = bridge.conditional_prob_green(spec, QUERY, -400.0, "below")
    assert full.extra["theta"] == pytest.approx(100.0)
    assert abs(full.prob_below - 1.0) <= 1e-4
    # complementary pair from two independent evaluations
    below = bridge.conditional_prob_green(spec, QUERY, 1.7, "below")
    above = bridge.conditional_prob_green(spec, QUERY, 1.7, "above")
    assert abs(below.prob_below + above.prob_above - 1.0) <= 1e-4


def test_green_mass_matches_transition_kernel() -> None:
    spec = drifts.zero_drift()
    quad = bridge.conditional_prob_green(spec, QUERY, 4.0, "below")
    assert quad.extra["mass"] == pytest.approx(orc.green_kernel(-1.0, 0.0, EPS), rel=2e-3)
    assert quad.extra["fan_mass"] == pytest.approx(1.0, abs=1e-6)


def test_green_refinement_audit() -> None:
    # the quadrature at 1201 target nodes against its refinement at 2401
    coarse, fine = (
        bridge.conditional_prob_green(drifts.zero_drift(), QUERY, 4.0, "below",
                                      bridge.GreenResources(n_y=n_y, n_t=601))
        for n_y in (1201, 2401)
    )
    assert abs(fine.prob_below - coarse.prob_below) < 1e-5
    assert abs(fine.mean - coarse.mean) < 1e-4


def test_green_input_guards() -> None:
    with pytest.raises(ValueError):
        bridge.conditional_prob_green(drifts.zero_drift(), QUERY, 4.0, "sideways")
    mismatched = bridge.BridgeQuery(-1.0, 2.0, 0.5, EPS)
    with pytest.raises(ValueError):
        bridge.conditional_prob_green(drifts.zero_drift(), mismatched, 4.0, "below")


def test_unresolvable_bridge_raises() -> None:
    deep = bridge.BridgeQuery(-14.0, 1.0, 0.25, 0.05)
    with pytest.raises(bridge.IllConditionedBridgeError):
        bridge.conditional_prob_green(drifts.zero_drift(), deep, 4.0, "below")


# ------------------------------------------------------- concentration fits

def test_concentration_zero_drift_shallow_sweep() -> None:
    rep = bridge.concentration_check(drifts.zero_drift(), EPS, 1.0,
                                     np.linspace(-1.35, -0.75, 7), [0.25])
    assert rep.passed
    assert rep.r2_below >= 0.99 and rep.r2_above >= 0.99
    # the deep event tracks the quadratic tail exponent
    loc = orc.local_exponent(4.0, 1.0, 0.25)
    assert abs(rep.gamma_below - loc) / loc < 0.15
    # probabilities shrink as the start moves deeper
    for event in ("below", "above"):
        probs = [r.probability for r in rep.rows if r.event == event]
        assert all(a < b for a, b in zip(probs, probs[1:]))


def test_concentration_zero_drift_deep_sweep() -> None:
    rep = bridge.concentration_check(drifts.zero_drift(), EPS, 1.0,
                                     np.linspace(-3.5, -2.3, 7), [0.25],
                                     c_below=1.5)
    assert rep.passed
    for gamma, c in ((rep.gamma_below, 1.5), (rep.gamma_above, 0.25)):
        loc = orc.local_exponent(c, 1.0, 0.25)
        assert abs(gamma - loc) / loc < 0.15


def test_concentration_concave_drift() -> None:
    rep = bridge.concentration_check(drifts.logcosh_drift(), EPS, 1.0,
                                     np.linspace(-1.6, -0.8, 5), [0.25],
                                     c_below=2.0)
    assert rep.passed
    assert rep.gamma_below > 0.0 and rep.gamma_above > 0.0
    # fitted envelope dominates every computed tail
    for row in rep.rows:
        if row.event == "below":
            assert row.probability <= row.bound_rhs


def test_concentration_scope_gates() -> None:
    with pytest.raises(bridge.EmptySweepError):
        bridge.concentration_check(drifts.zero_drift(), EPS, 1.0, [-0.3], [0.25])
    with pytest.raises(ValueError):
        bridge.concentration_check(drifts.linear_drift(0.8), EPS, 1.0, [-2.0], [0.25])
    with pytest.raises(ValueError):
        bridge.concentration_check(_offset_drift(), EPS, 1.0, [-2.0], [0.25])


def test_concentration_rows_and_summary() -> None:
    rep = bridge.concentration_check(drifts.zero_drift(), EPS, 1.0,
                                     [-1.2, -1.0], [0.25])
    rows = list(bridge.concentration_rows(rep))
    assert len(rows) == 4
    for y, delta, event, prob, rhs in rows:
        assert event in ("below", "above")
        assert 0.0 <= prob <= 1.0 and rhs > 0.0
    summary = bridge.concentration_summary(rep)
    assert set(summary) >= {"gamma_below", "gamma_above", "r2_below",
                            "r2_above", "passed", "n_rows"}
    assert summary["n_rows"] == 4


# ------------------------------------------------------------ sampling route

def test_monte_carlo_route_agrees() -> None:
    n = 200_000
    mc = bridge.bridge_monte_carlo(QUERY, SimConfig(n_paths=n, dt=1e-3, seed=17))
    assert mc.method == "monte-carlo"
    assert abs(mc.mean - orc.BB_MEAN) <= 3.0 * mc.extra["se_mean"]
    assert abs(mc.variance - orc.BB_VAR) <= 3.0 * orc.BB_VAR * math.sqrt(2.0 / n)
    assert abs(mc.prob_above - orc.BB_PROB_ABOVE_C025) <= 3.0 * mc.extra["se_above"]
