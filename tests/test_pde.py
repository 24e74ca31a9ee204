from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles as orc
from tailcost import bridge, cli, drifts, pde

EPS = 0.1


def _grid(spec, x=0.0, eps=EPS, n=1201, **kw):
    return pde.default_grid(spec, x, eps, n_y=n, n_t=n, **kw)


# ----------------------------------------------------------------- grid rules

def test_grid_validation() -> None:
    with pytest.raises(ValueError):
        pde.Grid1D(1.0, -1.0, 101, 0.0, 1.0, 101)
    with pytest.raises(ValueError):
        pde.Grid1D(-1.0, 1.0, 2, 0.0, 1.0, 101)
    with pytest.raises(ValueError):
        pde.Grid1D(-1.0, 1.0, 101, 1.0, 1.0, 101)


def test_default_grid_centers_threshold() -> None:
    spec = drifts.zero_drift()
    grid = pde.default_grid(spec, 0.25, EPS, n_y=800, n_t=101)
    assert grid.n_y == 801  # evens are bumped to keep x on the middle node
    mid = grid.y_nodes()[grid.n_y // 2]
    assert mid == pytest.approx(0.25, abs=1e-12)
    # domain rule: max(8 sqrt(eps span), 4) around x for a driftless field
    assert grid.y_max - 0.25 == pytest.approx(4.0)


def test_solve_rejects_undersized_grid() -> None:
    spec = drifts.zero_drift()
    small = pde.Grid1D(-2.0, 2.0, 401, 0.0, 1.0, 401)
    with pytest.raises(pde.GridExtentError):
        pde.solve_u(spec, 0.0, small, EPS)


def test_solve_rejects_nonpositive_epsilon() -> None:
    spec = drifts.zero_drift()
    with pytest.raises(ValueError):
        pde.solve_u(spec, 0.0, _grid(spec, n=401), 0.0)


# ---------------------------------------------------------------- field facts

def test_zero_drift_matches_gaussian_oracle() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec)
    heat = pde.solve_u(spec, 0.0, grid, EPS)
    y = grid.y_nodes()
    probe = np.abs(y) <= 4.0 * math.sqrt(EPS)
    exact = np.array([orc.gaussian_u(v, 0.0, EPS) for v in y[probe]])
    assert np.max(np.abs(heat.u[0, probe] - exact)) <= 2e-5
    # symmetric drift: the threshold column stays at one half for all times
    j = grid.nearest_node(0.0)
    assert np.max(np.abs(heat.u[:, j] - 0.5)) <= 1e-12
    assert heat.diagnostics["max_principle"] <= pde.MAXPRINCIPLE_TOL
    assert heat.diagnostics["monotonicity"] <= pde.MONOTONE_TOL
    assert heat.diagnostics["peclet"] == pytest.approx(0.0)


def test_linear_drift_matches_gaussian_oracle() -> None:
    spec = drifts.linear_drift(0.5)
    grid = _grid(spec)
    heat = pde.solve_u(spec, 0.0, grid, EPS)
    stats = drifts.linear_stats(spec.A_of_s, 0.0, 1.0)
    y = grid.y_nodes()
    probe = np.abs(y) <= 4.0 * math.sqrt(EPS * stats.sigma2)
    exact = pde.exact_gaussian_u(stats, 0.0, y[probe], EPS)
    assert np.max(np.abs(heat.u[0, probe] - exact)) <= 5e-5


def test_fast_time_varying_drift_matches_gaussian_oracle() -> None:
    # A(s) = 0.25 + 0.25 cos(4 pi s) takes the same value at s = 0, 1/2 and 1,
    # so a solver that sampled those instants to guess time dependence would
    # freeze the drift at A = 0.5 and miss the oracle by 0.026
    spec = drifts.time_varying_linear(0.25, 0.25, 4.0 * math.pi)
    grid = _grid(spec)
    heat = pde.solve_u(spec, 0.0, grid, EPS)
    stats = drifts.linear_stats(spec.A_of_s, 0.0, 1.0)
    y = grid.y_nodes()
    probe = np.abs(y) <= 4.0 * math.sqrt(EPS * stats.sigma2)
    exact = pde.exact_gaussian_u(stats, 0.0, y[probe], EPS)
    assert np.max(np.abs(heat.u[0, probe] - exact)) <= 5e-5


@pytest.mark.parametrize("time_homogeneous", [False, True])
def test_non_finite_drift_raises_pde_error(time_homogeneous: bool) -> None:
    spec = drifts.DriftSpec(
        name="nan-above-3",
        b=lambda y, t: np.where(np.asarray(y) > 3.0, np.nan, 0.0),
        db_dy=lambda y, t: 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
        time_homogeneous=time_homogeneous,
    )
    grid = _grid(spec, n=201)
    assert grid.y_max > 3.0
    with pytest.raises(pde.PdeError, match="nan-above-3"):
        pde.solve_u(spec, 0.0, grid, EPS)


@pytest.mark.parametrize("spec", [
    drifts.zero_drift(), drifts.linear_drift(0.5), drifts.logcosh_drift(), drifts.sin_drift(),
], ids=lambda s: s.name)
def test_factored_and_per_step_marches_agree_bitwise(spec) -> None:
    # a time-homogeneous drift factors its CN matrix once per march; the
    # same drift declared time-varying refactors at every level
    per_step = dataclasses.replace(spec, time_homogeneous=False)
    grid = _grid(spec, n=201)
    a, b = (pde.solve_u(s, 0.0, grid, EPS).u for s in (spec, per_step))
    assert np.array_equal(a, b)
    a, b = (pde.green_function(s, grid, EPS, 0.0, 1.0, max_solves=21).g for s in (spec, per_step))
    assert np.array_equal(a, b, equal_nan=True)
    query = bridge.BridgeQuery(y_start=-1.0, T=1.0, delta=0.25, epsilon=EPS)
    res = bridge.GreenResources(n_y=401, n_t=101)
    a, b = (bridge.bridge_kernel(s, query, res) for s in (spec, per_step))
    assert np.array_equal(a.fan, b.fan) and np.array_equal(a.bundle, b.bundle)


@pytest.mark.parametrize("time_homogeneous", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_march_rejects_non_finite_data(time_homogeneous: bool, backward: bool, bad: float) -> None:
    spec = dataclasses.replace(drifts.logcosh_drift(), time_homogeneous=time_homogeneous)
    grid = pde.Grid1D(-4.0, 4.0, 101, 0.0, 1.0, 21)
    data = np.linspace(0.0, 1.0, grid.n_y)
    data[50] = bad
    with pytest.raises(pde.PdeError, match=re.escape(spec.name) + ".* at t="):
        pde._cn_march(spec, data, grid, EPS, 1.0, backward)


def test_march_overflow_is_a_pde_error() -> None:
    # a finite drift so steep that the solved level overflows
    spec = drifts.DriftSpec(
        name="steep",
        b=lambda y, t: 1e200 * y,
        db_dy=lambda y, t: 1e200 + 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=1e200,
        is_concave=True,
        vanishes_at_origin=True,
        time_homogeneous=True,
    )
    grid = pde.Grid1D(-4.0, 4.0, 101, 0.0, 1.0, 21)
    with pytest.raises(pde.PdeError, match="steep"):
        pde._cn_march(spec, np.linspace(0.0, 1.0, grid.n_y), grid, EPS, 1.0, backward=True)


def test_field_violations_flag_non_finite_levels() -> None:
    levels = np.tile(np.linspace(0.0, 1.0, 5), (3, 1))
    assert pde._field_violations(levels) == {"max_principle": 0.0, "monotonicity": 0.0}
    for bad in (np.nan, np.inf):
        broken = levels.copy()
        broken[1, 2] = bad
        worst = pde._field_violations(broken)
        assert worst["max_principle"] > pde.MAXPRINCIPLE_TOL
        assert worst["monotonicity"] > pde.MONOTONE_TOL


def test_field_violations_scan_stays_within_a_row_of_memory() -> None:
    # a 2001^2 lattice as solve_u hands it over, with one downward step of
    # known size in an interior row
    levels = np.tile(np.linspace(0.0, 1.0, 2001), (2001, 1))
    levels[1000, 700] -= 0.25
    drop = float(levels[1000, 699] - levels[1000, 700])
    tracemalloc.start()
    try:
        worst = pde._field_violations(levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst == {"max_principle": 0.0, "monotonicity": drop}
    assert peak < levels.nbytes // 16


def test_self_convergence_on_common_nodes() -> None:
    # 601 -> 1201 is exact mesh halving, so coarse node k is fine node 2k
    spec = drifts.linear_drift(0.5)
    coarse = pde.solve_u(spec, 0.0, _grid(spec, n=601), EPS)
    fine = pde.solve_u(spec, 0.0, _grid(spec, n=1201), EPS)
    diff = np.max(np.abs(coarse.u[0, :] - fine.u[0, ::2]))
    assert diff <= 1e-4


def test_exact_gaussian_u_formula() -> None:
    stats = drifts.LinearDriftStats(Lambda=orc.GROWTH_A05, sigma2=orc.VAR_UNIT_A05)
    for y in (-1.5, -0.5, 0.3):
        assert pde.exact_gaussian_u(stats, 0.0, y, EPS) == pytest.approx(
            orc.gaussian_u(y, 0.0, EPS, A=0.5), rel=1e-12
        )


# ----------------------------------------------------------------- cost field

def test_hopf_cole_constant_field() -> None:
    grid = pde.Grid1D(-1.0, 1.0, 5, 0.0, 1.0, 3)
    u = np.full((3, 5), math.exp(-5.0))
    heat = pde.HeatField(grid=grid, epsilon=0.1, x_threshold=0.0, u=u)
    cost = pde.hopf_cole(heat)
    assert np.allclose(cost.q, 0.5, rtol=1e-12)
    assert np.allclose(cost.dq_dy, 0.0, atol=1e-12)
    assert not cost.overflow_mask.any()
    assert np.isnan(cost.dq_dx).all()


def test_hopf_cole_flags_underflow_without_clamping() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=801)
    cost = pde.hopf_cole(pde.solve_u(spec, 0.0, grid, EPS))
    # near the horizon, nodes far below the threshold underflow
    assert cost.overflow_mask.any()
    assert np.all(np.isinf(cost.q[cost.overflow_mask]))
    ok = ~cost.overflow_mask
    assert np.all(cost.q[ok] >= -1e-12)
    assert np.all(np.isfinite(cost.q[ok]))


def test_cost_derivatives_match_oracle_at_probe() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec)
    cost = pde.hopf_cole(pde.solve_u(spec, 0.0, grid, EPS))
    j = grid.nearest_node(-1.0)
    assert cost.q[0, j] == pytest.approx(orc.COST_EPS_ZERO_PROBE, abs=1e-3)
    assert cost.dq_dy[0, j] == pytest.approx(orc.SLOPE_Y_ZERO_PROBE, abs=2e-3)
    # cost decreases toward the threshold from below
    interior = ~cost.overflow_mask[0]
    assert np.all(cost.dq_dy[0, interior] <= 1e-10)


def test_bundle_dq_dx_matches_oracle() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, extra=0.12)
    j = grid.nearest_node(-1.0)
    estimates = {}
    for dx in (0.1, 0.05):
        dx_snapped, q, _, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, EPS, dx, 0)
        assert q.shape == (3, grid.n_y)
        assert dx_snapped == pytest.approx(dx, abs=grid.h_y)
        # snapped onto the lattice, so every threshold sits on a node
        assert dx_snapped == pytest.approx(round(dx / grid.h_y) * grid.h_y, rel=1e-12)
        estimates[dx] = dq_dx[j]
        assert estimates[dx] == pytest.approx(orc.SLOPE_X_ZERO_PROBE, abs=2e-3)
    # halving dx stays within the scheme's error floor
    assert abs(estimates[0.1] - estimates[0.05]) <= 2e-3


def test_bundle_positive_dq_dx_interior() -> None:
    spec = drifts.linear_drift(0.5)
    extra = pde.fan_margin(spec, 0.1, 3) + 0.05
    grid = _grid(spec, n=801, extra=extra)
    _, _, _, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, EPS, 0.1, 0)
    y = grid.y_nodes()
    probe = np.abs(y) <= 1.0
    vals = dq_dx[probe]
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= -1e-10)


@pytest.mark.parametrize("spec", [drifts.zero_drift(), drifts.logcosh_drift()],
                         ids=["zero", "logcosh"])
@pytest.mark.parametrize("rows", [slice(20, 60), 0], ids=["block", "row"])
def test_fan_rows_match_the_full_transform(spec, rows) -> None:
    # the fan reads each member at the given levels only; q and dq_dy must
    # be the full Hopf-Cole transform's bits there, and dq_dx the centred
    # difference across the fan, NaN exactly where a neighbour underflowed
    # (at eps = 0.005 the two neighbours' underflow regions differ)
    eps = 0.005
    grid = pde._fan_grid(spec, 0.0, eps, 801, 201)
    dx, q, dq_dy, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, eps, 0.02, rows)
    full = [pde.hopf_cole(pde.solve_u(spec, x, grid, eps)) for x in (-dx, 0.0, dx)]
    for member, fld in zip(q, full):
        assert np.array_equal(member, fld.q[rows])
    assert np.array_equal(dq_dy, full[1].dq_dy[rows], equal_nan=True)
    lo_mask, hi_mask = full[0].overflow_mask[rows], full[2].overflow_mask[rows]
    bad = lo_mask | hi_mask
    assert not np.array_equal(lo_mask, hi_mask) and not bad.all()
    assert np.array_equal(np.isnan(dq_dx), bad)
    with np.errstate(invalid="ignore"):
        expected = (full[2].q[rows] - full[0].q[rows]) / (2.0 * dx)
    assert np.array_equal(dq_dx[~bad], expected[~bad])


# -------------------------------------------------------------- green function

def test_green_zero_drift_peak_and_rows() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=801)
    green = pde.green_function(spec, grid, EPS, 0.0, 1.0, max_solves=121)
    assert green.g.min() >= -1e-10
    sums = pde.green_row_sums(green)
    y = grid.y_nodes()
    win = np.abs(y) <= 1.0
    assert np.max(np.abs(sums[win] - 1.0)) <= 1e-4

    # peak needs a fine fan: column spacing enters the error quadratically
    fine_grid = _grid(spec, n=1201)
    thr = np.arange(-10, 11) * 2.0 * fine_grid.h_y
    fine = pde.green_function(spec, fine_grid, EPS, 0.0, 1.0, thresholds=thr)
    iy = fine_grid.nearest_node(0.0)
    jx = int(np.argmin(np.abs(fine.x_nodes)))
    peak = fine.g[iy, jx]
    assert abs(peak - orc.GREEN_PEAK_ZERO) / orc.GREEN_PEAK_ZERO <= 1e-3


def test_green_linear_drift_matches_density() -> None:
    spec = drifts.linear_drift(0.5)
    grid = _grid(spec, n=1201)
    h = grid.h_y
    thr = np.arange(-math.floor(0.8 / (2 * h)), math.floor(0.8 / (2 * h)) + 1) * 2.0 * h
    green = pde.green_function(spec, grid, EPS, 0.0, 1.0, thresholds=thr)
    stats = drifts.linear_stats(spec.A_of_s, 0.0, 1.0)
    y = grid.y_nodes()
    rows = np.abs(y) <= 0.5
    sd = math.sqrt(EPS * stats.sigma2)
    z = (green.x_nodes[None, :] - stats.Lambda * y[rows, None]) / sd
    exact = np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    # the two end columns are one-sided differences, first order only
    assert np.max(np.abs(green.g[rows][:, 1:-1] - exact[:, 1:-1])) <= 1e-3


@pytest.mark.parametrize("spec", [
    drifts.logcosh_drift(),
    drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi),
], ids=["logcosh", "linear_tv"])
def test_green_columns_match_single_threshold_solves(spec) -> None:
    # the fan is one multi-column march; each column must reproduce the
    # single-column march of solve_u at its threshold bit for bit
    extra = pde.fan_margin(spec, 0.04, 7) + 0.05
    grid = pde.default_grid(spec, 0.0, EPS, n_y=401, n_t=201, extra=extra)
    thr = np.arange(-3, 4) * 0.04
    green = pde.green_function(spec, grid, EPS, 0.0, 1.0, thresholds=thr)
    x = green.x_nodes
    rows = np.array([pde.solve_u(spec, float(xj), grid, EPS).u[0] for xj in x])
    for j in range(1, x.size - 1):
        expected = -(rows[j + 1] - rows[j - 1]) / (x[j + 1] - x[j - 1])
        assert np.array_equal(green.g[:, j], expected)
    assert np.array_equal(green.g[:, 0], -(rows[1] - rows[0]) / (x[1] - x[0]))
    assert np.array_equal(green.g[:, -1], -(rows[-1] - rows[-2]) / (x[-1] - x[-2]))


def test_green_guards() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=401)
    with pytest.raises(ValueError):
        pde.green_function(spec, grid, EPS, 0.1, 1.0)
    with pytest.raises(ValueError):
        # both values snap to the same node
        pde.green_function(
            spec, grid, EPS, 0.0, 1.0, thresholds=np.array([0.0, 1e-9, 0.5])
        )


# ------------------------------------------------------------------ the audit

def test_domain_audit_zero_and_linear() -> None:
    probes = np.array([-1.0, -0.5, 0.0, 0.5])
    for spec in (drifts.zero_drift(), drifts.linear_drift(0.5)):
        grid = _grid(spec, n=801)
        assert pde.audit_domain(spec, 0.0, EPS, grid, probes) <= 1e-6


# ------------------------------------------------------------------- exporter

def test_costfield_rows_shape() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=401)
    heat = pde.solve_u(spec, 0.0, grid, EPS)
    rows = list(pde.costfield_rows(heat, t_stride=100, y_stride=100))
    n_t = len(range(0, grid.n_t, 100))
    n_y = len(range(0, grid.n_y, 100))
    assert len(rows) == n_t * n_y
    t, yv, u, q, dq_dy, dq_dx = rows[0]
    assert t == pytest.approx(grid.t_start)
    assert yv == pytest.approx(grid.y_min)
    assert u == pytest.approx(0.0, abs=1e-15)
    assert math.isinf(q)
    assert math.isnan(dq_dx)


def test_costfield_rows_match_full_transform_bit_for_bit() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=801)
    heat = pde.solve_u(spec, 0.0, grid, EPS)
    cost = pde.hopf_cole(heat)
    t_stride, y_stride = 7, 8  # 7 does not divide n_t - 1; 8 keeps both edge columns
    assert (grid.n_t - 1) % t_stride and (grid.n_y - 1) % y_stride == 0
    got = np.array(list(pde.costfield_rows(heat, t_stride=t_stride, y_stride=y_stride)))
    k, i = np.meshgrid(np.arange(0, grid.n_t, t_stride), np.arange(0, grid.n_y, y_stride),
                       indexing="ij")
    k, i = k.ravel(), i.ravel()
    want = np.column_stack([
        grid.t_nodes()[k], grid.y_nodes()[i], heat.u[k, i],
        cost.q[k, i], cost.dq_dy[k, i], cost.dq_dx[k, i],
    ])
    assert np.isinf(want[:, 3]).any() and {0, grid.n_y - 1} <= set(i.tolist())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_costfield_rows_memory_stays_at_a_few_rows() -> None:
    grid = pde.Grid1D(-4.0, 4.0, 2001, 0.0, 1.0, 2001)
    u = np.tile(np.exp(-np.linspace(800.0, 0.0, grid.n_y)), (grid.n_t, 1))
    heat = pde.HeatField(grid=grid, epsilon=EPS, x_threshold=0.0, u=u)
    rows = pde.costfield_rows(heat, t_stride=cli._stride(grid.n_t), y_stride=cli._stride(grid.n_y))
    tracemalloc.start()
    try:
        n_rows = sum(1 for _ in rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_rows == 182 * 182
    assert peak < u.nbytes // 4
