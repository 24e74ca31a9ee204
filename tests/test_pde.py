from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import ndtr

import oracles as orc
from tailcost import bridge, cli, drifts, pde, simulate as sim, tables

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
    exact = ndtr(stats.Lambda * y[probe] / math.sqrt(EPS * stats.sigma2))  # x = 0
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
    exact = ndtr(stats.Lambda * y[probe] / math.sqrt(EPS * stats.sigma2))  # x = 0
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
    thr = grid.y_nodes()[::(grid.n_y - 1) // 20]
    a, b = (pde.green_function(s, grid, EPS, thr).g for s in (spec, per_step))
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


@pytest.mark.parametrize("time_homogeneous", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_march_refuses_non_finite_data_without_warnings(
        time_homogeneous: bool, backward: bool, bad: float) -> None:
    # the data is refused before the march forms r L u of it, so numpy has
    # no invalid value to warn about (test_march_rejects_non_finite_data's cases)
    spec = dataclasses.replace(drifts.logcosh_drift(), time_homogeneous=time_homogeneous)
    grid = pde.Grid1D(-4.0, 4.0, 101, 0.0, 1.0, 21)
    data = np.linspace(0.0, 1.0, grid.n_y)
    data[50] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pde.PdeError, match=re.escape(spec.name) + ".* at t="):
            pde._cn_march(spec, data, grid, EPS, 1.0, backward)


def _spy_solves(monkeypatch) -> tuple[dict, list]:
    """The march's LAPACK solves, counted by routine (dpttrs on the symmetrised
    matrix, dgttrs otherwise), and the right-hand sides handed to them, in call order."""
    calls, solved = {"dpttrs": 0, "dgttrs": 0}, []
    for name, at in (("dpttrs", 2), ("dgttrs", 5)):
        def spy(*args, real=getattr(pde, name), name=name, at=at, **kw):
            calls[name] += 1
            solved.append(args[at])
            return real(*args, **kw)
        monkeypatch.setattr(pde, name, spy)
    return calls, solved


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("pivoted", [True, False], ids=["pivoted", "unpivoted"])
def test_march_overflow_is_a_pde_error(monkeypatch, pivoted: bool, columns: int) -> None:
    # a finite drift so steep that I - r L pivots and the first solved level
    # overflows; or a driftless march, which never pivots, of finite data
    # whose r L u overflows
    steep = drifts.DriftSpec(
        name="steep",
        b=lambda y, t: 1e200 * y,
        db_dy=lambda y, t: 1e200 + 0.0 * y,
        d2b_dy2=None,
        lipschitz_A=1e200,
        is_concave=True,
        vanishes_at_origin=True,
        time_homogeneous=True,
    )
    spec, eps, scale = (steep, EPS, 1.0) if pivoted else (drifts.zero_drift(), 100.0, 1e308)
    grid = pde.Grid1D(-4.0, 4.0, 101, 0.0, 1.0, 21)
    data = np.tile(scale * np.linspace(0.0, 1.0, grid.n_y), (columns, 1))
    calls, _ = _spy_solves(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            pde.PdeError, match=spec.name + " left the finite range at t=0.975$"):
        pde._cn_march(spec, data[0] if columns == 1 else data, grid, eps, 1.0, backward=True)
    # the check of the path that ran raised at the first half-step
    assert calls == ({"dpttrs": 0, "dgttrs": 1} if pivoted else {"dpttrs": 1, "dgttrs": 0})


# ------------------------------------------------------ the carried CN step

def _textbook_stencil(spec, grid, epsilon, backward, tv):
    """(alpha, r, lower, upper) of the interior rows: L u = lower u_- - 2 alpha u + upper u_+."""
    y, h = grid.y_nodes(), grid.h_y
    alpha, r = 0.5 * epsilon / (h * h), 0.5 * grid.h_t
    beta = np.asarray(spec.b(y[1:-1] if backward else y, tv), dtype=float) / (2.0 * h)
    if backward:
        return alpha, r, alpha - beta, alpha + beta
    return alpha, r, alpha + beta[:-2], alpha - beta[2:]


def _textbook_product(spec, grid, epsilon, backward, tv, u):
    """r L u of the interior rows of u (..., n_y), formed node by node."""
    alpha, r, lower, upper = _textbook_stencil(spec, grid, epsilon, backward, tv)
    return r * (lower * u[..., :-2] - 2.0 * alpha * u[..., 1:-1] + upper * u[..., 2:])


def _textbook_march(spec, u, grid, epsilon, wall, backward, level):
    """The two-sided step: (I - r L) v = (I + r L) u, each side formed in full, walls set per level."""
    m = grid.n_y - 2

    def implicit(rhs, tv):
        _, r, lower, upper = _textbook_stencil(spec, grid, epsilon, backward, tv)
        rhs[..., -1] += r * upper[-1] * wall
        ab = np.zeros((3, m))
        ab[0, 1:], ab[1], ab[2, :-1] = -r * upper[:-1], 1.0 + 2.0 * r * alpha, -r * lower[1:]
        return solve_banded((1, 1), ab, rhs.reshape(-1, m).T).T.reshape(rhs.shape)

    alpha = 0.5 * epsilon / (grid.h_y * grid.h_y)
    t = grid.t_nodes()[::-1] if backward else grid.t_nodes()
    half = -0.5 * grid.h_t if backward else 0.5 * grid.h_t
    for step in range(1, grid.n_t):
        if step <= pde.N_STARTUP:
            v = implicit(implicit(u[..., 1:-1].copy(), t[step - 1] + half), t[step])
        else:
            rhs = u[..., 1:-1] + _textbook_product(spec, grid, epsilon, backward, t[step - 1], u)
            v = implicit(rhs, t[step])
        u = np.empty_like(u)
        u[..., 1:-1], u[..., 0], u[..., -1] = v, 0.0, wall
        level(step, u)
    return u


def _march_data(grid, backward, columns):
    # step data at the middle node, or the fan's columns at the bottom wall,
    # the middle and the top wall (whose end values the walls override);
    # forward, point masses at three interior nodes
    mid = grid.n_y // 2
    if backward:
        return pde._step_data(grid.n_y, np.array([mid] if columns == 1 else [0, mid, grid.n_y - 1]))
    data = np.zeros((columns, grid.n_y))
    off = grid.n_y // 12
    data[range(columns), [mid] if columns == 1 else [mid - off, mid, mid + off]] = 1.0 / grid.h_y
    return data


STEP_GRID = pde.Grid1D(-4.0, 4.0, 241, 0.0, 1.0, 121)


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("backward", [True, False], ids=["backward", "forward"])
@pytest.mark.parametrize("spec, grid, general", [
    (drifts.zero_drift(), STEP_GRID, False),
    (drifts.logcosh_drift(), STEP_GRID, False),
    (drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi), STEP_GRID, False),
    # mesh Peclet up to 40 on a coarse lattice: I - r L is not diagonally
    # dominant near the walls, some of its off-diagonals are positive, and
    # dgttrf pivots
    (drifts.linear_drift(5.0), pde.Grid1D(-4.0, 4.0, 41, 0.0, 1.0, 11), True),
    # mesh Peclet 0.8, but the symmetrising scale would span about 350
    # decades, past SCALE_FLOOR
    (drifts.linear_drift(10.0), pde.Grid1D(-4.0, 4.0, 4001, 0.0, 1.0, 11), True),
], ids=["zero", "logcosh", "linear_tv", "linear5-pivoting", "linear10-unscaled"])
def test_carried_step_matches_the_textbook_step(monkeypatch, spec, grid, general, backward,
                                                columns) -> None:
    # every level within 1e-12 max|u| of the two-sided step, and the carried
    # w = r L u of the last level within the same of a fresh product; the
    # first half-step solves w in place, so the first right-hand side handed
    # to LAPACK (dpttrs, or dgttrs on the general path) is a view of the
    # march's w buffer.  Choosing the path raises no numpy warning.
    wall = 1.0 if backward else 0.0
    data = _march_data(grid, backward, columns)
    calls, solved = _spy_solves(monkeypatch)
    carried, textbook = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        last = pde._cn_march(spec, data[0] if columns == 1 else data, grid, EPS, wall, backward,
                             level=lambda i, v: carried.__setitem__(i, v.copy()))
    _textbook_march(spec, data, grid, EPS, wall, backward,
                    level=lambda step, v: textbook.__setitem__(
                        grid.n_t - 1 - step if backward else step, v))
    assert sorted(carried) == sorted(textbook)
    scale = 1e-12 * np.abs(data).max()
    for i, v in carried.items():
        assert np.max(np.abs(v - textbook[i].reshape(v.shape))) <= scale, f"level {i}"
    w = solved[0].T.reshape(last[..., 1:-1].shape)
    t_last = grid.t_start if backward else grid.T
    fresh = _textbook_product(spec, grid, EPS, backward, t_last, last)
    assert np.max(np.abs(w - fresh)) <= scale
    # one LAPACK solve per half-step and per CN step
    solves = grid.n_t - 1 + pde.N_STARTUP
    assert calls == ({"dpttrs": 0, "dgttrs": solves} if general
                     else {"dpttrs": solves, "dgttrs": 0})


@pytest.mark.parametrize("spec, grid", [
    (drifts.logcosh_drift(), pde.Grid1D(-4.100548, 4.100548, 8203, 0.0, 1.0, 2001)),
    (drifts.linear_drift(0.5),
     pde.default_grid(drifts.linear_drift(0.5), 0.0, 0.2, n_y=2001, n_t=2001)),
], ids=["logcosh-8203", "linear-2001"])
def test_fine_lattices_keep_both_contracts_to_roundoff(spec, grid) -> None:
    # the u ~ 1 plateau is carried as increments that vanish there, so no
    # rounding piles up against MAXPRINCIPLE_TOL (the two-sided step raised
    # PdeError with 1.73e-12 on the first lattice and read 7.4e-13 on the
    # second, rate-limit's at eps = 0.2)
    heat = pde.solve_u(spec, 0.0, grid, 0.2, rows=0)
    assert heat.diagnostics["max_principle"] <= 1e-14
    assert heat.diagnostics["monotonicity"] <= 1e-14


@pytest.mark.parametrize("spec", [drifts.linear_drift(0.5), drifts.logcosh_drift()],
                         ids=["linear", "logcosh"])
def test_symmetrised_solve_keeps_the_tail(monkeypatch, spec) -> None:
    # the scaling by s costs no accuracy where u is tiny: every level agrees
    # with the general path's to 1e-12 relative wherever u >= U_FLOOR (the
    # level-0 tails reach about 4e-221 and 6e-194)
    eps = 0.025
    grid = pde.default_grid(spec, 0.0, eps, n_y=2001, n_t=1201)
    calls, _ = _spy_solves(monkeypatch)
    scaled = pde.solve_u(spec, 0.0, grid, eps).u
    assert calls["dgttrs"] == 0
    monkeypatch.setattr(pde, "SCALE_FLOOR", np.inf)
    general = pde.solve_u(spec, 0.0, grid, eps).u
    assert calls["dgttrs"] == calls["dpttrs"]  # every solve of the second march
    resolved = general >= pde.U_FLOOR
    assert general[0][resolved[0]].min() < 1e-190
    gap = np.abs(scaled - general)[resolved] / general[resolved]
    assert gap.max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25], ids=["nan", "inf", "dip"])
def test_contract_fold_flags_a_bad_level(monkeypatch, bad: float) -> None:
    # one node of a level the solve does not keep is spoiled on its way to
    # the fold: a non-finite value must fail the gate (a NaN slips past a
    # clamp at zero), a dip must be reported as its exact downward step
    march, spoiled = pde._cn_march, []

    def poisoned(*args, level, **kw):
        def spoil(i, v):
            if i == 7:
                v = v.copy()
                v[300] += bad
                spoiled.append(v)
            level(i, v)
        return march(*args, level=spoil, **kw)

    monkeypatch.setattr(pde, "_cn_march", poisoned)
    spec = drifts.zero_drift()
    with pytest.raises(pde.PdeError, match="scheme broke field contracts") as err:
        pde.solve_u(spec, 0.0, _grid(spec, n=401), EPS, rows=0)
    if math.isfinite(bad):
        drop = -float(np.diff(spoiled[0]).min())
        assert f"'monotonicity': {drop!r}" in str(err.value)
    else:
        assert str(abs(bad)) in str(err.value)


@pytest.mark.parametrize("rows", [0, -1], ids=["start", "horizon"])
def test_contract_breach_is_caught_on_levels_not_kept(rows) -> None:
    # a shear far beyond the mesh Peclet limit breaks both contracts; the
    # horizon level is the step data itself, so keeping it alone leaves the
    # breach to the levels the solve does not keep
    spec = drifts.DriftSpec(
        name="shear",
        b=lambda y, t: 40.0 * np.sin(3.0 * np.asarray(y)),
        db_dy=lambda y, t: 120.0 * np.cos(3.0 * np.asarray(y)),
        d2b_dy2=None,
        lipschitz_A=120.0,
        is_concave=False,
        vanishes_at_origin=True,
        time_homogeneous=True,
    )
    grid = pde.Grid1D(-5.0, 5.0, 101, 0.0, 1.0, 41)
    with pytest.raises(pde.PdeError, match="scheme broke field contracts") as full:
        pde.solve_u(spec, 0.0, grid, 0.01)
    with pytest.raises(pde.PdeError) as kept:
        pde.solve_u(spec, 0.0, grid, 0.01, rows=rows)
    assert str(kept.value) == str(full.value)


@pytest.mark.parametrize("spec", [drifts.zero_drift(), drifts.logcosh_drift()],
                         ids=["zero", "logcosh"])
def test_streamed_solve_keeps_one_level_in_a_row_of_memory(spec) -> None:
    # a solve that keeps level 0 checks every level but holds a few rows;
    # its level and diagnostics are the full lattice's bits
    eps = 0.0125
    grid = pde.default_grid(spec, 0.0, eps, n_y=2001, n_t=2001)
    full = pde.solve_u(spec, 0.0, grid, eps)
    tracemalloc.start()
    try:
        start = pde.solve_u(spec, 0.0, grid, eps, rows=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert start.levels == 0 and start.u.shape == (grid.n_y,)
    assert start.u.tobytes() == full.u[0].tobytes()
    assert repr(start.diagnostics) == repr(full.diagnostics)
    assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"
    picked = pde.solve_u(spec, 0.0, grid, eps, rows=[5, 3, 3, -1])
    assert picked.levels.tolist() == [5, 3, 3, grid.n_t - 1]
    assert picked.u.tobytes() == full.u[[5, 3, 3, -1]].tobytes()


@pytest.mark.parametrize("spec", [
    drifts.logcosh_drift(),
    drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi),
], ids=["logcosh", "linear_tv"])
def test_fan_members_match_their_single_solves(spec) -> None:
    # a fan is one multi-column march (linear_tv refactors at every level);
    # every member keeps its single solve's bits at every level, and the
    # contract values are the worst member's
    grid = pde._fan_grid(spec, 0.0, EPS, 401, 201)
    xs = [-2.0 * grid.h_y, 0.0, 2.0 * grid.h_y]
    fan = pde.solve_u(spec, xs, grid, EPS)
    singles = [pde.solve_u(spec, x, grid, EPS) for x in xs]
    assert fan.u.shape == (3, grid.n_t, grid.n_y)
    for member, single in zip(fan.u, singles):
        assert np.array_equal(member, single.u)
    for key in ("max_principle", "monotonicity"):
        assert fan.diagnostics[key] == max(s.diagnostics[key] for s in singles)
    assert fan.diagnostics["threshold_node"] == [s.diagnostics["threshold_node"] for s in singles]


def test_fan_domain_rule_names_the_breaking_member() -> None:
    # the zero drift needs a half-width of 4 around every member; only
    # x - dx = -0.1 reaches past y_min
    spec = drifts.zero_drift()
    grid = pde.Grid1D(-4.0, 4.5, 401, 0.0, 1.0, 101)
    pde.solve_u(spec, 0.0, grid, EPS, rows=0)
    with pytest.raises(pde.GridExtentError, match=r"around x=-0\.1:"):
        pde.solve_u(spec, [-0.1, 0.0, 0.1], grid, EPS, rows=0)


def test_self_convergence_on_common_nodes() -> None:
    # 601 -> 1201 is exact mesh halving, so coarse node k is fine node 2k
    spec = drifts.linear_drift(0.5)
    coarse = pde.solve_u(spec, 0.0, _grid(spec, n=601), EPS)
    fine = pde.solve_u(spec, 0.0, _grid(spec, n=1201), EPS)
    diff = np.max(np.abs(coarse.u[0, :] - fine.u[0, ::2]))
    assert diff <= 1e-4


# ----------------------------------------------------------------- cost field

def test_hopf_cole_constant_field() -> None:
    grid = pde.Grid1D(-1.0, 1.0, 5, 0.0, 1.0, 3)
    q, dq_dy, mask = pde._cost_rows(np.full((3, 5), math.exp(-5.0)), 0.1, grid.h_y)
    assert np.allclose(q, 0.5, rtol=1e-12)
    assert np.allclose(dq_dy, 0.0, atol=1e-12)
    assert not mask.any()


def test_hopf_cole_flags_underflow_without_clamping() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=801)
    q, _, mask = pde._cost_rows(pde.solve_u(spec, 0.0, grid, EPS).u, EPS, grid.h_y)
    # near the horizon, nodes far below the threshold underflow
    assert mask.any()
    assert np.all(np.isinf(q[mask]))
    ok = ~mask
    assert np.all(q[ok] >= -1e-12)
    assert np.all(np.isfinite(q[ok]))


def test_cost_derivatives_match_oracle_at_probe() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec)
    q, dq_dy, mask = pde._cost_rows(pde.solve_u(spec, 0.0, grid, EPS).u, EPS, grid.h_y)
    j = grid.nearest_node(-1.0)
    assert q[0, j] == pytest.approx(orc.COST_EPS_ZERO_PROBE, abs=1e-3)
    assert dq_dy[0, j] == pytest.approx(orc.SLOPE_Y_ZERO_PROBE, abs=2e-3)
    # cost decreases toward the threshold from below
    interior = ~mask[0]
    assert np.all(dq_dy[0, interior] <= 1e-10)


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
@pytest.mark.parametrize("rows", [slice(20, 60), 0, [40, 20, 20, 100]],
                         ids=["block", "row", "picked"])
def test_fan_rows_match_the_full_transform(spec, rows) -> None:
    # the fan reads each member at the given levels only (picked levels,
    # repeated and out of order, leave the fan's u out of C order); q and
    # dq_dy must be the full Hopf-Cole transform's bits there, and dq_dx the centred
    # difference across the fan, NaN exactly where a neighbour underflowed
    # (at eps = 0.005 the two neighbours' underflow regions differ)
    eps = 0.005
    grid = pde._fan_grid(spec, 0.0, eps, 801, 201)
    dx, q, dq_dy, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, eps, 0.02, rows)
    (q_lo, _, mask_lo), (q_c, dq_dy_c, _), (q_hi, _, mask_hi) = (
        pde._cost_rows(pde.solve_u(spec, x, grid, eps).u, eps, grid.h_y) for x in (-dx, 0.0, dx)
    )
    for member, full_q in zip(q, (q_lo, q_c, q_hi)):
        assert np.array_equal(member, full_q[rows])
    assert np.array_equal(dq_dy, dq_dy_c[rows], equal_nan=True)
    lo_mask, hi_mask = mask_lo[rows], mask_hi[rows]
    bad = lo_mask | hi_mask
    assert not np.array_equal(lo_mask, hi_mask) and not bad.all()
    assert np.array_equal(np.isnan(dq_dx), bad)
    with np.errstate(invalid="ignore"):
        expected = (q_hi[rows] - q_lo[rows]) / (2.0 * dx)
    assert np.array_equal(dq_dx[~bad], expected[~bad])


# -------------------------------------------------------------- green function

def test_green_zero_drift_peak_and_rows() -> None:
    spec = drifts.zero_drift()
    grid = _grid(spec, n=801)
    green = pde.green_function(spec, grid, EPS, grid.y_nodes()[::(grid.n_y - 1) // 120])
    assert green.g.min() >= -1e-10
    sums = pde.green_row_sums(green)
    y = grid.y_nodes()
    win = np.abs(y) <= 1.0
    assert np.max(np.abs(sums[win] - 1.0)) <= 1e-4

    # peak needs a fine fan: column spacing enters the error quadratically
    fine_grid = _grid(spec, n=1201)
    thr = np.arange(-10, 11) * 2.0 * fine_grid.h_y
    fine = pde.green_function(spec, fine_grid, EPS, thresholds=thr)
    iy = fine_grid.nearest_node(0.0)
    jx = int(np.argmin(np.abs(fine.x_nodes)))
    peak = fine.g[iy, jx]
    assert abs(peak - orc.GREEN_PEAK_ZERO) / orc.GREEN_PEAK_ZERO <= 1e-3


def test_green_linear_drift_matches_density() -> None:
    spec = drifts.linear_drift(0.5)
    grid = _grid(spec, n=1201)
    h = grid.h_y
    thr = np.arange(-math.floor(0.8 / (2 * h)), math.floor(0.8 / (2 * h)) + 1) * 2.0 * h
    green = pde.green_function(spec, grid, EPS, thresholds=thr)
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
    green = pde.green_function(spec, grid, EPS, thresholds=thr)
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
        # both values snap to the same node
        pde.green_function(spec, grid, EPS, thresholds=np.array([0.0, 1e-9, 0.5]))
    for thr in (np.array([0.0]), np.array([])):
        with pytest.raises(ValueError, match=f"at least two thresholds .*, got {thr.size} on"):
            pde.green_function(spec, grid, EPS, thr)


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
    heat = pde.solve_u(spec, 0.0, grid, EPS, rows=slice(None, None, 100))
    rows = list(tables.rows(pde.costfield_blocks(heat, 100)))
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
    q, dq_dy, _ = pde._cost_rows(heat.u, EPS, grid.h_y)
    t_stride, y_stride = 7, 8  # 7 does not divide n_t - 1; 8 keeps both edge columns
    assert (grid.n_t - 1) % t_stride and (grid.n_y - 1) % y_stride == 0
    kept = pde.solve_u(spec, 0.0, grid, EPS, rows=slice(None, None, t_stride))
    got = np.array(list(tables.rows(pde.costfield_blocks(kept, y_stride))))
    k, i = np.meshgrid(np.arange(0, grid.n_t, t_stride), np.arange(0, grid.n_y, y_stride),
                       indexing="ij")
    k, i = k.ravel(), i.ravel()
    want = np.column_stack([
        grid.t_nodes()[k], grid.y_nodes()[i], heat.u[k, i],
        q[k, i], dq_dy[k, i], np.full(k.size, np.nan),
    ])
    assert np.isinf(want[:, 3]).any() and {0, grid.n_y - 1} <= set(i.tolist())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("rows", [slice(None, None, 200), 0], ids=["levels", "int-row"])
def test_costfield_blocks_refuses_a_fan(rows) -> None:
    # a fan's members would otherwise pass as extra levels or be dropped
    spec = drifts.zero_drift()
    grid = _grid(spec, n=401, extra=0.5)
    fan = pde.solve_u(spec, [-0.25, 0.0, 0.25], grid, EPS, rows=rows)
    assert fan.u.shape[0] == 3
    with pytest.raises(ValueError, match="fan"):
        pde.costfield_blocks(fan, 100)
    single = pde.solve_u(spec, 0.0, grid, EPS, rows=rows)
    assert len(list(pde.costfield_blocks(single, 100))) == np.size(single.levels)


def test_costfield_rows_memory_stays_at_a_few_rows() -> None:
    grid = pde.Grid1D(-4.0, 4.0, 2001, 0.0, 1.0, 2001)
    u = np.tile(np.exp(-np.linspace(800.0, 0.0, grid.n_y)), (grid.n_t, 1))
    t_stride = cli._stride(grid.n_t)
    heat = pde.HeatField(grid=grid, epsilon=EPS, u=u[::t_stride],
                         levels=np.arange(0, grid.n_t, t_stride))
    rows = tables.rows(pde.costfield_blocks(heat, cli._stride(grid.n_y)))
    tracemalloc.start()
    try:
        n_rows = sum(1 for _ in rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_rows == 182 * 182
    assert peak < u.nbytes // 4


def test_controller_build_memory_stays_at_a_few_rows() -> None:
    # the build transforms the control lattice in place, a block of levels
    # at a time after the march: the march's working set, or one block's
    # transform, takes about 25 rows of n_y floats beside the lattice, where
    # transforming the whole lattice at once would take two lattices more
    spec = drifts.logcosh_drift()
    grid = pde._fan_grid(spec, 0.0, 0.1, 1201, 1201)
    tracemalloc.start()
    try:
        ctl, _ = sim.ControllerField.from_fields(spec, 0.0, grid, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_bytes = ctl.control.nbytes // grid.n_t
    assert peak < ctl.control.nbytes + 48 * row_bytes
