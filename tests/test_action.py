from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles as orc
from tailcost import action as act
from tailcost import cli
from tailcost import drifts


def _focusing_holding_solution() -> tuple[act.ClassicalSolution, drifts.DriftSpec]:
    # constant critical path holding the state at the dip of a strong sine
    # drift: a valid momentum solution (b_y = 0 there) but not a minimizer,
    # so the second variation must lose positivity along it
    spec = drifts.sin_drift(5.0)
    n = 2000
    times = np.linspace(0.0, 1.0, n + 1)
    dip = -math.pi / 2.0
    sol = act.ClassicalSolution(
        path=act.Path(times=times, y=np.full(n + 1, dip)),
        momentum_p=np.full(n + 1, -5.0),
        q_value=12.5,
        lambda_star=0.0,
        dq_dy=-5.0,
        dq_dx=5.0,
        dq_dt=12.5,
        x_threshold=dip,
        t_start=0.0,
    )
    return sol, spec


# ------------------------------------------------------------------- action

def test_action_straight_line_zero_drift() -> None:
    times = np.linspace(0.0, 1.0, 501)
    assert orc.action(times, -1.0 + times, drifts.zero_drift().b) == pytest.approx(0.5, abs=1e-12)


def test_action_flow_path_costs_nothing() -> None:
    spec = drifts.logcosh_drift()
    sol = act.solve_shooting(spec, 0.0, 0.5)
    assert orc.action(sol.path.times, sol.path.y, spec.b) == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------------------- shooting

def test_shooting_zero_drift_probe() -> None:
    sol = act.solve_shooting(drifts.zero_drift(), 0.0, -1.0)
    assert sol.binding
    assert sol.q_value == pytest.approx(0.5, abs=1e-9)
    assert sol.lambda_star == pytest.approx(1.0, abs=1e-9)
    assert sol.dq_dy == pytest.approx(-1.0, abs=1e-9)
    assert sol.dq_dx == pytest.approx(1.0, abs=1e-9)
    assert sol.dq_dt == pytest.approx(0.5, abs=1e-9)
    assert sol.diagnostics["terminal_mismatch"] < 1e-9


def test_shooting_zero_drift_off_probe() -> None:
    y, x = -0.7, 0.4
    sol = act.solve_shooting(drifts.zero_drift(), x, y)
    assert sol.q_value == pytest.approx(orc.classical_cost(y, x), rel=1e-8)
    assert sol.dq_dy == pytest.approx(orc.classical_slope_y(y, x), rel=1e-8)
    assert sol.dq_dx == pytest.approx(orc.classical_slope_x(y, x), rel=1e-8)


def test_shooting_linear_drift_frozen() -> None:
    sol = act.solve_shooting(drifts.linear_drift(0.5), 0.0, -1.0)
    assert sol.q_value == pytest.approx(orc.ACTION_A05, abs=1e-7)
    assert sol.dq_dy == pytest.approx(-orc.HESS_YY_A05, abs=1e-9)
    assert sol.dq_dx == pytest.approx(-orc.HESS_XY_A05, abs=1e-9)
    assert sol.diagnostics["conservation"] < 1e-12


def test_shooting_linear_drift_matches_closed_form_elsewhere() -> None:
    spec = drifts.linear_drift(0.5)
    for y, x in ((-1.5, 0.3), (-0.8, -0.2)):
        sol = act.solve_shooting(spec, x, y)
        assert sol.q_value == pytest.approx(
            orc.classical_cost(y, x, A=0.5), rel=1e-7
        )


def test_shooting_free_region() -> None:
    spec = drifts.logcosh_drift()
    sol = act.solve_shooting(spec, 0.0, 0.5)
    assert not sol.binding
    assert sol.q_value == 0.0
    assert sol.dq_dy == 0.0 and sol.dq_dx == 0.0 and sol.dq_dt == 0.0
    assert sol.lambda_star == pytest.approx(float(spec.b(0.5, 0.0)))


def test_shooting_boundary_point_is_free() -> None:
    # y = F(x, t) exactly: the free flow just reaches the threshold
    sol = act.solve_shooting(drifts.zero_drift(), 0.0, 0.0)
    assert not sol.binding
    assert sol.q_value == 0.0


def test_shooting_rejects_bad_start_time() -> None:
    with pytest.raises(ValueError):
        act.solve_shooting_many(drifts.zero_drift(), 0.0, -1.0, t=1.0)[0]


# ------------------------------------------------------- batched shooting

_BATCH_DRIFTS = (
    drifts.zero_drift(),
    drifts.linear_drift(0.5),
    drifts.time_varying_linear(0.3, 0.2, 3.0),
    drifts.logcosh_drift(),
    drifts.sin_drift(),
)
# the criterion-02 endpoint grid at the default step count; lanes do not
# interact at any step
_GRID = [(dx, -1.0 + dy) for dx in (-0.5, -0.25, 0.0, 0.25, 0.5)
         for dy in (-1.0, -0.75, -0.5, -0.25, 0.0)]


def _assert_same_solutions(batch, singles) -> None:
    assert len(batch) == len(singles)
    for got, ref in zip(batch, singles):
        where = (ref.x_threshold, float(ref.path.y[0]))
        assert (got.x_threshold, float(got.path.y[0])) == where
        assert got.binding == ref.binding, where
        for name in ("q_value", "dq_dy", "dq_dx", "dq_dt"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-13, (where, name)
        mismatch = got.diagnostics.get("terminal_mismatch", 0.0)
        assert abs(mismatch - ref.diagnostics.get("terminal_mismatch", 0.0)) <= 1e-13, where


@pytest.mark.parametrize("spec", _BATCH_DRIFTS, ids=lambda s: s.name)
def test_shooting_many_matches_one_point_solves(spec: drifts.DriftSpec) -> None:
    xs, ys = (list(v) for v in zip(*_GRID))
    singles = [act.solve_shooting_many(spec, x, y)[0] for x, y in _GRID]
    assert all(sol.binding for sol in singles)
    _assert_same_solutions(act.solve_shooting_many(spec, xs, ys), singles)

    # free lanes above the boundary, interleaved with the binding ones
    free = [(x, float(drifts.characteristic_F(spec, x, 0.0)) + 0.5) for x in (-0.5, 0.2)]
    free_sols = [act.solve_shooting_many(spec, x, y)[0] for x, y in free]
    assert not any(sol.binding for sol in free_sols)
    mixed = [free[0], *_GRID[:12], free[1], *_GRID[12:]]
    mixed_refs = [free_sols[0], *singles[:12], free_sols[1], *singles[12:]]
    xs, ys = (list(v) for v in zip(*mixed))
    _assert_same_solutions(act.solve_shooting_many(spec, xs, ys), mixed_refs)


def test_shooting_many_bare_drift_needs_no_curvature() -> None:
    bare = drifts.DriftSpec(
        name="bare",
        b=lambda y, t: np.zeros_like(np.asarray(y, dtype=float)),
        db_dy=lambda y, t: np.zeros_like(np.asarray(y, dtype=float)),
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
    )
    sols = act.solve_shooting_many(bare, [0.0, 0.4, 0.0], [-1.0, -0.7, 0.5])
    for sol, (x, y) in zip(sols[:2], ((0.0, -1.0), (0.4, -0.7))):
        assert sol.q_value == pytest.approx(orc.classical_cost(y, x), rel=1e-8)
        assert sol.dq_dy == pytest.approx(orc.classical_slope_y(y, x), rel=1e-8)
    assert not sols[2].binding


def test_shooting_many_names_the_lane_it_cannot_bracket() -> None:
    # a steep constant downdraft: y(T; m) = y - 1e4 + m, while the ladder
    # tops out near 2 (x - y) 2^21, so a start just below the threshold
    # can never be lifted to it; a far start beside it still brackets
    downdraft = drifts.DriftSpec(
        name="downdraft",
        b=lambda y, t: -1e4 + 0.0 * y,
        db_dy=lambda y, t: 0.0 * y,
        d2b_dy2=lambda y, t: 0.0 * y,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=False,
    )
    (far,) = act.solve_shooting_many(downdraft, 0.0, -3e4)
    assert far.binding and far.diagnostics["terminal_mismatch"] <= 1e-9
    with pytest.raises(act.ShootingError, match=r"x=0\.0, y=-0\.001, t=0\.0"):
        act.solve_shooting_many(downdraft, [0.0, 0.0], [-3e4, -1e-3])


def _record_sweeps(monkeypatch) -> list[tuple[int, int]]:
    """Patch shoot_terminal to log (lanes, n_steps) of every sweep."""
    sweeps = []
    shoot = act.shoot_terminal

    def recording(spec, y0, t, p0, n_steps=500, nodes=None):
        r = shoot(spec, y0, t, p0, n_steps, nodes)
        sweeps.append((r.size, n_steps))
        return r

    monkeypatch.setattr(act, "shoot_terminal", recording)
    return sweeps


def test_shooting_many_stage_two_lanes_solve_as_if_alone(monkeypatch) -> None:
    # (0, -1) first reaches x on rung 3 of the ladder, past the two rungs
    # every lane sweeps; (0.5, -0.1) reaches it on rung 1
    spec = drifts.linear_drift(2.0)
    pairs = ((0.0, -1.0), (0.5, -0.1))
    singles = [act.solve_shooting(spec, x, y) for x, y in pairs]
    sweeps = _record_sweeps(monkeypatch)
    batch = act.solve_shooting_many(spec, *zip(*pairs))
    # two lanes on rungs 0-1, then the short lane alone on rungs 2-22
    assert sweeps[:2] == [(4, 500), (21, 500)]
    for got, ref in zip(batch, singles):
        assert got.binding
        for name in ("q_value", "dq_dy", "dq_dx"):
            assert getattr(got, name) == getattr(ref, name), name
        assert np.array_equal(got.path.y, ref.path.y)
        assert np.array_equal(got.momentum_p, ref.momentum_p)
    assert batch[0].q_value == pytest.approx(orc.classical_cost(-1.0, 0.0, A=2.0), rel=1e-8)


def test_momenta_leaves_a_flow_lane_at_zero() -> None:
    # a lane the caller should have called free reaches x on rung 0; it
    # brackets on that rung alone and keeps m = 0 beside a binding lane
    spec = drifts.linear_drift(2.0)
    free_y = float(drifts.characteristic_F(spec, 0.0, 0.0)) + 0.5
    m, _ = act._momenta(spec, np.array([0.0, 0.0]), np.array([free_y, -1.0]), 0.0, 500)
    (alone,), _ = act._momenta(spec, np.array([0.0]), np.array([-1.0]), 0.0, 500)
    assert m[0] == 0.0
    assert m[1] == alone


def test_classical_grid_sweeps_two_rungs_per_lane(monkeypatch) -> None:
    # a work count, not a timing: every lane of the sin grid reaches x on
    # rung 1, so the ladder sweep holds 25 x 2 lanes and nothing sweeps
    # the other 21 rungs (one 23-rung sweep made it 375,000 lane-steps);
    # the three Newton sweeps record the paths, so no fifth sweep re-marches
    # them (one did, at 112,500 lane-steps)
    sweeps = _record_sweeps(monkeypatch)
    xs, ys = zip(*((dx, -1.0 + dy) for dx in cli._CLASSICAL_DX for dy in cli._CLASSICAL_DY))
    spec = drifts.sin_drift()
    act.solve_shooting_many(spec, xs, ys)
    assert sweeps[0] == (50, 500)
    assert len(sweeps) == 4
    assert sum(lanes * n_steps for lanes, n_steps in sweeps) == 100_000

    # free lanes have no Newton sweep; one extra march holds them alone
    free = [(x, float(drifts.characteristic_F(spec, x, 0.0)) + 0.5) for x in (-0.5, 0.2, 0.4)]
    sweeps.clear()
    act.solve_shooting_many(spec, (*xs[:10], *(x for x, _ in free), *xs[10:]),
                            (*ys[:10], *(y for _, y in free), *ys[10:]))
    assert sweeps == [(50, 500)] * 4 + [(3, 500)]


def _assert_paths_are_fresh_marches(spec: drifts.DriftSpec, sols) -> None:
    """Each lane's path and momenta are a march of its own dq_dy, bit for bit."""
    for sol in sols:
        node_y, node_p = np.empty((2, act.N_STEPS + 1, 1))
        act.shoot_terminal(spec, sol.path.y[0], sol.t_start, np.array([sol.dq_dy]),
                           act.N_STEPS, nodes=(node_y, node_p))
        where = (sol.x_threshold, float(sol.path.y[0]))
        assert np.array_equal(sol.path.y, node_y[:, 0]), where
        assert np.array_equal(sol.momentum_p, node_p[:, 0]), where


@pytest.mark.parametrize(
    "spec, pairs, newton",
    [
        # one lane settles in the third Newton sweep, four in the fourth
        (drifts.sin_drift(1.0), [(0.0, -1.0), (0.5, -0.1), (0.0, -3.0), (1.0, -0.05),
                                 (2.0, -4.0)], [10, 10, 10, 8]),
        # (0, -1) first reaches x on rung 3; y(T; m) is linear in m, so
        # both lanes settle in the first Newton sweep
        (drifts.linear_drift(2.0), [(0.0, -1.0), (0.5, -0.1)], [4]),
    ],
    ids=lambda v: v.name if isinstance(v, drifts.DriftSpec) else None,
)
def test_paths_come_from_the_sweep_that_settles_each_lane(monkeypatch, spec, pairs, newton) -> None:
    free = [(x, float(drifts.characteristic_F(spec, x, 0.0)) + 0.25) for x in (-0.5, 0.3)]
    mixed = [free[0], *pairs, free[1]]
    sweeps = _record_sweeps(monkeypatch)
    sols = act.solve_shooting_many(spec, *zip(*mixed))
    assert [sol.binding for sol in sols] == [False, *[True] * len(pairs), False]
    # the Newton sweeps march m and its twin; the last sweep holds the free lanes
    assert [lanes for lanes, _ in sweeps[-1 - len(newton):-1]] == newton
    assert sweeps[-1] == (2, act.N_STEPS)
    _assert_paths_are_fresh_marches(spec, sols)
    for sol in sols[1:-1]:
        assert sol.diagnostics["terminal_mismatch"] <= 1e-12 * (1.0 + abs(sol.x_threshold))


def test_lanes_unsettled_after_the_last_newton_sweep_march_at_its_momentum(monkeypatch) -> None:
    # after one Newton sweep a sin(a=1) lane still moves: it takes the
    # sweep's last step and is marched again at that momentum, which for
    # (0, -1) already meets x and for (0.5, -0.1) does not
    spec = drifts.sin_drift(1.0)
    monkeypatch.setattr(act, "NEWTON_MAX_SWEEPS", 1)
    m, paths = act._momenta(spec, np.array([0.0, 0.5]), np.array([-1.0, -0.1]), 0.0, act.N_STEPS)
    assert paths == [None, None]
    (sol,) = act.solve_shooting_many(spec, 0.0, -1.0)
    assert sol.dq_dy == -m[0]
    _assert_paths_are_fresh_marches(spec, [sol])
    # the q and the mismatch that marching every lane again gave these lanes
    assert sol.q_value == pytest.approx(1.0901024934413428, rel=1e-15, abs=0.0)
    with pytest.raises(act.ShootingError, match=r"mismatch 6\.096e-06 at \(x=0\.5, y=-0\.1,"):
        act.solve_shooting_many(spec, [0.0, 0.5], [-1.0, -0.1])


@pytest.mark.parametrize("n_steps", [0, 1, 501])
def test_shooting_many_needs_an_even_step_count(monkeypatch, n_steps: int) -> None:
    monkeypatch.setattr(act, "N_STEPS", n_steps)
    with pytest.raises(ValueError, match="Simpson's rule"):
        act.solve_shooting_many(drifts.zero_drift(), 0.0, -1.0)


@pytest.mark.parametrize("spec", _BATCH_DRIFTS[:3], ids=lambda s: s.name)
def test_shooting_cost_matches_linear_closed_form(spec: drifts.DriftSpec) -> None:
    # q = (x - Lambda y)^2 / (2 sigma2) where the threshold binds
    stats = drifts.linear_stats(spec.A_of_s, 0.0, spec.horizon_T)
    xs, ys = np.array(_GRID).T
    for sol, x, y in zip(act.solve_shooting_many(spec, xs, ys), xs, ys):
        exact = max(x - stats.Lambda * y, 0.0) ** 2 / (2.0 * stats.sigma2)
        assert abs(sol.q_value - exact) <= 1e-11, (spec.name, x, y)


@pytest.mark.parametrize("spec", _BATCH_DRIFTS[3:], ids=lambda s: s.name)
def test_default_step_count_matches_fine_run(monkeypatch, spec: drifts.DriftSpec) -> None:
    (coarse,) = act.derivatives_second(spec, act.solve_shooting_many(spec, 0.0, -1.0))
    monkeypatch.setattr(act, "N_STEPS", 8000)
    (fine,) = act.derivatives_second(spec, act.solve_shooting_many(spec, 0.0, -1.0))
    assert abs(coarse.q_value - fine.q_value) <= 1e-11
    for name in ("d2q_dy2", "d2q_dxdy", "d2q_dx2"):
        assert abs(getattr(coarse, name) - getattr(fine, name)) <= 1e-7, name


def test_terminal_value_monotone_in_momentum() -> None:
    # stronger upward momentum always lands higher
    p0 = -np.linspace(0.1, 3.0, 12)
    term = act.shoot_terminal(drifts.logcosh_drift(), -1.0, 0.0, p0)
    assert np.all(np.diff(term) > 0.0)


@pytest.mark.parametrize("spec", _BATCH_DRIFTS, ids=lambda s: s.name)
def test_characteristic_and_shooting_invert_each_other(spec: drifts.DriftSpec) -> None:
    # the backward p = 0 lane, shot forward again with no momentum
    xs = np.array([-0.5, 0.0, 0.5])
    for t in (0.0, 0.4):
        lands = act.shoot_terminal(spec, drifts.characteristic_F(spec, xs, t), t, np.zeros(3))
        assert np.max(np.abs(lands - xs)) <= 1e-12, (spec.name, t)


def _bits(u) -> np.ndarray:
    return np.asarray(u, dtype=float).view(np.uint64)


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("spec", [drifts.logcosh_drift(), drifts.time_varying_linear(0.25, 0.25, 2.0)],
                         ids=lambda s: s.name)
def test_rk4_kernel_matches_a_library_free_rk4_bit_for_bit(spec: drifts.DriftSpec, t: float) -> None:
    # every lane is finite: a blown-up lane's NaN bits are not the point here
    xs = np.array([-0.5, 0.0, 0.4, 0.0, -0.5])
    ys = np.array([-1.5, -1.0, -0.3, 1.5, 2.0])
    sols = act.solve_shooting_many(spec, xs, ys, t=t)
    assert [sol.binding for sol in sols] == [True, True, True, False, False]
    # the solved momenta and one trial momentum per start
    y0 = np.concatenate((ys, ys))
    p0 = np.concatenate(([sol.dq_dy for sol in sols], -0.75 * np.ones(ys.size)))
    n = 500
    node_y, node_p = np.empty((n + 1, y0.size)), np.empty((n + 1, y0.size))
    term = act.shoot_terminal(spec, y0, t, p0, n, nodes=(node_y, node_p))
    times = np.linspace(t, spec.horizon_T, n + 1)
    momentum = orc.momentum_rhs(spec.b, spec.db_dy)
    for i, (y, p) in enumerate(zip(y0, p0)):
        ref = np.array(orc.rk4_nodes(momentum, (y, p), times))
        assert np.isfinite(ref).all()
        assert np.array_equal(_bits(node_y[:, i]), _bits(ref[:, 0])), i
        assert np.array_equal(_bits(node_p[:, i]), _bits(ref[:, 1])), i
        assert _bits(term[i]) == _bits(ref[-1, 0]), i

    def flow(z, s):
        return [float(spec.b(z[0], s))]

    back = [orc.rk4_nodes(flow, (x,), np.linspace(spec.horizon_T, t, 501))[-1][0] for x in xs]
    assert np.array_equal(_bits(drifts.characteristic_F(spec, xs, t)), _bits(back))

    # the binding lanes' variations, marched together, against each lane alone
    term_phi, term_psi, init_phi, init_psi = act._variations(spec, sols[:3])
    for i, sol in enumerate(sols[:3]):
        variation = orc.variation_rhs(spec.db_dy, spec.d2b_dy2, times, sol.path.y, sol.momentum_p)
        # phi = 0, psi = 1 at T ("terminal", run backward) or at t ("initial")
        for tag, run, phi, psi in (("terminal", slice(None, None, -1), term_phi, term_psi),
                                   ("initial", slice(None), init_phi, init_psi)):
            ref = np.array(orc.rk4_nodes(variation, (0.0, 1.0), times[run]))[run]
            assert np.array_equal(_bits(phi[:, i]), _bits(ref[:, 0])), (tag, i)
            assert np.array_equal(_bits(psi[:, i]), _bits(ref[:, 1])), (tag, i)


def test_conservation_on_the_criterion_grid() -> None:
    # int b_y by Simpson pairs: rounding level, far inside the 1e-6 gate
    xs, ys = np.array(_GRID).T
    for spec in _BATCH_DRIFTS:
        for sol in act.solve_shooting_many(spec, xs, ys):
            if sol.binding:
                cons = sol.diagnostics["conservation"]
                assert cons <= 1e-9, (spec.name, sol.x_threshold, float(sol.path.y[0]), cons)


def test_conservation_along_minimizer() -> None:
    for spec in (drifts.logcosh_drift(), drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi)):
        sol = act.solve_shooting(spec, 0.0, -1.0)
        assert sol.diagnostics["conservation"] < 1e-6


# -------------------------------------------------------- first derivatives

def test_first_derivative_integral_forms_agree() -> None:
    """Endpoint and weighted-integral forms of the slopes must coincide."""
    for spec in (drifts.logcosh_drift(), drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi)):
        sol = act.solve_shooting(spec, 0.0, -1.0)
        times = sol.path.times
        d = orc.integral_slopes(times, sol.momentum_p, spec.db_dy(sol.path.y, times))
        assert d["dq_dy"] == pytest.approx(sol.dq_dy, abs=1e-6)
        assert d["dq_dx"] == pytest.approx(sol.dq_dx, abs=1e-6)
        assert d["dq_dx_flow"] == pytest.approx(sol.dq_dx, abs=1e-6)
        assert d["slope_sum"] == pytest.approx(sol.dq_dy + sol.dq_dx, abs=1e-6)


def test_first_derivatives_match_finite_differences() -> None:
    spec = drifts.logcosh_drift()
    sol = act.solve_shooting(spec, 0.0, -1.0)
    h = 1e-5
    fd_y = (
        act.solve_shooting(spec, 0.0, -1.0 + h).q_value
        - act.solve_shooting(spec, 0.0, -1.0 - h).q_value
    ) / (2.0 * h)
    fd_x = (
        act.solve_shooting(spec, h, -1.0).q_value
        - act.solve_shooting(spec, -h, -1.0).q_value
    ) / (2.0 * h)
    fd_t = (act.solve_shooting_many(spec, 0.0, -1.0, t=h)[0].q_value - sol.q_value) / h
    assert fd_y == pytest.approx(sol.dq_dy, abs=1e-5)
    assert fd_x == pytest.approx(sol.dq_dx, abs=1e-5)
    assert fd_t == pytest.approx(sol.dq_dt, abs=1e-4)  # one-sided step


def test_slopes_signed_below_boundary() -> None:
    # cost falls as the start rises and grows as the threshold rises
    for spec in (drifts.zero_drift(), drifts.linear_drift(0.5), drifts.logcosh_drift()):
        sol = act.solve_shooting(spec, 0.0, -1.0)
        assert sol.dq_dy < 0.0
        assert sol.dq_dx > 0.0


# ------------------------------------------------------- second derivatives

def test_second_derivatives_zero_drift() -> None:
    spec = drifts.zero_drift()
    (sol,) = act.derivatives_second(spec, [act.solve_shooting(spec, 0.0, -1.0)])
    assert sol.d2q_dy2 == pytest.approx(1.0, abs=1e-9)
    assert sol.d2q_dxdy == pytest.approx(-1.0, abs=1e-9)
    assert sol.d2q_dx2 == pytest.approx(1.0, abs=1e-9)


def test_second_derivatives_linear_drift_frozen() -> None:
    spec = drifts.linear_drift(0.5)
    (sol,) = act.derivatives_second(spec, [act.solve_shooting(spec, 0.0, -1.0)])
    assert sol.d2q_dy2 == pytest.approx(orc.HESS_YY_A05, abs=1e-9)
    assert sol.d2q_dxdy == pytest.approx(orc.HESS_XY_A05, abs=1e-9)
    assert sol.d2q_dx2 == pytest.approx(orc.HESS_XX_A05, abs=1e-9)


def test_second_derivatives_match_finite_differences() -> None:
    """Variational values against centered differences of the slopes."""
    spec = drifts.logcosh_drift()
    (sol,) = act.derivatives_second(spec, [act.solve_shooting(spec, 0.0, -1.0)])
    h = 1e-5
    up = act.solve_shooting(spec, 0.0, -1.0 + h)
    dn = act.solve_shooting(spec, 0.0, -1.0 - h)
    right = act.solve_shooting(spec, h, -1.0)
    left = act.solve_shooting(spec, -h, -1.0)
    assert (up.dq_dy - dn.dq_dy) / (2.0 * h) == pytest.approx(sol.d2q_dy2, abs=1e-6)
    assert (right.dq_dy - left.dq_dy) / (2.0 * h) == pytest.approx(
        sol.d2q_dxdy, abs=1e-6
    )
    assert (right.dq_dx - left.dq_dx) / (2.0 * h) == pytest.approx(
        sol.d2q_dx2, abs=1e-6
    )


def test_curvature_matrix_positive_semidefinite() -> None:
    for spec in (drifts.linear_drift(0.5), drifts.logcosh_drift()):
        (sol,) = act.derivatives_second(spec, [act.solve_shooting(spec, 0.0, -1.0)])
        assert sol.d2q_dy2 > 0.0
        assert sol.d2q_dx2 > 0.0
        assert sol.d2q_dxdy < 0.0
        det = sol.d2q_dy2 * sol.d2q_dx2 - sol.d2q_dxdy**2
        assert det >= -1e-6


def test_second_derivatives_need_curvature_data() -> None:
    bare = drifts.DriftSpec(
        name="bare",
        b=lambda y, t: np.zeros_like(np.asarray(y, dtype=float)),
        db_dy=lambda y, t: np.zeros_like(np.asarray(y, dtype=float)),
        d2b_dy2=None,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
    )
    sol = act.solve_shooting(bare, 0.0, -1.0)
    with pytest.raises(ValueError):
        act.derivatives_second(bare, [sol])


def test_second_derivatives_rejected_in_free_region() -> None:
    spec = drifts.zero_drift()
    sol = act.solve_shooting(spec, 0.0, 0.5)
    with pytest.raises(ValueError):
        act.derivatives_second(spec, [sol])


def test_degenerate_variation_raises() -> None:
    sol, spec = _focusing_holding_solution()
    with pytest.raises(act.DegenerateVariationError):
        act.derivatives_second(spec, [sol])


def _overflowing_batch() -> tuple[drifts.DriftSpec, list[act.ClassicalSolution]]:
    # a steep linear drift: psi grows like e^{2000 (T - s)} backward from T
    # and overflows, so the variation is inf or NaN at the start
    spec = drifts.linear_drift(2000.0)
    sol, _ = _focusing_holding_solution()
    return spec, [replace(sol, path=replace(sol.path, y=np.linspace(-1.0, 0.0, sol.path.y.size)))]


@pytest.mark.parametrize("call, error, match", [
    (lambda: act.solve_shooting(drifts.logcosh_drift(), 0.0, math.nan),
     drifts.ConfigError, r"lane 0: \(x=0\.0, y=nan"),
    (lambda: act.solve_shooting(drifts.logcosh_drift(), math.nan, -1.0),
     drifts.ConfigError, r"lane 0: \(x=nan, y=-1\.0"),
    (lambda: act.solve_shooting_many(drifts.sin_drift(), [0.0, math.inf, 0.0], -1.0),
     drifts.ConfigError, r"lane 1: \(x=inf"),
    (lambda: act.minimize_direct(drifts.logcosh_drift(), 0.0, math.nan),
     drifts.ConfigError, r"x=0\.0, y=nan"),
    (lambda: act.minimize_direct(drifts.logcosh_drift(), -math.inf, -1.0),
     drifts.ConfigError, r"x=-inf, y=-1\.0"),
    (lambda: act.solve_shooting_many(drifts.logcosh_drift(), 0.0, -1.0, t=-math.inf)[0],
     drifts.ConfigError, "finite t"),
    (lambda: act.minimize_direct(drifts.logcosh_drift(), 0.0, -1.0, t=-math.inf),
     drifts.ConfigError, "t=-inf"),
    (lambda: act.minimize_direct(drifts.logcosh_drift(), 0.0, -1.0, t=1.0),
     drifts.ConfigError, "t < T"),
    (lambda: act.derivatives_second(*_overflowing_batch()),
     act.DegenerateVariationError, "not finite"),
], ids=["nan-start", "nan-threshold", "inf-lane", "direct-nan-start",
        "direct-inf-threshold", "inf-start-time", "direct-inf-start-time",
        "direct-start-at-horizon", "overflowing-variation"])
def test_bad_classical_input_is_refused(call, error, match) -> None:
    with pytest.raises(error, match=match):
        call()


def test_variational_system_boundary_data() -> None:
    spec = drifts.linear_drift(0.5)
    sols = act.solve_shooting_many(spec, [0.0, 0.25], -1.0)
    term_phi, term_psi, init_phi, init_psi = act._variations(spec, sols)
    assert (term_phi[-1] == 0.0).all() and (term_psi[-1] == 1.0).all()
    assert (init_phi[0] == 0.0).all() and (init_psi[0] == 1.0).all()


def test_second_derivatives_of_a_batch_are_its_lanes_alone() -> None:
    # each lane of one march against its one-element batch, bit for bit,
    # on every third point of the grid
    xs, ys = np.array(_GRID[::3]).T
    for spec in (_BATCH_DRIFTS[2], _BATCH_DRIFTS[4]):
        sols = act.solve_shooting_many(spec, xs, ys)
        for got, sol in zip(act.derivatives_second(spec, sols), sols):
            (ref,) = act.derivatives_second(spec, [sol])
            for name in ("d2q_dy2", "d2q_dxdy", "d2q_dx2"):
                assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), (spec.name, name)
    assert act.derivatives_second(drifts.zero_drift(), []) == []


def test_second_derivatives_name_the_refused_lane(monkeypatch) -> None:
    spec = drifts.logcosh_drift()
    bound, free = act.solve_shooting_many(spec, 0.0, [-1.0, 0.5])
    with pytest.raises(ValueError, match=r"free lane 1: \(x=0\.0, y=0\.5, t=0\.0\)"):
        act.derivatives_second(spec, [bound, free])
    (late,) = act.solve_shooting_many(spec, 0.0, -1.0, t=0.3)
    with pytest.raises(ValueError, match=r"time grid .* lane 1: \(x=0\.0, y=-1\.0, t=0\.3\)"):
        act.derivatives_second(spec, [bound, late])
    # a well-posed lane beside the focusing one, on its 2000-step grid
    degenerate, strong = _focusing_holding_solution()
    monkeypatch.setattr(act, "N_STEPS", degenerate.path.times.size - 1)
    (well,) = act.solve_shooting_many(strong, 0.0, -1.0)
    assert act.derivatives_second(strong, [well])[0].d2q_dy2 > 0.0
    with pytest.raises(act.DegenerateVariationError, match="in lane 1: "):
        act.derivatives_second(strong, [well, degenerate])


# --------------------------------------------------------- direct minimizer

def test_minimize_direct_zero_drift() -> None:
    q, path = act.minimize_direct(drifts.zero_drift(), 0.0, -1.0)
    assert q == pytest.approx(0.5, abs=1e-6)
    # minimizer of the straight-line problem is the straight line itself
    assert np.max(np.abs(path.y - np.linspace(-1.0, 0.0, path.y.size))) < 1e-8


def test_minimize_direct_matches_shooting() -> None:
    for spec in (
        drifts.linear_drift(0.5),
        drifts.time_varying_linear(0.3, 0.2, 2.0 * math.pi),
        drifts.logcosh_drift(),
    ):
        q_direct, _ = act.minimize_direct(spec, 0.0, -1.0)
        q_shoot = act.solve_shooting(spec, 0.0, -1.0).q_value
        assert abs(q_direct - q_shoot) < 1e-4


def test_minimize_direct_node_doubling_is_settled(monkeypatch) -> None:
    spec = drifts.logcosh_drift()
    monkeypatch.setattr(act, "DIRECT_NODES", 256)
    q256, _ = act.minimize_direct(spec, 0.0, -1.0)
    monkeypatch.setattr(act, "DIRECT_NODES", 512)
    q512, _ = act.minimize_direct(spec, 0.0, -1.0)
    assert abs(q512 - q256) < 1e-4


def test_minimize_direct_node_floor(monkeypatch) -> None:
    monkeypatch.setattr(act, "DIRECT_NODES", 8)
    with pytest.raises(ValueError):
        act.minimize_direct(drifts.zero_drift(), 0.0, -1.0)


def test_minimize_direct_unreachable_tolerance(monkeypatch) -> None:
    monkeypatch.setattr(act, "DIRECT_GRAD_TOL", 1e-16)
    with pytest.raises(act.ConvergenceError):
        act.minimize_direct(drifts.zero_drift(), 0.0, -1.0)


@pytest.mark.parametrize("amplitude, x, y, q_min", [
    # undamped Newton from the straight line settles on a critical path with
    # q = 0.97079 whose Hessian has a negative eigenvalue (-2.2e-3); the
    # minimum's smallest eigenvalue is +8.9e-3
    (1.0, -2.0, -1.0, 0.7845078409058771),
    # a wide indefinite region along a nearly flat valley: shifted steps
    # that are not stretched crawl and run out of iterations
    (3.0, 0.0, -3.0, 11.940681600444206),
])
def test_minimize_direct_leaves_indefinite_regions(
    amplitude: float, x: float, y: float, q_min: float
) -> None:
    q, _ = act.minimize_direct(drifts.sin_drift(amplitude, T=4.0), x, y)
    assert abs(q - q_min) <= 1e-10


def test_dual_route_grid_logcosh() -> None:
    """Shooting and direct minimization agree across a probe grid."""
    spec = drifts.logcosh_drift()
    for y in (-1.5, -1.0, -0.6):
        for x in (-0.2, 0.0, 0.3):
            sol = act.solve_shooting(spec, x, y)
            assert sol.binding
            q_direct, _ = act.minimize_direct(spec, x, y)
            assert abs(q_direct - sol.q_value) < 1e-4


# ------------------------------------------------------------------ exports

def test_path_rows_shape_and_control() -> None:
    spec = drifts.logcosh_drift()
    sol = act.solve_shooting(spec, 0.0, -1.0)
    rows = list(act.path_rows(sol, spec))
    assert len(rows) == sol.path.times.size
    s0, y0, p0, lam0 = rows[0]
    assert (s0, y0) == (0.0, -1.0)
    assert lam0 == pytest.approx(sol.lambda_star, abs=1e-12)
    # control exceeds the drift everywhere below the boundary
    for s, yv, pv, lam in rows[::200]:
        assert lam > float(spec.b(yv, s))
