from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles as orc
from tailcost import drifts, pde, simulate as sim
from tailcost.action import shoot_terminal

EPS = 0.1
PROBE_Y, PROBE_X = -1.0, 0.0

# Steered runs need the smoothed cost field on a grid whose time step
# resolves the horizon cutoff; one solve per (drift, eps) is plenty.  The
# cache keeps the grid, the level-0 (q, dq_dy) rows and the controller.
_FIELD_CACHE: dict = {}


def _steered(spec, eps, x=0.0):
    key = (spec.name, eps, x)
    if key not in _FIELD_CACHE:
        grid = pde.default_grid(spec, x, eps, n_y=801, n_t=2001)
        ctl, start = sim.ControllerField.from_fields(spec, x, grid, eps)
        _FIELD_CACHE[key] = (grid, pde._cost_rows(start.u, eps, grid.h_y)[:2], ctl)
    return _FIELD_CACHE[key]


def _constant_field(c: float, lo=-6.0, hi=6.0, n_y=41, n_t=41, T=1.0):
    """Hand-built field applying a constant control everywhere."""
    return sim.ControllerField(
        y_nodes=np.linspace(lo, hi, n_y),
        t_nodes=np.linspace(0.0, T, n_t),
        control=np.full((n_t, n_y), float(c)),
        window_lo=np.full(n_t, float(lo)),
        window_hi=np.full(n_t, float(hi)),
        last_row=n_t - 1,
    )


# ------------------------------------------------------------ configuration

def test_config_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        sim.SimConfig(n_paths=0, dt=1e-3, seed=1)
    with pytest.raises(ValueError):
        sim.SimConfig(n_paths=10, dt=0.0, seed=1)
    with pytest.raises(ValueError):
        sim.SimConfig(n_paths=10, dt=1e-3, seed=-1)
    with pytest.raises(ValueError):
        sim.SimConfig(n_paths=10, dt=1e-3, seed=2**64)
    with pytest.raises(ValueError):
        sim.SimConfig(n_paths=10, dt=1e-2, seed=1, terminal_cutoff=1e-3)


def test_config_cutoff_default_and_override() -> None:
    assert sim.SimConfig(n_paths=1, dt=1e-4, seed=0).cutoff(1.0) == pytest.approx(1e-3)
    assert sim.SimConfig(n_paths=1, dt=5e-3, seed=0).cutoff(1.0) == pytest.approx(5e-3)
    cfg = sim.SimConfig(n_paths=1, dt=1e-3, seed=0, terminal_cutoff=0.02)
    assert cfg.cutoff(1.0) == pytest.approx(0.02)


def test_step_size_must_resolve_span() -> None:
    spec = drifts.zero_drift()
    with pytest.raises(ValueError):
        sim.simulate_uncontrolled(spec, -1.0, 0.0, EPS,
                                  sim.SimConfig(n_paths=4, dt=0.2, seed=1))


def test_same_seed_reproduces_paths_bitwise() -> None:
    spec = drifts.logcosh_drift()
    cfg = sim.SimConfig(n_paths=64, dt=1e-2, seed=123)
    a = sim.simulate_uncontrolled(spec, -1.0, 0.0, EPS, cfg)
    b = sim.simulate_uncontrolled(spec, -1.0, 0.0, EPS, cfg)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.times, b.times)
    c = sim.simulate_uncontrolled(spec, -1.0, 0.0, EPS,
                                  sim.SimConfig(n_paths=64, dt=1e-2, seed=124))
    assert not np.array_equal(a.paths, c.paths)


# ------------------------------------------------------------- plain scheme

def test_terminal_moments_linear_drift() -> None:
    A, n = 0.5, 100_000
    spec = drifts.linear_drift(A)
    vals = sim.terminal_sample(spec, PROBE_Y, 0.0, EPS,
                               sim.SimConfig(n_paths=n, dt=2e-3, seed=10))
    mean_exact = orc.growth(A, 1.0) * PROBE_Y
    var_exact = EPS * orc.quad_var(A, 1.0)
    assert abs(vals.mean() - mean_exact) <= 3.0 * math.sqrt(var_exact / n)
    assert abs(vals.var(ddof=1) - var_exact) <= 3.0 * var_exact * math.sqrt(2.0 / n)


def test_terminal_sample_is_last_column_of_stored_paths() -> None:
    spec = drifts.logcosh_drift()
    cfg = sim.SimConfig(n_paths=256, dt=1e-2, seed=31)
    stored = sim.simulate_uncontrolled(spec, PROBE_Y, 0.0, EPS, cfg)
    terminal = sim.terminal_sample(spec, PROBE_Y, 0.0, EPS, cfg)
    assert np.array_equal(terminal, stored.paths[:, -1])


def test_euler_error_halves_with_step_without_noise() -> None:
    # eps ~ 1e-16 makes the noise term negligible against the O(dt) drift
    # error, exposing the integrator's order directly.
    spec = drifts.logcosh_drift()
    ref = float(shoot_terminal(spec, -1.0, 0.0, np.array([0.0]))[0])
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        ens = sim.simulate_uncontrolled(spec, -1.0, 0.0, 1e-16,
                                        sim.SimConfig(n_paths=2, dt=dt, seed=1))
        errs.append(abs(float(ens.paths[0, -1]) - ref))
    assert 1.8 < errs[0] / errs[1] < 2.2
    assert 1.8 < errs[1] / errs[2] < 2.2


def test_naive_exceedance_matches_frozen_probe() -> None:
    spec = drifts.zero_drift()
    res = sim.estimate_u_naive(sim.terminal_sample(
        spec, PROBE_Y, 0.0, EPS, sim.SimConfig(n_paths=1_000_000, dt=1e-2, seed=14)), PROBE_X)
    assert res.name == "exceedance_naive"
    assert res.std_error > 0.0
    assert abs(res.estimate - orc.U_ZERO_PROBE) <= 3.0 * res.std_error


# ------------------------------------------------------------ steering field

def test_controller_field_from_smoothed_cost() -> None:
    spec = drifts.zero_drift()
    grid, _, ctl = _steered(spec, EPS)
    # terminal row holds raw step data and must not be sampled
    assert ctl.last_row == grid.n_t - 2
    assert ctl.t_valid_max == grid.t_nodes()[-2]
    assert ctl.window_lo[0] < -3.0 and ctl.window_hi[0] > 3.5

    lam, ok = ctl.evaluate(np.array([PROBE_Y]), 0.0)
    assert bool(ok[0])
    assert lam[0] == pytest.approx(-orc.gaussian_slope_y(PROBE_Y, PROBE_X, EPS), abs=2e-3)

    # far above the threshold the slope vanishes and the floor holds
    lam_hi, ok_hi = ctl.evaluate(np.array([3.0]), 0.0)
    assert bool(ok_hi[0])
    assert 0.0 <= lam_hi[0] < 1e-3


def test_controller_rejects_times_outside_coverage() -> None:
    _, _, ctl = _steered(drifts.zero_drift(), EPS)
    with pytest.raises(sim.ControllerError):
        ctl.evaluate(np.array([0.0]), 1.5)
    with pytest.raises(sim.ControllerError):
        ctl.evaluate(np.array([0.0]), -0.5)


def test_coarse_time_grid_refused_near_horizon() -> None:
    spec = drifts.zero_drift()
    grid = pde.default_grid(spec, 0.0, EPS, n_y=401, n_t=11)
    ctl, _ = sim.ControllerField.from_fields(spec, 0.0, grid, EPS)
    with pytest.raises(sim.ControllerError):
        sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                sim.SimConfig(n_paths=8, dt=2e-3, seed=1))


def _windowed_field():
    """Smooth control, NaN outside each row's window; adjacent windows differ."""
    y_nodes = np.linspace(-1.3, 2.1, 35)
    t_nodes = np.linspace(0.0, 1.0, 6)
    windows = [(3, 30), (6, 27), (2, 33), (8, 22), (5, 29), (0, 34)]
    control = np.full((6, 35), np.nan)
    for i, (a, b) in enumerate(windows):
        ys = y_nodes[a : b + 1]
        control[i, a : b + 1] = 1.5 + 0.4 * np.sin(2.0 * ys + i) + 0.1 * i
    return sim.ControllerField(
        y_nodes=y_nodes,
        t_nodes=t_nodes,
        control=control,
        window_lo=np.array([y_nodes[a] for a, _ in windows]),
        window_hi=np.array([y_nodes[b] for _, b in windows]),
        last_row=5,
    )


def test_controller_lookup_at_window_edges() -> None:
    ctl = _windowed_field()
    y_nodes, control = ctl.y_nodes, ctl.control
    rng = np.random.default_rng(11)
    t_nodes = ctl.t_nodes
    # (time row, time) pairs: on each row, inside each cell, and the last node
    cells = [(i, t_nodes[i] + frac * (t_nodes[i + 1] - t_nodes[i]))
             for i in range(ctl.last_row) for frac in (0.0, 0.3, 0.5)]
    for i, s in cells + [(ctl.last_row - 1, ctl.t_valid_max)]:
        w = (s - t_nodes[i]) / (t_nodes[i + 1] - t_nodes[i])
        lo = max(ctl.window_lo[i], ctl.window_lo[i + 1])
        hi = min(ctl.window_hi[i], ctl.window_hi[i + 1])
        k_lo, k_hi = np.searchsorted(y_nodes, [lo, hi])
        blended = (1.0 - w) * control[i] + w * control[i + 1]

        # every in-window node, lo and hi among them, and one ulp above lo
        y = np.append(y_nodes[k_lo : k_hi + 1], np.nextafter(lo, np.inf))
        want = np.append(blended[k_lo : k_hi + 1], blended[k_lo])
        lam, ok = ctl.evaluate(y, s)
        assert ok.all()
        assert np.all(np.isfinite(lam))
        np.testing.assert_allclose(lam, want, rtol=1e-15, atol=0.0)

        # between nodes: the two-row np.interp reference
        y = rng.uniform(lo, hi, 200)
        ref = ((1.0 - w) * np.interp(y, y_nodes, control[i])
               + w * np.interp(y, y_nodes, control[i + 1]))
        lam, ok = ctl.evaluate(y, s)
        assert ok.all()
        np.testing.assert_allclose(lam, ref, rtol=1e-13, atol=0.0)

        # one ulp outside either edge is an escape
        _, ok = ctl.evaluate(np.array([np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]), s)
        assert not ok.any()



def test_controller_single_node_window() -> None:
    # row 0 is finite on the node y = 0 alone, so the two rows share one node
    y_nodes = np.linspace(-1.0, 1.0, 21)
    control = np.full((3, 21), np.nan)
    control[0, 10] = 1.25
    control[1, 5:16] = 0.5 + y_nodes[5:16]
    ctl = sim.ControllerField(
        y_nodes=y_nodes,
        t_nodes=np.linspace(0.0, 1.0, 3),
        control=control,
        window_lo=np.array([0.0, -0.5, np.inf]),
        window_hi=np.array([0.0, 0.5, -np.inf]),
        last_row=1,
    )
    y = np.array([0.0, 0.3, -0.7])
    for s, want in ((0.0, 1.25), (0.2, 0.6 * 1.25 + 0.4 * 0.5)):
        values, valid = ctl.evaluate(y, s)
        assert values[0] == pytest.approx(want, rel=1e-15)
        assert valid.tolist() == [True, False, False]


def test_controller_requires_uniform_lattice_and_matching_control() -> None:
    kw = dict(
        t_nodes=np.linspace(0.0, 1.0, 5),
        window_lo=np.full(5, -1.0),
        window_hi=np.full(5, 1.0),
        last_row=4,
    )
    y_nodes = np.linspace(-1.0, 1.0, 9)
    sim.ControllerField(y_nodes=y_nodes, control=np.zeros((5, 9)), **kw)
    bent = y_nodes.copy()
    bent[4] += 1e-6
    with pytest.raises(sim.ControllerError, match="uniform"):
        sim.ControllerField(y_nodes=bent, control=np.zeros((5, 9)), **kw)
    with pytest.raises(sim.ControllerError, match="shape"):
        sim.ControllerField(y_nodes=y_nodes, control=np.zeros((5, 8)), **kw)
    with pytest.raises(sim.ControllerError, match="shape"):
        sim.ControllerField(y_nodes=y_nodes, control=np.zeros((4, 9)), **kw)


def _loop_windows(grid, dq_dy, spec):
    """The controller build from_fields replaced, node by node.

    It scans the whole slope lattice of a solve that kept every level,
    seeded at the best-covered column, and stops at the first row whose
    seed is not finite.
    """
    n_t, n_y = dq_dy.shape
    t_nodes, y_nodes = grid.t_nodes(), grid.y_nodes()
    center = int(np.argmax(np.isfinite(dq_dy).sum(axis=0)))
    control = np.full((n_t, n_y), np.nan)
    window_lo = np.full(n_t, np.inf)
    window_hi = np.full(n_t, -np.inf)
    last_row = 0
    for i in range(n_t - 1):
        finite = np.isfinite(dq_dy[i])
        if not finite[center]:
            break
        j_lo = center
        while j_lo > 0 and finite[j_lo - 1]:
            j_lo -= 1
        j_hi = center
        while j_hi < n_y - 1 and finite[j_hi + 1]:
            j_hi += 1
        drift_row = np.asarray(spec.b(y_nodes[j_lo : j_hi + 1], t_nodes[i]))
        lam = drift_row - dq_dy[i, j_lo : j_hi + 1]
        control[i, j_lo : j_hi + 1] = np.maximum(lam, drift_row)
        window_lo[i] = y_nodes[j_lo]
        window_hi[i] = y_nodes[j_hi]
        last_row = i
    return control, window_lo, window_hi, last_row


def test_from_fields_window_scan_matches_loop(monkeypatch) -> None:
    spec = drifts.logcosh_drift()
    grid = pde.Grid1D(-3.0, 3.0, 61, 0.0, 1.0, 12)
    ys, ts = np.meshgrid(grid.y_nodes(), grid.t_nodes())
    dq_dy = np.cos(ys) * (1.0 + ts)
    # column 30 (x = 0, the seed) is the best covered; rows 0-4 have holes
    # on both sides of it (row 2 leaves it alone, rows 3-4 reach the lattice
    # edge) and row 5 is NaN there, which ends the usable rows: the rows
    # 6-10 written before it arrived are blanked again
    dq_dy[8:, np.arange(61) != 30] = np.nan
    dq_dy[0, [25, 41]] = np.nan
    dq_dy[1, :10] = np.nan
    dq_dy[1, 50:] = np.nan
    dq_dy[2, [0, 29, 31, 60]] = np.nan
    dq_dy[3, 44:46] = np.nan
    dq_dy[5, 30] = np.nan
    dq_dy[7, [3, 57]] = np.nan

    # a stand-in solve hands the lattice's rows over in the march's order,
    # top down, and a stand-in transform passes each on as its slope row
    def solve_u(spec, x, grid, epsilon, rows, level):
        for i in range(grid.n_t - 1, -1, -1):
            level(i, dq_dy[i])

    monkeypatch.setattr(pde, "solve_u", solve_u)
    monkeypatch.setattr(pde, "_cost_rows", lambda u, epsilon, h_y: (None, u, None))
    ctl, _ = sim.ControllerField.from_fields(spec, 0.0, grid, EPS)
    control, window_lo, window_hi, last_row = _loop_windows(grid, dq_dy, spec)
    assert last_row == ctl.last_row == 4
    assert ctl.window_lo[2] == ctl.window_hi[2] == grid.y_nodes()[30]
    assert np.array_equal(ctl.control, control, equal_nan=True)
    assert np.array_equal(ctl.window_lo, window_lo)
    assert np.array_equal(ctl.window_hi, window_hi)
    dq_dy[1, 30] = np.nan  # level 0 alone is usable: no interior row to steer by
    with pytest.raises(sim.ControllerError, match="no usable interior rows"):
        sim.ControllerField.from_fields(spec, 0.0, grid, EPS)


@pytest.mark.parametrize("spec, eps, t_start", [
    (drifts.zero_drift(), 0.0125, 0.0),
    (drifts.logcosh_drift(), EPS, 0.0),
    (drifts.sin_drift(), EPS, 0.0),
    (drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi), EPS, 0.0),
    (drifts.logcosh_drift(), EPS, 0.25),
], ids=["zero-0.0125", "logcosh", "sin", "linear_tv", "logcosh-t0.25"])
def test_from_fields_matches_the_whole_lattice_scan(spec, eps, t_start) -> None:
    # the one-march build against the route it replaced: keep every level,
    # transform the whole lattice, scan it from the best-covered column;
    # every case has underflow holes, rows whose window stops short of y_min
    grid = pde._fan_grid(spec, 0.0, eps, 301, 201, t_start=t_start)
    ctl, start = sim.ControllerField.from_fields(spec, 0.0, grid, eps)
    q, dq_dy, _ = pde._cost_rows(pde.solve_u(spec, 0.0, grid, eps).u, eps, grid.h_y)
    control, window_lo, window_hi, last_row = _loop_windows(grid, dq_dy, spec)
    assert (window_lo[: last_row + 1] > grid.y_min).any()
    assert ctl.last_row == last_row
    assert np.array_equal(ctl.control, control, equal_nan=True)
    assert np.array_equal(ctl.window_lo, window_lo)
    assert np.array_equal(ctl.window_hi, window_hi)
    assert start.levels == 0
    q0, dq_dy0, _ = pde._cost_rows(start.u, eps, grid.h_y)
    assert q0.tobytes() == q[0].tobytes() and dq_dy0.tobytes() == dq_dy[0].tobytes()


def test_controller_build_memory_stays_near_the_solved_field() -> None:
    # the whole build, solve included, holds the control lattice and a few
    # rows: each level's transform lives only during its row step
    spec = drifts.zero_drift()
    grid = pde._fan_grid(spec, 0.0, EPS, 1201, 1201)
    tracemalloc.start()
    try:
        ctl, _ = sim.ControllerField.from_fields(spec, 0.0, grid, EPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctl.last_row == grid.n_t - 2
    assert peak < 1.25 * ctl.control.nbytes, f"peak {peak / ctl.control.nbytes:.2f} x control"


def test_escaped_paths_flagged_and_capped() -> None:
    spec = drifts.zero_drift()
    narrow = sim.ControllerField(
        y_nodes=np.linspace(-1.2, 1.5, 28),
        t_nodes=np.linspace(0.0, 1.0, 41),
        control=np.zeros((41, 28)),
        window_lo=np.full(41, -1.2),
        window_hi=np.full(41, 1.5),
        last_row=40,
    )
    cfg = sim.SimConfig(n_paths=2000, dt=2e-3, seed=3)
    with pytest.raises(sim.GridCoverageError):
        sim.simulate_controlled(spec, narrow, PROBE_Y, 0.0, EPS, cfg)
    ens = sim.simulate_controlled(spec, narrow, PROBE_Y, 0.0, EPS, cfg,
                                  max_escaped_fraction=0.95)
    frac = float(ens.escaped.mean())
    assert 0.3 < frac < 0.8
    assert ens.kept.sum() == 2000 - ens.escaped.sum()
    assert np.all(np.isfinite(ens.log_girsanov_weight[ens.kept]))


# ------------------------------------------- fused step and the plain leg

def _evaluate_reference(ctl, y, s):
    """ControllerField.evaluate as it was before its in-place rewrite."""
    i = int(np.searchsorted(ctl.t_nodes, s, side="right")) - 1
    i = min(max(i, 0), ctl.last_row - 1)
    w = (s - ctl.t_nodes[i]) / (ctl.t_nodes[i + 1] - ctl.t_nodes[i])
    w = min(max(w, 0.0), 1.0)
    lo = max(ctl.window_lo[i], ctl.window_lo[i + 1])
    hi = min(ctl.window_hi[i], ctl.window_hi[i + 1])
    valid = (y >= lo) & (y <= hi)
    row = (1.0 - w) * ctl.control[i] + w * ctl.control[i + 1]
    y_first, y_last = ctl.y_nodes[0], ctl.y_nodes[-1]
    pos = (np.clip(y, lo, hi) - y_first) * ((ctl.y_nodes.size - 1) / (y_last - y_first))
    j_lo = int(np.searchsorted(ctl.y_nodes, lo, side="right")) - 1
    j_hi = int(np.searchsorted(ctl.y_nodes, hi, side="left"))
    if j_hi == j_lo:
        return np.full(np.shape(y), row[j_lo]), valid
    j = np.clip(pos.astype(np.intp), j_lo, j_hi - 1)
    left = row[j]
    return left + (pos - j) * (row[j + 1] - left), valid


def test_evaluate_matches_its_reference_bit_for_bit() -> None:
    # every entry, bit for bit: between and on nodes, one ulp past either
    # window edge, far outside, +-0, +-inf and NaN (which truncates to
    # INT_MIN before the cell clamp)
    _, _, steered = _steered(drifts.zero_drift(), EPS)
    rng = np.random.default_rng(5)
    for ctl in (_windowed_field(), _narrow(steered, -1.3, 0.4)):
        y_first, y_last = ctl.y_nodes[0], ctl.y_nodes[-1]
        for s in np.linspace(ctl.t_nodes[0], ctl.t_valid_max, 11):
            i = min(int(np.searchsorted(ctl.t_nodes, s, side="right")) - 1, ctl.last_row - 1)
            edges = [max(ctl.window_lo[i], ctl.window_lo[i + 1]),
                     min(ctl.window_hi[i], ctl.window_hi[i + 1])]
            y = np.concatenate([
                rng.uniform(y_first - 0.5, y_last + 0.5, 400), ctl.y_nodes, edges,
                np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, y_first - 9.0, y_last + 9.0],
            ])
            with np.errstate(invalid="ignore"):
                lam, valid = ctl.evaluate(y, s)
                lam_ref, valid_ref = _evaluate_reference(ctl, y, s)
            assert np.array_equal(lam.view(np.int64), lam_ref.view(np.int64))
            assert np.array_equal(valid, valid_ref)
            assert np.isnan(lam[-8:-6]).all() and not valid[-8:-6].any()


def _loop_steered(spec, ctl, y0, t, epsilon, config, times, n_ctl):
    """The steered loop the fused step replaced: one slope accumulator each,
    the weight as -(excess / sqrt(eps)) dw - excess^2 / (2 eps) h.

    Returns the recorded rows, terminal and cutoff states, escape flags, log
    weight and integrals of a run over times, steering its first n_ctl steps.
    """
    T, n = spec.horizon_T, config.n_paths
    ids = sim.recorded_ids(n)
    rows = slice(ids.start, ids.stop, ids.step)
    rng = sim._generator(config.seed)
    record = np.empty((len(ids), times.size))
    record[:, 0] = y0
    y = np.full(n, float(y0))
    alive = np.ones(n, dtype=bool)
    logw = np.zeros(n)
    accum = {k: np.zeros(n) for k in ("cost", "slope_y", "slope_x", "slope_sum")}
    sqrt_eps = math.sqrt(epsilon)
    for k in range(n_ctl):
        s = times[k]
        h = times[k + 1] - times[k]
        lam, valid = _evaluate_reference(ctl, y, s)
        alive &= valid
        frozen = ~alive
        b_now = np.asarray(spec.b(y, s), dtype=float)
        by_now = np.asarray(spec.db_dy(y, s), dtype=float)
        excess = np.subtract(lam, b_now, out=lam)
        np.copyto(excess, 0.0, where=frozen)
        dw = math.sqrt(h) * rng.standard_normal(n)
        step = (b_now + excess) * h + sqrt_eps * dw
        np.copyto(step, 0.0, where=frozen)
        y += step
        record[:, k + 1] = y[rows]
        sq = excess**2
        logw += -(excess / sqrt_eps) * dw - (sq / (2.0 * epsilon)) * h
        accum["cost"] += sq * h
        accum["slope_y"] += (1.0 + (T - s) * by_now) * excess * h
        accum["slope_x"] += (1.0 - (s - t) * by_now) * excess * h
        accum["slope_sum"] += by_now * excess * h
    cutoff_state = y
    for k in range(n_ctl, times.size - 1):
        h = times[k + 1] - times[k]
        xi = rng.standard_normal(n)
        stepped = y + np.asarray(spec.b(y, times[k])) * h + math.sqrt(epsilon * h) * xi
        y = np.where(alive, stepped, y)
        record[:, k + 1] = y[rows]
    return record, y, cutoff_state, ~alive, logw, accum


def _narrow(ctl, lo, hi):
    """ctl with every window cut to [lo, hi], so paths escape on both sides."""
    return replace(ctl, window_lo=np.maximum(ctl.window_lo, lo),
                   window_hi=np.minimum(ctl.window_hi, hi))


# The fused step forms the weight and the integrals in another order: each
# step's increments round in at most 8 places where the loop's did, so after
# n steps the two differ by at most 8 n ulps of the quantity's largest
# magnitude over the paths.
ROUNDING_ULPS_PER_STEP = 8


@pytest.mark.parametrize("kind, narrow", [
    ("zero", False), ("logcosh", False), ("linear_tv", False), ("logcosh", True),
])
def test_fused_step_matches_the_loop_it_replaced(kind, narrow) -> None:
    spec = {"zero": drifts.zero_drift(), "logcosh": drifts.logcosh_drift(),
            "linear_tv": drifts.time_varying_linear(0.25, 0.25, 2.0 * math.pi)}[kind]
    _, _, ctl = _steered(spec, EPS)
    if narrow:
        ctl = _narrow(ctl, -1.3, 0.4)
    cfg = sim.SimConfig(n_paths=2000, dt=1e-3, seed=19)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS, cfg, max_escaped_fraction=1.0)
    paths, terminal, cutoff_state, escaped, logw, accum = _loop_steered(
        spec, ctl, PROBE_Y, 0.0, EPS, cfg, ens.times, ens.cutoff_index)
    assert (0 < escaped.sum() < 2000) if narrow else not escaped.any()
    assert ens.plain_terminal is None
    assert np.array_equal(ens.paths, paths)
    assert np.array_equal(ens.terminal, terminal)
    assert np.array_equal(ens.cutoff_state, cutoff_state)
    assert np.array_equal(ens.escaped, escaped)
    ulps = ROUNDING_ULPS_PER_STEP * ens.cutoff_index * np.finfo(float).eps
    for name, got, want in [("log weight", ens.log_girsanov_weight, logw),
                            *((key, ens.integrals[key], accum[key]) for key in accum)]:
        gap = np.max(np.abs(got - want))
        assert gap <= ulps * np.max(np.abs(want)), f"{name}: {gap:.3g}"


@pytest.mark.parametrize("dt, narrow, longer", [
    (1e-3, False, False), (7e-4, False, False), (1e-3, True, False), (1e-3, False, True),
], ids=["dt1e-3", "dt7e-4", "escapes", "longer-plain-grid"])
def test_plain_leg_is_terminal_sample_bit_for_bit(dt, narrow, longer, monkeypatch) -> None:
    spec = drifts.logcosh_drift()
    _, _, ctl = _steered(spec, EPS)
    if narrow:
        ctl = _narrow(ctl, -1.3, 0.4)
    if longer:
        # no dt searched gives the plain grid more steps than the steered
        # one; three more here make the plain leg draw past the steered run
        grid = sim._time_grid
        monkeypatch.setattr(sim, "_time_grid", lambda dt, start, end, n_paths=0: np.linspace(
            start, end, grid(dt, start, end, n_paths).size + 3))
    cfg = sim.SimConfig(n_paths=2000, dt=dt, seed=23)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS, cfg,
                                  max_escaped_fraction=1.0, plain=True)
    assert np.array_equal(ens.plain_terminal, sim.terminal_sample(spec, PROBE_Y, 0.0, EPS, cfg))
    n_plain = sim._time_grid(dt, 0.0, 1.0).size - 1
    if dt == 7e-4:
        assert (ens.times.size - 1, n_plain) == (1430, 1429)
    assert (n_plain > ens.times.size - 1) == longer
    assert ens.escaped.any() == narrow
    # the plain leg leaves the steered run as it was
    alone = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS, cfg, max_escaped_fraction=1.0)
    assert np.array_equal(ens.paths, alone.paths)
    assert np.array_equal(ens.log_girsanov_weight, alone.log_girsanov_weight)


class _CountedDraws:
    """A generator that counts its standard_normal calls."""

    def __init__(self, rng) -> None:
        self.rng, self.calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


def _assert_same_ensemble(got, want) -> None:
    assert got.path_ids == want.path_ids
    assert (got.seed, got.cutoff_index) == (want.seed, want.cutoff_index)
    for name in ("times", "paths", "terminal", "log_girsanov_weight", "plain_terminal",
                 "escaped", "cutoff_state"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name
    assert got.integrals.keys() == want.integrals.keys()
    for key in got.integrals:
        assert np.array_equal(got.integrals[key], want.integrals[key]), key


def test_legs_match_solo_runs_bit_for_bit(monkeypatch) -> None:
    # invariant:weight-mean's three legs, a leg whose paths escape on a
    # longer grid (75 steered and 26 free steps against 100), and a plain leg
    spec = drifts.zero_drift()
    ctl, ctl_is = _steered(spec, 0.1)[2], _steered(spec, 0.2)[2]
    cfg = sim.SimConfig(n_paths=300, dt=1e-2, seed=29)
    legs = [
        sim.Leg(ctl, 0.0, 0.0, 0.1, replace(cfg, terminal_cutoff=0.5)),
        sim.Leg(ctl_is, PROBE_Y, 0.0, 0.2, cfg),
        sim.Leg(ctl, PROBE_Y, 0.0, 0.1, cfg),
        sim.Leg(_narrow(ctl, -1.15, 0.1), PROBE_Y, 0.0, 0.1, replace(cfg, terminal_cutoff=0.255)),
        sim.Leg(None, PROBE_Y, 0.0, 0.1, cfg),
    ]
    made, generator = [], sim._generator

    def counted(seed):
        made.append(_CountedDraws(generator(seed)))
        return made[-1]

    monkeypatch.setattr(sim, "MAX_ESCAPED_FRACTION", 1.0)
    with monkeypatch.context() as m:
        m.setattr(sim, "_generator", counted)
        ensembles = sim.simulate_legs(spec, legs)
    steps = [ens.times.size - 1 for ens in ensembles]
    assert steps == [100, 100, 100, 101, 100]
    assert [g.calls for g in made] == [max(steps)]
    assert 0 < ensembles[3].escaped.sum() < 300
    for leg, ens in zip(legs[:4], ensembles):
        _assert_same_ensemble(ens, sim.simulate_controlled(
            spec, leg.controller, leg.y0, leg.t, leg.epsilon, leg.config, 1.0))
    # the plain leg is terminal_sample's run and records no rows
    plain = ensembles[4]
    assert plain.path_ids == range(0) and plain.paths.shape == (0, plain.times.size)
    assert np.array_equal(plain.times, sim._time_grid(cfg.dt, 0.0, spec.horizon_T))
    want = sim.terminal_sample(spec, PROBE_Y, 0.0, 0.1, cfg)
    assert np.array_equal(plain.terminal, want) and np.array_equal(plain.plain_terminal, want)
    assert not plain.log_girsanov_weight.any() and plain.escaped is None


def test_legs_must_share_paths_step_seed_and_start(monkeypatch) -> None:
    spec = drifts.zero_drift()
    ctl = _constant_field(0.5)
    cfg = sim.SimConfig(n_paths=40, dt=1e-2, seed=5)
    lead = sim.Leg(ctl, PROBE_Y, 0.0, EPS, cfg)
    for other in (replace(lead, config=replace(cfg, n_paths=41)),
                  replace(lead, config=replace(cfg, dt=2e-2)),
                  replace(lead, config=replace(cfg, seed=6)),
                  replace(lead, t=0.1)):
        with pytest.raises(drifts.ConfigError, match="agree"):
            sim.simulate_legs(spec, [lead, other])
    # a leg's own start, noise level and cutoff may differ
    monkeypatch.setattr(sim, "MAX_ESCAPED_FRACTION", 1.0)
    sim.simulate_legs(spec, [lead, replace(lead, y0=0.0, epsilon=0.2,
                                           config=replace(cfg, terminal_cutoff=0.3))])


def test_memory_guard_counts_every_leg(monkeypatch) -> None:
    spec = drifts.zero_drift()
    cfg = sim.SimConfig(n_paths=20_000, dt=1e-2, seed=5)
    leg = sim.Leg(_constant_field(0.5), PROBE_Y, 0.0, EPS, cfg)
    nodes = 1.0 / cfg.dt + 2.0
    rows = len(sim.recorded_ids(cfg.n_paths))
    per_leg = 8.0 * (nodes * (1 + rows) + sim._LEG_VECTORS * cfg.n_paths)
    monkeypatch.setattr(sim, "MAX_ESCAPED_FRACTION", 1.0)
    # tailcost simulate's steered and plain legs fit in one time grid, the
    # recorded rows and 24 per-path vectors
    monkeypatch.setattr(sim, "_physical_memory",
                        lambda: 8.0 * (nodes * (1 + rows) + 24 * cfg.n_paths))
    steered, plain = sim.simulate_legs(spec, [leg, replace(leg, controller=None)])
    assert steered.paths.shape[0] == rows and plain.paths.size == 0
    # room for the shared step vectors and two legs: one fits, three do not
    monkeypatch.setattr(sim, "_physical_memory",
                        lambda: 8.0 * sim._STEP_VECTORS * cfg.n_paths + 2.0 * per_leg)
    assert sim.simulate_legs(spec, [leg])[0].terminal.shape == (cfg.n_paths,)
    monkeypatch.setattr(sim, "_generator", lambda seed: pytest.fail("drew after the refusal"))
    tracemalloc.start()
    try:
        with pytest.raises(drifts.ConfigError, match="3 steered and 0 plain leg"):
            sim.simulate_legs(spec, [leg, leg, leg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before any grid or per-path vector was allocated
    assert peak < 8 * cfg.n_paths, f"peak {peak} B"


# --------------------------------------------------- steered-run consistency

def test_steered_marginal_matches_conditioned_law() -> None:
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, EPS)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=4000, dt=2.5e-4, seed=42))
    assert ens.escaped.sum() == 0
    assert ens.times[ens.cutoff_index] == pytest.approx(0.999, abs=1e-12)
    cut = ens.cutoff_state[ens.kept]
    frac = float((cut > PROBE_X).mean())
    se = math.sqrt(frac * (1.0 - frac) / cut.size)
    assert abs(frac - orc.CONDITIONED_EXCEEDANCE) <= 3.0 * se


def test_steered_memory_is_bounded_by_the_path_count() -> None:
    # storing every path would take 2000 x 10001 x 8 B = 160 MB; the
    # streaming run keeps per-path states plus the recorded rows only
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, EPS)
    cfg = sim.SimConfig(n_paths=2000, dt=1e-4, seed=17)
    tracemalloc.start()
    try:
        ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    ids = list(ens.path_ids)
    assert ids == list(range(0, 2000, 40))
    assert ens.paths.shape == (len(ids), ens.times.size) == (50, 10001)
    assert ens.terminal.shape == ens.cutoff_state.shape == (2000,)
    assert np.array_equal(ens.paths[:, ens.cutoff_index], ens.cutoff_state[ids])
    assert np.array_equal(ens.paths[:, -1], ens.terminal[ids])


def test_work_representation_recovers_smoothed_cost() -> None:
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, EPS)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=10_000, dt=1e-3, seed=13))
    res = sim.representation_q(ens)
    # the cutoff discretization leaves an O(dt log dt) remainder, so the
    # gate keeps a fixed slack on top of the statistical band
    assert abs(res.estimate - orc.COST_EPS_ZERO_PROBE) <= max(3.0 * res.std_error, 0.05)


def test_slope_representations_zero_drift() -> None:
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, EPS)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=10_000, dt=1e-3, seed=13))
    dq = sim.representation_dq(ens)
    sy, sx, ss = dq["slope_y"], dq["slope_x"], dq["slope_sum"]
    assert abs(sy.estimate - orc.SLOPE_Y_ZERO_PROBE) <= max(3.0 * sy.std_error, 0.02)
    assert sy.estimate < 0.0 < sx.estimate
    # zero slope of the drift collapses both integrands to the same work
    # density, so the antisymmetry is exact path by path
    assert sy.estimate == pytest.approx(-sx.estimate, abs=1e-12)
    assert ss.estimate == 0.0


def test_slope_sum_identity_concave_drift() -> None:
    spec = drifts.logcosh_drift()
    grid, (q_start, dq_dy_start), ctl = _steered(spec, EPS)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=4000, dt=1e-3, seed=12))
    dq = sim.representation_dq(ens)
    sy, sx, ss = dq["slope_y"], dq["slope_x"], dq["slope_sum"]
    assert sy.estimate + sx.estimate == pytest.approx(ss.estimate, abs=1e-10)
    iy = grid.nearest_node(PROBE_Y)
    assert abs(sy.estimate - dq_dy_start[iy]) <= max(3.0 * sy.std_error, 0.02)
    q_mc = sim.representation_q(ens)
    assert abs(q_mc.estimate - q_start[iy]) <= max(3.0 * q_mc.std_error, 0.05)


# ------------------------------------------------------- importance sampling

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constant_shift_recovers_exact_probability() -> None:
    # Constant control c is the textbook exponential tilt; the reweighted
    # estimator must hit the Gaussian answer for any c, which isolates the
    # weight accounting from the steering quality.
    spec = drifts.zero_drift()
    ctl = _constant_field(1.2)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=200_000, dt=2e-3, seed=9))
    res = sim.importance_sampling(ens, PROBE_X)
    assert abs(res.estimate - orc.U_ZERO_PROBE) <= 3.0 * res.std_error


def test_weight_mean_is_one_for_mild_shift() -> None:
    spec = drifts.zero_drift()
    ctl = _constant_field(0.5)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=100_000, dt=2e-3, seed=4))
    w = np.exp(ens.log_girsanov_weight[ens.kept])
    assert abs(w.mean() - 1.0) <= 3.0 * w.std(ddof=1) / math.sqrt(w.size)


def test_steered_estimate_agrees_with_naive() -> None:
    # eps large enough that the plain estimator still resolves the event
    eps = 0.2
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, eps,
                                      sim.SimConfig(n_paths=40_000, dt=1e-3, seed=5))
        steered = sim.importance_sampling(ens, PROBE_X)
    naive = sim.estimate_u_naive(sim.terminal_sample(
        spec, PROBE_Y, 0.0, eps, sim.SimConfig(n_paths=400_000, dt=5e-3, seed=6)), PROBE_X)
    gap = abs(steered.estimate - naive.estimate)
    assert gap <= 3.0 * math.hypot(steered.std_error, naive.std_error)
    assert steered.extra["ess"] > 100.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_steering_beats_naive_variance_in_small_noise() -> None:
    eps = 0.05
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, eps)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, eps,
                                  sim.SimConfig(n_paths=20_000, dt=5e-4, seed=11))
    res = sim.importance_sampling(ens, PROBE_X)
    exact = orc.gaussian_u(PROBE_Y, PROBE_X, eps)
    assert abs(res.estimate - exact) <= 3.0 * res.std_error
    var_naive = res.estimate * (1.0 - res.estimate)
    var_steered = res.std_error**2 * res.n
    assert var_naive / var_steered > 10.0
    assert res.extra["variance_ratio"] == pytest.approx(var_naive / var_steered)


def test_collapsed_weights_warn() -> None:
    spec = drifts.zero_drift()
    ctl = _constant_field(5.0)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=50, dt=5e-3, seed=2))
    with pytest.warns(RuntimeWarning, match="ESS"):
        res = sim.importance_sampling(ens, PROBE_X)
    assert res.extra["ess"] < 10.0


# ----------------------------------------------------------------- pinned SDE

def test_pinned_pull_matches_conditional_moments() -> None:
    n = 200_000
    vals = sim.simulate_pinned_pull(1.0, 1.0, 0.0, 1.0, 0.5, EPS,
                                    sim.SimConfig(n_paths=n, dt=1e-3, seed=8))
    assert abs(vals.mean() - orc.PIN_SDE_MEAN) <= 3.0 * math.sqrt(orc.PIN_SDE_VAR / n)
    assert abs(vals.var(ddof=1) - orc.PIN_SDE_VAR) <= 3.0 * orc.PIN_SDE_VAR * math.sqrt(2.0 / n)


def test_pinned_pull_validates_sample_time() -> None:
    cfg = sim.SimConfig(n_paths=4, dt=1e-3, seed=1)
    with pytest.raises(ValueError):
        sim.simulate_pinned_pull(1.0, 1.0, 0.0, 1.0, 1.0, EPS, cfg)
    with pytest.raises(ValueError):
        sim.simulate_pinned_pull(1.0, 1.0, 0.5, 1.0, 0.5, EPS, cfg)


# --------------------------------------------------------------- export glue

def test_ensemble_rows_and_header() -> None:
    spec = drifts.zero_drift()
    ens = sim.simulate_uncontrolled(spec, -1.0, 0.0, EPS,
                                    sim.SimConfig(n_paths=3, dt=0.1, seed=5))
    rows = list(sim.ensemble_rows(ens))
    assert len(rows) == 3 * ens.times.size
    assert rows[0] == (0, 0.0, -1.0)
    strided = list(sim.ensemble_rows(ens, path_stride=2, time_stride=4))
    assert {pid for pid, _, _ in strided} == {0, 2}
    hdr = sim.ensemble_header(ens, EPS)
    assert hdr["seed"] == 5 and hdr["n_paths"] == 3
    assert hdr["t_start"] == 0.0 and hdr["t_end"] == 1.0
    assert hdr["epsilon"] == EPS and hdr["escaped"] == 0


def test_three_routes_to_the_same_cost() -> None:
    # classical action (exact 1/2), smoothed cost (frozen), and the steered
    # Monte Carlo work estimate must line up within their stated slacks
    spec = drifts.zero_drift()
    _, _, ctl = _steered(spec, EPS)
    ens = sim.simulate_controlled(spec, ctl, PROBE_Y, 0.0, EPS,
                                  sim.SimConfig(n_paths=10_000, dt=1e-3, seed=21))
    q_mc = sim.representation_q(ens)
    assert abs(q_mc.estimate - orc.COST_EPS_ZERO_PROBE) <= max(3.0 * q_mc.std_error, 0.05)
    assert abs(orc.COST_EPS_ZERO_PROBE - 0.5) <= math.sqrt(EPS)
    assert abs(q_mc.estimate - 0.5) <= math.sqrt(EPS) + 0.05
