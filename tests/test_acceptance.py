"""Acceptance battery: one test per criterion, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion ledger.
Gates and tolerances are stated inline next to each assertion; oracle
values come from tests/oracles.py, frozen from closed forms before the
library existed.

Criterion 6 gates steered paths on the exact exceedance-conditioned law.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import oracles as orc
from tailcost import action, bridge, checks, pde, simulate
from tailcost.drifts import (
    linear_drift,
    linear_stats,
    logcosh_drift,
    sin_drift,
    time_varying_linear,
    zero_drift,
)

EPS = 0.1
SEED = 7


@lru_cache(maxsize=None)
def _controlled_setup(kind: str):
    """Fan-wide grid, level-0 (q, dq_dy) and feedback controller at eps = 0.1."""
    spec = {"zero": zero_drift, "logcosh": logcosh_drift}[kind]()
    grid = pde.default_grid(
        spec, 0.0, EPS, n_y=801, n_t=1001,
        extra=pde.fan_margin(spec, 0.02, 3) + 0.04,
    )
    controller, start = simulate.ControllerField.from_fields(spec, 0.0, grid, EPS)
    iy = grid.nearest_node(-1.0)
    return spec, grid, pde._cost_rows(start.u, EPS, grid.h_y)[:2], controller, iy


def _steer(spec, controller, y0: float, config: simulate.SimConfig) -> simulate.PathEnsemble:
    """The ensemble of one steered leg from (0, y0) at eps = 0.1."""
    return simulate.simulate_legs(spec, [simulate.Leg(controller, y0, 0.0, EPS, config)])[0]


def test_criterion_01_backward_field_matches_gaussian_oracle() -> None:
    """Lattice survival field vs the exact Gaussian for two linear drifts.

    Max-norm error at most 1e-4 on the 2001 x 2001 grid over the probe
    window, each solve within ten seconds.
    """
    for spec, A in ((zero_drift(), 0.0), (linear_drift(0.5), 0.5)):
        grid = pde.default_grid(spec, 0.0, EPS, n_y=2001, n_t=2001)
        start = time.perf_counter()
        heat = pde.solve_u(spec, 0.0, grid, EPS)
        wall = time.perf_counter() - start
        assert wall <= 10.0, f"{spec.name}: solve took {wall:.1f}s"
        stats = linear_stats(spec.A_of_s, 0.0, 1.0)
        y = grid.y_nodes()
        probe = np.abs(stats.Lambda * y) <= 4.0 * math.sqrt(EPS * stats.sigma2)
        exact = np.array([orc.gaussian_u(v, 0.0, EPS, A=A) for v in y[probe]])
        err = float(np.max(np.abs(heat.u[0, probe] - exact)))
        assert err <= 1e-4, f"{spec.name}: max field error {err:.2e}"


def test_criterion_02_shooting_and_direct_minimization_agree() -> None:
    """Both classical routes on a 5x5 endpoint grid for every built-in drift.

    Cost agreement to 1e-4 and the conserved quantity of the optimal
    path flat to 1e-6 relative, at every node.
    """
    drifts = (
        zero_drift(), linear_drift(0.5), time_varying_linear(0.3, 0.2, 3.0),
        logcosh_drift(), sin_drift(),
    )
    # one batch per drift; each lane is its one-point solve bit for bit
    points = [(dxo, -1.0 + dyo) for dxo in (-0.5, -0.25, 0.0, 0.25, 0.5)
              for dyo in (-1.0, -0.75, -0.5, -0.25, 0.0)]
    xs, ys = zip(*points)
    for spec in drifts:
        for (x, y), sol in zip(points, action.solve_shooting_many(spec, xs, ys)):
            q_direct, _ = action.minimize_direct(spec, x, y)
            gap = abs(sol.q_value - q_direct)
            assert gap <= 1e-4, f"{spec.name} at ({x}, {y}): route gap {gap:.2e}"
            cons = sol.diagnostics["conservation"]
            assert cons <= 1e-6, f"{spec.name} at ({x}, {y}): conservation {cons:.2e}"


@pytest.fixture(scope="module")
def limit_sweeps() -> dict:
    """One zero-noise sweep per drift from (0, -1, 0) down the ladder 0.4 .. 0.025."""
    return {
        spec.name: checks.limit_sweep(spec, (0.0, -1.0, 0.0), orc.RATE_EPS)
        for spec in (zero_drift(), linear_drift(0.5), logcosh_drift())
    }


def test_criterion_03_vanishing_noise_rate(limit_sweeps: dict) -> None:
    """Cost gap shrinking in the noise with a fitted exponent over 0.45.

    Zero, linear, and log-cosh drifts on the ladder 0.4 .. 0.025 with
    monotone gaps; the zero-drift gap at eps = 0.1 must sit within 1e-3
    of the closed form.
    """
    for spec in (zero_drift(), linear_drift(0.5), logcosh_drift()):
        rep = checks.check_rate_zero_noise(limit_sweeps[spec.name])
        obs = rep.observed
        assert rep.status == "pass", f"{spec.name}: {obs}"
        assert obs["slope"] >= 0.45
        assert obs["monotone"] is True
        if spec.name == "zero":
            assert obs["anchor_gap_error"] <= 1e-3
            (gap_01,) = [r["gap"] for r in obs["rows"] if r["eps"] == 0.1]
            assert abs(gap_01 - orc.GAP_ZERO_PROBE) <= 1e-3


def test_criterion_04_derivative_limits_and_vanishing_envelope(limit_sweeps: dict) -> None:
    """Lattice slopes reaching the classical slopes below the free boundary.

    Both endpoint slopes within 0.05 at eps = 0.025 for the concave
    drifts; above the boundary the slope magnitudes die like a power of
    the noise with fitted exponent at least 0.2.
    """
    for spec in (zero_drift(), logcosh_drift()):
        rep = checks.check_derivative_convergence(limit_sweeps[spec.name])
        obs = rep.observed
        assert rep.status == "pass", f"{spec.name}: {obs}"
        assert obs["final_gap_dq_dy"] <= 0.05
        assert obs["final_gap_dq_dx"] <= 0.05
        assert obs["envelope_slope"] >= 0.2


def test_criterion_05_sampling_representations_match_field() -> None:
    """Monte Carlo representations at 100000 paths against the solved field.

    Cost and both slope estimators within three standard errors plus the
    0.5 sqrt(eps) truncation budget; the raw weight mean within three
    standard errors of one on the ensemble whose steering stops at
    mid-horizon, where the weight variance is finite and the standard
    error is a real yardstick.
    """
    spec, grid, (q_start, dq_dy_start), controller, iy = _controlled_setup("zero")
    y0 = float(grid.y_nodes()[iy])
    _, _, _, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, EPS, 0.02, 0)
    refs = {
        "q": float(q_start[iy]),
        "slope_y": float(dq_dy_start[iy]),
        "slope_x": float(dq_dx[iy]),
    }
    refs["slope_sum"] = refs["slope_y"] + refs["slope_x"]
    config = simulate.SimConfig(n_paths=100_000, dt=1e-3, seed=SEED)
    half = replace(config, terminal_cutoff=0.5)
    # two legs of one march; each is its one-leg run bit for bit
    ensemble, free_tail = simulate.simulate_legs(spec, [
        simulate.Leg(controller, y0, 0.0, EPS, config),
        simulate.Leg(controller, 0.0, 0.0, EPS, half),
    ])
    budget = 0.5 * math.sqrt(EPS)
    estimates = {"q": simulate.representation_q(ensemble)}
    estimates.update(simulate.representation_dq(ensemble))
    for name, est in estimates.items():
        gap = abs(est.estimate - refs[name])
        tol = 3.0 * est.std_error + budget
        assert gap <= tol, f"{name}: gap {gap:.4f} over budget {tol:.4f}"

    w = np.exp(free_tail.log_girsanov_weight[free_tail.kept])
    mean_w = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(w.size))
    assert abs(mean_w - 1.0) <= 3.0 * se, f"weight mean {mean_w:.4f} +- {se:.4f}"


def _exceedance_reference(spec, grid: pde.Grid1D, iy: int) -> float:
    """P(Y(T - d) > 0 | Y(T) > 0) from (0, y_iy) by CN quadrature, d = 1e-3.

    The ratio of the integrals of p u over xi > 0 and over all xi, with p
    the transition density from (0, y) to (T - d, xi) and u(T - d, xi) the
    survival row.  The full integral is u(0, y) (Chapman-Kolmogorov), so
    only the part below the threshold needs p, and u(T - d, .) is under
    1e-10 from 6.4 sqrt(eps d) below it on.  The lattice refines the
    controller grid fourfold, keeping y and the threshold on nodes; p
    comes from the Green kernel over [0, T - d], u from a solve over
    [T - d, T].  No sampling.
    """
    delta = 1e-3
    s = spec.horizon_T - delta
    fine = pde.Grid1D(grid.y_min, grid.y_max, 4 * (grid.n_y - 1) + 1,
                      0.0, spec.horizon_T, 501)
    j = 4 * iy
    total = pde.solve_u(spec, 0.0, fine, EPS).u[0, j]
    survival = pde.solve_u(spec, 0.0, replace(fine, t_start=s, n_t=41), EPS).u[0]
    j0 = fine.nearest_node(0.0)
    lo = j0 - math.ceil(6.4 * math.sqrt(EPS * delta) / fine.h_y)
    xi = fine.y_nodes()
    # one spare threshold on each side keeps the kernel's differences central
    green = pde.green_function(spec, replace(fine, T=s, n_t=251), EPS,
                               thresholds=xi[lo - 1 : j0 + 2])
    below = simpson(green.g[j, 1:-1] * survival[lo : j0 + 1], x=xi[lo : j0 + 1])
    return 1.0 - below / total


def test_criterion_06_steered_paths_exceed_threshold() -> None:
    """Steered paths sit above the threshold where the conditioned law puts them.

    Steering toward the terminal exceedance samples the diffusion
    conditioned on Y(T) > 0, so the fraction of kept paths above the
    threshold at T - 1e-3 must match that law: at most 3 SE above it, and
    at most 3 SE plus a 0.015 Euler allowance below it (at dt = 1e-3 the
    fraction approaches the law from below as dt shrinks, for both drifts).
    The zero drift's reference is the closed form.  The log-cosh reference
    is _exceedance_reference, which must match the closed form to 1e-3 on
    the zero drift; its band widens by that 1e-3.
    """
    quad_tol = 1e-3
    spec, grid, _, _, iy = _controlled_setup("zero")
    exact = orc.conditioned_exceedance(float(grid.y_nodes()[iy]), 0.0, 1.0, 1e-3, EPS)
    quad = _exceedance_reference(spec, grid, iy)
    assert abs(quad - exact) <= quad_tol, (
        f"quadrature reference {quad:.5f} misses the closed form {exact:.5f}"
    )
    spec, grid, _, _, iy = _controlled_setup("logcosh")
    targets = {
        "zero": (exact, 0.0),
        "logcosh": (_exceedance_reference(spec, grid, iy), quad_tol),
    }

    rows, outside = [], []
    for kind, (ref, slack) in targets.items():
        spec, grid, _, controller, iy = _controlled_setup(kind)
        y0 = float(grid.y_nodes()[iy])
        config = simulate.SimConfig(
            n_paths=20_000, dt=1e-3, seed=SEED, terminal_cutoff=1e-3,
        )
        ensemble = _steer(spec, controller, y0, config)
        state = ensemble.cutoff_state[ensemble.kept]
        frac = float(np.mean(state > 0.0))
        se = math.sqrt(frac * (1.0 - frac) / state.size)
        lo = ref - 3.0 * se - 0.015 - slack
        hi = ref + 3.0 * se + slack
        rows.append(
            f"{kind}: fraction {frac:.4f}, reference {ref:.5f}, SE {se:.5f}, "
            f"band [{lo:.4f}, {hi:.4f}]"
        )
        if not lo <= frac <= hi:
            outside.append(kind)
    assert not outside, (
        "steered fraction above the threshold at T - 1e-3 leaves the "
        f"conditioned-law band for {', '.join(outside)}; " + "; ".join(rows)
    )


def test_criterion_07_inequality_suite_zero_violations() -> None:
    """Density, kernel, and slope bounds with 1e-3 relative slack.

    The density bound is scanned on [-8, 8] at step 0.01 (1601 points);
    the kernel and slope bounds run at their probe sets for the zero and
    log-cosh drifts.  A single violation anywhere fails.
    """
    assert checks.KERNEL_SLACK == 1e-3
    assert checks.SLOPE_SLACK == 1e-3
    cdf = checks.check_cdf_inequality()
    assert cdf.status == "pass"
    assert cdf.observed["n_points"] == 1601
    assert cdf.observed["violations"] == 0

    for kind in ("zero", "logcosh"):
        spec = {"zero": zero_drift, "logcosh": logcosh_drift}[kind]()
        kernel = checks.check_green_bound(spec)
        assert kernel.status == "pass", f"{spec.name}: {kernel.observed}"
        assert kernel.observed["n_skipped"] == 0
        assert kernel.observed["worst_ratio"] <= 1.0 + 1e-3
        slope = checks.check_gradient_bounds(checks.probe_fan(spec))
        assert slope.status == "pass", f"{spec.name}: {slope.observed}"
        assert slope.observed["worst_ratio"] <= 1.0 + 1e-3


def test_criterion_08_joint_convexity_of_the_cost(monkeypatch: pytest.MonkeyPatch) -> None:
    """Convexity of the cost in each endpoint and jointly, concave drifts.

    Second differences in the start point at least -1e-6 of scale, mixed
    threshold-start differences at most +1e-6 of scale, and the smaller
    eigenvalue of the endpoint Hessian at least -1e-5 of scale.  The
    eigenvalue floor is bare, so the stencil here is fine enough that
    its truncation sits under the floor; the mixed-sign check must also
    pass on a drift with no concavity.
    """
    monkeypatch.setattr(checks, "FAN_N_Y", 3001)
    monkeypatch.setattr(checks, "FAN_N_T", 601)
    monkeypatch.setattr(checks, "FAN_DX", 0.003)
    monkeypatch.setattr(checks, "CONVEX_T_FRACS", (0.0, 0.3))
    for spec in (zero_drift(), logcosh_drift()):
        rep = checks.check_convexity_suite(checks.probe_fan(spec))
        assert rep.status == "pass", f"{spec.name}: {rep.observed}"
        for row in rep.observed["rows"]:
            scale = row["scale"]
            assert row["min_second_diff_y"] >= -1e-6 * scale
            assert row["max_mixed"] <= 1e-6 * scale
            assert row["min_eigenvalue"] >= -1e-5 * scale, (
                f"{spec.name} t={row['t']}: eigenvalue {row['min_eigenvalue']:.2e}"
            )

    monkeypatch.undo()  # the mixed-sign check runs on the battery's own lattice
    mixed = checks.check_convexity_suite(checks.probe_fan(sin_drift()))
    assert mixed.status == "pass", f"sin: {mixed.observed}"


def test_criterion_09_bridge_conditionals_and_tail_fit() -> None:
    """Pinned conditionals against closed forms and the tail concentration.

    Quadrature event probabilities within 1e-3 of the driftless pinned
    law; the conditional mean for the contracting linear drift within
    1e-4 of the two-leg action minimizer; fitted tail slopes strictly
    negative with R^2 at least 0.9 on the admissible sweep.
    """
    query = bridge.BridgeQuery(y_start=-1.0, T=1.0, delta=0.25, epsilon=EPS)
    below, above = (
        bridge.conditional_prob_green(
            (bridge.bridge_kernel(zero_drift(), query, fractions=(c,)),), query, c, side)
        for c, side in ((bridge.DEFAULT_C_BELOW, "below"), (bridge.DEFAULT_C_ABOVE, "above"))
    )
    assert abs(below.prob_below - orc.BB_PROB_BELOW_C4) <= 1e-3
    assert abs(above.prob_above - orc.BB_PROB_ABOVE_C025) <= 1e-3
    assert abs(below.mean - orc.BB_MEAN) <= 1e-3
    assert abs(below.variance - orc.BB_VAR) <= 1e-3

    pinned = bridge.conditional_prob_green(
        (bridge.bridge_kernel(linear_drift(0.5), query, fractions=(bridge.DEFAULT_C_BELOW,)),),
        query, bridge.DEFAULT_C_BELOW, "below",
    )
    minimizer = orc.two_leg_minimizer(-1.0, 1.0, 0.25, A=0.5)
    assert minimizer == pytest.approx(orc.PIN_MEAN_A05, abs=1e-12)
    assert abs(pinned.mean - minimizer) <= 1e-4

    sweep = bridge.concentration_check(zero_drift(), bridge.bridge_kernels(
        zero_drift(), query, (-1.0, -1.2, -1.4), (bridge.DEFAULT_C_BELOW, bridge.DEFAULT_C_ABOVE)))
    assert sweep.passed
    # gamma is the negated fitted slope: positive decay means the
    # log-probabilities fall strictly in the depth variable
    assert sweep.gamma_below > 0.0 and sweep.gamma_above > 0.0
    assert sweep.r2_below >= 0.9 and sweep.r2_above >= 0.9


def test_criterion_10_verify_runs_are_reproducible(tmp_path: Path) -> None:
    """Two seeded verification runs: byte-identical reports, bounded wall.

    The full battery must pass, finish within the fifteen-minute budget,
    and serialize to the same bytes both times.
    """
    walls = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tailcost.cli", "verify",
             "--seed", str(SEED), "--out", str(out)],
            capture_output=True, text=True, timeout=900,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        walls.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert max(walls) <= 900.0, f"verify walls: {walls}"
    one = (tmp_path / "a" / "report.json").read_bytes()
    two = (tmp_path / "b" / "report.json").read_bytes()
    assert one == two
    report = json.loads(one)
    assert report["exit_code"] == 0
    assert report["counts"]["fail"] == 0
