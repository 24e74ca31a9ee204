"""Verification battery: gates, frozen headline numbers, failure injections.

Passing gates re-run each check at battery resolution and pin the
headline numbers against values frozen from a calibration run; where a
closed form exists (zero drift) both sides of the bound are recomputed
here independently of the check's own arithmetic.  Injections override
a declared drift bound so the corresponding check must trip.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from functools import lru_cache

import pytest
from scipy.stats import norm

import oracles as orc
from tailcost import checks, pde
from tailcost.drifts import (
    linear_drift, logcosh_drift, sin_drift, time_varying_linear, zero_drift,
)

# Frozen from a calibration run at battery resolution.
GREEN_WORST_ZERO = 0.9643673859954572
GREEN_WORST_LOGCOSH = 0.8675460927904198
GREEN_INJECTED = 1.199705651541309
SLOPE_WORST_ZERO = 0.944141939888905
SLOPE_INJECTED = 1.804983639946386
RATE_SLOPE_ZERO = 0.8079235514321261
RATE_ANCHOR_ERR_ZERO = 6.613054500148596e-05
DERIV_FINAL_GAP_ZERO = 0.019469727540120108
DERIV_ENVELOPE_ZERO = 1.9324180168442782
SHORT_WINDOW_ZERO = (0.5448849029168763, 0.8068553480393104)
DUAL_GAP_LOGCOSH = 9.153983031584545e-07
KERNEL_MASS_DEFECT = 1.8481216557120206e-11
BRIDGE_MEAN_REL_ERR = 3.392938569276668e-06
WEIGHT_MEAN_SEED7 = 1.009353698986344

REL = 1e-6  # headline pins: deterministic modulo platform libm noise


@lru_cache(maxsize=None)
def _green_zero() -> checks.VerificationReport:
    return checks.check_green_bound(zero_drift(), 0.1)


@lru_cache(maxsize=None)
def _slope_zero() -> checks.VerificationReport:
    return checks.check_gradient_bounds(zero_drift())


def _only(name: str) -> checks.VerificationReport:
    reports, code = checks.run_all(checks.RunConfig(), only=name)
    assert len(reports) == 1
    assert code == 0
    return reports[0]


# ------------------------------------------------------------- report shape

def test_report_rejects_unknown_status() -> None:
    with pytest.raises(ValueError):
        checks.VerificationReport(
            check_name="x", status="maybe", observed={}, expected="", tolerance=0.0,
            anchor="x",
        )


def test_record_wire_format() -> None:
    rep = checks.check_cdf_inequality(z_min=-2.0, z_max=2.0, step=0.5)
    rec = rep.record()
    assert set(rec) == {
        "check_name", "status", "observed", "expected", "tolerance",
        "paper_anchor", "artifacts",
    }
    assert rec["paper_anchor"] == rep.anchor
    assert isinstance(rec["artifacts"], list)
    json.dumps(rec)  # numpy scalars must already be gone


def test_report_records_sorted_and_stable() -> None:
    a = checks.check_cdf_inequality(z_min=-2.0, z_max=2.0, step=0.5)
    b = checks.check_cdf_inequality(z_min=-2.0, z_max=2.0, step=0.5)
    one = json.dumps(checks.report_records([a]), sort_keys=True)
    two = json.dumps(checks.report_records([b]), sort_keys=True)
    assert one == two


# ------------------------------------------------------------ cdf inequality

def test_cdf_bound_holds_on_default_grid() -> None:
    rep = checks.check_cdf_inequality()
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["violations"] == 0
    assert obs["n_points"] == 1601
    # tightest deep in the left tail, where the bound approaches equality
    assert obs["worst_z"] == -8.0
    assert 0.0 <= obs["worst_margin"] <= 1e-12
    assert obs["margin_at_zero"] == pytest.approx(orc.CDF_BOUND_AT_ZERO - 1.0, rel=1e-12)


def test_cdf_bound_rejects_bad_window() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_cdf_inequality(step=0.0)
    with pytest.raises(checks.ConfigError):
        checks.check_cdf_inequality(z_min=1.0, z_max=-1.0)


# -------------------------------------------------------------- kernel bound

def test_green_bound_zero_drift_gate() -> None:
    rep = _green_zero()
    assert rep.status == "pass"
    assert rep.observed["n_checked"] == 25
    assert rep.observed["n_skipped"] == 0
    assert rep.observed["worst_ratio"] == pytest.approx(GREEN_WORST_ZERO, rel=REL)


def test_green_bound_rows_match_closed_form() -> None:
    # recompute both sides from the Gaussian closed form; the lattice
    # kernel drifts from it most where the probe sits deep at late times
    for row in _green_zero().observed["rows"]:
        tau = 1.0 - row["t"]
        z = row["y"] / math.sqrt(0.1 * tau)
        u = float(norm.cdf(z))
        rhs = u * math.sqrt(-2.0 * math.log(u) / (0.1 * tau))
        exact = (float(norm.pdf(z)) / math.sqrt(0.1 * tau)) / rhs
        assert row["ratio"] == pytest.approx(exact, abs=2.5e-2)
        if row["t"] == 0.0 and abs(row["y"] + 0.2) < 1e-9:
            assert row["ratio"] == pytest.approx(exact, abs=1e-3)


def test_green_bound_logcosh_gate() -> None:
    rep = checks.check_green_bound(logcosh_drift(), 0.1)
    assert rep.status == "pass"
    assert rep.observed["worst_ratio"] == pytest.approx(GREEN_WORST_LOGCOSH, rel=REL)


def test_green_bound_trips_without_drift_allowance() -> None:
    # contracting drift piles mass toward the threshold; scoring it with
    # the zero-slope allowance must push the ratio past one
    rep = checks.check_green_bound(
        linear_drift(-0.5), 0.1, probes=((-2.1, 0.0), (-1.8, 0.0)), lipschitz_A=0.0
    )
    assert rep.status == "fail"
    assert rep.observed["worst_ratio"] == pytest.approx(GREEN_INJECTED, rel=REL)


def test_green_bound_skips_unresolvable_probe() -> None:
    rep = checks.check_green_bound(zero_drift(), 0.1, probes=((-3.5, 0.8),))
    assert rep.status == "skipped"
    assert rep.observed == {"n_checked": 0, "n_skipped": 1}


def test_green_bound_rejects_probe_at_horizon() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_green_bound(zero_drift(), 0.1, probes=((-1.0, 1.0),))


# --------------------------------------------------------------- slope bound

def test_gradient_bounds_on_threshold_bundle() -> None:
    rep = _slope_zero()
    assert rep.status == "pass"
    assert rep.check_name == "slope-bound:zero"
    obs = rep.observed
    assert obs["n_checked"] == 20
    assert obs["n_with_x_slope"] == 20
    assert obs["worst_ratio"] == pytest.approx(SLOPE_WORST_ZERO, rel=REL)


def test_gradient_bounds_hold_one_lattice_at_a_time() -> None:
    # the fan reads four levels of each 1201 x 601 lattice (5.8 MB) before
    # solving the next; three lattices held at once would take 17 MB
    tracemalloc.start()
    try:
        rep = checks.check_gradient_bounds(zero_drift())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.status == "pass"
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


def test_gradient_bounds_trip_under_negative_slope_allowance() -> None:
    rep = checks.check_gradient_bounds(zero_drift(), lipschitz_A=-0.5)
    assert rep.status == "fail"
    assert rep.observed["worst_ratio"] == pytest.approx(SLOPE_INJECTED, rel=REL)


# ----------------------------------------------------------------- rate fit

def test_rate_fit_zero_drift() -> None:
    rep = checks.check_rate_zero_noise(zero_drift())
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["slope"] == pytest.approx(RATE_SLOPE_ZERO, rel=REL)
    assert obs["r2"] >= 0.999
    assert obs["monotone"] is True
    assert obs["probe_y"] == pytest.approx(-1.0, abs=1e-12)
    assert obs["anchor_gap_error"] == pytest.approx(RATE_ANCHOR_ERR_ZERO, rel=1e-3)
    # gap ladder against the closed-form gaps, frozen before the solver existed
    assert [r["eps"] for r in obs["rows"]] == list(orc.RATE_EPS)
    for row, exact in zip(obs["rows"], orc.RATE_GAPS_ZERO):
        assert row["gap"] == pytest.approx(exact, abs=2e-3)


def test_rate_fit_rejects_bad_ladders() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_rate_zero_noise(zero_drift(), eps_list=(0.4, 0.2, 0.1))
    with pytest.raises(checks.ConfigError):
        checks.check_rate_zero_noise(zero_drift(), eps_list=(0.4, 0.2, 0.1, -0.05))
    with pytest.raises(checks.ConfigError):
        checks.check_rate_zero_noise(zero_drift(), eps_list=(0.4, 0.3, 0.2, 0.1))
    with pytest.raises(checks.ConfigError):
        checks.check_rate_zero_noise(zero_drift(), probe=(0.0, -1.0, 1.0))


# ----------------------------------------------------------- derivative fit

def test_derivative_limit_zero_drift() -> None:
    rep = checks.check_derivative_convergence(zero_drift())
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["final_gap_dq_dy"] == pytest.approx(DERIV_FINAL_GAP_ZERO, rel=REL)
    assert obs["final_gap_dq_dx"] == pytest.approx(DERIV_FINAL_GAP_ZERO, abs=1e-5)
    assert obs["envelope_slope"] == pytest.approx(DERIV_ENVELOPE_ZERO, rel=REL)
    assert obs["boundary"] == pytest.approx(0.0, abs=1e-12)
    # the first-row gap is dominated by the true eps-level slope excess,
    # which the Gaussian closed form gives directly
    first = obs["rows"][0]
    exact = abs(orc.gaussian_slope_y(-1.0, 0.0, first["eps"]) - orc.classical_slope_y(-1.0, 0.0))
    assert first["gap_dq_dy"] == pytest.approx(exact, abs=1e-2)


def test_derivative_limit_rejects_bad_setups() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_derivative_convergence(sin_drift())  # not concave
    with pytest.raises(checks.ConfigError):
        checks.check_derivative_convergence(zero_drift(), probe=(0.0, 0.5, 0.0))
    with pytest.raises(checks.ConfigError):
        checks.check_derivative_convergence(zero_drift(), eps_list=(0.2, 0.1))


# ------------------------------------------------------------- short window

def test_short_time_window_zero_drift() -> None:
    rep = checks.check_short_time(zero_drift())
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["window_lower"] == pytest.approx(SHORT_WINDOW_ZERO[0], rel=REL)
    assert obs["window_upper"] == pytest.approx(SHORT_WINDOW_ZERO[1], rel=REL)
    assert obs["n_kept"] == 8
    assert obs["n_unresolved"] == 1
    gated = [r for r in obs["rows"] if r.get("slope_gated")]
    ungated = [r for r in obs["rows"] if r.get("slope_gated") is False]
    assert gated and ungated  # the depth gate must actually split the probes
    for row in gated:
        assert row["slope"] >= row["slope_floor"] * (1.0 - 1e-3)


def test_short_time_ratio_matches_closed_form() -> None:
    # lattice window constant vs the driftless closed form at the same
    # node; the gap is pure discretization, a little over two percent here
    rep = checks.check_short_time(zero_drift())
    rows = [
        r for r in rep.observed["rows"]
        if r["tau"] == 0.05 and abs(r["y"] + 0.5) < 0.01
    ]
    assert len(rows) == 1
    row = rows[0]
    exact = orc.gaussian_cost(row["y"], 0.0, 0.1, span=row["tau"]) * row["tau"] / row["y"] ** 2
    assert row["ratio"] == pytest.approx(exact, rel=0.03)


def test_short_time_skip_accounting() -> None:
    unresolved = checks.check_short_time(zero_drift(), probes=(-5.0,), delta_list=(0.25,))
    assert unresolved.status == "skipped"
    assert unresolved.observed["n_unresolved"] == 1
    outside = checks.check_short_time(zero_drift(), probes=(-0.1,), delta_list=(0.25,))
    assert outside.status == "skipped"
    assert outside.observed["n_outside_window"] == 1


def test_short_time_rejects_bad_knobs() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_short_time(zero_drift(), decay_constant=0.0)
    with pytest.raises(checks.ConfigError):
        checks.check_short_time(zero_drift(), delta_list=(1.5,))


def test_short_time_refuses_a_drift_that_changes_sign() -> None:
    # b(1, s) = 0.1 + 0.5 cos(2 pi s) changes sign on [0.5, 1], so |b| has a kink
    with pytest.raises(checks.ConfigError, match="did not settle"):
        checks.check_short_time(time_varying_linear(0.1, 0.5, 2.0 * math.pi), x=1.0, delta_list=(0.5,))


# ---------------------------------------------------------------- convexity

def test_convexity_zero_drift_rows_sit_inside_envelope() -> None:
    rep = checks.check_convexity_suite(zero_drift())
    assert rep.status == "pass"
    rows = rep.observed["rows"]
    assert len(rows) == 3
    for row in rows:
        assert row["convex_ok"] and row["mixed_ok"]
        # difference-only dependence: the rank-deficient eigenvalue is
        # pure stencil truncation, so the envelope is nearly an equality
        assert row["min_eigenvalue"] <= 0.0
        assert 0.2 <= -row["min_eigenvalue"] / row["truncation_envelope"] <= 1.01


def test_convexity_logcosh_gate() -> None:
    rep = checks.check_convexity_suite(logcosh_drift())
    assert rep.status == "pass"
    assert all(r["convex_ok"] and r["mixed_ok"] for r in rep.observed["rows"])


def test_convexity_trips_on_nonconcave_drift() -> None:
    # the eigenvalue lands orders of magnitude below the envelope, which
    # is the separation the envelope gate relies on
    rep = checks.check_convexity_suite(sin_drift())
    assert rep.status == "fail"
    for row in rep.observed["rows"]:
        assert not row["convex_ok"]
        assert -row["min_eigenvalue"] > 100.0 * row["truncation_envelope"]


def test_mixed_sign_holds_without_concavity() -> None:
    rep = checks.check_convexity_suite(sin_drift(), mixed_only=True)
    assert rep.status == "pass"
    assert rep.check_name == "mixed-sign:sin(a=0.3)"
    assert all(r["mixed_ok"] for r in rep.observed["rows"])


def test_convexity_rejects_bad_psd_tol() -> None:
    with pytest.raises(checks.ConfigError):
        checks.check_convexity_suite(zero_drift(), psd_tol=0.0)
    with pytest.raises(checks.ConfigError):
        checks.check_convexity_suite(zero_drift(), psd_tol=1.0)


# ----------------------------------------------------------- cross invariants

def test_dual_route_invariant() -> None:
    rep = _only("invariant:dual-route")
    assert rep.status == "pass"
    rows = {r["drift"]: r for r in rep.observed["rows"]}
    assert rows["logcosh(c=0.5)"]["gap"] == pytest.approx(DUAL_GAP_LOGCOSH, rel=1e-3)
    assert all(r["conservation"] <= 1e-6 for r in rows.values())


def test_kernel_mass_invariant() -> None:
    rep = _only("invariant:kernel-mass")
    assert rep.status == "pass"
    assert rep.observed["worst_mass_defect"] == pytest.approx(KERNEL_MASS_DEFECT, rel=1e-2)


def test_domain_rule_invariant() -> None:
    rep = _only("invariant:pde-domain")
    assert rep.status == "pass"
    assert rep.observed["probe_drift"] <= 1e-12


def test_bridge_pair_invariant() -> None:
    rep = _only("invariant:bridge-pair")
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["mean_rel_err"] == pytest.approx(BRIDGE_MEAN_REL_ERR, rel=1e-3)
    assert obs["var_rel_err"] <= 2e-3
    assert obs["prob_abs_err"] <= 1e-3
    assert obs["tail_fit_passed"] is True
    assert obs["tail_r2_below"] >= 0.99 and obs["tail_r2_above"] >= 0.99


def test_weight_mean_invariant() -> None:
    rep = _only("invariant:weight-mean")
    assert rep.status == "pass"
    obs = rep.observed
    assert obs["mean_weight"] == pytest.approx(WEIGHT_MEAN_SEED7, rel=REL)
    assert obs["weight_z"] <= 3.0
    assert obs["is_z"] <= 3.0
    assert obs["cost_gap"] <= obs["cost_budget"]
    # reweighted tail mass against the solved field, not against itself
    assert obs["is_estimate"] == pytest.approx(obs["tail_mass_field"], rel=0.05)


def test_weight_mean_solves_one_field_per_noise_level(monkeypatch: pytest.MonkeyPatch) -> None:
    # each controller and its reference read one cost field, no threshold fan
    calls = []
    solve = pde.solve_u

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pde, "solve_u", counted)
    checks._check_weight_mean(seed=7, n_paths=200, dt=1e-2)
    assert len(calls) == 2


# -------------------------------------------------------------- run plumbing

def test_run_config_validation() -> None:
    bad = [
        {"seed": -1},
        {"seed": 2**64},
        {"eps_list": ()},
        {"eps_list": (0.1, -0.1)},
        {"n_y": 50},
        {"n_paths": 50},
        {"dt": 0.0},
        {"table_format": "xml"},
        {"bridge_delta": 0.0},
        {"bridge_delta": 0.6},
    ]
    for kw in bad:
        with pytest.raises(checks.ConfigError):
            checks.RunConfig(**kw)


def test_run_config_drift_lookup() -> None:
    assert checks.RunConfig().drift().name == "logcosh(c=0.5)"
    spec = checks.RunConfig(drift_kind="linear", drift_params={"A": 0.25}).drift()
    assert spec.name == "linear(A=0.25)"
    with pytest.raises(checks.ConfigError):
        checks.RunConfig(drift_kind="warp").drift()


def test_battery_names_are_the_only_keys() -> None:
    names = sorted(checks._battery(checks.RunConfig()))
    assert len(names) == 20
    assert names[0] == "cdf-bound"
    prefixes = {n.split(":")[0] for n in names}
    assert prefixes == {
        "cdf-bound", "kernel-bound", "slope-bound", "rate-limit",
        "derivative-limit", "short-time", "convexity", "mixed-sign",
        "invariant",
    }


def test_run_all_only_filter() -> None:
    reports, code = checks.run_all(checks.RunConfig(), only="cdf")
    assert code == 0
    assert [r.check_name for r in reports] == ["cdf-bound"]
    with pytest.raises(checks.ConfigError):
        checks.run_all(checks.RunConfig(), only="no-such-check")


def test_run_all_exit_codes(monkeypatch: pytest.MonkeyPatch) -> None:
    def stub(status: str) -> checks.VerificationReport:
        return checks.VerificationReport(
            check_name=status, status=status, observed={}, expected="",
            tolerance=0.0, anchor="cross-route",
        )

    monkeypatch.setattr(
        checks, "_battery",
        lambda config: {"a": lambda: stub("pass"), "b": lambda: stub("fail")},
    )
    _, code = checks.run_all(checks.RunConfig())
    assert code == 1
    monkeypatch.setattr(
        checks, "_battery",
        lambda config: {"a": lambda: stub("pass"), "b": lambda: stub("skipped")},
    )
    _, code = checks.run_all(checks.RunConfig())
    assert code == 0  # skipped is not a failure
