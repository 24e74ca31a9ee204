"""Inequality and convergence checks tying the numerical routes together.

Every check compares quantities produced by independent parts of the
package (closed forms, the lattice solver, the shooting solver, the
samplers) and returns a VerificationReport with a pass/fail/skipped
status, the observed numbers, and a short statement of what was
expected.  run_all executes the whole battery for a RunConfig and is
the engine behind the ``verify`` subcommand.

Checks that depend on constants the theory leaves unquantified (the
short-time window constants, the steep-slope calibration) report fitted
values and structural gates instead of asserting magic numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, ndtr

from . import action, bridge, pde, simulate, tables
from .drifts import (
    ConfigError,
    DriftSpec,
    _gauss_legendre,
    characteristic_F,
    drift_by_name,
    linear_drift,
    logcosh_drift,
    sin_drift,
    spot_check,
    zero_drift,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_STATUSES = (PASS, FAIL, SKIPPED)


@dataclass(frozen=True)
class VerificationReport:
    """One check outcome: a status, the numbers seen, and the gate applied."""

    check_name: str
    status: str
    observed: float | dict
    expected: str
    tolerance: float
    anchor: str
    artifacts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def record(self) -> dict:
        """JSON-stable record; the anchor key name is part of the wire format."""
        return {
            "check_name": self.check_name,
            "status": self.status,
            "observed": tables.scrub(self.observed),
            "expected": self.expected,
            "tolerance": self.tolerance,
            "paper_anchor": self.anchor,
            "artifacts": list(self.artifacts),
        }


def _is_driftless(spec: DriftSpec) -> bool:
    probe_y = (-2.0, -0.5, 0.0, 1.5)
    probe_t = (0.0, 0.5 * spec.horizon_T)
    return all(spec.b(y, t) == 0.0 for y in probe_y for t in probe_t)


def driftless_cost(x: float, y: float, epsilon: float, tau: float) -> float:
    """Closed-form cost for b identically zero over a window of length tau."""
    z = (y - x) / math.sqrt(epsilon * tau)
    return float(-epsilon * log_ndtr(z))


# ------------------------------------------------------------ cdf inequality

def check_cdf_inequality(
    z_min: float = -8.0, z_max: float = 8.0, step: float = 0.01
) -> VerificationReport:
    """Gaussian density bounded by the cdf times the root of its negative log.

    Scans exp(-z^2/2) <= 2 sqrt(pi) N(z) sqrt(-log N(z)) on the grid and
    reports the worst margin; a single violation fails the check.
    """
    if step <= 0.0:
        raise ConfigError("step must be positive")
    if not z_min < z_max:
        raise ConfigError("need z_min < z_max")
    n = int(round((z_max - z_min) / step)) + 1
    z = z_min + step * np.arange(n)
    cdf = ndtr(z)
    lhs = np.exp(-0.5 * z * z)
    rhs = 2.0 * math.sqrt(math.pi) * cdf * np.sqrt(-log_ndtr(z))
    margin = rhs - lhs
    worst = int(np.argmin(margin))
    violations = int(np.count_nonzero(margin < 0.0))
    status = PASS if violations == 0 and np.all(np.isfinite(margin)) else FAIL
    return VerificationReport(
        check_name="cdf-bound",
        status=status,
        observed={
            "n_points": n,
            "violations": violations,
            "worst_margin": float(margin[worst]),
            "worst_z": float(z[worst]),
            "margin_at_zero": float(margin[int(round(-z_min / step))]) if z_min <= 0.0 <= z_max else None,
        },
        expected="density lower bound holds at every grid point",
        tolerance=0.0,
        anchor="normal-cdf-inequality",
    )


# ------------------------------------------------------------- kernel bound

# the bound approaches equality deep in the left tail, where the lattice
# tail error is also largest; default probes keep |z| under about five so
# the true margin dominates the discretization
_GREEN_PROBES_DEFAULT = tuple(
    (y, t) for t in (0.0, 0.2, 0.4, 0.6, 0.8) for y in (-0.7, -0.45, -0.2, 0.3, 0.9)
)
KERNEL_U_FLOOR = 1e-12  # survival values this close to 0 or 1 are unresolved


def check_green_bound(
    spec: DriftSpec,
    epsilon: float,
    probes: tuple[tuple[float, float], ...] = _GREEN_PROBES_DEFAULT,
    slack: float = 1e-3,
    lipschitz_A: float | None = None,
) -> VerificationReport:
    """Transition kernel bounded by the survival odds at (y, t) probes.

    For each probe the kernel value into the threshold x = 0 at the horizon
    must satisfy g <= (1 + tau A) u sqrt(-2 log u / (eps tau)) up to the
    relative slack.  Probes whose survival value leaves the resolvable band
    are skipped and counted.  lipschitz_A overrides the drift's declared
    slope bound, which lets a harness test exercise the failure path.
    """
    T = spec.horizon_T
    A = spec.lipschitz_A if lipschitz_A is None else lipschitz_A
    by_t: dict[float, list[float]] = {}
    for y, t in probes:
        if not t < T:
            raise ConfigError(f"probe time {t} is not before the horizon {T}")
        by_t.setdefault(float(t), []).append(float(y))

    rows = []
    n_skipped = 0
    for t in sorted(by_t):
        tau = T - t
        grid = pde.default_grid(
            spec, 0.0, epsilon, t_start=t, n_y=1201,
            n_t=max(101, int(round(401 * tau / T))),
        )
        dx = max(1, int(round(0.01 / grid.h_y))) * grid.h_y
        heat = pde.solve_u(spec, 0.0, grid, epsilon, rows=0)
        kernel = pde.green_function(spec, grid, epsilon, thresholds=np.array([-dx, 0.0, dx]))
        for y in by_t[t]:
            iy = grid.nearest_node(y)
            u_val = float(heat.u[iy])
            if u_val < KERNEL_U_FLOOR or 1.0 - u_val < KERNEL_U_FLOOR:
                n_skipped += 1
                continue
            g_val = float(kernel.g[iy, 1])
            rhs = (1.0 + tau * A) * u_val * math.sqrt(-2.0 * math.log(u_val) / (epsilon * tau))
            rows.append({
                "y": float(grid.y_nodes()[iy]),
                "t": t,
                "kernel": g_val,
                "bound": rhs,
                "ratio": g_val / rhs,
            })

    if not rows:
        status, observed = SKIPPED, {"n_checked": 0, "n_skipped": n_skipped}
    else:
        worst = max(rows, key=lambda r: r["ratio"])
        status = PASS if worst["ratio"] <= 1.0 + slack else FAIL
        observed = {
            "n_checked": len(rows),
            "n_skipped": n_skipped,
            "worst_ratio": worst["ratio"],
            "worst_probe": [worst["y"], worst["t"]],
            "rows": rows,
        }
    return VerificationReport(
        check_name=f"kernel-bound:{spec.name}",
        status=status,
        observed=observed,
        expected="kernel below the survival-odds bound at every resolvable probe",
        tolerance=slack,
        anchor="kernel-cost-inequality",
    )


# -------------------------------------------------------------- slope bound

SLOPE_NOISE_FLOOR = 1e-6  # slopes and bounds below this compare as zero


def check_gradient_bounds(
    spec: DriftSpec,
    slack: float = 1e-3,
    lipschitz_A: float | None = None,
) -> VerificationReport:
    """Both cost slopes bounded by the square-root of the cost itself.

    On the fan of thresholds 0 and about +-0.02 at eps = 0.1, |dq/dx| and
    |dq/dy| must stay below (1 + tau A) sqrt(2 q / tau) at 20 probes about
    the threshold, on four time levels.  Where both sides sit under the
    noise floor (deep above the free boundary) the probe passes as a
    zero-zero comparison.  lipschitz_A overrides the drift's declared slope bound,
    which lets a harness test exercise the failure path.
    """
    epsilon = 0.1
    A = spec.lipschitz_A if lipschitz_A is None else lipschitz_A
    grid = pde._fan_grid(spec, 0.0, epsilon, 1201, 601)
    T = grid.T
    t_nodes = grid.t_nodes()
    y_nodes = grid.y_nodes()
    span = T - grid.t_start
    sigma = math.sqrt(epsilon * span)
    levels = [round(f * (grid.n_t - 1)) for f in (0.0, 0.25, 0.5, 0.75)]
    _, q, dq_dy, dq_dx = pde.fan_cost_rows(spec, 0.0, grid, epsilon, 0.02, levels)
    probes = [
        (lev, k * sigma) for lev in range(len(levels)) for k in (-3.0, -2.0, -1.0, 0.5, 1.5)
    ]

    rows = []
    n_skipped = 0
    n_dx = 0
    for lev, y in probes:
        iy = grid.nearest_node(y)
        q_val = float(q[1, lev, iy])
        if not math.isfinite(q_val):  # the centre's underflow mask
            n_skipped += 1
            continue
        tau = T - float(t_nodes[levels[lev]])
        rhs = (1.0 + tau * A) * math.sqrt(max(2.0 * q_val, 0.0) / tau)
        entries = {"slope_y": abs(float(dq_dy[lev, iy]))}
        dqdx = float(dq_dx[lev, iy])
        if math.isfinite(dqdx):
            entries["slope_x"] = abs(dqdx)
            n_dx += 1
        worst_lhs = max(entries.values())
        rows.append({
            "y": float(y_nodes[iy]),
            "t": float(t_nodes[levels[lev]]),
            "q": q_val,
            "bound": rhs,
            **entries,
            "ratio": worst_lhs / max(rhs, SLOPE_NOISE_FLOOR),
            "ok": worst_lhs <= rhs * (1.0 + slack) + SLOPE_NOISE_FLOOR,
        })

    if not rows:
        status, observed = SKIPPED, {"n_checked": 0, "n_skipped": n_skipped}
    else:
        worst = max(rows, key=lambda r: r["ratio"])
        status = PASS if all(r["ok"] for r in rows) else FAIL
        observed = {
            "n_checked": len(rows),
            "n_with_x_slope": n_dx,
            "n_skipped": n_skipped,
            "worst_ratio": worst["ratio"],
            "worst_probe": [worst["y"], worst["t"]],
            "rows": rows,
        }
    return VerificationReport(
        check_name=f"slope-bound:{spec.name}",
        status=status,
        observed=observed,
        expected="both slopes below the square-root cost bound at every probe",
        tolerance=slack,
        anchor="slope-cost-inequality",
    )


# ---------------------------------------------------------------- rate fit

MONO_SLACK = 0.05  # relative rise a decreasing gap sequence may take per step
RATE_SLOPE_GATE = 0.45  # smallest fitted exponent of the cost gap in eps
RATE_ANCHOR_TOL = 1e-3  # driftless eps = 0.1 gap against its closed form


def _monotone(seq: list[float]) -> bool:
    """Each entry at most (1 + MONO_SLACK) times the one before."""
    return all(b <= a * (1.0 + MONO_SLACK) for a, b in zip(seq, seq[1:]))


def check_rate_zero_noise(
    spec: DriftSpec,
    probe: tuple[float, float, float] = (0.0, -1.0, 0.0),
    eps_list: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05, 0.025),
    n_y: int = 2001,
    n_t: int = 2001,
) -> VerificationReport:
    """Cost gap |q_eps - q| shrinking like a power of eps at one probe.

    Fits log gap against log eps; the fitted slope must clear RATE_SLOPE_GATE
    and the gap sequence must decrease monotonically up to MONO_SLACK.
    For a driftless spec the eps = 0.1 gap is also compared against the
    closed form, which pins the absolute scale of both solvers.
    """
    eps_arr = tuple(sorted(set(float(e) for e in eps_list), reverse=True))
    if len(eps_arr) < 4:
        raise ConfigError("need at least four distinct eps values")
    if any(e <= 0.0 for e in eps_arr):
        raise ConfigError("eps values must be positive")
    if eps_arr[0] / eps_arr[-1] < 8.0:
        raise ConfigError("eps values must span at least a factor of eight")
    x, y, t = probe
    if not t < spec.horizon_T:
        raise ConfigError("probe time must be before the horizon")

    q_eps, y_nodes = [], []
    for eps in eps_arr:
        grid = pde.default_grid(spec, x, eps, t_start=t, n_y=n_y, n_t=n_t)
        iy = grid.nearest_node(y)
        y_nodes.append(float(grid.y_nodes()[iy]))
        q_start = pde._cost_rows(pde.solve_u(spec, x, grid, eps, rows=0).u, eps, grid.h_y)[0]
        q_eps.append(float(q_start[iy]))
    classical = action.solve_shooting_many(spec, x, y_nodes, t)
    gaps = [abs(q - sol.q_value) for q, sol in zip(q_eps, classical)]
    y_eff = y_nodes[-1]

    slope, _, r2 = bridge.fit_line(np.log(np.array(eps_arr)), np.log(np.array(gaps)))
    monotone = _monotone(gaps)
    anchor_err = None
    if _is_driftless(spec):
        span = spec.horizon_T - t
        for eps, gap in zip(eps_arr, gaps):
            if math.isclose(eps, 0.1):
                exact = driftless_cost(x, y_eff, eps, span) - (x - y_eff) ** 2 / (2.0 * span)
                anchor_err = abs(gap - exact)
    anchored = anchor_err is None or anchor_err <= RATE_ANCHOR_TOL
    ok = slope >= RATE_SLOPE_GATE and monotone and anchored
    return VerificationReport(
        check_name=f"rate-limit:{spec.name}",
        status=PASS if ok else FAIL,
        observed={
            "rows": [{"eps": e, "gap": g} for e, g in zip(eps_arr, gaps)],
            "slope": slope,
            "r2": r2,
            "monotone": monotone,
            "anchor_gap_error": anchor_err,
            "probe_y": y_eff,
        },
        expected=f"fitted slope >= {RATE_SLOPE_GATE}, gaps monotone, "
                 "driftless point on the closed form",
        tolerance=RATE_SLOPE_GATE,
        anchor="zero-noise-rate",
    )


# ------------------------------------------------------- derivative limits

DERIV_GAP_GATE = 0.05  # largest final gap of either slope
DERIV_ENVELOPE_GATE = 0.2  # smallest fitted exponent of the vanishing slopes


def check_derivative_convergence(
    spec: DriftSpec,
    probe: tuple[float, float, float] = (0.0, -1.0, 0.0),
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025),
) -> VerificationReport:
    """Lattice slopes converging to the classical slopes as eps shrinks.

    Below the free boundary both slope gaps must decrease along eps_list
    and end under DERIV_GAP_GATE.  At 0.4 above the boundary the classical
    slopes vanish, so the lattice slope magnitudes are fitted against eps
    and the fitted exponent must clear DERIV_ENVELOPE_GATE.
    """
    if not spec.is_concave:
        raise ConfigError(f"drift {spec.name} is not concave; the slope limit needs concavity")
    eps_arr = tuple(sorted(set(float(e) for e in eps_list), reverse=True))
    if len(eps_arr) < 3:
        raise ConfigError("need at least three eps values for the envelope fit")
    x, y_below, t = probe
    boundary = characteristic_F(spec, x, t)
    if not y_below < boundary:
        raise ConfigError("probe must start below the free boundary")
    y_above = boundary + 0.4

    slopes_y, slopes_x, y_nodes, magnitudes = [], [], [], []
    for eps in eps_arr:
        grid = pde._fan_grid(spec, x, eps, 2001, 1201, t_start=t)
        _, _, dq_dy, dq_dx = pde.fan_cost_rows(spec, x, grid, eps, 0.02, 0)
        ib = grid.nearest_node(y_below)
        ia = grid.nearest_node(y_above)
        y_nodes.append(float(grid.y_nodes()[ib]))
        slopes_y.append(float(dq_dy[ib]))
        slopes_x.append(float(dq_dx[ib]))
        magnitudes.append(abs(float(dq_dy[ia])) + abs(float(dq_dx[ia])))
    classical = action.solve_shooting_many(spec, x, y_nodes, t)
    gaps_y = [abs(s - sol.dq_dy) for s, sol in zip(slopes_y, classical)]
    gaps_x = [abs(s - sol.dq_dx) for s, sol in zip(slopes_x, classical)]

    envelope_slope, _, _ = bridge.fit_line(np.log(np.array(eps_arr)), np.log(np.array(magnitudes)))
    ok = (
        _monotone(gaps_y)
        and _monotone(gaps_x)
        and gaps_y[-1] <= DERIV_GAP_GATE
        and gaps_x[-1] <= DERIV_GAP_GATE
        and envelope_slope >= DERIV_ENVELOPE_GATE
    )
    return VerificationReport(
        check_name=f"derivative-limit:{spec.name}",
        status=PASS if ok else FAIL,
        observed={
            "rows": [
                {"eps": e, "gap_dq_dy": gy, "gap_dq_dx": gx, "above_magnitude": m}
                for e, gy, gx, m in zip(eps_arr, gaps_y, gaps_x, magnitudes)
            ],
            "final_gap_dq_dy": gaps_y[-1],
            "final_gap_dq_dx": gaps_x[-1],
            "envelope_slope": envelope_slope,
            "boundary": float(boundary),
        },
        expected=f"slope gaps decreasing to <= {DERIV_GAP_GATE}; "
                 f"vanishing envelope exponent >= {DERIV_ENVELOPE_GATE}",
        tolerance=DERIV_GAP_GATE,
        anchor="slope-zero-noise-limit",
    )


# ------------------------------------------------------------- short time

SHORT_TIME_SLACK = 1e-3  # relative shortfall the slope floor forgives
SHORT_TIME_U_FLOOR = 1e-13  # survival values below this are unresolved
SLOPE_DEPTH_MAX = 5.0  # deepest (x - y) / sqrt(eps tau) the slope floor gates


def check_short_time(
    spec: DriftSpec,
    delta_list: tuple[float, ...] = (0.25, 0.1, 0.05),
    probes: tuple[float, ...] = (-0.4, -0.5, -0.7),
    x: float = 0.0,
    decay_constant: float = 10.0,
) -> VerificationReport:
    """Quadratic cost window and steep-slope floor near the horizon.

    Keeps probes satisfying x - y > 2 int |b(x, s)| ds + sqrt(eps tau)
    at eps = 0.1 and reports the fitted window constants min and max of
    q tau / (x - y)^2 over them; each kept probe below the free boundary
    must also satisfy -dq/dy >= ((F - y) / tau) exp(-c A tau) with the
    configurable calibration constant c.  Probes outside the window or
    with survival values under SHORT_TIME_U_FLOOR are skipped and counted.

    The slope floor becomes an equality as (x - y) / sqrt(eps tau) grows,
    with true margin shrinking like the inverse square of that depth, so
    the floor gate only binds at probes shallower than SLOPE_DEPTH_MAX;
    deeper rows still report both sides ungated.

    The drift mass int |b(x, s)| ds is taken by the guarded Gauss-Legendre
    rule, so b(x, .) must be smooth and keep one sign on each [T - tau, T];
    a sign change puts a kink in |b| and raises ConfigError.
    """
    if decay_constant <= 0.0:
        raise ConfigError("decay constant must be positive")
    epsilon = 0.1
    T = spec.horizon_T
    rows = []
    n_outside = 0
    n_unresolved = 0
    for tau in sorted(delta_list, reverse=True):
        if not 0.0 < tau < T:
            raise ConfigError(f"look-back {tau} must sit inside (0, {T})")
        t = T - tau
        drift_mass = 2.0 * _gauss_legendre(lambda s: abs(spec.b(x, s)), t, T)
        grid = pde.default_grid(
            spec, x, epsilon, t_start=t, n_y=1501,
            n_t=max(151, int(round(601 * tau))),
        )
        heat = pde.solve_u(spec, x, grid, epsilon, rows=0)
        q_start, dq_dy_start, _ = pde._cost_rows(heat.u, epsilon, grid.h_y)
        boundary = characteristic_F(spec, x, t)
        for y in probes:
            iy = grid.nearest_node(float(y))
            y_eff = float(grid.y_nodes()[iy])
            if not x - y_eff > drift_mass + math.sqrt(epsilon * tau):
                n_outside += 1
                continue
            u_val = float(heat.u[iy])
            if u_val < SHORT_TIME_U_FLOOR or 1.0 - u_val < 1e-12:
                n_unresolved += 1
                continue
            ratio = float(q_start[iy]) * tau / (x - y_eff) ** 2
            row = {"y": y_eff, "tau": tau, "ratio": ratio, "ok": True}
            if y_eff < boundary:
                lhs = -float(dq_dy_start[iy])
                rhs = (boundary - y_eff) / tau * math.exp(
                    -decay_constant * spec.lipschitz_A * tau
                )
                gated = (x - y_eff) / math.sqrt(epsilon * tau) <= SLOPE_DEPTH_MAX
                row.update(
                    slope=lhs,
                    slope_floor=rhs,
                    slope_gated=gated,
                    ok=(not gated) or lhs >= rhs * (1.0 - SHORT_TIME_SLACK),
                )
            rows.append(row)

    if not rows:
        status = SKIPPED
        observed = {"n_kept": 0, "n_outside_window": n_outside, "n_unresolved": n_unresolved}
    else:
        ratios = [r["ratio"] for r in rows]
        c1, c2 = min(ratios), max(ratios)
        ok = c1 > 0.0 and math.isfinite(c2) and all(r["ok"] for r in rows)
        status = PASS if ok else FAIL
        observed = {
            "window_lower": c1,
            "window_upper": c2,
            "n_kept": len(rows),
            "n_outside_window": n_outside,
            "n_unresolved": n_unresolved,
            "decay_constant": decay_constant,
            "rows": rows,
        }
    return VerificationReport(
        check_name=f"short-time:{spec.name}",
        status=status,
        observed=observed,
        expected="finite positive window constants and the slope floor at kept probes",
        tolerance=SHORT_TIME_SLACK,
        anchor="short-time-window",
    )


# -------------------------------------------------------------- convexity

def check_convexity_suite(
    spec: DriftSpec,
    n_y: int = 1201,
    n_t: int = 601,
    dx: float = 0.02,
    t_fracs: tuple[float, ...] = (0.0, 0.3, 0.6),
    psd_tol: float = 1e-5,
    mixed_only: bool = False,
) -> VerificationReport:
    """Convexity of the cost in both endpoints on a fan of three thresholds.

    Checks, about x = 0 at eps = 0.1, second differences in the start point,
    the sign of the mixed threshold-start difference, and the smaller
    eigenvalue of the 2x2 second-difference matrix.  The eigenvalue floor
    is psd_tol times the curvature scale plus an explicit stencil-truncation
    envelope (dx^2 + h^2) / 8 times the largest fourth difference: the
    matrix is rank-deficient wherever the cost depends on the endpoints
    through their difference alone, and there the truncation mismatch
    between the three difference operators is the entire eigenvalue
    signal.  A genuinely indefinite field lands orders of magnitude below
    the envelope.  mixed_only restricts to the sign check, which holds
    without concavity of the drift.
    """
    if not 0.0 < psd_tol < 1.0:
        raise ConfigError("psd_tol must sit in (0, 1)")
    epsilon = 0.1
    grid = pde._fan_grid(spec, 0.0, epsilon, n_y, n_t, dx=dx)
    levels = [min(int(round(frac * (grid.n_t - 1))), grid.n_t - 2) for frac in t_fracs]
    ddx, q, _, _ = pde.fan_cost_rows(spec, 0.0, grid, epsilon, dx, levels)
    h = grid.h_y
    q_cap = -epsilon * math.log(1e-12)  # beyond this the tail is lattice noise

    rows = []
    for k, (q_lo, q_c, q_hi) in zip(levels, q.transpose(1, 0, 2)):
        usable = (
            np.isfinite(q_lo) & np.isfinite(q_c) & np.isfinite(q_hi) & (q_c <= q_cap)
        )
        usable[:2] = usable[-2:] = False
        j = np.nonzero(
            usable[2:-2] & usable[1:-3] & usable[3:-1] & usable[:-4] & usable[4:]
        )[0] + 2
        if j.size == 0:
            continue
        d2y = (q_c[j - 1] - 2.0 * q_c[j] + q_c[j + 1]) / h**2
        mixed = ((q_hi[j + 1] - q_lo[j + 1]) - (q_hi[j - 1] - q_lo[j - 1])) / (4.0 * h * ddx)
        d2x = (q_hi[j] - 2.0 * q_c[j] + q_lo[j]) / ddx**2
        trace = d2x + d2y
        disc = np.sqrt((d2x - d2y) ** 2 + 4.0 * mixed**2)
        min_eig = 0.5 * (trace - disc)
        scale = max(float(np.max(np.abs(d2y))), float(np.max(np.abs(d2x))), 1.0)
        d4 = (
            q_c[j - 2] - 4.0 * q_c[j - 1] + 6.0 * q_c[j] - 4.0 * q_c[j + 1] + q_c[j + 2]
        ) / h**4
        trunc = (ddx**2 + h**2) / 8.0 * float(np.max(np.abs(d4)))
        rows.append({
            "t": float(grid.t_nodes()[k]),
            "n_nodes": int(j.size),
            "min_second_diff_y": float(np.min(d2y)),
            "max_mixed": float(np.max(mixed)),
            "min_eigenvalue": float(np.min(min_eig)),
            "scale": scale,
            "truncation_envelope": trunc,
            "mixed_ok": bool(np.max(mixed) <= psd_tol * scale),
            "convex_ok": bool(
                np.min(d2y) >= -psd_tol * scale
                and np.min(min_eig) >= -(psd_tol * scale + trunc)
            ),
        })

    if mixed_only:
        ok = all(r["mixed_ok"] for r in rows)
        name = f"mixed-sign:{spec.name}"
        anchor = "threshold-start-mixed-sign"
        expected = "mixed threshold-start difference nonpositive at every usable node"
    else:
        ok = all(r["mixed_ok"] and r["convex_ok"] for r in rows)
        name = f"convexity:{spec.name}"
        anchor = "cost-convexity"
        expected = "nonnegative curvature, nonpositive mixed difference, PSD second-difference matrix"
    return VerificationReport(
        check_name=name,
        status=(PASS if ok else FAIL) if rows else SKIPPED,
        observed={"rows": rows} if rows else {"n_rows": 0},
        expected=expected,
        tolerance=psd_tol,
        anchor=anchor,
    )


# ---------------------------------------------------- cross-module checks

def _check_dual_route() -> VerificationReport:
    """Shooting and direct minimization agreeing on cost and conservation."""
    cases = (
        (logcosh_drift(), 0.3, -1.2),
        (linear_drift(0.5), 0.0, -1.0),
    )
    rows = []
    for spec, x, y in cases:
        sol = action.solve_shooting(spec, x, y)
        q_direct, _ = action.minimize_direct(spec, x, y)
        rows.append({
            "drift": spec.name,
            "x": x,
            "y": y,
            "gap": abs(sol.q_value - q_direct),
            "conservation": sol.diagnostics["conservation"],
        })
    ok = all(r["gap"] <= 1e-4 and r["conservation"] <= 1e-6 for r in rows)
    return VerificationReport(
        check_name="invariant:dual-route",
        status=PASS if ok else FAIL,
        observed={"rows": rows},
        expected="route gap <= 1e-4 and conserved quantity drift <= 1e-6",
        tolerance=1e-4,
        anchor="cross-route",
    )


def _check_kernel_mass() -> VerificationReport:
    """Kernel rows integrating to one away from the walls."""
    spec = logcosh_drift()
    grid = pde.default_grid(spec, 0.0, 0.1, n_y=801, n_t=201)
    kernel = pde.green_function(spec, grid, 0.1, max_solves=101)
    sums = pde.green_row_sums(kernel)
    y = grid.y_nodes()
    window = np.abs(y) <= 1.0
    worst = float(np.max(np.abs(sums[window] - 1.0)))
    return VerificationReport(
        check_name="invariant:kernel-mass",
        status=PASS if worst <= 1e-3 else FAIL,
        observed={"worst_mass_defect": worst, "n_rows": int(np.count_nonzero(window))},
        expected="kernel row mass within 1e-3 of one on the interior window",
        tolerance=1e-3,
        anchor="cross-route",
    )


def _check_domain_rule() -> VerificationReport:
    """Grid sizing policy audited by re-solving on a widened domain."""
    spec = logcosh_drift()
    grid = pde.default_grid(spec, 0.0, 0.1, n_y=801, n_t=201)
    drift = pde.audit_domain(spec, 0.0, 0.1, grid, np.array([-1.5, -1.0, 0.0, 1.0]))
    return VerificationReport(
        check_name="invariant:pde-domain",
        status=PASS if drift <= 1e-6 else FAIL,
        observed={"probe_drift": drift},
        expected="probe values move < 1e-6 when the domain widens by half",
        tolerance=1e-6,
        anchor="cross-route",
    )


def _check_weight_mean(seed: int, n_paths: int, dt: float) -> VerificationReport:
    """Girsanov accounting: raw weight normalization and the reweighted tail mass.

    The raw mean E[exp(log-weight)] is one for any adapted control, but with
    steering active up to the terminal cutoff the weight second moment
    diverges and no sample mean can resolve the identity; the normalization
    leg therefore stops the steering at mid-horizon.  Its weights are still
    heavy-tailed: the Pareto tail index of the largest weights measured
    0.29-0.72 over six seeds (max/mean 25-73), so the sample standard error
    is no sure yardstick, and seeds 124 and 134 of 0-199 fail this leg at
    4000 paths by drawing no large weight.
    The full-strength steering is audited through the indicator estimator
    instead, whose variance stays finite, against the solved tail mass.
    The three steered runs march as the legs of one simulate_legs loop: step
    k of every leg reads the same normals, drawn once, as their equal seeds
    already made it, so the three legs are not independent.
    """
    spec = zero_drift()
    x = 0.0

    def steering(eps: float):
        grid = pde._fan_grid(spec, x, eps, 801, 1001)
        ctl, start = simulate.ControllerField.from_fields(spec, x, grid, eps)
        return grid, pde._cost_rows(start.u, eps, grid.h_y)[0], ctl

    eps, eps_is, y0 = 0.1, 0.2, -1.0
    grid, q_start, ctl = steering(eps)
    grid_is, q_start_is, ctl_is = steering(eps_is)
    iy, jy = grid_is.nearest_node(y0), grid.nearest_node(y0)
    y_eff = float(grid_is.y_nodes()[iy])
    half = simulate.SimConfig(n_paths=n_paths, dt=dt, seed=seed, terminal_cutoff=0.5)
    config = simulate.SimConfig(n_paths=n_paths, dt=dt, seed=seed)
    ens, ens_is, ens_q = simulate.simulate_legs(spec, [
        simulate.Leg(ctl, 0.0, 0.0, eps, half),
        simulate.Leg(ctl_is, y_eff, 0.0, eps_is, config),
        simulate.Leg(ctl, float(grid.y_nodes()[jy]), 0.0, eps, config),
    ])

    w = np.exp(ens.log_girsanov_weight[ens.kept])
    mean_w = float(np.mean(w))
    se_w = float(np.std(w, ddof=1) / math.sqrt(w.size))
    weight_z = abs(mean_w - 1.0) / se_w if se_w > 0 else 0.0

    est = simulate.importance_sampling(ens_is, x)
    u_pde = math.exp(-float(q_start_is[iy]) / eps_is)
    is_z = abs(est.estimate - u_pde) / est.std_error if est.std_error > 0 else 0.0

    cost_est = simulate.representation_q(ens_q)
    q_pde = float(q_start[jy])
    budget = 3.0 * cost_est.std_error + 0.5 * math.sqrt(eps)
    cost_gap = abs(cost_est.estimate - q_pde)
    ok = weight_z <= 3.0 and is_z <= 3.0 and cost_gap <= budget
    return VerificationReport(
        check_name="invariant:weight-mean",
        status=PASS if ok else FAIL,
        observed={
            "mean_weight": mean_w,
            "weight_z": weight_z,
            "is_estimate": est.estimate,
            "tail_mass_field": u_pde,
            "is_z": is_z,
            "is_ess": est.extra["ess"],
            "cost_estimate": cost_est.estimate,
            "cost_field": q_pde,
            "cost_gap": cost_gap,
            "cost_budget": budget,
            "seed": seed,
        },
        expected="weight mean and reweighted tail mass within 3 SE; sampled cost within 3 SE + 0.5 sqrt(eps)",
        tolerance=3.0,
        anchor="cross-route",
    )


def _check_bridge_pair() -> VerificationReport:
    """Closed-form and kernel-quadrature conditionals agreeing; tail fit sane."""
    spec = linear_drift(0.5)
    query = bridge.BridgeQuery(y_start=-1.0, T=1.0, delta=0.25, epsilon=0.1)
    exact = bridge.linear_bridge_moments(bridge.linear_pieces(spec, query), query)
    # one kernel on the start's own lattice serves both thresholds
    kernels = bridge.bridge_kernels(spec, query, (query.y_start,))
    below = bridge.conditional_prob_green(
        spec, query, bridge.DEFAULT_C_BELOW, "below", kernels=kernels)
    above = bridge.conditional_prob_green(
        spec, query, bridge.DEFAULT_C_ABOVE, "above", kernels=kernels)
    mean_err = abs(below.mean - exact.mean) / abs(exact.mean)
    var_err = abs(below.variance - exact.variance) / exact.variance
    prob_err = max(
        abs(below.prob_below - exact.prob_below),
        abs(above.prob_above - exact.prob_above),
    )

    sweep = bridge.concentration_check(
        zero_drift(), epsilon=0.1, T=1.0,
        y_sweep=(-1.0, -1.2, -1.4), delta_sweep=(0.25,),
    )
    ok = (
        mean_err <= 2e-3 and var_err <= 2e-3 and prob_err <= 1e-3
        and sweep.passed
    )
    return VerificationReport(
        check_name="invariant:bridge-pair",
        status=PASS if ok else FAIL,
        observed={
            "mean_rel_err": mean_err,
            "var_rel_err": var_err,
            "prob_abs_err": prob_err,
            "tail_slope_below": sweep.gamma_below,
            "tail_slope_above": sweep.gamma_above,
            "tail_r2_below": sweep.r2_below,
            "tail_r2_above": sweep.r2_above,
            "tail_fit_passed": sweep.passed,
        },
        expected="quadrature moments on the closed form; negative tail slopes with R^2 >= 0.9",
        tolerance=2e-3,
        anchor="cross-route",
    )


# ----------------------------------------------------------------- run_all

def _is_finite_number(value: object) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    )


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the command-line surface and the check battery."""

    seed: int = 7
    eps_list: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05, 0.025)
    probe_x: float = 0.0
    probe_y: float = -1.0
    probe_t: float = 0.0
    n_y: int = 2001
    n_t: int = 2001
    n_paths: int = 20000
    dt: float = 1e-3
    drift_kind: str = "logcosh"
    drift_params: dict = field(default_factory=dict)
    bridge_delta: float = 0.25
    table_format: str = "csv"

    def __post_init__(self) -> None:
        for name in ("seed", "n_y", "n_t", "n_paths"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        for name in ("probe_x", "probe_y", "probe_t", "dt", "bridge_delta"):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not self.eps_list or not all(_is_finite_number(e) and e > 0.0 for e in self.eps_list):
            raise ConfigError("eps_list must be nonempty with positive finite entries")
        params = self.drift_params
        if not isinstance(params, dict) or not all(map(_is_finite_number, params.values())):
            raise ConfigError(f"drift_params values must be finite numbers, got {params!r}")
        self._build_drift()  # the kind and params are checked here: verify never calls drift()
        if self.n_y < 101 or self.n_t < 51:
            raise ConfigError("grid sizes too small to honor the solver contracts")
        if self.n_paths < 100:
            raise ConfigError("need at least 100 paths")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.table_format not in ("csv", "json"):
            raise ConfigError(f"unknown table format {self.table_format!r}")
        if not 0.0 < self.bridge_delta <= 0.5:
            raise ConfigError("bridge look-back must sit in (0, T/2]")

    def _build_drift(self) -> DriftSpec:
        try:
            spec = drift_by_name(self.drift_kind, **self.drift_params)
            spot_check(spec)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
        return spec

    def drift(self) -> DriftSpec:
        spec = self._build_drift()
        if not self.probe_t < spec.horizon_T:
            raise ConfigError(
                f"probe time {self.probe_t} is not before the horizon {spec.horizon_T}"
            )
        return spec


def _battery(config: RunConfig) -> dict:
    """check name -> zero-argument thunk; names double as the --only keys."""
    zero = zero_drift()
    lin = linear_drift(0.5)
    lcosh = logcosh_drift()
    probe = (config.probe_x, config.probe_y, config.probe_t)

    def rate_limit(spec: DriftSpec):
        return lambda: check_rate_zero_noise(
            spec, probe, config.eps_list, n_y=config.n_y, n_t=config.n_t
        )

    thunks = {
        "cdf-bound": check_cdf_inequality,
        "kernel-bound:zero": lambda: check_green_bound(zero, 0.1),
        "kernel-bound:logcosh": lambda: check_green_bound(lcosh, 0.1),
        "slope-bound:zero": lambda: check_gradient_bounds(zero),
        "slope-bound:logcosh": lambda: check_gradient_bounds(lcosh),
        "rate-limit:zero": rate_limit(zero),
        "rate-limit:linear": rate_limit(lin),
        "rate-limit:logcosh": rate_limit(lcosh),
        "derivative-limit:zero": lambda: check_derivative_convergence(zero),
        "derivative-limit:logcosh": lambda: check_derivative_convergence(lcosh),
        "short-time:zero": lambda: check_short_time(zero),
        "short-time:linear": lambda: check_short_time(lin),
        "convexity:zero": lambda: check_convexity_suite(zero),
        "convexity:logcosh": lambda: check_convexity_suite(lcosh),
        "mixed-sign:sin": lambda: check_convexity_suite(sin_drift(), mixed_only=True),
        "invariant:dual-route": _check_dual_route,
        "invariant:kernel-mass": _check_kernel_mass,
        "invariant:pde-domain": _check_domain_rule,
        "invariant:weight-mean": lambda: _check_weight_mean(
            config.seed, config.n_paths, config.dt
        ),
        "invariant:bridge-pair": _check_bridge_pair,
    }
    return thunks


def run_all(
    config: RunConfig, only: str | None = None
) -> tuple[list[VerificationReport], int]:
    """Run the battery (optionally filtered by name substring); 0 iff no fail.

    Reports come back sorted by check name so that serialization is
    stable run to run.
    """
    thunks = _battery(config)
    names = sorted(n for n in thunks if only is None or only in n)
    if not names:
        raise ConfigError(f"--only {only!r} matches no check name")
    reports = [thunks[name]() for name in names]
    reports.sort(key=lambda r: r.check_name)
    exit_code = 1 if any(r.status == FAIL for r in reports) else 0
    return reports, exit_code


def report_records(reports: list[VerificationReport]) -> list[dict]:
    """JSON-ready records, sorted by check name."""
    return [r.record() for r in sorted(reports, key=lambda r: r.check_name)]
