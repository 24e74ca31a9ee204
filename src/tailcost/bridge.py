"""Two-ended conditionals: the law of the path at a look-back time, given
that it starts at y and is pinned at the origin at the horizon.

Linear drifts admit exact Gaussian formulas.  For a general drift the
conditional density at the look-back time s = T - delta factors into two
transition kernels,

    w(xi)  proportional to  G(y, xi, 0, s) * G(xi, 0, s, T),

so every conditional quantity is a quadrature ratio over w.  Both kernels
are delta-data runs of the threshold solver's own Crank-Nicolson march
(pde._cn_march) with zero walls: the first leg is the forward
(conservation-form) equation started from a point mass at y, the second
the backward equation run from a point mass at the pin.  The start point
and the pin are placed exactly on grid nodes so neither kernel carries
placement bias.  A kernel is fixed by the drift, the query, the resources
and its node lattice; callers that share a kernels dict build each
distinct one once (`tailcost bridge` builds 3 for its 5 uses at the
default look-back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .drifts import ConfigError, DriftSpec, LinearDriftStats, _trapz, linear_stats
from .pde import Grid1D, _cn_march, required_half_width

DEFAULT_C_BELOW = 4.0
DEFAULT_C_ABOVE = 0.25
DEN_FLOOR = 1e-250  # smallest bridge mass a kernel may normalize by
AT_GATE = 0.5  # largest slope-horizon product A T of the concentration regime


class BridgeError(RuntimeError):
    """Bridge computation failed."""


class IllConditionedBridgeError(BridgeError):
    """Normalizing mass fell below the resolvable floor."""


class EmptySweepError(ValueError):
    """No sweep cell satisfies the admissibility conditions."""


@dataclass(frozen=True)
class BridgeQuery:
    """Start point, horizon, look-back time, and noise level.

    delta is the look-back from the horizon: the conditional law is taken
    at time T - delta.  The concentration regime needs delta <= T/2, and
    the type enforces that scope.
    """

    y_start: float
    T: float
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        if not self.T > 0.0:
            raise ConfigError("T must be positive")
        if not 0.0 < self.delta <= 0.5 * self.T + 1e-12:
            raise ConfigError("need 0 < delta <= T/2")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")

    @property
    def sample_time(self) -> float:
        return self.T - self.delta


@dataclass(frozen=True)
class BridgeEstimate:
    """Conditional mean, variance, and event probabilities at T - delta.

    Which events the two probabilities refer to depends on the producer:
    the quadrature route reports the complementary pair at a single
    threshold, the exact-linear route the two default events.  extra
    carries the thresholds either way.
    """

    mean: float
    variance: float
    prob_below: float
    prob_above: float
    method: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")
        for p in (self.prob_below, self.prob_above):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.method not in ("exact-linear", "green-quadrature", "monte-carlo"):
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class GreenResources:
    """Grid resolution and the refinement audit of the quadrature route.

    n_y is a target: the actual node count follows from anchoring the
    spacing so the start point and the pin both land on nodes.
    """

    n_y: int = 2401
    n_t: int = 1201
    audit: bool = False

    def __post_init__(self) -> None:
        if self.n_y < 101 or self.n_t < 51:
            raise ValueError("resolution too coarse: need n_y >= 101, n_t >= 51")


# ------------------------------------------------------------- linear route

def linear_pieces(spec: DriftSpec, query: BridgeQuery) -> tuple[LinearDriftStats, LinearDriftStats]:
    """Growth/variance statistics of the two legs [0, s] and [s, T]."""
    if spec.A_of_s is None:
        raise ValueError(f"drift {spec.name} is not linear")
    s = query.sample_time
    return (
        linear_stats(spec.A_of_s, 0.0, s),
        linear_stats(spec.A_of_s, s, query.T),
    )


def threshold_value(query: BridgeQuery, c: float) -> float:
    """Event threshold c * delta * y / T, the scale of the bridge mean."""
    return c * query.delta * query.y_start / query.T


def linear_bridge_moments(
    stats_pieces: tuple[LinearDriftStats, LinearDriftStats],
    query: BridgeQuery,
) -> BridgeEstimate:
    """Exact conditional law for a linear drift, pinned at 0 at the horizon.

    prob_below is the Gaussian tail below threshold_value(query, DEFAULT_C_BELOW),
    prob_above the tail above threshold_value(query, DEFAULT_C_ABOVE); they
    are separate events, not complements.  extra reports the realized ratio
    mean / (delta*y/T), whose bracketing between a small and a large
    constant is the sandwich property the concentration regime asserts.
    """
    leg1, leg2 = stats_pieces
    y, eps = query.y_start, query.epsilon
    denom = leg2.Lambda**2 * leg1.sigma2 + leg2.sigma2
    mean = leg1.Lambda * y * leg2.sigma2 / denom
    var = eps * leg1.sigma2 * leg2.sigma2 / denom
    sd = math.sqrt(var)
    theta_b = threshold_value(query, DEFAULT_C_BELOW)
    theta_a = threshold_value(query, DEFAULT_C_ABOVE)
    prob_below = float(ndtr((theta_b - mean) / sd))
    prob_above = float(ndtr((mean - theta_a) / sd))
    scale = query.delta * y / query.T
    return BridgeEstimate(
        mean=mean,
        variance=var,
        prob_below=prob_below,
        prob_above=prob_above,
        method="exact-linear",
        extra={
            "mean_ratio": mean / scale if scale != 0.0 else math.nan,
            "theta_below": theta_b,
            "theta_above": theta_a,
        },
    )


def two_leg_classical_cost(
    stats_pieces: tuple[LinearDriftStats, LinearDriftStats],
    y: float,
    mid: float,
) -> float:
    """Zero-noise cost of passing through mid at the look-back time.

    Sum of the quadratic leg costs y -> mid and mid -> 0; its minimizer
    over mid is the point the conditional law concentrates on.
    """
    leg1, leg2 = stats_pieces
    gap1 = mid - leg1.Lambda * y
    gap2 = 0.0 - leg2.Lambda * mid
    return 0.5 * gap1 * gap1 / leg1.sigma2 + 0.5 * gap2 * gap2 / leg2.sigma2


# --------------------------------------------------------- quadrature route

@dataclass(frozen=True)
class BridgeKernel:
    """Product weight w on the shared xi nodes, with its pieces."""

    xi: np.ndarray
    fan: np.ndarray
    bundle: np.ndarray
    weight: np.ndarray
    mass: float
    fan_mass: float


def _anchored_nodes(spec: DriftSpec, query: BridgeQuery,
                    resources: GreenResources, thetas: tuple[float, ...]):
    """Node lattice containing 0 and y_start exactly, wide enough for both legs."""
    y0, eps = query.y_start, query.epsilon
    half = max(
        required_half_width(spec, y0, eps, 0.0),
        required_half_width(spec, 0.0, eps, 0.0),
    )
    lo_req = min(y0, 0.0, *thetas) - half
    hi_req = max(y0, 0.0, *thetas) + half
    target = (hi_req - lo_req) / (resources.n_y - 1)
    if abs(y0) > 1e-12:
        h = abs(y0) / max(1, int(round(abs(y0) / target)))
    else:
        h = target
    j_lo = int(math.ceil(-lo_req / h))
    j_hi = int(math.ceil(hi_req / h))
    return -j_lo * h, j_hi * h, j_lo + j_hi + 1


def bridge_kernel(spec: DriftSpec, query: BridgeQuery,
                  resources: GreenResources | None = None,
                  thetas: tuple[float, ...] = ()) -> BridgeKernel:
    """Unnormalized conditional density on the look-back slice.

    One forward march over [0, s] from a point mass at the start point and
    one backward march over [s, T] from a point mass at the pin, both with
    zero walls; their product on the shared nodes is the bridge weight.
    Transient ringing can leave tiny negative kernel values; they are
    clipped to zero before the product is formed.
    """
    res = resources or GreenResources()
    if not math.isclose(query.T, spec.horizon_T):
        raise ValueError("query horizon differs from the drift's horizon")
    y_min, y_max, n_y = _anchored_nodes(spec, query, res, thetas)
    s = query.sample_time
    grid_fwd = Grid1D(y_min, y_max, n_y, 0.0, s, res.n_t)
    grid_bwd = Grid1D(y_min, y_max, n_y, s, query.T, res.n_t)

    legs = []
    for grid, node, backward in ((grid_fwd, query.y_start, False), (grid_bwd, 0.0, True)):
        point = np.zeros(n_y)
        point[grid.nearest_node(node)] = 1.0 / grid.h_y
        legs.append(_cn_march(spec, point, grid, query.epsilon, 0.0, backward))
    fan, bundle = legs
    np.clip(fan, 0.0, None, out=fan)
    np.clip(bundle, 0.0, None, out=bundle)
    xi = grid_fwd.y_nodes()
    w = fan * bundle
    mass = float(_trapz(w, xi))
    noise_floor = 64.0 * np.finfo(float).eps * float(w.max(initial=0.0)) * (y_max - y_min)
    if not mass >= max(DEN_FLOOR, noise_floor):
        raise IllConditionedBridgeError(
            f"bridge mass {mass:.3e} below the resolvable floor"
        )
    return BridgeKernel(
        xi=xi,
        fan=fan,
        bundle=bundle,
        weight=w,
        mass=mass,
        fan_mass=float(_trapz(fan, xi)),
    )


def _shared_kernel(spec: DriftSpec, query: BridgeQuery, res: GreenResources,
                   thetas: tuple[float, ...], kernels: dict | None) -> BridgeKernel:
    """bridge_kernel, built once per distinct lattice when kernels is a dict.

    thetas enter the kernel only through the anchored lattice, so the key
    holds the lattice rather than the thresholds.
    """
    if kernels is None:
        return bridge_kernel(spec, query, res, thetas)
    key = (spec, query, res, _anchored_nodes(spec, query, res, thetas))
    if key not in kernels:
        kernels[key] = bridge_kernel(spec, query, res, thetas)
    return kernels[key]


def _mass_below(xi: np.ndarray, w: np.ndarray, theta: float) -> float:
    """Integral of the piecewise-linear weight up to theta (exact cell split)."""
    if theta <= xi[0]:
        return 0.0
    if theta >= xi[-1]:
        return float(_trapz(w, xi))
    k = int(np.searchsorted(xi, theta)) - 1
    head = float(_trapz(w[: k + 1], xi[: k + 1])) if k >= 1 else 0.0
    frac = (theta - xi[k]) / (xi[k + 1] - xi[k])
    w_theta = w[k] + (w[k + 1] - w[k]) * frac
    return head + 0.5 * (w[k] + w_theta) * (theta - xi[k])


def _kernel_estimate(kern: BridgeKernel, theta: float, c: float, side: str) -> BridgeEstimate:
    xi, w, den = kern.xi, kern.weight, kern.mass
    mean = float(_trapz(xi * w, xi)) / den
    var = max(float(_trapz(xi * xi * w, xi)) / den - mean * mean, 0.0)
    below = min(max(_mass_below(xi, w, theta) / den, 0.0), 1.0)
    return BridgeEstimate(
        mean=mean,
        variance=var,
        prob_below=below,
        prob_above=1.0 - below,
        method="green-quadrature",
        extra={
            "theta": theta,
            "threshold_fraction": c,
            "side": side,
            "mass": den,
            "fan_mass": kern.fan_mass,
        },
    )


def conditional_prob_green(
    spec: DriftSpec,
    query: BridgeQuery,
    threshold_fraction: float,
    side: str,
    resources: GreenResources | None = None,
    kernels: dict | None = None,
) -> BridgeEstimate:
    """Conditional tail probability by the two-kernel quadrature ratio.

    The event is {state below/above threshold_value(query, threshold_fraction)}
    at the look-back time; prob_below and prob_above are the complementary
    pair at that single threshold, and side records which one was asked
    for.  With audit resources the whole computation repeats at doubled
    node density and the drift is reported in extra.  A kernels dict shared
    between calls reuses every kernel already built on the same lattice.
    """
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    res = resources or GreenResources()
    theta = threshold_value(query, threshold_fraction)
    kern = _shared_kernel(spec, query, res, (theta,), kernels)
    est = _kernel_estimate(kern, theta, threshold_fraction, side)
    if res.audit:
        fine = replace(res, n_y=2 * res.n_y - 1, audit=False)
        ref = conditional_prob_green(spec, query, threshold_fraction, side, fine, kernels)
        est = replace(est, extra={
            **est.extra,
            "refinement_drift_prob": abs(ref.prob_below - est.prob_below),
            "refinement_drift_mean": abs(ref.mean - est.mean),
        })
    return est


def bridge_monte_carlo(query: BridgeQuery, config) -> BridgeEstimate:
    """Sampling route for the driftless case, as a third independent check.

    The unit pull toward the pin reproduces the driftless conditional law
    exactly, so its samples at the look-back time estimate the same
    moments and the two default events.  Standard errors land in extra.
    """
    from .simulate import simulate_pinned_pull

    vals = simulate_pinned_pull(1.0, query.y_start, 0.0, query.T,
                                query.sample_time, query.epsilon, config)
    n = vals.size
    theta_b = threshold_value(query, DEFAULT_C_BELOW)
    theta_a = threshold_value(query, DEFAULT_C_ABOVE)
    below = float((vals < theta_b).mean())
    above = float((vals > theta_a).mean())
    return BridgeEstimate(
        mean=float(vals.mean()),
        variance=float(vals.var(ddof=1)),
        prob_below=below,
        prob_above=above,
        method="monte-carlo",
        extra={
            "theta_below": theta_b,
            "theta_above": theta_a,
            "se_mean": float(vals.std(ddof=1) / math.sqrt(n)),
            "se_below": math.sqrt(max(below * (1.0 - below), 1.0 / n) / n),
            "se_above": math.sqrt(max(above * (1.0 - above), 1.0 / n) / n),
            "n": int(n),
        },
    )


# ------------------------------------------------------- concentration fits

@dataclass(frozen=True)
class ConcentrationRow:
    y: float
    delta: float
    event: str
    probability: float
    bound_rhs: float
    abscissa: float


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple[ConcentrationRow, ...]
    gamma_below: float
    r2_below: float
    gamma_above: float
    r2_above: float
    passed: bool
    extra: dict = field(default_factory=dict)


def fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept, and R^2 of ys against xs."""
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def concentration_check(
    spec: DriftSpec,
    epsilon: float,
    T: float,
    y_sweep,
    delta_sweep,
    c_below: float = DEFAULT_C_BELOW,
    kernels: dict | None = None,
) -> ConcentrationReport:
    """Fit the tail exponents of the pinned conditionals across a sweep.

    The above event takes DEFAULT_C_ABOVE; kernels use default GreenResources.
    Scope gates: the drift must vanish along the pin, the product of its
    slope bound and the horizon must stay below AT_GATE, and a sweep cell
    (y, delta) is admissible only when y < -T sqrt(eps/delta), the depth
    at which the bridge mean dominates the noise scale.  For every
    admissible cell both event probabilities are computed on the quadrature
    route; log-probabilities are then fit against delta*y^2/(eps*T^2), one
    line per event.  The report passes when both fitted slopes are negative
    with R^2 at or above 0.9.  kernels is shared as in conditional_prob_green.
    """
    for tv in np.linspace(0.0, T, 9):
        if abs(float(spec.b(0.0, tv))) > 1e-10:
            raise ConfigError(f"drift must vanish at the pin; b(0,{tv:g}) != 0")
    if spec.lipschitz_A * T > AT_GATE + 1e-12:
        raise ConfigError(
            f"slope-horizon product {spec.lipschitz_A * T:g} exceeds the gate {AT_GATE:g}"
        )

    cells = [
        (float(y), float(d))
        for d in np.atleast_1d(delta_sweep)
        for y in np.atleast_1d(y_sweep)
        if float(y) < -T * math.sqrt(epsilon / float(d))
    ]
    if not cells:
        raise EmptySweepError("no (y, delta) cell is deep enough for the regime")

    res = GreenResources()
    rows: list[ConcentrationRow] = []
    fit_pts: dict[str, list[tuple[float, float]]] = {"below": [], "above": []}
    dropped = 0
    for y, d in cells:
        query = BridgeQuery(y_start=y, T=T, delta=d, epsilon=epsilon)
        theta_b = threshold_value(query, c_below)
        theta_a = threshold_value(query, DEFAULT_C_ABOVE)
        kern = _shared_kernel(spec, query, res, (theta_b, theta_a), kernels)
        xbar = d * y * y / (epsilon * T * T)
        p_below = _kernel_estimate(kern, theta_b, c_below, "below").prob_below
        p_above = _kernel_estimate(kern, theta_a, DEFAULT_C_ABOVE, "above").prob_above
        for event, p in (("below", p_below), ("above", p_above)):
            rows.append(ConcentrationRow(y, d, event, p, math.nan, xbar))
            if p > 0.0:
                fit_pts[event].append((xbar, math.log(p)))
            else:
                dropped += 1

    if len(fit_pts["below"]) < 2 or len(fit_pts["above"]) < 2:
        raise EmptySweepError("too few resolvable probabilities to fit")
    (slope_b, _, r2_b), (slope_a, _, r2_a) = (
        fit_line(np.array([a for a, _ in fit_pts[e]]), np.array([lp for _, lp in fit_pts[e]]))
        for e in ("below", "above")
    )
    gamma = {"below": -slope_b, "above": -slope_a}
    rows = [
        replace(row, bound_rhs=math.exp(-gamma[row.event] * row.abscissa))
        for row in rows
    ]
    passed = slope_b < 0.0 and slope_a < 0.0 and r2_b >= 0.9 and r2_a >= 0.9
    return ConcentrationReport(
        rows=tuple(rows),
        gamma_below=gamma["below"],
        r2_below=r2_b,
        gamma_above=gamma["above"],
        r2_above=r2_a,
        passed=passed,
        extra={
            "n_cells": len(cells),
            "dropped": dropped,
            "c_below": c_below,
            "c_above": DEFAULT_C_ABOVE,
        },
    )


# ------------------------------------------------------------------ export

def concentration_rows(report: ConcentrationReport):
    """(y, delta, event, probability, bound_rhs) rows for the CSV writer."""
    for row in report.rows:
        yield row.y, row.delta, row.event, row.probability, row.bound_rhs


def concentration_summary(report: ConcentrationReport) -> dict:
    return {
        "gamma_below": report.gamma_below,
        "r2_below": report.r2_below,
        "gamma_above": report.gamma_above,
        "r2_above": report.r2_above,
        "passed": report.passed,
        "n_rows": len(report.rows),
        **report.extra,
    }
