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
placement bias.  The backward leg depends only on the node lattice, so
starts that share a lattice share it, and their point masses march
forward together as the columns of one march: `tailcost bridge` builds
one lattice for its two conditionals and three sweep starts.  The
estimators (conditional_prob_green, concentration_check) read the kernels
their caller built and build none of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._scipy import ndtr
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
        if self.method not in ("exact-linear", "green-quadrature"):
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class GreenResources:
    """Grid resolution of the quadrature route.

    n_y is a target: the actual node count follows from anchoring the
    spacing so the start points and the pin all land on nodes.
    """

    n_y: int = 2401
    n_t: int = 1201

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


def linear_bridge_moments(spec: DriftSpec, query: BridgeQuery) -> BridgeEstimate:
    """Exact conditional law for a linear drift, pinned at 0 at the horizon.

    prob_below is the Gaussian tail below threshold_value(query, DEFAULT_C_BELOW),
    prob_above the tail above threshold_value(query, DEFAULT_C_ABOVE); they
    are separate events, not complements.  extra reports the realized ratio
    mean / (delta*y/T), whose bracketing between a small and a large
    constant is the sandwich property the concentration regime asserts.
    """
    leg1, leg2 = linear_pieces(spec, query)
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


# --------------------------------------------------------- quadrature route

@dataclass(frozen=True)
class BridgeKernel:
    """Bridge weights on one xi lattice: a fan row per start, one pin leg (bundle)."""

    query: BridgeQuery  # fixes T, delta and epsilon; its y_start is starts[0]
    starts: tuple[float, ...]
    xi: np.ndarray
    fan: np.ndarray
    bundle: np.ndarray
    weight: np.ndarray
    mass: np.ndarray


def _lattices(spec: DriftSpec, query: BridgeQuery, resources: GreenResources,
              starts: tuple[float, ...], fractions: tuple[float, ...]):
    """[(starts, (y_min, y_max, n_y))]: lattices with 0 and their starts on nodes.

    Alone, a start anchors h_s = |y|/round(|y|/target) over the extent its
    legs and thresholds (fractions of its delta*y/T) need.  Starts whose
    gcd g in micro-units is at least min h_s share h = g/ceil(g/min h_s),
    never coarser than any h_s, over the union of their own lattices.
    """
    eps, spans = query.epsilon, []
    for y in starts:
        half = max(required_half_width(spec, y, eps, 0.0), required_half_width(spec, 0.0, eps, 0.0))
        ends = (y, 0.0, *(threshold_value(replace(query, y_start=y), c) for c in fractions))
        lo_req, hi_req = min(ends) - half, max(ends) + half
        target = (hi_req - lo_req) / (resources.n_y - 1)
        spans.append((lo_req, hi_req,
                      abs(y) / max(1, round(abs(y) / target)) if abs(y) > 1e-12 else target))

    def nodes(lo: float, hi: float, h: float) -> tuple[float, float, int]:
        j_lo, j_hi = math.ceil(-lo / h), math.ceil(hi / h)
        return -j_lo * h, j_hi * h, j_lo + j_hi + 1

    lattices = [((y,), nodes(*span)) for y, span in zip(starts, spans)]
    g, h_min = math.gcd(*(round(abs(y) * 1e6) for y in starts)) / 1e6, min(h for *_, h in spans)
    if len(starts) < 2 or g < h_min or any(abs(y / g - round(y / g)) > 1e-9 for y in starts):
        return lattices
    lo, hi = min(lat[0] for _, lat in lattices), max(lat[1] for _, lat in lattices)
    return [(tuple(starts), nodes(lo, hi, g / math.ceil(g / h_min)))]


def bridge_kernel(spec: DriftSpec, query: BridgeQuery,
                  resources: GreenResources | None = None,
                  starts: tuple[float, ...] | None = None,
                  fractions: tuple[float, ...] = ()) -> BridgeKernel:
    """Unnormalized conditional densities on the look-back slice, a row per start.

    starts (default: query.y_start) must share one lattice covering the
    threshold fractions (see _lattices).  A forward march over [0, s] takes
    a point mass per start as its columns, a backward march over [s, T] one
    at the pin, both with zero walls; each column times the pin leg is that
    start's weight, after clipping transient ringing below zero.
    """
    res = resources or GreenResources()
    if not math.isclose(query.T, spec.horizon_T):
        raise ValueError("query horizon differs from the drift's horizon")
    starts = (query.y_start,) if starts is None else tuple(starts)
    (_, (y_min, y_max, n_y)), *rest = _lattices(spec, query, res, starts, fractions)
    if rest:
        raise ValueError(f"starts {starts} share no lattice; build them with bridge_kernels")
    s, legs = query.sample_time, []
    for t0, t1, nodes, backward in ((0.0, s, starts, False), (s, query.T, (0.0,), True)):
        grid = Grid1D(y_min, y_max, n_y, t0, t1, res.n_t)
        points = np.zeros((len(nodes), n_y))
        points[range(len(nodes)), [grid.nearest_node(y) for y in nodes]] = 1.0 / grid.h_y
        data = points[0] if len(nodes) == 1 else points  # a lone point mass marches as a vector
        legs.append(np.clip(_cn_march(spec, data, grid, query.epsilon, 0.0, backward), 0.0, None))
    fan, bundle = np.atleast_2d(legs[0]), legs[1]
    xi = np.linspace(y_min, y_max, n_y)
    w = fan * bundle
    mass = _trapz(w, xi, axis=-1)
    floor = 64.0 * np.finfo(float).eps * w.max(axis=-1, initial=0.0) * (y_max - y_min)
    for y, m, f in zip(starts, mass, floor):
        if not m >= max(DEN_FLOOR, f):
            raise IllConditionedBridgeError(
                f"bridge mass {m:.3e} from y={y:g} below the resolvable floor")
    return BridgeKernel(query, starts, xi, fan, bundle, w, mass)


def bridge_kernels(spec: DriftSpec, query: BridgeQuery, starts: tuple[float, ...],
                   fractions: tuple[float, ...]) -> tuple[BridgeKernel, ...]:
    """Kernels of every start at query's look-back and noise, one per _lattices entry,
    each lattice covering the threshold fractions."""
    res = GreenResources()
    return tuple(bridge_kernel(spec, replace(query, y_start=group[0]), res, group, fractions)
                 for group, _ in _lattices(spec, query, res, tuple(starts), fractions))


def _column(kernels: tuple[BridgeKernel, ...], query: BridgeQuery) -> tuple[BridgeKernel, int]:
    """The kernel holding query's start at its look-back and noise, and the start's row."""
    for kern in kernels:
        if query.y_start in kern.starts and replace(kern.query, y_start=query.y_start) == query:
            return kern, kern.starts.index(query.y_start)
    raise ValueError(f"no kernel holds y={query.y_start:g} at delta={query.delta:g}")


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


def _kernel_estimate(kern: BridgeKernel, i: int, theta: float, c: float,
                     side: str) -> BridgeEstimate:
    xi, w, den = kern.xi, kern.weight[i], float(kern.mass[i])
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
            "fan_mass": float(_trapz(kern.fan[i], xi)),
        },
    )


def conditional_prob_green(
    kernels: tuple[BridgeKernel, ...],
    query: BridgeQuery,
    threshold_fraction: float,
    side: str,
) -> BridgeEstimate:
    """Conditional tail probability by the two-kernel quadrature ratio.

    The event is {state below/above threshold_value(query, threshold_fraction)}
    at the look-back time; prob_below and prob_above are the complementary
    pair at that single threshold, and side records which one was asked
    for.  kernels, from bridge_kernels or bridge_kernel, must hold query's
    start at its look-back and noise.
    """
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    kern, row = _column(kernels, query)
    return _kernel_estimate(kern, row, threshold_value(query, threshold_fraction),
                            threshold_fraction, side)


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


def concentration_check(spec: DriftSpec, kernels: tuple[BridgeKernel, ...]) -> ConcentrationReport:
    """Fit the tail exponents of the pinned conditionals over the kernels' starts.

    The below event takes DEFAULT_C_BELOW, read at call time, and the
    above event DEFAULT_C_ABOVE.  Scope gates: the drift must vanish along
    the pin, the product of its slope bound and the horizon T must stay
    below AT_GATE, and a start y of a kernel at look-back delta and noise
    eps is admissible only when y < -T sqrt(eps/delta), the depth at which
    the bridge mean dominates the noise scale.  For every admissible start
    both event probabilities are read off its kernel row; log-probabilities
    are then fit against delta*y^2/(eps*T^2), one line per event.  The
    report passes when both fitted slopes are negative with R^2 at or
    above 0.9.
    """
    T = spec.horizon_T
    for tv in np.linspace(0.0, T, 9):
        if abs(float(spec.b(0.0, tv))) > 1e-10:
            raise ConfigError(f"drift must vanish at the pin; b(0,{tv:g}) != 0")
    if spec.lipschitz_A * T > AT_GATE + 1e-12:
        raise ConfigError(
            f"slope-horizon product {spec.lipschitz_A * T:g} exceeds the gate {AT_GATE:g}"
        )

    cells = [
        (kern, row, y)
        for kern in kernels
        for row, y in enumerate(kern.starts)
        if y < -T * math.sqrt(kern.query.epsilon / kern.query.delta)
    ]
    if not cells:
        raise EmptySweepError("no (y, delta) cell is deep enough for the regime")

    fractions = {"below": DEFAULT_C_BELOW, "above": DEFAULT_C_ABOVE}
    rows: list[ConcentrationRow] = []
    fit_pts: dict[str, list[tuple[float, float]]] = {"below": [], "above": []}
    dropped = 0
    for kern, row, y in cells:
        query = replace(kern.query, y_start=y)
        xbar = query.delta * y * y / (query.epsilon * T * T)
        for event, c in fractions.items():
            est = _kernel_estimate(kern, row, threshold_value(query, c), c, event)
            p = est.prob_below if event == "below" else est.prob_above
            rows.append(ConcentrationRow(y, query.delta, event, p, math.nan, xbar))
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
            "c_below": fractions["below"],
            "c_above": fractions["above"],
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
