"""Closed-form oracles and frozen expected values for the test suite.

Every constant below was computed from the stated closed form (or, where
noted, by adaptive quadrature on it) in a standalone script before the
library code existed, then frozen here.  Tests compare library output
against these numbers, never the other way round.  The reference routines
at the end (an Euler-Maruyama run, the action functional, the integral
forms of the slopes) are written out independently.  Nothing in this file
imports the library.

Conventions: the reference process is ``dY = b(Y, s) ds + sqrt(eps) dW``
started at ``y``; the exceedance threshold at the horizon is ``x``.  For
a constant linear drift ``b = A*y`` everything is Gaussian and exact.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import log_ndtr, ndtr

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# --------------------------------------------------------------------------
# Frozen constants: linear drift b = 0.5*y over a unit span, start y = -1,
# threshold x = 0.
GROWTH_A05 = 1.6487212707001282           # exp(0.5)
VAR_UNIT_A05 = 1.718281828459045          # expm1(1) / 1
ACTION_A05 = 0.7909883534346633           # GROWTH^2 / (2 * VAR_UNIT)
HESS_YY_A05 = 1.5819767068693267          # e / (e - 1)
HESS_XY_A05 = -0.9595173756674719         # -1 / (2 sinh 0.5)
HESS_XX_A05 = 0.5819767068693265          # 1 / (e - 1)

# Zero drift, eps = 0.1, start y = -1 at time 0, threshold x = 0 at time 1.
U_ZERO_PROBE = 0.000782701129001274       # Phi(-sqrt(10))
COST_EPS_ZERO_PROBE = 0.7152759634710067  # -0.1 * log Phi(-sqrt(10))
GAP_ZERO_PROBE = 0.21527596347100675      # cost minus the classical 0.5
SLOPE_Y_ZERO_PROBE = -1.086029684583028
SLOPE_X_ZERO_PROBE = 1.0860296845830288
GREEN_PEAK_ZERO = 1.2615662610100802      # kernel at y = x: 1/sqrt(2 pi 0.1)

# Noise ladder for the vanishing-noise gap fits.
RATE_EPS = (0.4, 0.2, 0.1, 0.05, 0.025)
RATE_GAPS_ZERO = (
    0.6464212735886246,
    0.37364590143822696,
    0.21527596347100675,
    0.12308557203584114,
    0.06967450661948982,
)
RATE_SLOPE_ZERO = 0.8029553819257529      # log-gap vs log-eps least squares
RATE_GAPS_LINEAR_A05 = (
    0.7115844052844884,
    0.4106709908219266,
    0.23549924157702695,
    0.13377857246282354,
    0.07519845911669876,
)
RATE_SLOPE_LINEAR_A05 = 0.8102655762266938

# Terminal-pin conditionals at T = 1, observation span delta = 0.25,
# start y = -1, eps = 0.1.
BB_MEAN = -0.25                           # zero drift: y * delta / T
BB_VAR = 0.01875                          # eps * delta * (T - delta) / T
BB_PROB_BELOW_C4 = 2.160231528913753e-08
BB_PROB_ABOVE_C025 = 0.08545176011539873
PIN_MEAN_A05 = -0.24050451792569305       # equals the two-leg action minimizer
PIN_VAR_UNIT_EPS_A05 = 0.18463583208765244

# Exceedance-conditioned law at zero drift, eps = 0.1, y = -1, x = 0,
# observed at T - 1e-3 (adaptive quadrature; normalization check passed
# at 1e-15).
CONDITIONED_EXCEEDANCE = 0.9540283024638664

# Gaussian-CDF product bound, right-hand side at z = 0: sqrt(pi * ln 2).
CDF_BOUND_AT_ZERO = 1.4756646266356057


# --------------------------------------------------------------------------
# Constant linear drift closed forms.

def growth(A: float, span: float) -> float:
    """Flow multiplier of dY = A*Y ds over a span."""
    return math.exp(A * span)


def quad_var(A: float, span: float) -> float:
    """Unit-noise terminal variance: integral of exp(2A(span - s)) ds."""
    if A == 0.0:
        return span
    return math.expm1(2.0 * A * span) / (2.0 * A)


def hazard(z: float) -> float:
    """phi(z)/Phi(z), stable for z far below zero."""
    return math.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))


def gaussian_u(y: float, x: float, eps: float, A: float = 0.0,
               span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    return float(ndtr((lam * y - x) / math.sqrt(eps * var)))


def gaussian_cost(y: float, x: float, eps: float, A: float = 0.0,
                  span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    return float(-eps * log_ndtr((lam * y - x) / math.sqrt(eps * var)))


def gaussian_slope_y(y: float, x: float, eps: float, A: float = 0.0,
                     span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    z = (lam * y - x) / math.sqrt(eps * var)
    return -math.sqrt(eps / var) * lam * hazard(z)


def gaussian_slope_x(y: float, x: float, eps: float, A: float = 0.0,
                     span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    z = (lam * y - x) / math.sqrt(eps * var)
    return math.sqrt(eps / var) * hazard(z)


def green_kernel(y: float, x: float, eps: float, A: float = 0.0,
                 span: float = 1.0) -> float:
    """Terminal density of the linear flow at x, started from y."""
    lam, var = growth(A, span), quad_var(A, span)
    sd = math.sqrt(eps * var)
    z = (x - lam * y) / sd
    return math.exp(-0.5 * z * z - _LOG_SQRT_2PI) / sd


def classical_cost(y: float, x: float, A: float = 0.0,
                   span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    gap = x - lam * y
    return 0.5 * gap * gap / var if gap > 0.0 else 0.0


def classical_slope_y(y: float, x: float, A: float = 0.0,
                      span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    gap = x - lam * y
    return -lam * gap / var if gap > 0.0 else 0.0


def classical_slope_x(y: float, x: float, A: float = 0.0,
                      span: float = 1.0) -> float:
    lam, var = growth(A, span), quad_var(A, span)
    gap = x - lam * y
    return gap / var if gap > 0.0 else 0.0


# --------------------------------------------------------------------------
# Terminal-pin conditionals for constant linear drift (pin value 0 at T).

def pinned_moments(y: float, T: float, delta: float, eps: float,
                   A: float = 0.0) -> tuple[float, float]:
    """Mean and variance of Y(T - delta) given Y(T) = 0, Y(0) = y."""
    s = T - delta
    mean_s = growth(A, s) * y
    var_s = eps * quad_var(A, s)
    mean_T = growth(A, T) * y
    var_T = eps * quad_var(A, T)
    cov = growth(A, delta) * var_s
    mean = mean_s + (cov / var_T) * (0.0 - mean_T)
    var = var_s - cov * cov / var_T
    return mean, var


def pinned_event_prob(y: float, T: float, delta: float, eps: float, c: float,
                      side: str, A: float = 0.0) -> float:
    """P(Y(T-delta) below/above c*delta*y/T, given the terminal pin)."""
    mean, var = pinned_moments(y, T, delta, eps, A)
    z = (c * delta * y / T - mean) / math.sqrt(var)
    if side == "below":
        return float(ndtr(z))
    if side == "above":
        return float(ndtr(-z))
    raise ValueError(f"side must be 'below' or 'above', got {side!r}")


def local_exponent(c: float, T: float, delta: float) -> float:
    """Leading tail exponent of the pinned event in delta*y^2/(eps*T^2)."""
    return (c - 1.0) ** 2 * T / (2.0 * (T - delta))


def fit_abscissa(y: float, T: float, delta: float, eps: float) -> float:
    return delta * y * y / (eps * T * T)


def two_leg_minimizer(y: float, T: float, delta: float,
                      A: float = 0.0) -> float:
    """Midpoint value minimizing the split classical action y -> z -> 0."""
    s = T - delta
    lam1, var1 = growth(A, s), quad_var(A, s)
    lam2, var2 = growth(A, delta), quad_var(A, delta)
    # d/dz [ (z - lam1 y)^2 / (2 var1) + (lam2 z)^2 / (2 var2) ] = 0
    return (lam1 * y / var1) / (1.0 / var1 + lam2 * lam2 / var2)


# --------------------------------------------------------------------------
# Exceedance-conditioned law, zero drift.

def conditioned_exceedance(y: float, x: float, T: float, delta: float,
                           eps: float) -> float:
    """P(Y(T-delta) > x | Y(T) > x) for a Brownian path from (0, y)."""
    s = T - delta
    sd1 = math.sqrt(eps * s)
    sd2 = math.sqrt(eps * delta)
    sd_T = math.sqrt(eps * T)

    def integrand(xi: float) -> float:
        z = (xi - y) / sd1
        dens = math.exp(-0.5 * z * z - _LOG_SQRT_2PI) / sd1
        return dens * ndtr((xi - x) / sd2)

    num, err = integrate.quad(integrand, x, np.inf, epsabs=0.0, epsrel=1e-12,
                              limit=400)
    den = float(ndtr((y - x) / sd_T))
    if err > 1e-9 * max(num, 1e-300):
        raise RuntimeError(f"conditioned-exceedance quadrature failed: {err}")
    return num / den


# --------------------------------------------------------------------------
# Shared fit helper.

def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least squares line fit; returns (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# --------------------------------------------------------------------------
# Reference routines, for the drift b(y, s) of any spec.

def euler_terminal(b, y0: float, times, eps: float, n_paths: int, seed: int) -> np.ndarray:
    """Terminal states of Euler-Maruyama for dY = b(Y, s) ds + sqrt(eps) dW
    from y0 along times: one Philox standard normal per path and step."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    y = np.full(n_paths, float(y0))
    for s, s_next in zip(times[:-1], times[1:]):
        xi = rng.standard_normal(n_paths)
        h = s_next - s
        y = y + np.asarray(b(y, s)) * h + math.sqrt(eps * h) * xi
    return y


def action(times, y, b) -> float:
    """One half the trapezoid integral of (y' - b)^2 along the path (times, y)."""
    f = 0.5 * (np.gradient(y, times, edge_order=2) - np.asarray(b(y, times), dtype=float)) ** 2
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(times)))


def _simpson(f, h: float) -> float:
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2])))


def integral_slopes(times, p, b_y) -> dict:
    """Integral forms of the classical cost's first derivatives along a
    minimiser with momentum p and drift slope b_y at its nodes.

    They weight the excess slope w = y' - b = -p, by Simpson's rule on an
    odd number of equally spaced nodes; dq_dx_flow carries w at the start
    along the flow, and slope_sum is the sum dq_dy + dq_dx.
    """
    t, T, h = times[0], times[-1], times[1] - times[0]
    w = -np.asarray(p, dtype=float)
    return {
        "dq_dy": -_simpson((1.0 + (T - times) * b_y) * w, h) / (T - t),
        "dq_dx": _simpson((1.0 - (times - t) * b_y) * w, h) / (T - t),
        "dq_dx_flow": float(w[0]) * math.exp(-_simpson(b_y, h)),
        "slope_sum": -_simpson(b_y * w, h),
    }


def rk4_nodes(f, z0, times) -> list[list[float]]:
    """Classical RK4 for z' = f(z, s) on one lane in Python floats: the state at every node.

    times are equally spaced, forward or backward, with the step
    h = (times[-1] - times[0]) / n; each step is the textbook formula
    z + (h/6) (k1 + 2 k2 + 2 k3 + k4) with stages at z + (h/2) k1,
    z + (h/2) k2 and z + h k3.  f(z, s) returns the slope as a list.
    """
    times = [float(s) for s in times]
    h = (times[-1] - times[0]) / (len(times) - 1)
    z = [float(c) for c in z0]
    nodes = [z]
    for s in times[:-1]:
        k1 = f(z, s)
        k2 = f([c + 0.5 * h * k for c, k in zip(z, k1)], s + 0.5 * h)
        k3 = f([c + 0.5 * h * k for c, k in zip(z, k2)], s + 0.5 * h)
        k4 = f([c + h * k for c, k in zip(z, k3)], s + h)
        z = [c + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
             for c, a1, a2, a3, a4 in zip(z, k1, k2, k3, k4)]
        nodes.append(z)
    return nodes


def momentum_rhs(b, b_y):
    """The momentum system y' = b(y, s) - p, p' = -b_y(y, s) p on one lane."""
    def f(z, s):
        y, p = z
        return [float(b(y, s)) - p, -float(b_y(y, s)) * p]
    return f


def variation_rhs(b_y, b_yy, times, ys, ps):
    """The second variation phi' = b_y phi - psi, psi' = -b_y psi - b_yy p phi
    along the stored path (times, ys, ps) with momenta ps.

    The coefficients are read at the path's nodes and, for a stage that
    falls between two nodes, at the average of their y and p and the
    midpoint time.
    """
    times, ys, ps = ([float(u) for u in v] for v in (times, ys, ps))
    t0, h = times[0], times[1] - times[0]

    def f(z, s):
        j, odd = divmod(round((s - t0) / (0.5 * h)), 2)
        if odd:
            y, p, s_c = 0.5 * (ys[j] + ys[j + 1]), 0.5 * (ps[j] + ps[j + 1]), times[j] + 0.5 * h
        else:
            y, p, s_c = ys[j], ps[j], times[j]
        a, v = float(b_y(y, s_c)), float(b_yy(y, s_c)) * p
        phi, psi = z
        return [a * phi - psi, -a * psi - v * phi]
    return f
