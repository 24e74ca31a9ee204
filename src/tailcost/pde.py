"""Backward diffusion solver and the cost field it induces.

The central object is u(y, t) = P(state at horizon T exceeds a threshold x,
given state y at time t), obtained by marching the backward equation

    u_t + b(y, t) u_y + (eps/2) u_yy = 0,   u(y, T) = 1{y > x}

in reverse time.  The exponential transform q = -eps log u is the tail
cost; its y-derivative feeds the controller, its threshold-derivative
gives the transition density (Green function).  The cost transform,
_cost_rows, runs on only the time levels a caller reads: hopf_cole takes
them all, fan_cost_rows differences three thresholds x - dx, x, x + dx at
the few levels the slope and convexity checks read.

Numerical scheme: full-operator Crank-Nicolson (central differences for
both diffusion and drift) with a backward-Euler startup phase that damps
the ringing the step terminal data would otherwise excite.  One march,
_cn_march, serves the threshold solve, the Green fan (one column per
threshold) and both bridge kernels; the upper wall value is its argument.
The implicit matrix is LU-factored (LAPACK gttrf) once per march when the
drift declares itself time-homogeneous, and at every time level otherwise;
the startup half-steps and the CN steps share it.  Every solved level is
checked to be finite, so a non-finite datum or an overflow raises PdeError
at the time level where it appears.  At the mesh Peclet numbers of every
shipped configuration (|b| h_y / eps <= 1) each step is a monotone map, so
the discrete solution inherits the maximum principle and monotonicity in y
to roundoff.  The mesh Peclet and diffusion numbers are recorded as
diagnostics, not enforced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import ndtr

from .drifts import DriftSpec, LinearDriftStats, _trapz

U_FLOOR = 1e-300  # below this, q = -eps log u is flagged, never clamped

MAXPRINCIPLE_TOL = 1e-12
MONOTONE_TOL = 1e-12
N_STARTUP = 8  # backward-Euler step pairs that open every march


class GridExtentError(ValueError):
    """Grid does not cover the domain the solve needs."""


class PdeError(RuntimeError):
    """Scheme produced a field violating its contracts."""


@dataclass(frozen=True)
class Grid1D:
    y_min: float
    y_max: float
    n_y: int
    t_start: float
    T: float
    n_t: int

    def __post_init__(self) -> None:
        if not self.y_min < self.y_max:
            raise ValueError("y_min must be < y_max")
        if self.n_y < 3 or self.n_t < 2:
            raise ValueError("need n_y >= 3 and n_t >= 2")
        if not self.t_start < self.T:
            raise ValueError("t_start must be < T")

    @property
    def h_y(self) -> float:
        return (self.y_max - self.y_min) / (self.n_y - 1)

    @property
    def h_t(self) -> float:
        return (self.T - self.t_start) / (self.n_t - 1)

    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_y)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.T, self.n_t)

    def nearest_node(self, y: float) -> int:
        j = int(round((y - self.y_min) / self.h_y))
        return min(max(j, 0), self.n_y - 1)


@dataclass(frozen=True)
class HeatField:
    """u on the full (t, y) lattice; row k is time level t_k."""

    grid: Grid1D
    epsilon: float
    x_threshold: float
    u: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CostField:
    """q = -eps log u with derivative fields.

    overflow_mask marks nodes where u underflowed the representable floor;
    q is +inf there and the node is excluded from statistics.  dq_dx is
    all NaN: the threshold derivative needs neighbouring thresholds, which
    fan_cost_rows solves at the levels a caller reads.
    """

    grid: Grid1D
    epsilon: float
    x_threshold: float
    q: np.ndarray
    dq_dy: np.ndarray
    dq_dx: np.ndarray
    overflow_mask: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GreenFunction:
    """Transition density g(y_i, x_j) from time t to T, columns on x_nodes."""

    grid: Grid1D
    epsilon: float
    t: float
    T: float
    x_nodes: np.ndarray
    g: np.ndarray


def required_half_width(spec: DriftSpec, x: float, epsilon: float, t_start: float) -> float:
    """Domain rule: diffusive spread plus worst-case drift magnification of x."""
    span = spec.horizon_T - t_start
    growth = math.expm1(spec.lipschitz_A * span)
    return max(8.0 * math.sqrt(epsilon * span), 4.0) + growth * abs(x)


def default_grid(
    spec: DriftSpec,
    x: float,
    epsilon: float,
    t_start: float = 0.0,
    n_y: int = 2001,
    n_t: int = 2001,
    widen: float = 1.0,
    extra: float = 0.0,
) -> Grid1D:
    """Grid centered on the threshold, sized by the domain rule, x on a node.

    extra widens the half-width additively; a threshold fan needs it so
    the rule still holds around its outermost member.
    """
    half = widen * required_half_width(spec, x, epsilon, t_start) + extra
    if n_y % 2 == 0:
        n_y += 1  # keep x exactly on the middle node
    return Grid1D(x - half, x + half, n_y, t_start, spec.horizon_T, n_t)


def fan_margin(spec: DriftSpec, dx: float, n_x: int, t_start: float = 0.0) -> float:
    """Extra half-width a fan of n_x thresholds needs (see default_grid's extra).

    The domain rule must hold around the outermost member, whose own
    |x| term grows with the fan extent.
    """
    extent = (n_x // 2) * dx
    span = spec.horizon_T - t_start
    return extent * (1.0 + math.expm1(spec.lipschitz_A * span))


def _cn_march(spec: DriftSpec, u: np.ndarray, grid: Grid1D, epsilon: float, wall: float,
              backward: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Crank-Nicolson march of data u (..., n_y) across the grid's time levels.

    backward runs the backward equation from grid.T down to grid.t_start;
    otherwise the forward equation in conservation form (the flux b*g is
    differenced, so b sits on the neighbor nodes) runs upward.  The first
    N_STARTUP steps are pairs of backward-Euler half-steps (Rannacher
    startup) that damp the ringing singular data would excite.  Dirichlet
    walls: 0 below, wall above.  Returns the last level; when out is given,
    level k of the march (k = 0 the data) is written into out[k].
    """
    y, h, dt = grid.y_nodes(), grid.h_y, grid.h_t
    alpha = 0.5 * epsilon / (h * h)
    r = 0.5 * dt  # the startup half-steps and the CN steps share I - r L
    m = grid.n_y - 2
    diag = np.full(m, 1.0 + 2.0 * r * alpha)

    def build(tv: float):
        b = np.asarray(spec.b(y[1:-1] if backward else y, tv), dtype=float)
        if not np.all(np.isfinite(b)):
            raise PdeError(f"drift {spec.name} is not finite on the grid at t={tv:g}")
        beta = b / (2.0 * h)
        if backward:
            lower, upper = alpha - beta, alpha + beta
        else:
            lower, upper = alpha + beta[:-2], alpha - beta[2:]
        *lu, info = dgttrf(-r * lower[1:], diag, -r * upper[:-1])
        if info != 0:
            raise PdeError(f"implicit matrix of drift {spec.name} is singular at t={tv:g}")
        return lower, upper, lu

    # (lower, upper) off-diagonals of the interior rows and the LU factors of
    # the implicit matrix, kept for the last time level asked for; a
    # time-homogeneous drift keys every level to t_start and factors once
    factored = functools.lru_cache(maxsize=1)(build)

    def stencil(tv: float):
        return factored(grid.t_start if spec.time_homogeneous else tv)

    def explicit(u_full: np.ndarray, tv: float) -> np.ndarray:
        lower, upper, _ = stencil(tv)
        return u_full[..., 1:-1] + r * (
            lower * u_full[..., :-2] - 2.0 * alpha * u_full[..., 1:-1] + upper * u_full[..., 2:]
        )

    def implicit(rhs: np.ndarray, tv: float) -> np.ndarray:
        _, upper, lu = stencil(tv)
        if wall:
            rhs[..., -1] += r * upper[-1] * wall
        # the (m, k) column-major view of rhs is what LAPACK solves in place
        v, info = dgttrs(*lu, rhs.reshape(-1, m).T, overwrite_b=1)
        if info != 0 or not np.isfinite(v).all():
            raise PdeError(f"march of drift {spec.name} left the finite range at t={tv:g}")
        return v.T.reshape(rhs.shape)

    t = grid.t_nodes()[::-1] if backward else grid.t_nodes()
    half = -0.5 * dt if backward else 0.5 * dt
    if out is not None:
        out[0] = u
    for step in range(1, grid.n_t):
        if step <= N_STARTUP:
            v = implicit(implicit(u[..., 1:-1].copy(), t[step - 1] + half), t[step])
        else:
            v = implicit(explicit(u, t[step - 1]), t[step])
        u = out[step] if out is not None else np.empty_like(u)
        u[..., 1:-1] = v
        u[..., 0] = 0.0
        u[..., -1] = wall
    return u


def _step_data(n_y: int, nodes: np.ndarray) -> np.ndarray:
    """Indicator data 1{y > x} per threshold node, one half on the node itself."""
    nodes = np.asarray(nodes)
    data = (np.arange(n_y) > nodes[..., None]).astype(float)
    np.put_along_axis(data, nodes[..., None], 0.5, axis=-1)
    return data


def solve_u(
    spec: DriftSpec,
    x_threshold: float,
    grid: Grid1D,
    epsilon: float,
) -> HeatField:
    """Solve the backward equation on the grid with step data at x_threshold.

    The threshold is snapped to the nearest grid node (the node itself takes
    the value 0.5).  Raises GridExtentError when the grid violates the domain
    rule, PdeError when the drift is not finite on the grid or the returned
    field would violate the maximum principle or monotonicity contracts.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    half = required_half_width(spec, x_threshold, epsilon, grid.t_start)
    if grid.y_max - x_threshold < half - 1e-9 or x_threshold - grid.y_min < half - 1e-9:
        raise GridExtentError(
            f"grid [{grid.y_min}, {grid.y_max}] too small around x={x_threshold}: "
            f"need half-width {half:.3g}"
        )
    j = grid.nearest_node(x_threshold)
    x_snapped = grid.y_min + j * grid.h_y

    levels = np.empty((grid.n_t, grid.n_y))
    _cn_march(spec, _step_data(grid.n_y, j), grid, epsilon, 1.0, backward=True, out=levels[::-1])

    y_int = grid.y_nodes()[1:-1]
    b_max = max(
        float(np.max(np.abs(np.asarray(spec.b(y_int, tv), dtype=float))))
        for tv in (grid.t_start, 0.5 * (grid.t_start + grid.T), grid.T)
    )
    diagnostics = {
        "peclet": b_max * grid.h_y / epsilon,
        "diffusion_number": epsilon * grid.h_t / (2.0 * grid.h_y * grid.h_y),
        "startup_steps": N_STARTUP,
        "threshold_node": j,
        "x_requested": x_threshold,
    }

    worst = _field_violations(levels)
    if worst["max_principle"] > MAXPRINCIPLE_TOL or worst["monotonicity"] > MONOTONE_TOL:
        raise PdeError(f"scheme broke field contracts: {worst}")
    diagnostics.update(worst)
    return HeatField(grid=grid, epsilon=epsilon, x_threshold=x_snapped, u=levels, diagnostics=diagnostics)


def _field_violations(levels: np.ndarray) -> dict:
    # min and max carry any NaN or inf, and the monotonicity scan goes row
    # by row: a whole-lattice mask or difference would double peak memory
    lo, hi = float(levels.min()), float(levels.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return {"max_principle": math.inf, "monotonicity": math.inf}
    under = max(0.0, -lo)
    over = max(0.0, hi - 1.0)
    mono = max(0.0, -min(float(np.diff(row).min()) for row in levels))
    return {"max_principle": max(under, over), "monotonicity": mono}


def exact_gaussian_u(stats: LinearDriftStats, x: float, y, epsilon: float):
    """Closed-form u for a linear drift: the state at T is Gaussian(Lambda y, eps sigma2)."""
    z = (stats.Lambda * np.asarray(y, dtype=float) - x) / math.sqrt(epsilon * stats.sigma2)
    return ndtr(z)


def _cost_rows(
    heat: HeatField, rows: int | slice | list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, dq_dy, underflow mask) of the time levels heat.u[rows].

    The one Hopf-Cole kernel: hopf_cole passes every level, the exporter,
    fan_cost_rows and the probe-value checks only the levels they read.
    One level gives 1-D arrays; the y-differences never cross levels, so
    any block gives the full transform's bits at the same (k, i).
    """
    u = heat.u[rows]
    mask = u < U_FLOOR
    with np.errstate(divide="ignore"):
        q = np.where(mask, np.inf, -heat.epsilon * np.log(np.maximum(u, U_FLOOR)))

    h = heat.grid.h_y
    dq_dy = np.empty_like(q)
    with np.errstate(invalid="ignore"):  # inf - inf across masked nodes
        dq_dy[..., 1:-1] = (q[..., 2:] - q[..., :-2]) / (2.0 * h)
        # one-sided second-order differences at the two boundary nodes
        dq_dy[..., 0] = (-3.0 * q[..., 0] + 4.0 * q[..., 1] - q[..., 2]) / (2.0 * h)
        dq_dy[..., -1] = (3.0 * q[..., -1] - 4.0 * q[..., -2] + q[..., -3]) / (2.0 * h)
    return q, dq_dy, mask


def hopf_cole(heat: HeatField) -> CostField:
    """Cost transform q = -eps log u, with centered y-derivatives.

    Nodes where u underflows are flagged in overflow_mask and carry q = +inf;
    they are never clamped.  dq_dx is NaN here; fan_cost_rows gives it.
    """
    q, dq_dy, mask = _cost_rows(heat, slice(None))
    dq_dx = np.full_like(q, np.nan)
    return CostField(
        grid=heat.grid,
        epsilon=heat.epsilon,
        x_threshold=heat.x_threshold,
        q=q,
        dq_dy=dq_dy,
        dq_dx=dq_dx,
        overflow_mask=mask,
        diagnostics=dict(heat.diagnostics),
    )


def fan_cost_rows(
    spec: DriftSpec,
    x: float,
    grid: Grid1D,
    epsilon: float,
    dx: float,
    rows: int | slice | list[int],
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(dx, q, dq_dy, dq_dx) at the time levels rows of thresholds x - dx, x, x + dx.

    dx is snapped to a positive multiple of the grid spacing so every
    threshold sits exactly on a node.  Each member is solved and read at
    rows before the next is solved, so one lattice is alive at a time.  q
    stacks the three members (axis 0: x - dx, x, x + dx); dq_dy is the
    centre's and dq_dx the centred difference of q across the fan (error
    O(dx^2)), NaN where a neighbour underflowed.
    """
    dx = max(1, int(round(dx / grid.h_y))) * grid.h_y
    (q_lo, _, lo_mask), (q_c, dq_dy, _), (q_hi, _, hi_mask) = (
        _cost_rows(solve_u(spec, x + j * dx, grid, epsilon), rows) for j in (-1, 0, 1)
    )
    with np.errstate(invalid="ignore"):  # inf - inf across masked nodes
        dq_dx = (q_hi - q_lo) / (2.0 * dx)
    dq_dx = np.where(lo_mask | hi_mask, np.nan, dq_dx)
    return dx, np.stack([q_lo, q_c, q_hi]), dq_dy, dq_dx


def _fan_grid(spec: DriftSpec, x: float, epsilon: float, n_y: int, n_t: int,
              t_start: float = 0.0, dx: float = 0.02) -> Grid1D:
    """default_grid widened by the fan margin of thresholds x - dx, x, x + dx."""
    return default_grid(
        spec, x, epsilon, t_start=t_start, n_y=n_y, n_t=n_t,
        extra=fan_margin(spec, dx, 3, t_start=t_start) + 2.0 * dx,
    )


def green_function(
    spec: DriftSpec,
    grid: Grid1D,
    epsilon: float,
    t: float,
    T: float,
    thresholds: np.ndarray | None = None,
    max_solves: int = 201,
) -> GreenFunction:
    """Transition density g(y, x') = -du/dx' from solves at a fan of thresholds.

    Thresholds default to a node sub-lattice spanning the grid (at most
    max_solves columns); a caller interested in a window passes explicit
    threshold values, which are snapped to nodes.  Rows integrate to ~1
    (trapezoid over the threshold columns) for y away from the boundary.
    """
    if not (math.isclose(t, grid.t_start) and math.isclose(T, grid.T)):
        raise ValueError("green_function samples the (grid.t_start, grid.T) pair")
    if thresholds is None:
        stride = max(1, (grid.n_y - 1) // (max_solves - 1))
        nodes = np.arange(0, grid.n_y, stride)
    else:
        nodes = np.array([grid.nearest_node(float(x)) for x in thresholds])
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("thresholds must snap to strictly increasing nodes")
    thresholds = grid.y_nodes()[nodes]

    # one march carries every threshold column; no domain-rule enforcement
    # per column: the fan deliberately spans the whole grid, and edge columns
    # only feed boundary rows that the row-sum contract already excludes
    profiles = _cn_march(spec, _step_data(grid.n_y, nodes), grid, epsilon, 1.0, backward=True)

    g = np.full((grid.n_y, thresholds.size), np.nan)
    g[:, 1:-1] = -(profiles[2:] - profiles[:-2]).T / (thresholds[2:] - thresholds[:-2])
    g[:, 0] = -(profiles[1] - profiles[0]) / (thresholds[1] - thresholds[0])
    g[:, -1] = -(profiles[-1] - profiles[-2]) / (thresholds[-1] - thresholds[-2])
    return GreenFunction(grid=grid, epsilon=epsilon, t=t, T=T, x_nodes=thresholds, g=g)


def green_row_sums(green: GreenFunction) -> np.ndarray:
    """Trapezoid integral of each row over the threshold columns."""
    return _trapz(green.g, green.x_nodes, axis=1)


def audit_domain(
    spec: DriftSpec,
    x: float,
    epsilon: float,
    grid: Grid1D,
    probe_y: np.ndarray,
) -> float:
    """Re-solve on a domain widened by half; max |u1 - u2| at probe nodes, t_start level.

    The domain rule is our own policy (the underlying theory gives no usable
    constant for the threshold-tail decay), so it is audited rather than
    trusted: values above 1e-6 mean the grid rule failed.
    """
    base = solve_u(spec, x, grid, epsilon)
    n_wide = int(round((grid.n_y - 1) * 1.5)) + 1
    wide_grid = default_grid(
        spec, x, epsilon, t_start=grid.t_start, n_y=n_wide, n_t=grid.n_t, widen=1.5
    )
    wide = solve_u(spec, x, wide_grid, epsilon)
    drift = 0.0
    for yp in probe_y:
        i0 = grid.nearest_node(float(yp))
        i1 = wide_grid.nearest_node(float(yp))
        drift = max(drift, abs(float(base.u[0, i0]) - float(wide.u[0, i1])))
    return drift


def costfield_rows(heat: HeatField, t_stride: int = 1, y_stride: int = 1):
    """(t, y, u, q, dq_dy, dq_dx) rows of the exported sub-lattice, as lists of floats.

    Only the exported time levels are transformed, one at a time, so memory
    stays at a few rows; dq_dx is NaN, as in hopf_cole: one solve has no
    threshold derivative (see fan_cost_rows).
    """
    grid = heat.grid
    t_nodes = grid.t_nodes()
    block = np.empty((len(range(0, grid.n_y, y_stride)), 6))
    block[:, 1] = grid.y_nodes()[::y_stride]
    block[:, 5] = np.nan
    for k in range(0, grid.n_t, t_stride):
        q, dq_dy, _ = _cost_rows(heat, k)
        block[:, 0] = t_nodes[k]
        block[:, 2] = heat.u[k, ::y_stride]
        block[:, 3] = q[::y_stride]
        block[:, 4] = dq_dy[::y_stride]
        yield from block.tolist()
