"""Backward diffusion solver and the cost field it induces.

The central object is u(y, t) = P(state at horizon T exceeds a threshold x,
given state y at time t), obtained by marching the backward equation

    u_t + b(y, t) u_y + (eps/2) u_yy = 0,   u(y, T) = 1{y > x}

in reverse time.  The exponential transform q = -eps log u is the tail
cost; its y-derivative feeds the controller, its threshold-derivative
gives the transition density (Green function).  solve_u keeps only the
time levels its caller reads, and the cost transform, _cost_rows, runs on
them: the controller keeps every level and transforms them in place in
blocks, fan_cost_rows differences a fan x - dx, x, x + dx at the levels a
check reads.

Numerical scheme: full-operator Crank-Nicolson (central differences for
both diffusion and drift) with a backward-Euler startup phase that damps
the ringing the step terminal data would otherwise excite.  One march,
_cn_march, serves the threshold solve and its fans, the Green fan (one
column per threshold) and both bridge kernels; the upper wall value is its
argument.  The implicit matrix I - r L is factored once per march when the
drift declares itself time-homogeneous, and at every time level otherwise;
the startup half-steps and the CN steps share the factors.  Where its
off-diagonals are negative (mesh Peclet numbers below 1), a diagonal
scaling S makes S^-1 (I - r L) S symmetric positive definite, and every
solve is one LAPACK pttrs on its L D L^T factors (pttrf), whose two sweeps
hold no division in their row recurrences, between a product by 1/s and
one by s.  Otherwise, or where s would span more than SCALE_FLOOR allows,
LU factors with row interchanges (gttrf) solve it (gttrs).  One column and
many take the same path, so a fan member gets the bits of its lone
march.  Each step is solved in delta form (Beam and Warming): the march
carries w = r L u, the explicit half of the CN step, from level to level,
so a CN step is one solve of (I - r L)(v - u) = 2w for the increment and
four vector passes, and a time-homogeneous march never forms a stencil
product.  On a plateau of u the increment vanishes, so no rounding piles
up there.  Every solved level is checked to be finite, so a non-finite
datum or an overflow raises PdeError at the time level where it
appears.  At the mesh Peclet numbers of every shipped configuration
(|b| h_y / eps <= 1) each step is a monotone map, so the discrete solution
inherits the maximum principle and monotonicity in y to roundoff; solve_u
folds every level it makes into running rows of the lowest value, the
highest value and the steepest downward step to check both.  The mesh
Peclet and diffusion numbers are recorded, not enforced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tables
from ._scipy import dgttrf, dgttrs, dpttrf, dpttrs
from .drifts import DriftSpec, _trapz

U_FLOOR = 1e-300  # below this, q = -eps log u is flagged, never clamped
SCALE_FLOOR = 1e-200  # smallest symmetrising scale of I - r L, the largest being 1

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
    """u at the kept levels: u[..., i, :] is levels[i] (no i axis for an int); fan members first."""

    grid: Grid1D
    epsilon: float
    u: np.ndarray
    levels: np.ndarray | int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GreenFunction:
    """Transition density g(y_i, x_j) from grid.t_start to grid.T, columns on x_nodes."""

    grid: Grid1D
    epsilon: float
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
              backward: bool, level: Callable | None = None) -> np.ndarray:
    """Crank-Nicolson march of data u (..., n_y) across the grid's time levels.

    backward runs the backward equation from grid.T down to grid.t_start;
    otherwise the forward equation in conservation form (the flux b*g is
    differenced, so b sits on the neighbor nodes) runs upward.  The first
    N_STARTUP steps are pairs of backward-Euler half-steps (Rannacher
    startup) that damp the ringing singular data would excite.  Dirichlet
    walls: 0 below, wall above.  Returns the last level; level(i, v) gets
    each solved level v (i on grid.t_nodes()), in one of the march's two
    alternating arrays, so it is valid only during the call.

    Every step is solved in delta form for the increment d = v - u of the
    interior, with w = r L u carried from level to level.  w is formed once,
    from the data with the walls in place of its end values, as
    r upper (u_+ - u) - r lower (u - u_-), plus the flux diagonal of the
    forward equation.  A half-step solves (I - r L) d = w and sets w = d;
    a CN step solves (I - r L) d = 2w and sets w = d - w.  When the drift
    moved since w was formed (a time-varying drift), r (L_new - L_old) u is
    added to the right-hand side first, from the change of r b / 2h alone.
    Where r lower and r upper are positive, S^-1 (I - r L) S is symmetric
    for the diagonal S with s_{i+1} / s_i = sqrt(r lower_{i+1} / r upper_i),
    scaled to max s = 1, so 1/s never underflows a right-hand side.  When
    that matrix is positive definite (dpttrf) and min s >= SCALE_FLOOR, a
    solve is the right-hand side times 1/s (2/s for a CN step, 2w times 1/s
    bit for bit), one dpttrs and a product by s.  Otherwise dgttrf's
    factors solve it (dgttrs).  Every increment is checked to be finite, so
    an overflow raises PdeError at the level where it appears.
    """
    y, h, dt = grid.y_nodes(), grid.h_y, grid.h_t
    r = 0.5 * dt  # the startup half-steps and the CN steps share I - r L
    ra, rh = r * (0.5 * epsilon / (h * h)), r / (2.0 * h)  # r alpha and r / 2h
    m = grid.n_y - 2
    diag = np.full(m, 1.0 + 2.0 * ra)

    def build(tv: float):
        b = np.asarray(spec.b(y[1:-1] if backward else y, tv), dtype=float)
        if not np.isfinite(b).all():
            raise PdeError(f"drift {spec.name} is not finite on the grid at t={tv:g}")
        rb = rh * b
        if backward:
            rl, ru, flux = ra - rb, ra + rb, 0.0
        else:
            rl, ru, flux = ra + rb[:-2], ra - rb[2:], rb[:-2] - rb[2:]
        s = np.ones(m)
        with np.errstate(all="ignore"):  # a ratio out of range fails the test below
            root = np.sqrt(np.divide(rl[1:], ru[:-1], out=s[1:]), out=s[1:])  # s_{i+1} / s_i
            # sqrt(r lower_{i+1} r upper_i) where both are positive, else NaN, 0 or negative
            off = ru[:-1] * root
            np.multiply.accumulate(s, out=s)
        top = s.max()
        if off.min() > 0.0 and s.min() >= SCALE_FLOOR * top:
            s /= top
            d, e, info = dpttrf(diag, np.negative(off, out=off), 0, 1)  # overwrite_d, overwrite_e
            if info == 0:
                down = 1.0 / s
                return rb, (ru, rl, flux), ((down, down + down), s, functools.partial(dpttrs, d, e))
        # by position: overwrite_dl, overwrite_d, overwrite_du
        *factors, info = dgttrf(-rl[1:], diag, -ru[:-1], 1, 0, 1)
        if info != 0:
            raise PdeError(f"implicit matrix of drift {spec.name} is singular at t={tv:g}")
        return rb, (ru, rl, flux), ((1.0, 2.0), None, functools.partial(dgttrs, *factors))

    # r b / 2h, r times the stencil's (upper, lower, flux diagonal) of the
    # interior rows and the solve of I - r L ((1/s, 2/s), or (1, 2) on the
    # general path; s or None; LAPACK's solve on the factors), kept for the
    # last time level asked for; a time-homogeneous drift is built once, at
    # t_start
    stencil = functools.lru_cache(maxsize=1)(build)

    def product(u_full: np.ndarray, ru, rl, flux) -> np.ndarray:
        # r L u of the interior in difference form, the walls in place of u's end values
        d = np.diff(u_full, axis=-1)
        d[..., 0], d[..., -1] = u_full[..., 1], wall - u_full[..., -2]
        out = ru * d[..., 1:]
        out -= rl * d[..., :-1]
        out += flux * u_full[..., 1:-1]
        return out

    t = grid.t_nodes()[::-1] if backward else grid.t_nodes()
    half = -0.5 * dt if backward else 0.5 * dt
    if not np.isfinite(u).all():
        raise PdeError(f"data of the march of drift {spec.name} is not finite at t={t[0]:g}")
    held, coef, _ = stencil(grid.t_start if spec.time_homogeneous else t[0] + half)
    w = product(u, *coef)  # held: the r b / 2h w is r L u of
    zero = np.zeros_like(w)

    def solve(rhs: np.ndarray, src: np.ndarray, k: int, tv: float,
              u_full: np.ndarray) -> np.ndarray:
        # the increment d of the step from level u_full to tv, (I - r L) d = k src
        # (k = 1 or 2), solved into rhs, which may be src
        nonlocal held
        rb, _, (down, up, lapack) = stencil(grid.t_start if spec.time_homogeneous else tv)
        np.multiply(src, down[k - 1], out=rhs)
        if rb is not held:
            # r (L_new - L_old) u_full from the change of r b / 2h: u_full is
            # one of the march's buffers, whose end values are the walls
            moved = rb - held
            if backward:
                moved = moved * (u_full[..., 2:] - u_full[..., :-2])
            else:
                moved = moved[:-2] * u_full[..., :-2] - moved[2:] * u_full[..., 2:]
            moved *= down[0]
            rhs += moved
            held = rb
        lapack(rhs.reshape(-1, m).T, overwrite_b=1)  # the (m, k) column-major view, in place
        if up is not None:
            rhs *= up
        # every product with zero is a signed zero unless its factor is not finite
        if np.vdot(rhs, zero) != 0.0:
            raise PdeError(f"march of drift {spec.name} left the finite range at t={tv:g}")
        return rhs

    rhs = np.empty_like(w)
    buffers = (np.empty_like(u), np.empty_like(u))
    for v in buffers:
        v[..., 0], v[..., -1] = 0.0, wall
    inner, u_in = tuple(v[..., 1:-1] for v in buffers), u[..., 1:-1]
    for step in range(1, grid.n_t):
        v, v_in = buffers[step % 2], inner[step % 2]
        if step <= N_STARTUP:
            np.add(u_in, solve(w, w, 1, t[step - 1] + half, u), out=v_in)
            v_in += solve(w, w, 1, t[step], v)
        else:
            solve(rhs, w, 2, t[step], u)
            np.add(u_in, rhs, out=v_in)
            np.subtract(rhs, w, out=w)
        u, u_in = v, v_in
        if level is not None:
            level(grid.n_t - 1 - step if backward else step, u)
    return u


def _step_data(n_y: int, nodes: np.ndarray) -> np.ndarray:
    """Indicator data 1{y > x} per threshold node, one half on the node itself."""
    data = (np.arange(n_y) > nodes[..., None]).astype(float)
    np.put_along_axis(data, nodes[..., None], 0.5, axis=-1)
    return data


def solve_u(
    spec: DriftSpec,
    x_threshold: float | Sequence[float],
    grid: Grid1D,
    epsilon: float,
    rows: int | slice | list[int] = slice(None),
) -> HeatField:
    """Solve the backward equation on the grid with step data at x_threshold.

    Each threshold is snapped to the nearest grid node (the node itself takes
    the value 0.5) and only the time levels rows are kept, each copied into
    its row of u as the march makes it; keeping every level (the default)
    returns that lattice itself, with no further copy.  A sequence of
    thresholds is a fan, one column each of one march, on u's leading axis.
    Raises GridExtentError when the grid violates the domain rule around any
    member, PdeError when the drift is not finite on the grid or any level of
    any member, kept or not, violates the maximum principle or monotonicity
    contracts.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    for x in np.atleast_1d(x_threshold):
        half = required_half_width(spec, x, epsilon, grid.t_start)
        if grid.y_max - x < half - 1e-9 or x - grid.y_min < half - 1e-9:
            raise GridExtentError(
                f"grid [{grid.y_min}, {grid.y_max}] too small around x={x}: "
                f"need half-width {half:.3g}"
            )
    nodes = np.vectorize(grid.nearest_node, otypes=[int])(x_threshold)

    levels = np.arange(grid.n_t)[rows]
    is_kept = np.zeros(grid.n_t, dtype=bool)
    is_kept[levels] = True
    slot = np.cumsum(is_kept) - 1  # kept level -> its row of held, the kept levels in order
    held = np.empty((*nodes.shape, slot[-1] + 1, grid.n_y))
    # running rows of the contracts, seeded with their bounds (0 <= u <= 1,
    # no downward step) so that the reductions below need no clamp
    lo, hi = np.zeros((*nodes.shape, grid.n_y)), np.ones((*nodes.shape, grid.n_y))
    drop = np.zeros((*nodes.shape, grid.n_y - 1))
    step = np.empty_like(drop)

    def fold(i: int, u: np.ndarray) -> None:
        np.minimum(lo, u, out=lo)
        np.maximum(hi, u, out=hi)
        np.minimum(drop, np.subtract(u[..., 1:], u[..., :-1], out=step), out=drop)
        if is_kept[i]:
            held[..., slot[i], :] = u

    data = _step_data(grid.n_y, nodes)
    fold(grid.n_t - 1, data)
    _cn_march(spec, data, grid, epsilon, 1.0, backward=True, level=fold)
    # min and max are exact: the whole lattice's bits; a NaN fails the gate
    worst = {"max_principle": max(0.0 - float(lo.min()), float(hi.max()) - 1.0),
             "monotonicity": 0.0 - float(drop.min())}
    if not (worst["max_principle"] <= MAXPRINCIPLE_TOL and worst["monotonicity"] <= MONOTONE_TOL):
        raise PdeError(f"scheme broke field contracts: {worst}")
    pick = slot[levels]  # a caller's repeats and order
    u = held if np.array_equal(pick, np.arange(held.shape[-2])) else held[..., pick, :]

    y_int = grid.y_nodes()[1:-1]
    b_max = max(
        float(np.max(np.abs(np.asarray(spec.b(y_int, tv), dtype=float))))
        for tv in (grid.t_start, 0.5 * (grid.t_start + grid.T), grid.T)
    )
    diagnostics = {
        "peclet": b_max * grid.h_y / epsilon,
        "diffusion_number": epsilon * grid.h_t / (2.0 * grid.h_y * grid.h_y),
        "startup_steps": N_STARTUP,
        "threshold_node": nodes.tolist(),
        "x_requested": x_threshold,
        **worst,
    }
    return HeatField(grid=grid, epsilon=epsilon, u=u, levels=levels, diagnostics=diagnostics)


def _cost_rows(u: np.ndarray, epsilon: float, h_y: float) -> tuple[np.ndarray, ...]:
    """(q, dq_dy, underflow mask) of the levels u (..., n_y) on y nodes h_y apart, shaped as u.

    The one Hopf-Cole kernel, for the controller build (a block of levels
    at a time) and the exporter and checks (the levels they read).  The
    y-differences never cross levels, so any set of levels gives the full
    transform's bits.  q and dq_dy are formed in place, so the transform
    holds two arrays shaped as u beside its mask.
    """
    mask = u < U_FLOOR
    q = np.maximum(u, U_FLOOR, order="C")
    np.log(q, out=q)
    q *= -epsilon
    np.copyto(q, np.inf, where=mask)

    dq_dy = np.empty_like(q)
    # q and dq_dy are fresh C-order arrays whatever u's layout (a fan's
    # picked levels are not): their flat views difference all levels in one
    # contiguous pass (no strided buffering); the entries that straddle two
    # levels are the boundary nodes, overwritten below
    flat_q, flat_dq = q.reshape(-1), dq_dy.reshape(-1)
    with np.errstate(invalid="ignore"):  # inf - inf across masked nodes
        inner = np.subtract(flat_q[2:], flat_q[:-2], out=flat_dq[1:-1])
        inner /= 2.0 * h_y
        # one-sided second-order differences at the two boundary nodes
        dq_dy[..., 0] = (-3.0 * q[..., 0] + 4.0 * q[..., 1] - q[..., 2]) / (2.0 * h_y)
        dq_dy[..., -1] = (3.0 * q[..., -1] - 4.0 * q[..., -2] + q[..., -3]) / (2.0 * h_y)
    return q, dq_dy, mask


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
    threshold sits exactly on a node.  The three members are one fan solve
    that keeps only rows.  q stacks them (axis 0: x - dx, x, x + dx); dq_dy
    is the centre's and dq_dx the centred difference of q across the fan
    (error O(dx^2)), NaN where a neighbour underflowed.
    """
    dx = max(1, int(round(dx / grid.h_y))) * grid.h_y
    q, dq_dy, mask = _cost_rows(solve_u(spec, [x - dx, x, x + dx], grid, epsilon, rows).u,
                                epsilon, grid.h_y)
    with np.errstate(invalid="ignore"):  # inf - inf across masked nodes
        dq_dx = (q[2] - q[0]) / (2.0 * dx)
    dq_dx = np.where(mask[0] | mask[2], np.nan, dq_dx)
    return dx, q, dq_dy[1], dq_dx


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
    thresholds: np.ndarray,
) -> GreenFunction:
    """Transition density g(y, x') = -du/dx' from grid.t_start to grid.T.

    The columns sit on the thresholds, two or more values snapped to
    strictly increasing nodes (ValueError otherwise); a spanning fan passes
    a node sub-lattice such as grid.y_nodes()[::stride].  Rows integrate to
    ~1 (trapezoid over the threshold columns) for y away from the boundary.
    """
    nodes = np.array([grid.nearest_node(float(x)) for x in thresholds], dtype=int)
    if nodes.size < 2 or np.any(np.diff(nodes) <= 0):
        raise ValueError(f"need at least two thresholds on strictly increasing nodes, got "
                         f"{nodes.size} on nodes {nodes.tolist()}")
    thresholds = grid.y_nodes()[nodes]

    # one march carries every threshold column; no domain-rule enforcement
    # per column: the fan deliberately spans the whole grid, and edge columns
    # only feed boundary rows that the row-sum contract already excludes
    profiles = _cn_march(spec, _step_data(grid.n_y, nodes), grid, epsilon, 1.0, backward=True)

    g = np.full((grid.n_y, thresholds.size), np.nan)
    g[:, 1:-1] = -(profiles[2:] - profiles[:-2]).T / (thresholds[2:] - thresholds[:-2])
    g[:, 0] = -(profiles[1] - profiles[0]) / (thresholds[1] - thresholds[0])
    g[:, -1] = -(profiles[-1] - profiles[-2]) / (thresholds[-1] - thresholds[-2])
    return GreenFunction(grid=grid, epsilon=epsilon, x_nodes=thresholds, g=g)


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
    base = solve_u(spec, x, grid, epsilon, rows=0)
    n_wide = int(round((grid.n_y - 1) * 1.5)) + 1
    wide_grid = default_grid(
        spec, x, epsilon, t_start=grid.t_start, n_y=n_wide, n_t=grid.n_t, widen=1.5
    )
    wide = solve_u(spec, x, wide_grid, epsilon, rows=0)
    drift = 0.0
    for yp in probe_y:
        i0 = grid.nearest_node(float(yp))
        i1 = wide_grid.nearest_node(float(yp))
        drift = max(drift, abs(float(base.u[i0]) - float(wide.u[i1])))
    return drift


def costfield_blocks(heat: HeatField, y_stride: int):
    """One tables.Block (t, y, u, q, dq_dy, dq_dx) per level heat holds, all sharing one y list.

    The levels are transformed one at a time, so memory stays at a few rows
    beyond them; dq_dx is NaN: one solve has no threshold derivative (see
    fan_cost_rows).  A fan's field has no one cost table and raises
    ValueError.
    """
    if heat.u.ndim != np.ndim(heat.levels) + 1:
        raise ValueError(f"costfield_blocks exports one threshold, got a fan: u of shape "
                         f"{heat.u.shape} for levels of shape {np.shape(heat.levels)}")
    t_nodes, y = heat.grid.t_nodes(), heat.grid.y_nodes()[::y_stride].tolist()

    def blocks():
        for k, u in zip(np.atleast_1d(heat.levels), heat.u.reshape(-1, heat.grid.n_y)):
            q, dq_dy, _ = _cost_rows(u, heat.epsilon, heat.grid.h_y)
            yield tables.Block((float(t_nodes[k]), y, u[::y_stride].tolist(),
                                q[::y_stride].tolist(), dq_dy[::y_stride].tolist(), math.nan))

    return blocks()
