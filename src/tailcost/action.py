"""Zero-noise variational cost: shooting and direct minimization.

The cost q(x, y, t) is the minimum of one half the time integral of
(y'(s) - b(y(s), s))^2 over paths from (t, y) whose terminal value is at
least the threshold x.  Above the backward characteristic through
(T, x) the minimum is zero (the free flow already exceeds x); below it
the terminal constraint binds, the minimizer satisfies the momentum
system

    y' = b(y, s) - p,    p' = -b_y(y, s) p,    y(t) = y,  y(T) = x,

and everything else falls out of p: the start slope gives the optimal
control, p(t) and -p(T) are the two first derivatives, and a linear
variational system along the path gives the second derivatives.  Along
the minimizer y' - b = -p, so the cost itself is one half the integral
of p^2, taken by Simpson's rule on the stored momenta: no derivative of
the path is needed, and 500 RK4 steps give q to about 1e-12.  The same
rule checks the conserved p e^{int b_y}.  The momentum system, the second
variation and the characteristic (its p = 0 lane) share one RK4 kernel,
and each marches every lane of a batch at once.

The start momentum is found by Newton sweeps on the terminal value.  A
lane stops at the first sweep whose Newton step falls below
NEWTON_STEP_TOL * (1 + |m|) and keeps the momentum that sweep marched,
so its error stays within about that last step; the sweep records every
lane's nodes, and a settled lane's path is the one it recorded.  Only the
lanes with no such path (free, flow or unsettled) are marched once more.

Two independent routes to the same number are kept deliberately: the
shooting solver above, and a direct discrete minimization of the action
over interior path nodes.  They share no discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import ArrayLike

from ._scipy import dpttrf, dpttrs
from .drifts import ConfigError, DriftSpec, _rk4, characteristic_F

REGION_TOL = 1e-9  # scaled by (1 + |x|) when classifying y against F(x, t)
TERMINAL_MISMATCH_TOL = 1e-9
NEWTON_STEP_TOL = 1e-13  # relative to 1 + |m|
NEWTON_MAX_SWEEPS = 64
N_STEPS = 500  # RK4 steps of every shooting sweep: even, for Simpson's rule
DIRECT_NODES = 256  # interior path nodes of the direct minimizer
DIRECT_GRAD_TOL = 1e-8  # gradient max-norm at which the direct minimizer stops


class ShootingError(RuntimeError):
    """Momentum search failed to bracket or meet the terminal constraint."""


class DegenerateVariationError(RuntimeError):
    """Variational solution hit a conjugate point; second derivatives blow up."""


class ConvergenceError(RuntimeError):
    """Direct minimizer stopped before reaching the gradient tolerance."""


@dataclass(frozen=True)
class Path:
    times: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class ClassicalSolution:
    """Minimizing path with cost, control, and derivative values at (x, y, t)."""

    path: Path
    momentum_p: np.ndarray
    q_value: float
    lambda_star: float
    dq_dy: float
    dq_dx: float
    dq_dt: float
    x_threshold: float
    t_start: float
    d2q_dy2: float | None = None
    d2q_dxdy: float | None = None
    d2q_dx2: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def binding(self) -> bool:
        return self.q_value > 0.0


def _simpson(f: np.ndarray, h: float) -> float:
    """Composite Simpson's rule on an odd number of samples spaced h apart."""
    if f.size % 2 == 0 or f.size < 3:
        raise ValueError(f"Simpson's rule needs an odd number of samples, got {f.size}")
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2])))


def shoot_terminal(
    spec: DriftSpec,
    y0: float | np.ndarray,
    t: float,
    p0: np.ndarray,
    n_steps: int = 500,
    nodes: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Terminal value y(T) of the momentum system for a batch of p(t) values.

    y0 broadcasts against p0, so every lane may start from its own state.
    When nodes = (ys, ps) is given, two arrays of shape
    (n_steps + 1, *lanes), the state of every lane at every node is
    written into them.  Large trial momenta can blow a lane up; it comes
    back NaN, which callers treat as overshoot.
    """
    p = np.asarray(p0, dtype=float)
    b, b_y = spec.b, spec.db_dy

    def rhs(state, s, slope):
        (yv, pv), (ky, kp) = state, slope
        np.subtract(b(yv, s), pv, out=ky)
        np.negative(b_y(yv, s), out=kp)
        kp *= pv

    z0 = (np.broadcast_to(np.asarray(y0, dtype=float), p.shape), p)
    return _rk4(rhs, z0, np.linspace(t, spec.horizon_T, n_steps + 1), nodes)[0]


def _momenta(
    spec: DriftSpec, xs: np.ndarray, ys: np.ndarray, t: float, n_steps: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray] | None]]:
    """Search m = -p(t) > 0 with y(T; m) = x for every lane at once.

    A geometric ladder of candidates (m = 0, then base * 2^j) brackets
    each root in two batched sweeps: every lane sweeps the first two
    rungs, and only the lanes that neither rung carries to x sweep the
    rest.  Safeguarded Newton steps follow, with the slope dy(T)/dm
    taken from a twin lane at m + delta in the same sweep (so no
    curvature data is needed); a step that leaves the bracket or is not
    finite falls back to the bracket midpoint.

    A lane settles in the Newton sweep whose step falls below
    NEWTON_STEP_TOL * (1 + |m|).  It keeps the m that sweep marched, not
    m plus that last step, so |m - m*| stays within about the last step,
    and that sweep's nodes are its path.  Returns m and, per lane, the
    (y, p) node arrays of the sweep that settled it; a flow lane (m = 0)
    and a lane still moving after NEWTON_MAX_SWEEPS get None.
    """

    def overshoot(
        y0: np.ndarray, x: np.ndarray, m: np.ndarray, nodes: tuple | None
    ) -> np.ndarray:
        term = shoot_terminal(spec, y0[:, None], t, -m, n_steps, nodes)
        # an upward blow-up exceeds every threshold
        return np.where(np.isnan(term), np.inf, term - x[:, None])

    base = np.maximum(1e-3, 2.0 * (xs - ys) / (spec.horizon_T - t))
    ladder = np.concatenate(
        (np.zeros((xs.size, 1)), base[:, None] * 2.0 ** np.arange(22)), axis=1
    )
    # a rung left unswept reads as a miss; it lies above a lane's first
    # reaching rung, so the bracket below reads swept rungs only
    g = np.full_like(ladder, -np.inf)
    g[:, :2] = overshoot(ys, xs, ladder[:, :2], None)
    short = np.flatnonzero((g[:, :2] < 0.0).all(axis=1))
    if short.size:
        g[short, 2:] = overshoot(ys[short], xs[short], ladder[short, 2:], None)
    reached = g >= 0.0
    missed = np.flatnonzero(~reached.any(axis=1))
    if missed.size:
        i = missed[0]
        raise ShootingError(f"cannot bracket the momentum at (x={xs[i]}, y={ys[i]}, t={t})")
    k = np.argmax(reached, axis=1)
    # the uncontrolled flow already reaches x: caller classified wrongly
    flow = k == 0
    rows = np.arange(xs.size)
    # a flow lane reads rung 0 alone (lo = hi = 0) and keeps m = 0
    below = np.maximum(k - 1, 0)
    lo, hi = ladder[rows, below], ladder[rows, k]
    g_lo, g_hi = g[rows, below], g[rows, k]
    with np.errstate(invalid="ignore", divide="ignore"):
        m = lo + (hi - lo) * (-g_lo) / (g_hi - g_lo)
    m = np.where(np.isfinite(m) & (m > lo) & (m < hi), m, 0.5 * (lo + hi))
    m[flow] = 0.0

    paths: list[tuple[np.ndarray, np.ndarray] | None] = [None] * xs.size
    active = np.flatnonzero(~flow)
    # one node buffer for the batch, y and p of each lane and its twin,
    # sized by the first Newton sweep; later sweeps record into its front
    per_lane = 4 * (n_steps + 1)
    record = np.empty(per_lane * active.size)
    for _ in range(NEWTON_MAX_SWEEPS):
        if active.size == 0:
            break
        ma = m[active]
        delta = 1e-7 * np.maximum(ma, 1e-3)
        node_y, node_p = record[: per_lane * active.size].reshape(2, n_steps + 1, active.size, 2)
        g2 = overshoot(ys[active], xs[active], np.stack((ma, ma + delta), axis=1),
                       (node_y, node_p))
        g0 = g2[:, 0]
        above = g0 >= 0.0
        hi[active] = np.where(above, ma, hi[active])
        lo[active] = np.where(above, lo[active], ma)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (g2[:, 1] - g0) / delta
            m_new = ma - g0 / slope
        safe = (
            np.isfinite(slope) & (slope > 0.0)
            & (m_new >= lo[active]) & (m_new <= hi[active])
        )
        m_new = np.where(safe, m_new, 0.5 * (lo[active] + hi[active]))
        moving = np.abs(m_new - ma) > NEWTON_STEP_TOL * (1.0 + np.abs(ma))
        m[active[moving]] = m_new[moving]
        for j in np.flatnonzero(~moving):
            paths[active[j]] = (node_y[:, j, 0].copy(), node_p[:, j, 0].copy())
        active = active[moving]
    return m, paths


def solve_shooting_many(
    spec: DriftSpec, xs: ArrayLike, ys: ArrayLike, t: float = 0.0
) -> list[ClassicalSolution]:
    """Classical cost and derivatives at a batch of (x, y) pairs, one start time.

    xs and ys broadcast against each other; the result holds one
    solution per pair, in order.  Every sweep of the momentum system
    integrates all pairs at once.  A binding lane that settles takes its
    path and momenta from the Newton sweep that settled it (see
    _momenta); the lanes with none, free lanes at p = 0, flow lanes and
    lanes unsettled after NEWTON_MAX_SWEEPS, are marched together once
    more, and only if there are any.  N_STEPS must be even and at least
    2: the cost is integrated by Simpson's rule over the stored nodes.
    """
    T, n_steps = spec.horizon_T, N_STEPS
    if n_steps < 2 or n_steps % 2:
        raise ValueError(f"Simpson's rule needs an even N_STEPS of at least 2, got {n_steps}")
    if not -math.inf < t < T:
        raise ConfigError(f"need a finite t < T, got t={t}")
    xs, ys = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)))
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
    if bad.size:
        i = bad[0]
        raise ConfigError(f"non-finite endpoint in lane {i}: (x={xs[i]}, y={ys[i]}, t={t})")
    boundary = characteristic_F(spec, xs, t)
    binding = ys < boundary - REGION_TOL * (1.0 + np.abs(xs))
    p0 = np.zeros(xs.size)
    paths: list[tuple[np.ndarray, np.ndarray] | None] = [None] * xs.size
    if binding.any():
        lanes = np.flatnonzero(binding)
        m, settled = _momenta(spec, xs[lanes], ys[lanes], t, n_steps)
        p0[lanes] = -m
        for i, path in zip(lanes, settled):
            paths[i] = path

    rest = [i for i, path in enumerate(paths) if path is None]
    if rest:
        node_y = np.empty((n_steps + 1, len(rest)))
        node_p = np.empty((n_steps + 1, len(rest)))
        shoot_terminal(spec, ys[rest], t, p0[rest], n_steps, nodes=(node_y, node_p))
        for j, i in enumerate(rest):
            paths[i] = (node_y[:, j].copy(), node_p[:, j].copy())
    times = np.linspace(t, T, n_steps + 1)
    return [
        _solution(spec, float(x), float(y), t, Path(times=times.copy(), y=path_y),
                  path_p, float(f), bool(bind))
        for x, y, f, bind, (path_y, path_p) in zip(xs, ys, boundary, binding, paths)
    ]


def _solution(
    spec: DriftSpec, x: float, y: float, t: float,
    path: Path, ps: np.ndarray, boundary: float, binding: bool,
) -> ClassicalSolution:
    """Cost, slopes and diagnostics of one lane's stored momentum path.

    The cost is q = 1/2 int p^2 ds by Simpson's rule on the stored momenta
    ps, since y' - b = -p along the minimizer.
    """
    b_start = float(spec.b(y, t))
    if not binding:
        # free region: the uncontrolled flow already meets the threshold
        return ClassicalSolution(
            path=path,
            momentum_p=ps,
            q_value=0.0,
            lambda_star=b_start,
            dq_dy=0.0,
            dq_dx=0.0,
            dq_dt=0.0,
            x_threshold=x,
            t_start=t,
            diagnostics={"binding": False, "boundary_F": boundary},
        )

    mismatch = abs(float(path.y[-1]) - x)
    if not mismatch <= TERMINAL_MISMATCH_TOL * (1.0 + abs(x)):
        raise ShootingError(
            f"terminal mismatch {mismatch:.3e} at (x={x}, y={y}, t={t})"
        )
    p0 = float(ps[0])
    h = float(path.times[1] - path.times[0])
    q = 0.5 * _simpson(ps * ps, h)
    lam = b_start - p0
    by = np.asarray(spec.db_dy(path.y, path.times), dtype=float)
    # (y' - b) e^{int b_y} is conserved along the minimizer; int b_y by
    # Simpson pair sums, so the check runs at the even nodes
    pairs = h / 3.0 * (by[:-2:2] + 4.0 * by[1::2] + by[2::2])
    invariant = ps[::2] * np.exp(np.concatenate(([0.0], np.cumsum(pairs))))
    conservation = float(np.max(np.abs(invariant - ps[0])) / abs(ps[0]))

    return ClassicalSolution(
        path=path,
        momentum_p=ps,
        q_value=q,
        lambda_star=lam,
        dq_dy=p0,
        dq_dx=-float(ps[-1]),
        dq_dt=0.5 * (lam * lam - b_start * b_start),
        x_threshold=x,
        t_start=t,
        diagnostics={
            "binding": True,
            "boundary_F": boundary,
            "terminal_mismatch": mismatch,
            "conservation": conservation,
        },
    )


def solve_shooting(spec: DriftSpec, x: float, y: float) -> ClassicalSolution:
    """Classical cost and derivatives at (x, y, 0) via the momentum system."""
    return solve_shooting_many(spec, x, y)[0]


def _variations(spec: DriftSpec, sols: list[ClassicalSolution]) -> tuple[np.ndarray, ...]:
    """Second-variation pairs (phi, psi) along the stored paths of one time grid.

    phi' = b_y phi - psi and psi' = -b_y psi - V phi with V = b_yy * p,
    run over every lane backward from phi(T)=0, psi(T)=1 ("terminal"
    data) and forward from phi(t)=0, psi(t)=1 ("initial").  Coefficients
    at half steps use linear interpolation of the path, consistent with
    the path's own integration order.  Returns (nodes, lanes) arrays:
    terminal phi, terminal psi, initial phi, initial psi.
    """
    times = sols[0].path.times
    ys = np.stack([sol.path.y for sol in sols], axis=1)
    ps = np.stack([sol.momentum_p for sol in sols], axis=1)
    t0, h = times[0], times[1] - times[0]

    # coefficients at the nodes (even k) and the midpoints (odd k), a row per k
    y_k, p_k = (np.repeat(u, 2, axis=0)[:-1] for u in (ys, ps))
    y_k[1::2], p_k[1::2] = 0.5 * (ys[:-1] + ys[1:]), 0.5 * (ps[:-1] + ps[1:])
    s_k = np.repeat(times, 2)[:-1, None]
    s_k[1::2, 0] = times[:-1] + 0.5 * h
    a = np.asarray(spec.db_dy(y_k, s_k), dtype=float)
    v = np.asarray(spec.d2b_dy2(y_k, s_k), dtype=float) * p_k

    def rhs(state, s, slope):
        (phi, psi), (kphi, kpsi) = state, slope
        k = round((s - t0) / (0.5 * h))  # s falls on a node or a midpoint
        kphi[...] = a[k] * phi - psi
        kpsi[...] = -a[k] * psi - v[k] * phi

    z0 = (np.zeros(len(sols)), np.ones(len(sols)))
    term, init = np.empty((2, 2, times.size, len(sols)))
    _rk4(rhs, z0, times[::-1], nodes=tuple(term[:, ::-1]))
    _rk4(rhs, z0, times, nodes=tuple(init))
    return (*term, *init)


def derivatives_second(spec: DriftSpec, sols: list[ClassicalSolution]) -> list[ClassicalSolution]:
    """Fill the three second derivatives of a batch that shares one time grid.

    A solve_shooting_many result is such a batch.  Second derivatives
    exist only where the cost binds, so a free lane is refused, as is a
    lane whose variation is not finite or meets a conjugate point (an
    interior zero of phi, where the curvature degenerates).  Each refusal
    names its lane.
    """
    if spec.d2b_dy2 is None:
        raise ValueError(f"drift {spec.name} carries no second derivative")
    if not sols:
        return []

    def lane(i: int) -> str:
        sol = sols[i]
        return f"lane {i}: (x={sol.x_threshold}, y={sol.path.y[0]}, t={sol.t_start})"

    for i, sol in enumerate(sols):
        if not sol.binding:
            raise ValueError(f"second derivatives need a binding cost, not the free {lane(i)}")
        if not np.array_equal(sol.path.times, sols[0].path.times):
            raise ValueError(f"the time grid of lane 0 differs from that of {lane(i)}")
    term_phi, term_psi, init_phi, init_psi = variation = _variations(spec, sols)
    # NaN passes both sign tests, so finiteness goes first
    for bad, what in (
        (~np.isfinite(variation).all(axis=(0, 1)), "variation is not finite"),
        (term_phi[:-1].min(axis=0) <= 0.0, "terminal-data variation loses positivity"),
        (init_phi[1:].max(axis=0) >= 0.0, "initial-data variation loses negativity"),
    ):
        if bad.any():
            raise DegenerateVariationError(f"{what} in {lane(int(np.argmax(bad)))}")
    return [
        replace(sol, d2q_dy2=float(yy), d2q_dxdy=float(xy), d2q_dx2=float(xx))
        for sol, yy, xy, xx in zip(sols, term_psi[0] / term_phi[0], 1.0 / init_phi[-1],
                                   -init_psi[-1] / init_phi[-1])
    ]


def minimize_direct(
    spec: DriftSpec, x: float, y: float, t: float = 0.0
) -> tuple[float, Path]:
    """Direct discrete action minimum over interior nodes, endpoints pinned.

    Midpoint-rule objective with analytic gradient; independent of the
    shooting discretization.  Newton steps on the tridiagonal Hessian start
    from the straight line.  Where its LDL^T factorization (dpttrf) fails,
    the Hessian is indefinite, and a doubling diagonal shift makes the step
    a descent direction, stretched while f falls.  A step is halved until
    f passes an Armijo test, or until the gradient max-norm falls when the
    Hessian is positive definite: f stalls at rounding level near the
    minimum.  Returns at gradient max-norm <= DIRECT_GRAD_TOL with a
    positive definite Hessian, so never at a saddle; else ConvergenceError
    after 60 steps.
    """
    n_nodes, grad_tol = DIRECT_NODES, DIRECT_GRAD_TOL
    if n_nodes < 16:
        raise ValueError("need at least 16 interior nodes")
    T = spec.horizon_T
    # t = T would leave the shift search below at h = 0 forever
    if not (math.isfinite(x) and math.isfinite(y) and -math.inf < t < T):
        raise ConfigError(f"need finite endpoints and t < T, got (x={x}, y={y}, t={t})")
    s = np.linspace(t, T, n_nodes + 2)
    h = s[1] - s[0]
    s_mid = 0.5 * (s[:-1] + s[1:])

    def pieces(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        full = np.concatenate(([y], z, [x]))
        ymid = 0.5 * (full[:-1] + full[1:])
        w = np.diff(full) / h - np.asarray(spec.b(ymid, s_mid), dtype=float)
        by = np.asarray(spec.db_dy(ymid, s_mid), dtype=float)
        return ymid, w, by

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        _, w, by = pieces(z)
        f = 0.5 * h * float(np.dot(w, w))
        grad = w[:-1] - w[1:] - 0.5 * h * (w[:-1] * by[:-1] + w[1:] * by[1:])
        return f, grad

    def hessian(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ymid, w, by = pieces(z)
        d2b = spec.d2b_dy2
        curv = np.zeros_like(w) if d2b is None else w * np.asarray(d2b(ymid, s_mid), dtype=float)
        diag = (
            2.0 / h
            + (by[1:] - by[:-1])
            + 0.25 * h * (by[:-1] ** 2 + by[1:] ** 2)
            - 0.25 * h * (curv[:-1] + curv[1:])
        )
        off = -1.0 / h + 0.25 * h * (by[1:-1] ** 2 - curv[1:-1])
        return diag, off

    z = np.linspace(y, x, n_nodes + 2)[1:-1]
    f, grad = objective(z)
    for _ in range(60):
        diag, off = hessian(z)
        shift = 0.0
        d, e, info = dpttrf(diag, off)
        while info > 0:
            # h is the discrete scale of the path's lowest curvature modes
            shift = max(2.0 * shift, h)
            d, e, info = dpttrf(diag + shift, off)
        gmax = float(np.max(np.abs(grad)))
        if gmax <= grad_tol and shift == 0.0:
            return f, Path(times=s, y=np.concatenate(([y], z, [x])))
        step = dpttrs(d, e, -grad)[0]
        for _ in range(30):
            f_new, grad_new = objective(z + step)
            if f_new <= f + 1e-4 * float(np.dot(grad, step)) or (
                shift == 0.0 and float(np.max(np.abs(grad_new))) < gmax
            ):
                break
            step *= 0.5
        # along negative curvature the shifted step falls short: stretch it
        for _ in range(30 if shift > 0.0 else 0):
            f_far, grad_far = objective(z + 2.0 * step)
            if not f_far < f_new:
                break
            step *= 2.0
            f_new, grad_new = f_far, grad_far
        z = z + step
        f, grad = f_new, grad_new
    raise ConvergenceError(f"no positive-definite point with gradient max-norm under {grad_tol:g}"
                           f" in 60 Newton steps (last {np.max(np.abs(grad)):.3e})")


def path_rows(sol: ClassicalSolution, spec: DriftSpec):
    """(s, y, p, control) row iterator for the CSV exporter."""
    times, ys, ps = sol.path.times, sol.path.y, sol.momentum_p
    control = np.asarray(spec.b(ys, times), dtype=float) - ps
    yield from zip(times.tolist(), ys.tolist(), ps.tolist(), control.tolist())
