"""Drift fields b(y, t) and their calculus.

Every other module consumes drifts through DriftSpec, which packages the
drift function itself, its y-derivatives, a Lipschitz bound on db/dy, and
the structural flags the verification checks key on (concavity in y,
b(0, .) = 0). Built-in drifts cover the hypotheses of the different
checks: zero and linear drifts admit exact Gaussian statistics, the
log-cosh drift is concave and bounded-slope but genuinely nonlinear, and
the sine drift is non-concave with bounded slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """A run configuration that cannot be executed."""


class DriftError(ValueError):
    """Drift evaluation produced a non-finite value or violated a declared flag."""


# Drift callables accept a scalar or ndarray y and a time that is either a
# scalar or an array shaped like y, and broadcast over both; the path
# solvers evaluate a whole stored path (y_i, s_i) in one call.
DriftFunc = Callable[..., np.ndarray | float]


@dataclass(frozen=True)
class DriftSpec:
    """A drift b(y, t) with derivatives and declared structure.

    lipschitz_A bounds |db/dy| uniformly; it is supplied by the drift
    author and spot-checked on a grid, not inferred.  d2b_dy2 is optional:
    only the second-derivative machinery of the classical solver needs it.
    A_of_s is set for linear drifts b(y, s) = A(s) * y and enables the
    closed-form Gaussian statistics; it is None otherwise.
    time_homogeneous declares that b does not depend on t, which lets the
    lattice solvers evaluate it once instead of at every time level.
    """

    name: str
    b: DriftFunc
    db_dy: DriftFunc
    d2b_dy2: DriftFunc | None
    lipschitz_A: float
    is_concave: bool
    vanishes_at_origin: bool
    horizon_T: float = 1.0
    A_of_s: Callable[[float], float] | None = None
    time_homogeneous: bool = False


@dataclass(frozen=True)
class LinearDriftStats:
    """Growth factor Lambda and variance scale sigma2 of a linear drift.

    For b(y, s) = A(s) y started at time t, the state at T is Gaussian
    with mean Lambda * y and variance epsilon * sigma2.
    """

    Lambda: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (self.Lambda > 0.0 and self.sigma2 > 0.0):
            raise ValueError(f"degenerate linear stats: {self}")


def zero_drift(T: float = 1.0) -> DriftSpec:
    return DriftSpec(
        name="zero",
        b=lambda y, t: y * 0.0,
        db_dy=lambda y, t: y * 0.0,
        d2b_dy2=lambda y, t: y * 0.0,
        lipschitz_A=0.0,
        is_concave=True,
        vanishes_at_origin=True,
        horizon_T=T,
        A_of_s=lambda s: 0.0,
        time_homogeneous=True,
    )


def linear_drift(A: float, T: float = 1.0) -> DriftSpec:
    return DriftSpec(
        name=f"linear(A={A:g})",
        b=lambda y, t: A * y,
        db_dy=lambda y, t: A + y * 0.0,
        d2b_dy2=lambda y, t: y * 0.0,
        lipschitz_A=abs(A),
        is_concave=True,
        vanishes_at_origin=True,
        horizon_T=T,
        A_of_s=lambda s: A,
        time_homogeneous=True,
    )


def time_varying_linear(a0: float, a1: float, omega: float, T: float = 1.0) -> DriftSpec:
    """b(y, s) = (a0 + a1 cos(omega s)) y.  The integral of A has a closed form."""

    def A(s: float) -> float:
        return a0 + a1 * math.cos(omega * s)

    return DriftSpec(
        name=f"linear(A={a0:g}+{a1:g}cos({omega:g}s))",
        b=lambda y, t: (a0 + a1 * np.cos(omega * t)) * y,
        db_dy=lambda y, t: (a0 + a1 * np.cos(omega * t)) + y * 0.0,
        d2b_dy2=lambda y, t: y * 0.0,
        lipschitz_A=abs(a0) + abs(a1),
        is_concave=True,
        vanishes_at_origin=True,
        horizon_T=T,
        A_of_s=A,
    )


def _logcosh(y):
    # log cosh(y) without overflow: |y| + log1p(e^{-2|y|}) - log 2
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _sech2(y):
    # 1 / cosh(y)^2, stable for large |y|
    a = np.abs(y)
    e = np.exp(-a)
    return (2.0 * e / (1.0 + e * e)) ** 2


def logcosh_drift(c: float = 0.5, T: float = 1.0) -> DriftSpec:
    """Concave drift b(y) = -c log cosh(y): slope bounded by c, b(0) = 0."""
    return DriftSpec(
        name=f"logcosh(c={c:g})",
        b=lambda y, t: -c * _logcosh(y),
        db_dy=lambda y, t: -c * np.tanh(y),
        d2b_dy2=lambda y, t: -c * _sech2(y),
        lipschitz_A=c,
        is_concave=True,
        vanishes_at_origin=True,
        horizon_T=T,
        time_homogeneous=True,
    )


def sin_drift(amplitude: float = 0.3, T: float = 1.0) -> DriftSpec:
    """Bounded-slope, non-concave drift used by the mixed-partial check."""
    return DriftSpec(
        name=f"sin(a={amplitude:g})",
        b=lambda y, t: amplitude * np.sin(y),
        db_dy=lambda y, t: amplitude * np.cos(y),
        d2b_dy2=lambda y, t: -amplitude * np.sin(y),
        lipschitz_A=amplitude,
        is_concave=False,
        vanishes_at_origin=True,
        horizon_T=T,
        time_homogeneous=True,
    )


_FACTORIES: dict[str, Callable[..., DriftSpec]] = {
    "zero": zero_drift,
    "linear": linear_drift,
    "linear_tv": time_varying_linear,
    "logcosh": logcosh_drift,
    "sin": sin_drift,
}


def drift_by_name(kind: str, **params) -> DriftSpec:
    """Construct a built-in drift from a config-style (kind, params) pair."""
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise DriftError(f"unknown drift kind {kind!r}; choose from {sorted(_FACTORIES)}")
    return factory(**params)


def _rk4(f: Callable, z0, times: np.ndarray, nodes: tuple | None = None) -> np.ndarray:
    """Classical RK4 for z' = f(z, s) on equally spaced times; returns z at times[-1].

    The one fixed-step integrator of the classical layer.  The state z0
    has shape (components, *lanes) and is copied once; the march then
    updates the copy in place.  f(state, s, slope) gets tuples of the
    components' views and writes dz/ds at (state, s) into slope; the
    views and the step's buffers are made once per call.  times may run
    forward or backward; the step is h = (times[-1] - times[0]) / n.
    When nodes holds one array per component, the state at times[i] is
    written into nodes[c][i].  Overflow is silenced: a lane that blows
    up comes back non-finite, for the caller to refuse or to read as
    overshoot.
    """
    n = times.size - 1
    h = (times[-1] - times[0]) / n
    half, sixth = 0.5 * h, h / 6.0
    z = np.array(z0, dtype=float)
    k1, k2, k3, k4, stage, acc = (np.empty_like(z) for _ in range(6))

    def views(u: np.ndarray) -> tuple:
        return tuple(u[c, ...] for c in range(len(u)))

    state, at_stage = views(z), views(stage)
    v1, v2, v3, v4 = (views(k) for k in (k1, k2, k3, k4))
    if nodes is not None:
        for node, zc in zip(nodes, state):
            node[0] = zc
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            s = times[i]
            f(state, s, v1)
            # stages z + (h/2) k1, z + (h/2) k2, z + h k3
            np.multiply(k1, half, out=stage)
            np.add(z, stage, out=stage)
            f(at_stage, s + half, v2)
            np.multiply(k2, half, out=stage)
            np.add(z, stage, out=stage)
            f(at_stage, s + half, v3)
            np.multiply(k3, h, out=stage)
            np.add(z, stage, out=stage)
            f(at_stage, s + h, v4)
            # z + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
            np.multiply(k2, 2.0, out=acc)
            acc += k1
            np.multiply(k3, 2.0, out=stage)
            acc += stage
            acc += k4
            acc *= sixth
            z += acc
            if nodes is not None:
                for node, zc in zip(nodes, state):
                    node[i + 1] = zc
    return z


def characteristic_F(spec: DriftSpec, x: float | np.ndarray, t: float) -> float | np.ndarray:
    """Backward characteristic: solve y' = b(y, s) with y(T) = x down to s = t.

    The p = 0 lane of the momentum system, run backward by the shared
    RK4 kernel on 500 steps, the step count of the shooting solver.  An
    array of thresholds is swept at once and gives an array of start
    values; a scalar gives a float.
    """
    T = spec.horizon_T
    if not t < T:
        raise ConfigError(f"need t < T, got t={t}, T={T}")

    def rhs(state, s, slope):
        slope[0][...] = spec.b(state[0], s)

    y = _rk4(rhs, (np.asarray(x, dtype=float),), np.linspace(T, t, 501))[0]
    if not np.all(np.isfinite(y)):
        bad = np.asarray(x, dtype=float)[~np.isfinite(y)]
        raise DriftError(f"characteristic diverged for drift {spec.name} at x={bad}, t={t}")
    return float(y) if y.ndim == 0 else y


# numpy 2 renamed trapz to trapezoid; numpy 1.24 has only trapz
_trapz = getattr(np, "trapezoid", None) or np.trapz

# 16-point Gauss-Legendre nodes and weights on [-1, 1] (Golub & Welsch 1969)
_GL_NODES, _GL_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(16))


def _gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of a smooth scalar f over [a, b] by the composite 16-point rule.

    [a, b] is cut into 1, 2, 4, ... equal panels until the sum on n panels
    agrees with the sum on 2n to 1e-12 of the integral of |f|; the n-panel
    sum is returned.  A kink, a jump, or oscillation or growth that 64
    panels do not resolve raises ConfigError.
    """

    def panel_sums(n: int) -> tuple[float, float]:
        edges = np.linspace(a, b, n + 1).tolist()
        sums, masses = [], []
        for lo, hi in zip(edges, edges[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
            terms = [w * f(mid + half * z) for z, w in zip(_GL_NODES, _GL_WEIGHTS)]
            sums.append(half * math.fsum(terms))
            masses.append(half * math.fsum(map(abs, terms)))
        return math.fsum(sums), math.fsum(masses)

    n, (coarse, _) = 1, panel_sums(1)
    while n < 64:
        fine, mass = panel_sums(2 * n)
        if abs(fine - coarse) <= 1e-12 * mass:
            return coarse
        n, coarse = 2 * n, fine
    raise ConfigError(f"Gauss-Legendre rule did not settle on [{a}, {b}] with {n} panels")


def linear_stats(A_of_s: Callable[[float], float], t: float, T: float) -> LinearDriftStats:
    """Gaussian statistics of a linear drift over [t, T], by Gauss-Legendre quadrature.

    Lambda = exp(int_t^T A), sigma2 = int_t^T exp(2 int_s^T A) ds, so the
    time-T state given y at time t is Gaussian(Lambda * y, eps * sigma2).
    Both integrals, the inner one nested in the outer, use the guarded
    composite 16-point rule of _gauss_legendre.  It needs A(s) smooth on
    [t, T] and raises ConfigError where A has a kink or a jump.
    """
    if not t < T:
        raise ConfigError(f"need t < T, got t={t}, T={T}")
    growth = _gauss_legendre(A_of_s, t, T)

    def integrand(s: float) -> float:
        return math.exp(2.0 * _gauss_legendre(A_of_s, s, T))

    sigma2 = _gauss_legendre(integrand, t, T)
    return LinearDriftStats(Lambda=math.exp(growth), sigma2=sigma2)


def spot_check(spec: DriftSpec) -> None:
    """Check of the declared flags on a 41 x 11 (y, t) grid; raises DriftError on violation."""
    y_grid = np.linspace(-4.0, 4.0, 41)
    times = np.linspace(0.0, spec.horizon_T, 11)
    b_first = np.asarray(spec.b(y_grid, times[0]), dtype=float)
    for t in times:
        slope = np.asarray(spec.db_dy(y_grid, t), dtype=float)
        if not np.all(np.isfinite(slope)):
            raise DriftError(f"{spec.name}: non-finite db_dy at t={t}")
        if np.max(np.abs(slope)) > spec.lipschitz_A + 1e-12:
            raise DriftError(
                f"{spec.name}: |db_dy| exceeds declared bound "
                f"{spec.lipschitz_A} at t={t} (max {np.max(np.abs(slope)):.3e})"
            )
        if spec.is_concave and spec.d2b_dy2 is not None:
            curv = np.asarray(spec.d2b_dy2(y_grid, t), dtype=float)
            if np.max(curv) > 1e-12:
                raise DriftError(f"{spec.name}: declared concave but d2b_dy2 > 0 at t={t}")
        if spec.vanishes_at_origin and abs(float(spec.b(0.0, t))) > 1e-12:
            raise DriftError(f"{spec.name}: declared b(0,.)=0 but b(0,{t}) != 0")
        if spec.time_homogeneous and not np.array_equal(spec.b(y_grid, t), b_first):
            raise DriftError(f"{spec.name}: declared time-homogeneous but b changes by t={t}")
    yy, tt = np.meshgrid(y_grid, times)
    for label, func in (("b", spec.b), ("db_dy", spec.db_dy), ("d2b_dy2", spec.d2b_dy2)):
        if func is None:
            continue
        rows = np.array([np.asarray(func(y_grid, t), dtype=float) for t in times])
        try:
            joint = np.asarray(func(yy, tt), dtype=float)
            ok = joint.shape == yy.shape and np.allclose(
                joint, rows, rtol=1e-12, atol=1e-12, equal_nan=True
            )
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise DriftError(
                f"{spec.name}: {label} does not broadcast over a time array shaped like y"
            )
