"""SDE path simulation: uncontrolled, optimally controlled, and pinned-pull.

Euler-Maruyama throughout, with a Philox counter-based generator so runs
are reproducible bit for bit from the seed alone.  The controlled
simulator follows the steered drift b - dq/dy, built level by level in the
backward solve's own march (ControllerField.from_fields), stops steering a
short cutoff before the horizon, and accumulates the exact change-of-measure
log weight so controlled samples can stand in for the original law
(importance sampling) or be studied in their own right.

The cost and slope representations and the importance-sampling estimate
of the exceedance probability are plain averages over one such ensemble.
They read each path's weight, accumulated costs and slopes, cutoff state
and terminal state only, so the steered simulator streams: it keeps those
per path plus the whole rows of a fixed set of about RECORDED_ROWS paths,
and its memory is bounded by the path count, not by paths times steps.

On request the steered loop also marches the plain-law paths of
terminal_sample on that function's own time grid, step k of both reading
the same normals, so one draw per step serves both.  `tailcost simulate`
takes its naive row from that plain leg: its steered and naive rows share
each step's draws (common random numbers), so the two are not independent.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import pde, tables
from .drifts import ConfigError, DriftSpec


class SimulationError(RuntimeError):
    pass


class GridCoverageError(SimulationError):
    """Too many paths left the controller's valid window."""


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    seed: int
    terminal_cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.terminal_cutoff is not None and self.terminal_cutoff < self.dt:
            raise ValueError("terminal_cutoff must be at least one step")

    def cutoff(self, span: float) -> float:
        if self.terminal_cutoff is not None:
            return self.terminal_cutoff
        return max(self.dt, 1e-3 * span)


# The steered simulator records whole rows only for the paths of
# recorded_ids(n_paths), the rows `tailcost simulate` exports.
RECORDED_ROWS = 50


def recorded_ids(n_paths: int) -> range:
    return range(0, n_paths, max(1, n_paths // RECORDED_ROWS))


@dataclass(frozen=True)
class PathEnsemble:
    times: np.ndarray
    paths: np.ndarray  # (len(path_ids), times.size): the recorded rows
    path_ids: range  # the path id of each recorded row
    terminal: np.ndarray  # (n_paths,) state at times[-1]
    log_girsanov_weight: np.ndarray  # (n_paths,)
    seed: int
    plain_terminal: np.ndarray | None  # (n_paths,) terminal_sample on the seed's draws
    escaped: np.ndarray | None = None
    cutoff_index: int | None = None
    cutoff_state: np.ndarray | None = None  # (n_paths,) state at times[cutoff_index]
    integrals: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.log_girsanov_weight.size

    @property
    def kept(self) -> np.ndarray:
        if self.escaped is None:
            return np.ones(self.n_paths, dtype=bool)
        return ~self.escaped


@dataclass(frozen=True)
class EstimatorResult:
    name: str
    estimate: float
    std_error: float
    n: int
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "estimate": self.estimate, "std_error": self.std_error,
                "n": self.n, **self.extra}


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


# per-path float vectors the steered loop holds at its peak (the state,
# the plain leg, weight, four integrals and the step's and evaluate's
# temporaries): 18.5 under tracemalloc at 1e5 paths with the plain leg, the
# same for the zero, log-cosh, sin and linear_tv drifts
_STATE_VECTORS = 24


def _check_memory(dt: float, span: float, n_rows: int, n_paths: int) -> None:
    """Refuse steps of dt over span whose time grid, rows and state cannot fit.

    Runs before any allocation sized by the step count; n_rows is the
    number of recorded path rows and n_paths the number of paths whose
    state vectors the simulator holds (0 when only the time grid is kept).
    """
    nodes = span / dt + 2.0  # a float, so a tiny dt cannot overflow
    grid_bytes, row_bytes = 8.0 * nodes, 8.0 * nodes * n_rows
    state_bytes = 8.0 * _STATE_VECTORS * n_paths
    memory = _physical_memory()
    if grid_bytes + row_bytes + state_bytes > memory:
        raise ConfigError(
            f"dt={dt} over span {span} needs {grid_bytes / 1e9:.3g} GB for the time grid, "
            f"{row_bytes / 1e9:.3g} GB for the recorded rows and "
            f"{state_bytes / 1e9:.3g} GB for the per-path state, beyond the "
            f"{memory / 1e9:.3g} GB of physical memory; use a coarser dt or fewer paths"
        )


def _check_dt(dt: float, span: float, n_rows: int = 0, n_paths: int = 0) -> int:
    if dt > span / 10.0 + 1e-15:
        raise ConfigError(f"dt={dt} too coarse for span {span}; need span/10 or finer")
    _check_memory(dt, span, n_rows, n_paths)
    return max(1, int(math.ceil(span / dt - 1e-12)))


def _time_grid(dt: float, start: float, end: float, n_paths: int = 0) -> np.ndarray:
    return np.linspace(start, end, _check_dt(dt, end - start, n_paths, n_paths) + 1)


def _em_step(y: np.ndarray, drift, s: float, h: float, epsilon: float,
             xi: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step of dY = drift(Y, s) ds + sqrt(eps) dW from y."""
    return y + np.asarray(drift(y, s)) * h + math.sqrt(epsilon * h) * xi


def _euler_maruyama(
    rng: np.random.Generator,
    y: np.ndarray,
    times: np.ndarray,
    drift,
    epsilon: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """March dY = drift(Y, s) ds + sqrt(eps) dW from y along times.

    One standard normal draw per path and step.  The new states go to
    out[:, k + 1] when out is given.  Returns the final state and leaves y
    as it was.
    """
    for k in range(times.size - 1):
        xi = rng.standard_normal(y.size)
        y = _em_step(y, drift, times[k], times[k + 1] - times[k], epsilon, xi)
        if out is not None:
            out[:, k + 1] = y
    return y


# ------------------------------------------------------------- uncontrolled

def simulate_uncontrolled(
    spec: DriftSpec,
    y0: float,
    t: float,
    epsilon: float,
    config: SimConfig,
) -> PathEnsemble:
    """Paths of dY = b dt + sqrt(eps) dW from (t, y0) up to the horizon."""
    times = _time_grid(config.dt, t, spec.horizon_T, config.n_paths)
    paths = np.empty((config.n_paths, times.size))
    paths[:, 0] = y0
    terminal = _euler_maruyama(_generator(config.seed), paths[:, 0], times, spec.b, epsilon,
                               out=paths)
    return PathEnsemble(
        times=times,
        paths=paths,
        path_ids=range(config.n_paths),
        terminal=terminal,
        log_girsanov_weight=np.zeros(config.n_paths),
        seed=config.seed,
        plain_terminal=terminal,
    )


def terminal_sample(
    spec: DriftSpec,
    y0: float,
    t: float,
    epsilon: float,
    config: SimConfig,
) -> np.ndarray:
    """Terminal values only; memory stays flat in the step count."""
    times = _time_grid(config.dt, t, spec.horizon_T)
    y = np.full(config.n_paths, float(y0))
    return _euler_maruyama(_generator(config.seed), y, times, spec.b, epsilon)


def estimate_u_naive(terminal: np.ndarray, x: float) -> EstimatorResult:
    """Plain Monte Carlo exceedance probability of plain-law terminal states,
    with binomial error bars."""
    n = terminal.size
    p = float(np.count_nonzero(terminal > x)) / n
    # floor keeps the error bar honest when no sample lands on either side
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return EstimatorResult(name="exceedance_naive", estimate=p, std_error=se, n=n)


# --------------------------------------------------------------- controller

class ControllerError(SimulationError):
    pass


@dataclass(frozen=True)
class ControllerField:
    """Steered drift b - dq/dy, bilinear over the solved (t, y) lattice.

    from_fields builds it in one backward march, level by level.  Rows where
    the cost underflowed carry a restricted valid window around the
    threshold; queries outside the window (or outside the time range) do
    not extrapolate, they mark the path as escaped.

    The y lattice must be uniform (as every Grid1D is) and control must be
    (t_nodes.size, y_nodes.size): evaluate finds a path's cell by one
    multiply instead of a binary search.
    """

    y_nodes: np.ndarray
    t_nodes: np.ndarray
    control: np.ndarray  # (n_t, n_y), NaN outside each row's window
    window_lo: np.ndarray  # per-row first valid y
    window_hi: np.ndarray  # per-row last valid y
    last_row: int

    def __post_init__(self) -> None:
        n_t, n_y = self.t_nodes.size, self.y_nodes.size
        if self.control.shape != (n_t, n_y):
            raise ControllerError(
                f"control has shape {self.control.shape}, lattice needs {(n_t, n_y)}"
            )
        h = (self.y_nodes[-1] - self.y_nodes[0]) / (n_y - 1) if n_y > 1 else 0.0
        if not (h > 0.0 and np.all(np.abs(np.diff(self.y_nodes) - h) <= 1e-9 * h)):
            raise ControllerError("y_nodes must be increasing and uniformly spaced")

    @property
    def t_valid_max(self) -> float:
        return float(self.t_nodes[self.last_row])

    @classmethod
    def from_fields(
        cls, spec: DriftSpec, x: float, grid: pde.Grid1D, epsilon: float
    ) -> tuple["ControllerField", pde.HeatField]:
        """(controller, level-0 field) of the backward solve with step data at x on grid.

        solve_u hands each level, top down, to a row step that transforms it
        (pde._cost_rows) and steers over the finite run of its slope around
        the threshold node, so the build holds the control lattice and a few
        rows.  The terminal level (the step data) never participates.  The
        lowest level whose threshold slope is not finite ends the usable
        rows: every row above it is blank and last_row is the level below it.
        """
        t_nodes, y_nodes, seed = grid.t_nodes(), grid.y_nodes(), grid.nearest_node(x)
        control = np.full((grid.n_t, grid.n_y), np.nan)
        window_lo, window_hi = np.full(grid.n_t, np.inf), np.full(grid.n_t, -np.inf)
        last_row = grid.n_t - 2

        def step(i: int, u: np.ndarray) -> None:
            nonlocal last_row
            if i > last_row:
                return
            dq_dy = pde._cost_rows(u, epsilon, grid.h_y)[1]
            finite = np.isfinite(dq_dy)
            if not finite[seed]:
                above = slice(i + 1, last_row + 1)  # the rows written so far
                control[above], window_lo[above], window_hi[above] = np.nan, np.inf, -np.inf
                last_row = i - 1
                return
            holes_below = np.flatnonzero(~finite[:seed])
            holes_above = np.flatnonzero(~finite[seed:])
            j_lo = int(holes_below[-1]) + 1 if holes_below.size else 0
            j_hi = seed + int(holes_above[0]) - 1 if holes_above.size else grid.n_y - 1
            drift_row = np.asarray(spec.b(y_nodes[j_lo : j_hi + 1], t_nodes[i]))
            # steering never pushes below the plain drift
            control[i, j_lo : j_hi + 1] = np.maximum(drift_row - dq_dy[j_lo : j_hi + 1], drift_row)
            window_lo[i], window_hi[i] = y_nodes[j_lo], y_nodes[j_hi]

        start = pde.solve_u(spec, x, grid, epsilon, rows=0, level=step)
        if last_row < 1:
            raise ControllerError("the solve has no usable interior rows")
        return cls(y_nodes=y_nodes, t_nodes=t_nodes, control=control, window_lo=window_lo,
                   window_hi=window_hi, last_row=last_row), start

    def evaluate(self, y: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(control values, validity mask) at positions y and time s."""
        if s < self.t_nodes[0] - 1e-12 or s > self.t_valid_max + 1e-12:
            raise ControllerError(f"time {s} outside the controller's range")
        i = int(np.searchsorted(self.t_nodes, s, side="right")) - 1
        i = min(max(i, 0), self.last_row - 1)
        w = (s - self.t_nodes[i]) / (self.t_nodes[i + 1] - self.t_nodes[i])
        w = min(max(w, 0.0), 1.0)
        lo = max(self.window_lo[i], self.window_lo[i + 1])
        hi = min(self.window_hi[i], self.window_hi[i + 1])
        row = (1.0 - w) * self.control[i] + w * self.control[i + 1]
        y_first, y_last = self.y_nodes[0], self.y_nodes[-1]
        pos = np.clip(y, lo, hi)
        valid = pos == y  # y in [lo, hi]; a NaN is never valid
        pos -= y_first
        pos *= (self.y_nodes.size - 1) / (y_last - y_first)
        # pos at a node can truncate one cell low, onto the NaN outside the
        # window: keep every cell between the nodes at lo and hi
        j_lo = int(np.searchsorted(self.y_nodes, lo, side="right")) - 1
        j_hi = int(np.searchsorted(self.y_nodes, hi, side="left"))
        if j_hi == j_lo:  # a one-node window has no cell to interpolate in
            return np.full(np.shape(y), row[j_lo]), valid
        j = pos.astype(np.intp)
        np.clip(j, j_lo, j_hi - 1, out=j)
        # row[j] + (pos - j) * (row[j + 1] - row[j]), the differences taken
        # once over the row
        pos -= j
        pos *= np.diff(row)[j]
        pos += row[j]
        return pos, valid


# ----------------------------------------------------------------- steered

def simulate_controlled(
    spec: DriftSpec,
    controller: ControllerField,
    y0: float,
    t: float,
    epsilon: float,
    config: SimConfig,
    max_escaped_fraction: float = 0.01,
    plain: bool = False,
) -> PathEnsemble:
    """Steered paths with exact change-of-measure accounting.

    The controller drives dY = lambda dt + sqrt(eps) dW on [t, T - cutoff];
    the final stretch runs the plain drift.  log_girsanov_weight holds
    log dP/dQ along each path, so averaging exp(weight) * functional
    recovers plain-law expectations.  Paths that leave the controller's
    window freeze in place and are flagged; more than max_escaped_fraction
    of them aborts the run.  Every path keeps its cutoff and terminal
    states; whole rows are kept only for the paths of recorded_ids.

    With plain, the n_paths paths of terminal_sample(spec, y0, t, epsilon,
    config) march in the same loop on that function's own time grid, step k
    reading step k's normals, and plain_terminal is its result bit for bit.
    """
    T = spec.horizon_T
    span = T - t
    cutoff = config.cutoff(span)
    if cutoff >= span - 1e-12:  # the rounding slack of _check_dt's step count
        raise ConfigError("terminal cutoff swallows the whole horizon")
    n_paths, ids = config.n_paths, recorded_ids(config.n_paths)
    _check_memory(config.dt, span, len(ids), n_paths)
    n_ctl = _check_dt(config.dt, span - cutoff)
    n_free = max(1, int(math.ceil(cutoff / config.dt - 1e-12)))
    times = np.concatenate(
        [
            np.linspace(t, T - cutoff, n_ctl + 1),
            np.linspace(T - cutoff, T, n_free + 1)[1:],
        ]
    )
    if times[n_ctl - 1] > controller.t_valid_max + 1e-12:
        raise ControllerError(
            "controller time resolution too coarse near the horizon: "
            f"last steered step at {times[n_ctl - 1]:.6g} but coverage ends "
            f"at {controller.t_valid_max:.6g}; refine the time grid or "
            "enlarge the cutoff"
        )
    n_steps = times.size - 1
    plain_times = _time_grid(config.dt, t, T) if plain else times[:1]
    n_plain = plain_times.size - 1
    rows = slice(ids.start, ids.stop, ids.step)
    rng = _generator(config.seed)
    record = np.empty((len(ids), times.size))
    record[:, 0] = y0
    y = np.full(n_paths, float(y0))
    plain_y = y.copy() if plain else None
    alive = np.ones(n_paths, dtype=bool)
    xi = np.empty(n_paths)

    def draw(k: int) -> None:
        """Step k's normals into xi; the plain leg takes its step k on them."""
        nonlocal plain_y
        rng.standard_normal(out=xi)
        if k < n_plain:
            plain_y = _em_step(plain_y, spec.b, plain_times[k],
                               plain_times[k + 1] - plain_times[k], epsilon, xi)

    logw = np.zeros(n_paths)
    # the cost and three base integrals of e = excess ds: A = int e,
    # B = int b_y e and C = int s b_y e, which give the slope integrals
    cost, a_int, b_int, c_int = (np.zeros(n_paths) for _ in range(4))
    step, e, work = (np.empty(n_paths) for _ in range(3))
    sqrt_eps, half_inv_eps = math.sqrt(epsilon), 0.5 / epsilon
    for k in range(n_ctl):
        s = times[k]
        h = times[k + 1] - times[k]
        draw(k)
        lam, valid = controller.evaluate(y, s)
        alive &= valid
        frozen = ~alive
        b_now = np.asarray(spec.b(y, s), dtype=float)
        by_now = np.asarray(spec.db_dy(y, s), dtype=float)
        excess = np.subtract(lam, b_now, out=lam)
        # escaped paths get excess and step exactly 0.0; a lookup off the
        # window can be NaN, so mask rather than multiply by alive
        np.copyto(excess, 0.0, where=frozen)
        # step = (b + excess) h + sqrt(eps) (sqrt(h) xi), in this order of roundings
        np.multiply(xi, math.sqrt(h), out=work)
        work *= sqrt_eps
        np.add(b_now, excess, out=step)
        step *= h
        step += work
        np.copyto(step, 0.0, where=frozen)
        y += step
        record[:, k + 1] = y[rows]
        # log dP/dQ gains -e (xi / sqrt(eps h) + excess / (2 eps)), the cost excess e
        np.multiply(excess, h, out=e)
        np.multiply(xi, 1.0 / math.sqrt(epsilon * h), out=work)
        np.multiply(excess, half_inv_eps, out=step)
        work += step
        work *= e
        logw -= work
        np.multiply(excess, e, out=work)
        cost += work
        a_int += e
        np.multiply(by_now, e, out=work)
        b_int += work
        work *= s
        c_int += work

    # the free stretch runs the plain drift; escaped paths stay put
    terminal = y
    for k in range(n_ctl, n_steps):
        draw(k)
        stepped = _em_step(terminal, spec.b, times[k], times[k + 1] - times[k], epsilon, xi)
        terminal = np.where(alive, stepped, terminal)
        record[:, k + 1] = terminal[rows]
    for k in range(n_steps, n_plain):  # should rounding give the plain grid more steps
        draw(k)

    escaped = ~alive
    fraction = float(np.count_nonzero(escaped)) / n_paths
    if fraction > max_escaped_fraction:
        raise GridCoverageError(
            f"{fraction:.2%} of paths left the controller window "
            f"(limit {max_escaped_fraction:.2%}); widen the solve"
        )
    return PathEnsemble(
        times=times,
        paths=record,
        path_ids=ids,
        terminal=terminal,
        log_girsanov_weight=logw,
        seed=config.seed,
        plain_terminal=plain_y,
        escaped=escaped,
        cutoff_index=n_ctl,
        cutoff_state=y,
        integrals={"cost": cost, "slope_y": a_int + T * b_int - c_int,
                   "slope_x": a_int + t * b_int - c_int, "slope_sum": b_int},
    )


# ---------------------------------------------------------------- averages

def representation_q(ensemble: PathEnsemble) -> EstimatorResult:
    """Cost as half the mean accumulated squared excess drift."""
    kept = ensemble.kept
    vals = 0.5 * ensemble.integrals["cost"][kept]
    n = int(vals.size)
    return EstimatorResult(
        name="cost_representation",
        estimate=float(np.mean(vals)),
        std_error=float(np.std(vals, ddof=1) / math.sqrt(n)),
        n=n,
        extra={"escaped_fraction": 1.0 - n / ensemble.n_paths},
    )


def representation_dq(ensemble: PathEnsemble) -> dict[str, EstimatorResult]:
    """Both slope representations plus their drift-weighted sum identity."""
    kept = ensemble.kept
    span = float(ensemble.times[-1] - ensemble.times[0])
    n = int(np.count_nonzero(kept))
    out = {}
    for key, sign, scale in (
        ("slope_y", -1.0, span),
        ("slope_x", 1.0, span),
        ("slope_sum", -1.0, 1.0),
    ):
        vals = sign * ensemble.integrals[key][kept] / scale
        out[key] = EstimatorResult(
            name=f"{key}_representation",
            estimate=float(np.mean(vals)),
            std_error=float(np.std(vals, ddof=1) / math.sqrt(n)),
            n=n,
        )
    return out


def _ess(vals: np.ndarray) -> float:
    total = float(np.sum(vals))
    return total * total / float(np.dot(vals, vals)) if total > 0 else 0.0


def importance_sampling(ensemble: PathEnsemble, x: float) -> EstimatorResult:
    """Exceedance probability under the plain law from a steered ensemble.

    Reweights the kept paths by exp(log dP/dQ).  The effective sample size
    is that of the estimator's terms w 1{Y_T > x}, with a warning when it
    collapses: paths that miss the threshold carry weight but add nothing,
    so the ESS of the raw weights (kept as ess_raw) overstates degeneracy
    (Owen, Monte Carlo theory, methods and examples, ch. 9).
    """
    kept = ensemble.kept
    weights = np.exp(ensemble.log_girsanov_weight[kept])
    hits = (ensemble.terminal[kept] > x).astype(float)
    vals = weights * hits
    n = int(vals.size)
    estimate = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n))
    ess = _ess(vals)
    if ess < 10.0:
        warnings.warn(f"importance weights collapsed: ESS {ess:.2f}", RuntimeWarning)
    # what a plain binomial estimator of the same mass would spend per path
    naive_var = estimate * (1.0 - estimate) / n
    return EstimatorResult(
        name="exceedance_steered",
        estimate=estimate,
        std_error=se,
        n=n,
        extra={
            "ess": ess,
            "ess_raw": _ess(weights),
            "mean_weight": float(np.mean(weights)),
            "escaped_fraction": 1.0 - n / ensemble.n_paths,
            "variance_ratio": naive_var / se**2 if se > 0.0 else math.inf,
        },
    )


# -------------------------------------------------------------- pinned pull

def simulate_pinned_pull(
    mu: float,
    z0: float,
    t: float,
    horizon_T: float,
    sample_time: float,
    epsilon: float,
    config: SimConfig,
) -> np.ndarray:
    """Samples of dZ = -mu Z/(T - s) ds + sqrt(eps) dW at a fixed time.

    The pull drives Z toward zero at the horizon; sample_time must stay
    strictly short of it so the coefficient remains bounded.
    """
    if not t < sample_time < horizon_T:
        raise ValueError("need t < sample_time < horizon_T")
    times = _time_grid(config.dt, t, sample_time)
    z = np.full(config.n_paths, float(z0))
    return _euler_maruyama(
        _generator(config.seed), z, times, lambda z, s: -mu * z / (horizon_T - s), epsilon
    )


# ------------------------------------------------------------------ export

def ensemble_blocks(ensemble: PathEnsemble, path_stride: int, time_stride: int):
    """One tables.Block (path_id, s, y) per recorded row whose path id is a
    multiple of path_stride, all sharing one s list."""
    s = ensemble.times[::time_stride].tolist()
    for row, pid in enumerate(ensemble.path_ids):
        if pid % path_stride == 0:
            yield tables.Block((pid, s, ensemble.paths[row, ::time_stride].tolist()))


def ensemble_rows(ensemble: PathEnsemble, path_stride: int = 1, time_stride: int = 1):
    """The (path_id, s, y) rows of ensemble_blocks."""
    return tables.rows(ensemble_blocks(ensemble, path_stride, time_stride))


def ensemble_header(ensemble: PathEnsemble, epsilon: float) -> dict:
    return {
        "seed": ensemble.seed,
        "n_paths": ensemble.n_paths,
        "n_times": int(ensemble.times.size),
        "t_start": float(ensemble.times[0]),
        "t_end": float(ensemble.times[-1]),
        "epsilon": epsilon,
        "escaped": int(0 if ensemble.escaped is None else np.count_nonzero(ensemble.escaped)),
    }
