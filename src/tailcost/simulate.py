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

One loop marches several runs of one seed as legs (simulate_legs): each
leg has its own controller, start, noise level, cutoff and time grid, or
is the plain-law run of terminal_sample on that function's own grid, and
step k of every leg reads the same normals, drawn once, as equal seeds
already made it (common random numbers).  So each leg is its solo run bit
for bit, and the legs are not independent.  `tailcost simulate` takes its
naive row from a plain leg beside its steered run, and
`invariant:weight-mean` marches its three steered runs as three legs.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace

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


# per-path float vectors of a run at its peak, the end of the loop: a
# steered leg's own (_LEG_VECTORS: the cutoff and terminal states, the live
# and escape flags, the weight, the cost, the base and slope integrals), a
# plain leg's own (_PLAIN_VECTORS: its state and the step it adds) and the
# step's temporaries, which all legs share (_STEP_VECTORS).  Under
# tracemalloc at 1e5 paths, one to three steered legs hold 9.3 per leg plus
# 4.2 (zero drift) or 5.2 (log-cosh) shared; a plain leg holds 3.
_LEG_VECTORS = 12
_PLAIN_VECTORS = 3
_STEP_VECTORS = 7


def _check_memory(dt: float, span: float, n_rows: int, n_paths: int, n_steered: int,
                  n_plain: int) -> None:
    """Refuse n_steered steered and n_plain plain legs of steps of dt over span
    that cannot fit.

    Runs before any allocation sized by the step count.  Every leg holds its
    time grid; a steered leg also holds n_rows recorded path rows and its
    state vectors of n_paths paths (0 when only the time grid is kept), a
    plain leg its own fewer vectors; the step temporaries are counted once.
    """
    nodes = span / dt + 2.0  # a float, so a tiny dt cannot overflow
    grid_bytes, row_bytes = 8.0 * nodes, 8.0 * nodes * n_rows
    leg_bytes, plain_bytes = 8.0 * _LEG_VECTORS * n_paths, 8.0 * _PLAIN_VECTORS * n_paths
    step_bytes = 8.0 * _STEP_VECTORS * n_paths
    need = ((n_steered + n_plain) * grid_bytes + n_steered * (row_bytes + leg_bytes)
            + n_plain * plain_bytes + step_bytes)
    memory = _physical_memory()
    if need > memory:
        raise ConfigError(
            f"dt={dt} over span {span} needs, per leg, {grid_bytes / 1e9:.3g} GB for the "
            f"time grid, per steered leg {row_bytes / 1e9:.3g} GB for the recorded rows and "
            f"{leg_bytes / 1e9:.3g} GB for the per-path state, {plain_bytes / 1e9:.3g} GB per "
            f"plain leg and {step_bytes / 1e9:.3g} GB for the step: {n_steered} steered and "
            f"{n_plain} plain leg(s) need {need / 1e9:.3g} GB, beyond the {memory / 1e9:.3g} GB "
            "of physical memory; use a coarser dt or fewer paths"
        )


def _check_dt(dt: float, span: float, n_rows: int = 0, n_paths: int = 0) -> int:
    if dt > span / 10.0 + 1e-15:
        raise ConfigError(f"dt={dt} too coarse for span {span}; need span/10 or finer")
    _check_memory(dt, span, n_rows, n_paths, 1, 0)
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
        # np.clip's Python wrapper costs more than these two passes
        pos = np.maximum(y, lo)
        np.minimum(pos, hi, out=pos)
        valid = pos == y  # y in [lo, hi]; a NaN is never valid
        pos -= y_first
        pos *= (self.y_nodes.size - 1) / (y_last - y_first)
        # pos at a node can truncate one cell low, onto the NaN outside the
        # window: keep every cell between the nodes at lo and hi
        j_lo = int(np.searchsorted(self.y_nodes, lo, side="right")) - 1
        j_hi = int(np.searchsorted(self.y_nodes, hi, side="left"))
        if j_hi == j_lo:  # a one-node window has no cell to interpolate in
            return np.full(np.shape(y), row[j_lo]), valid
        # a NaN y truncates to INT_MIN; the clamp makes it a valid index
        j = pos.astype(np.intp)
        np.maximum(j, j_lo, out=j)
        np.minimum(j, j_hi - 1, out=j)
        # row[j] + (pos - j) * (row[j + 1] - row[j]), the differences taken
        # once over the row
        pos -= j
        pos *= np.diff(row).take(j)
        pos += row.take(j)
        return pos, valid


# ----------------------------------------------------------------- steered

# the share of escaped paths beyond which a steered run is refused
MAX_ESCAPED_FRACTION = 0.01


@dataclass(frozen=True)
class Leg:
    """One run that simulate_legs marches on the shared draws.

    With a controller it is simulate_controlled(spec, controller, y0, t,
    epsilon, config); with controller None it is the plain-law run of
    terminal_sample(spec, y0, t, epsilon, config), on that function's grid.
    """

    controller: ControllerField | None
    y0: float
    t: float
    epsilon: float
    config: SimConfig


class _Run:
    """A leg's time grid and the per-path state it carries from step to step."""

    def __init__(self, spec: DriftSpec, leg: Leg, cutoff: float | None, ids: range) -> None:
        T, t, dt, n_paths = spec.horizon_T, leg.t, leg.config.dt, leg.config.n_paths
        self.spec, self.leg, self.ids = spec, leg, ids
        self.rows = slice(ids.start, ids.stop, ids.step)
        if cutoff is None:
            self.times, self.n_ctl = _time_grid(dt, t, T), 0
        else:
            n_ctl = _check_dt(dt, T - t - cutoff)
            n_free = max(1, int(math.ceil(cutoff / dt - 1e-12)))
            times = np.concatenate(
                [
                    np.linspace(t, T - cutoff, n_ctl + 1),
                    np.linspace(T - cutoff, T, n_free + 1)[1:],
                ]
            )
            if times[n_ctl - 1] > leg.controller.t_valid_max + 1e-12:
                raise ControllerError(
                    "controller time resolution too coarse near the horizon: "
                    f"last steered step at {times[n_ctl - 1]:.6g} but coverage ends "
                    f"at {leg.controller.t_valid_max:.6g}; refine the time grid or "
                    "enlarge the cutoff"
                )
            self.times, self.n_ctl = times, n_ctl
        self.n_steps = self.times.size - 1
        self.record = np.empty((len(ids), self.times.size))
        self.record[:, 0] = leg.y0
        # y is the state at the cutoff once steering ends; terminal marches on
        self.y = np.full(n_paths, float(leg.y0))
        self.terminal = self.y
        if cutoff is not None:
            self.alive = np.ones(n_paths, dtype=bool)
            self.logw = np.zeros(n_paths)
            # the cost and three base integrals of e = excess ds: A = int e,
            # B = int b_y e and C = int s b_y e, which give the slope integrals
            self.cost, self.a_int, self.b_int, self.c_int = (np.zeros(n_paths) for _ in range(4))
            self.sqrt_eps, self.half_inv_eps = math.sqrt(leg.epsilon), 0.5 / leg.epsilon

    def steer(self, k: int, xi: np.ndarray, step: np.ndarray, e: np.ndarray,
              work: np.ndarray) -> None:
        """Steered step k on the normals xi; step, e and work are scratch."""
        spec, times, y = self.spec, self.times, self.y
        s = times[k]
        h = times[k + 1] - times[k]
        lam, valid = self.leg.controller.evaluate(y, s)
        self.alive &= valid
        frozen = ~self.alive
        b_now = np.asarray(spec.b(y, s), dtype=float)
        by_now = np.asarray(spec.db_dy(y, s), dtype=float)
        excess = np.subtract(lam, b_now, out=lam)
        # escaped paths get excess and step exactly 0.0; a lookup off the
        # window can be NaN, so mask rather than multiply by alive
        np.copyto(excess, 0.0, where=frozen)
        # step = (b + excess) h + sqrt(eps) (sqrt(h) xi), in this order of roundings
        np.multiply(xi, math.sqrt(h), out=work)
        work *= self.sqrt_eps
        np.add(b_now, excess, out=step)
        step *= h
        step += work
        np.copyto(step, 0.0, where=frozen)
        y += step
        self.record[:, k + 1] = y[self.rows]
        # log dP/dQ gains -e (xi / sqrt(eps h) + excess / (2 eps)), the cost excess e
        np.multiply(excess, h, out=e)
        np.multiply(xi, 1.0 / math.sqrt(self.leg.epsilon * h), out=work)
        np.multiply(excess, self.half_inv_eps, out=step)
        work += step
        work *= e
        self.logw -= work
        np.multiply(excess, e, out=work)
        self.cost += work
        self.a_int += e
        np.multiply(by_now, e, out=work)
        self.b_int += work
        work *= s
        self.c_int += work

    def free(self, k: int, xi: np.ndarray) -> None:
        """Plain-drift step k on the normals xi; escaped paths stay put."""
        times = self.times
        stepped = _em_step(self.terminal, self.spec.b, times[k], times[k + 1] - times[k],
                           self.leg.epsilon, xi)
        if self.leg.controller is not None:
            stepped = np.where(self.alive, stepped, self.terminal)
            self.record[:, k + 1] = stepped[self.rows]
        self.terminal = stepped

    def ensemble(self) -> PathEnsemble:
        seed, n_paths = self.leg.config.seed, self.leg.config.n_paths
        if self.leg.controller is None:
            return PathEnsemble(times=self.times, paths=self.record, path_ids=self.ids,
                                terminal=self.terminal, log_girsanov_weight=np.zeros(n_paths),
                                seed=seed, plain_terminal=self.terminal)
        T, t = self.spec.horizon_T, self.leg.t
        a_int, b_int, c_int = self.a_int, self.b_int, self.c_int
        return PathEnsemble(
            times=self.times,
            paths=self.record,
            path_ids=self.ids,
            terminal=self.terminal,
            log_girsanov_weight=self.logw,
            seed=seed,
            plain_terminal=None,
            escaped=~self.alive,
            cutoff_index=self.n_ctl,
            cutoff_state=self.y,
            integrals={"cost": self.cost, "slope_y": a_int + T * b_int - c_int,
                       "slope_x": a_int + t * b_int - c_int, "slope_sum": b_int},
        )


def _march(spec: DriftSpec, legs: list[Leg], max_escaped_fraction: float) -> list[PathEnsemble]:
    """The loop of simulate_legs and simulate_controlled: one draw per step,
    every leg stepping on it until its own grid ends."""
    def shared(leg: Leg) -> tuple:
        return leg.config.n_paths, leg.config.dt, leg.config.seed, leg.t

    if any(shared(leg) != shared(legs[0]) for leg in legs):
        raise ConfigError("the legs must agree on n_paths, dt, seed and t")
    n_paths, dt, seed, t = shared(legs[0])
    span = spec.horizon_T - t
    cutoffs = [None if leg.controller is None else leg.config.cutoff(span) for leg in legs]
    # the rounding slack of _check_dt's step count
    if any(c is not None and c >= span - 1e-12 for c in cutoffs):
        raise ConfigError("terminal cutoff swallows the whole horizon")
    ids = recorded_ids(n_paths)
    n_plain = cutoffs.count(None)
    _check_memory(dt, span, len(ids), n_paths, len(legs) - n_plain, n_plain)
    # a plain leg records no rows
    runs = [_Run(spec, leg, cutoff, range(0) if cutoff is None else ids)
            for leg, cutoff in zip(legs, cutoffs)]
    rng = _generator(seed)
    xi, step, e, work = (np.empty(n_paths) for _ in range(4))
    for k in range(max(run.n_steps for run in runs)):
        rng.standard_normal(out=xi)
        for run in runs:
            if k < run.n_ctl:
                run.steer(k, xi, step, e, work)
            elif k < run.n_steps:
                run.free(k, xi)

    for run in runs:
        if run.leg.controller is None:
            continue
        fraction = float(np.count_nonzero(~run.alive)) / n_paths
        if fraction > max_escaped_fraction:
            raise GridCoverageError(
                f"{fraction:.2%} of paths left the controller window "
                f"(limit {max_escaped_fraction:.2%}); widen the solve"
            )
    return [run.ensemble() for run in runs]


def simulate_legs(spec: DriftSpec, legs: list[Leg]) -> list[PathEnsemble]:
    """One PathEnsemble per leg, all legs marching on one stream of draws.

    Step k of every leg reads step k's normals, drawn once, the normals a
    solo run of the same seed reads too (common random numbers), so each
    leg's ensemble is its solo run bit for bit.  For a steered leg that is
    simulate_controlled(spec, controller, y0, t, epsilon, config); a plain
    leg is terminal_sample's run, recorded with no rows and its result as
    both terminal and plain_terminal.  The legs must agree on n_paths, dt,
    seed and t (ConfigError otherwise).  The loop runs as long as the
    longest leg's grid, and each leg stops at the end of its own.
    """
    return _march(spec, legs, MAX_ESCAPED_FRACTION)


def simulate_controlled(
    spec: DriftSpec,
    controller: ControllerField,
    y0: float,
    t: float,
    epsilon: float,
    config: SimConfig,
    max_escaped_fraction: float = MAX_ESCAPED_FRACTION,
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
    config) march in the same loop as a plain leg on that function's own
    time grid, step k reading step k's normals, and plain_terminal is its
    result bit for bit.
    """
    legs = [Leg(controller, y0, t, epsilon, config)]
    if plain:
        legs.append(Leg(None, y0, t, epsilon, config))
    # _march, not simulate_legs, so that perfbench's span of this function
    # keeps the loop's time as its own
    steered, *rest = _march(spec, legs, max_escaped_fraction)
    return replace(steered, plain_terminal=rest[0].terminal) if plain else steered


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
