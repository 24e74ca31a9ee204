"""SDE path simulation: optimally controlled paths and the plain law beside them.

Euler-Maruyama in one loop, simulate_legs, with a Philox counter-based
generator so runs are reproducible bit for bit from the seed alone.  The
loop marches one or more runs of one seed as legs (Leg).  A steered leg
follows the drift b - dq/dy, which ControllerField.from_fields makes in
place of the backward solve's lattice of levels, a block of levels at a
time once the march is done.  It stops steering a short cutoff before the
horizon, and reads the exact log weight log dP/dQ off its cost
C = int excess^2 ds and noise sum N = int excess sqrt(eps) dW as
-(N + C/2)/eps (the logarithmic transformation), so controlled samples
can stand in for the original law (importance sampling) or be studied in
their own right.  A path that leaves the controller's window freezes;
until the first does, a step skips the masks that hold frozen paths in
place.  A plain leg is the plain-law Euler run.

The cost and slope representations and the importance-sampling estimate
of the exceedance probability are plain averages over one steered
ensemble.  They read each path's weight, accumulated costs and slopes,
cutoff state and terminal state only, so a steered leg streams: it keeps
those per path plus the whole rows of a fixed set of about RECORDED_ROWS
paths, and its memory is bounded by the path count, not by paths times
steps.

Each leg has its own controller, start, noise level, cutoff and time
grid, and step k of every leg reads the same normals, drawn once, as
equal seeds already made it (common random numbers).  So each leg is its
one-leg run bit for bit, and the legs are not independent.  `tailcost
simulate` takes its naive row from a plain leg beside its steered leg,
and `invariant:weight-mean` marches its three steered runs as three legs.
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


# A steered leg records whole rows only for the paths of
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
# and escape flags, the four sums, whose noise sum ends as the weight, and
# two slopes), a plain leg's own (_PLAIN_VECTORS: its state and its step)
# and the step's temporaries, which all legs share (_STEP_VECTORS).  Under
# tracemalloc at 1e5 paths and dt 1e-2 (zero and log-cosh drift), one to
# three steered legs hold 8.3 each plus 3.0 to 4.0 shared; a plain leg,
# stepped in one buffer, 2.0 to 2.1.
_LEG_VECTORS = 12
_PLAIN_VECTORS = 3
_STEP_VECTORS = 7


def _check_memory(dt: float, span: float, n_rows: int, n_paths: int, n_steered: int,
                  n_plain: int) -> None:
    """Refuse n_steered steered and n_plain plain legs of steps of dt over span
    that cannot fit.

    Runs before any allocation sized by the step count.  Every leg holds its
    time grid; a steered leg also holds n_rows recorded path rows and its
    state vectors of n_paths paths, a plain leg its own fewer vectors; the
    step temporaries are counted once.
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


def _check_dt(dt: float, span: float) -> int:
    if dt > span / 10.0 + 1e-15:
        raise ConfigError(f"dt={dt} too coarse for span {span}; need span/10 or finer")
    return max(1, int(math.ceil(span / dt - 1e-12)))


def _time_grid(dt: float, start: float, end: float) -> np.ndarray:
    return np.linspace(start, end, _check_dt(dt, end - start) + 1)


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


# levels that ControllerField.from_fields transforms at once, read at call
# time.  More rows spread numpy's per-call cost over more levels; a block's
# transform holds about two rows of temporaries per level, plus numpy's
# buffers for its broadcast passes.  At 8 the build's tracemalloc peak is
# the march's own, 26-28 rows of n_y floats beside the lattice (log-cosh
# on 1201 x 1201, zero drift on 801 x 1001); at 16 it is 42-44.
BUILD_BLOCK_ROWS = 8


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

        solve_u keeps every level, and its lattice becomes the control
        lattice: after level 0 is copied out as the start field, it is
        transformed in place, BUILD_BLOCK_ROWS levels at a time from level 0
        up (pde._cost_rows), and each row steers over the finite run of its
        slope around the threshold node, so the build holds the control
        lattice and a few blocks of rows.  The terminal level (the step
        data) never participates.  The lowest level whose threshold slope
        is not finite ends the usable rows: every row above it is blank and
        last_row is the level below it.
        """
        t_nodes, y_nodes, seed = grid.t_nodes(), grid.y_nodes(), grid.nearest_node(x)
        n_t, n_y = grid.n_t, grid.n_y
        heat = pde.solve_u(spec, x, grid, epsilon)
        control = heat.u
        start = replace(heat, u=control[0].copy(), levels=heat.levels[0])
        cols = np.arange(n_y)

        def transform(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
            """Turn the levels a..b-1 into the steered drift in place, up to
            the first whose seed slope is not finite, and return the windows
            (j_lo, j_hi) of the rows written.  A function, so that a block's
            temporaries are gone before the next block's are made."""
            dq_dy = pde._cost_rows(control[a:b], epsilon, grid.h_y)[1]
            finite = np.isfinite(dq_dy)
            seeds = finite[:, seed]
            n = seeds.size if seeds.all() else int(np.argmin(seeds))
            dq_dy, finite, rows = dq_dy[:n], finite[:n], control[a : a + n]
            # a window starts past the row's last hole below the seed and
            # stops short of its first hole above it
            j_lo = np.where(finite[:, :seed], -1, cols[:seed]).max(axis=1, initial=-1) + 1
            j_hi = np.where(finite[:, seed:], n_y, cols[seed:]).min(axis=1, initial=n_y) - 1
            drift = np.asarray(spec.b(y_nodes, t_nodes[a : a + n, None]))
            # steering never pushes below the plain drift
            np.maximum(np.subtract(drift, dq_dy, out=dq_dy), drift, out=rows)
            # row by row: a (rows, n_y) mask and numpy's buffers for its
            # broadcast passes would hold more than the block itself
            for row, lo, hi in zip(rows, j_lo.tolist(), j_hi.tolist()):
                row[:lo] = np.nan
                row[hi + 1 :] = np.nan
            return j_lo, j_hi

        window_lo, window_hi = np.full(n_t, np.inf), np.full(n_t, -np.inf)
        last_row = n_t - 2
        for a in range(0, n_t - 1, BUILD_BLOCK_ROWS):
            b = min(a + BUILD_BLOCK_ROWS, n_t - 1)
            j_lo, j_hi = transform(a, b)
            usable = a + j_lo.size
            window_lo[a:usable], window_hi[a:usable] = y_nodes[j_lo], y_nodes[j_hi]
            if usable < b:
                last_row = usable - 1
                break
        control[last_row + 1 :] = np.nan
        if last_row < 1:
            raise ControllerError("the solve has no usable interior rows")
        return cls(y_nodes=y_nodes, t_nodes=t_nodes, control=control, window_lo=window_lo,
                   window_hi=window_hi, last_row=last_row), start

    def evaluate(self, y: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(control values, validity mask) at positions y and time s."""
        if s < self.t_nodes[0] - 1e-12 or s > self.t_valid_max + 1e-12:
            raise ControllerError(f"time {s} outside the controller's range")
        i = int(self.t_nodes.searchsorted(s, side="right")) - 1
        i = min(max(i, 0), self.last_row - 1)
        w = (s - self.t_nodes[i]) / (self.t_nodes[i + 1] - self.t_nodes[i])
        w = min(max(w, 0.0), 1.0)
        lo = max(self.window_lo[i], self.window_lo[i + 1])
        hi = min(self.window_hi[i], self.window_hi[i + 1])
        y_first, y_last = self.y_nodes[0], self.y_nodes[-1]
        # np.clip's Python wrapper costs more than these two passes
        pos = np.maximum(y, lo)
        np.minimum(pos, hi, out=pos)
        valid = pos == y  # y in [lo, hi]; a NaN is never valid
        pos -= y_first
        pos *= (self.y_nodes.size - 1) / (y_last - y_first)
        # pos at a node can truncate one cell low, onto the NaN outside the
        # window: keep every cell between the nodes at lo and hi
        j_lo = int(self.y_nodes.searchsorted(lo, side="right")) - 1
        j_hi = int(self.y_nodes.searchsorted(hi, side="left"))
        # the two rows blended over the nodes j_lo..j_hi alone, the only
        # nodes read below; row and its differences keep the lattice's indices
        row, window = np.empty(self.y_nodes.size), slice(j_lo, j_hi + 1)
        np.multiply(self.control[i, window], 1.0 - w, out=row[window])
        row[window] += w * self.control[i + 1, window]
        if j_hi == j_lo:  # a one-node window has no cell to interpolate in
            return np.full(np.shape(y), row[j_lo]), valid
        # a NaN y truncates to INT_MIN; the clamp makes it a valid index
        j = pos.astype(np.intp)
        np.maximum(j, j_lo, out=j)
        np.minimum(j, j_hi - 1, out=j)
        # row[j] + (pos - j) * (row[j + 1] - row[j]), the differences taken
        # once over the window
        slope = np.empty(row.size - 1)
        np.subtract(row[j_lo + 1 : j_hi + 1], row[j_lo:j_hi], out=slope[j_lo:j_hi])
        pos -= j
        pos *= slope.take(j)
        pos += row.take(j)
        return pos, valid


# ----------------------------------------------------------------- steered

# the share of escaped paths beyond which a steered run is refused
MAX_ESCAPED_FRACTION = 0.01


@dataclass(frozen=True)
class Leg:
    """One run that simulate_legs marches on the shared draws.

    A steered leg (a controller) drives dY = lambda dt + sqrt(eps) dW from
    y0 on [t, T - cutoff], the cutoff read from config; the final stretch
    runs the plain drift.  Its log_girsanov_weight holds log dP/dQ along
    each path, read off the noise sum and the cost as -(N + C/2)/eps, so
    averaging exp(weight) * functional recovers plain-law expectations.
    Paths that leave the controller's window freeze in place and are
    flagged; more than MAX_ESCAPED_FRACTION of them refuses the run.
    Every path keeps its cutoff and terminal states; whole rows are kept
    only for the paths of recorded_ids.

    A plain leg (controller None) is the plain-law Euler run on [t, T] at
    dt from y0, on the uniform grid of ceil((T - t)/dt) steps; it records
    no rows and carries zero weights.
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
            self.alive, self.masked = np.ones(n_paths, dtype=bool), False
            # the noise sum N, the cost C = int excess e and two base integrals
            # of e = excess ds, B = int b_y e and D = int (1 - s b_y) e
            self.noise, self.cost, self.b_int, self.d_int = (np.zeros(n_paths) for _ in range(4))
            self.sqrt_eps = math.sqrt(leg.epsilon)

    def steer(self, k: int, xi: np.ndarray, step: np.ndarray, work: np.ndarray) -> None:
        """Steered step k on the normals xi; step and work are scratch."""
        spec, times, y = self.spec, self.times, self.y
        s = times[k]
        h = times[k + 1] - times[k]
        lam, valid = self.leg.controller.evaluate(y, s)
        # until the first invalid lookup no path is frozen and the masks
        # below would change nothing
        self.masked = self.masked or not valid.all()
        if self.masked:
            self.alive &= valid
            frozen = ~self.alive
        b_now = np.asarray(spec.b(y, s), dtype=float)
        by_now = np.asarray(spec.db_dy(y, s), dtype=float)
        excess = np.subtract(lam, b_now, out=lam)
        # escaped paths get excess and step exactly 0.0; a lookup off the
        # window can be NaN, so mask rather than multiply by alive
        if self.masked:
            np.copyto(excess, 0.0, where=frozen)
        # step = (b + excess) h + sqrt(eps) (sqrt(h) xi), in this order of roundings
        np.multiply(xi, math.sqrt(h), out=work)
        work *= self.sqrt_eps
        np.add(b_now, excess, out=step)
        step *= h
        step += work
        if self.masked:
            np.copyto(step, 0.0, where=frozen)
        y += step
        self.record[:, k + 1] = y[self.rows]
        # work is the step's noise; step, spent, becomes e = excess h
        work *= excess
        self.noise += work
        e = np.multiply(excess, h, out=step)
        np.multiply(excess, e, out=work)
        self.cost += work
        np.multiply(by_now, e, out=work)
        self.b_int += work
        work *= s
        self.d_int += e
        self.d_int -= work

    def free(self, k: int, xi: np.ndarray, work: np.ndarray) -> None:
        """Plain-drift step k on the normals xi; escaped paths stay put; work
        is scratch."""
        y, s, h = self.terminal, self.times[k], self.times[k + 1] - self.times[k]
        # one Euler-Maruyama step of dY = b(Y, s) ds + sqrt(eps) dW, formed in
        # one buffer: b h + y rounds as y + b h, so the bits are those of
        # y + b h + sqrt(eps h) xi
        stepped = np.multiply(self.spec.b(y, s), h)
        stepped += y
        stepped += np.multiply(xi, math.sqrt(self.leg.epsilon * h), out=work)
        if self.leg.controller is not None:
            if self.masked:
                np.copyto(stepped, y, where=~self.alive)
            self.record[:, k + 1] = stepped[self.rows]
        self.terminal = stepped

    def ensemble(self) -> PathEnsemble:
        seed, n_paths = self.leg.config.seed, self.leg.config.n_paths
        if self.leg.controller is None:
            return PathEnsemble(times=self.times, paths=self.record, path_ids=self.ids,
                                terminal=self.terminal, log_girsanov_weight=np.zeros(n_paths),
                                seed=seed)
        T, t = self.spec.horizon_T, self.leg.t
        b_int, d_int, weight = self.b_int, self.d_int, self.noise
        weight += 0.5 * self.cost  # the noise sum becomes the weight, -(N + C/2)/eps
        weight /= -self.leg.epsilon
        return PathEnsemble(
            times=self.times,
            paths=self.record,
            path_ids=self.ids,
            terminal=self.terminal,
            log_girsanov_weight=weight,
            seed=seed,
            escaped=~self.alive,
            cutoff_index=self.n_ctl,
            cutoff_state=self.y,
            integrals={"cost": self.cost, "slope_y": d_int + T * b_int,
                       "slope_x": d_int + t * b_int, "slope_sum": b_int},
        )


def simulate_legs(spec: DriftSpec, legs: list[Leg]) -> list[PathEnsemble]:
    """One PathEnsemble per leg, all legs marching on one stream of draws.

    The package's one Euler-Maruyama loop.  Step k of every leg reads step
    k's normals, drawn once, the normals a one-leg run of the same seed
    reads too (common random numbers), so each leg's ensemble is its
    one-leg run bit for bit.  There must be a leg, and the legs must agree
    on n_paths, dt, seed and t (ConfigError otherwise).  The loop runs as
    long as the longest leg's grid, and each leg stops at the end of its
    own.  The run is refused when a steered leg's escaped share exceeds
    MAX_ESCAPED_FRACTION, read at call time.
    """
    def shared(leg: Leg) -> tuple:
        return leg.config.n_paths, leg.config.dt, leg.config.seed, leg.t

    if not legs:
        raise ConfigError("need at least one leg")
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
    xi, step, work = (np.empty(n_paths) for _ in range(3))
    for k in range(max(run.n_steps for run in runs)):
        rng.standard_normal(out=xi)
        for run in runs:
            if k < run.n_ctl:
                run.steer(k, xi, step, work)
            elif k < run.n_steps:
                run.free(k, xi, work)

    for run in runs:
        if run.leg.controller is None:
            continue
        fraction = float(np.count_nonzero(~run.alive)) / n_paths
        if fraction > MAX_ESCAPED_FRACTION:
            raise GridCoverageError(
                f"{fraction:.2%} of paths left the controller window "
                f"(limit {MAX_ESCAPED_FRACTION:.2%}); widen the solve"
            )
    return [run.ensemble() for run in runs]


# ---------------------------------------------------------------- averages

def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of vals and its standard error."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def representation_q(ensemble: PathEnsemble) -> EstimatorResult:
    """Cost as half the mean accumulated squared excess drift."""
    kept = ensemble.kept
    vals = 0.5 * ensemble.integrals["cost"][kept]
    n = int(vals.size)
    estimate, se = _mean_se(vals)
    return EstimatorResult(
        name="cost_representation",
        estimate=estimate,
        std_error=se,
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
        estimate, se = _mean_se(sign * ensemble.integrals[key][kept] / scale)
        out[key] = EstimatorResult(name=f"{key}_representation", estimate=estimate,
                                   std_error=se, n=n)
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
    estimate, se = _mean_se(vals)
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


# ------------------------------------------------------------------ export

def ensemble_blocks(ensemble: PathEnsemble, time_stride: int):
    """One tables.Block (path_id, s, y) per recorded row, all sharing one s list."""
    s = ensemble.times[::time_stride].tolist()
    for row, pid in enumerate(ensemble.path_ids):
        yield tables.Block((pid, s, ensemble.paths[row, ::time_stride].tolist()))


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
