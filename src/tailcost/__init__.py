"""Small-noise tail-cost laboratory for one-dimensional drift diffusions.

The package solves the backward exceedance equation, post-processes it
into a log-scaled cost with derivative fields, solves the matching
classical action problem by shooting and by direct minimization, runs
controlled-path simulation with likelihood weights, evaluates
pinned-endpoint conditionals, and gathers the cross-checks behind a
verification command.
"""

from __future__ import annotations

from .action import ClassicalSolution, minimize_direct, solve_shooting, solve_shooting_many
from .bridge import (
    BridgeQuery,
    bridge_kernel,
    concentration_check,
    conditional_prob_green,
    linear_bridge_moments,
)
from .checks import ConfigError, RunConfig, VerificationReport, run_all
from .drifts import (
    DriftSpec,
    drift_by_name,
    linear_drift,
    logcosh_drift,
    sin_drift,
    time_varying_linear,
    zero_drift,
)
from .pde import Grid1D, default_grid, solve_u
from .simulate import (
    ControllerField,
    EstimatorResult,
    Leg,
    PathEnsemble,
    SimConfig,
    importance_sampling,
    representation_dq,
    representation_q,
    simulate_legs,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeQuery",
    "ClassicalSolution",
    "ConfigError",
    "ControllerField",
    "DriftSpec",
    "EstimatorResult",
    "Grid1D",
    "Leg",
    "PathEnsemble",
    "RunConfig",
    "SimConfig",
    "VerificationReport",
    "bridge_kernel",
    "concentration_check",
    "conditional_prob_green",
    "default_grid",
    "drift_by_name",
    "importance_sampling",
    "linear_bridge_moments",
    "linear_drift",
    "logcosh_drift",
    "minimize_direct",
    "representation_dq",
    "representation_q",
    "run_all",
    "simulate_legs",
    "sin_drift",
    "solve_shooting",
    "solve_shooting_many",
    "solve_u",
    "time_varying_linear",
    "zero_drift",
    "__version__",
]
