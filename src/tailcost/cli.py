"""Command-line surface.

Subcommands: solve (backward fields), classical (variational solve),
simulate (controlled ensembles plus estimator records), bridge
(conditional tables), verify (the full check battery).  Every table
lands in the output directory as CSV or JSON per --format; verify also
writes report.json.  Exit codes: 0 all green, 1 at least one check
failed, 2 the configuration could not be executed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import action, bridge, checks, pde, simulate, tables

_TABLE_CAP = 200  # rows kept per axis when striding large lattices


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR", help="output directory (default tailcost-out)")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    common.add_argument("--only", metavar="CHECK", help="verify: run checks whose name contains this")
    common.add_argument(
        "--format", dest="table_format", choices=("csv", "json"),
        help="table file format (default csv)",
    )
    parser = argparse.ArgumentParser(
        prog="tailcost",
        description="Numerical laboratory for a controlled diffusion's tail cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="solve the backward field and export it")
    sub.add_parser("classical", parents=[common], help="zero-noise solves on a probe grid")
    sub.add_parser("simulate", parents=[common], help="controlled ensemble and estimators")
    sub.add_parser("bridge", parents=[common], help="pinned conditional tables")
    sub.add_parser("verify", parents=[common], help="run the verification battery")
    return parser


def _load_config(args: argparse.Namespace) -> checks.RunConfig:
    payload: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise checks.ConfigError(f"cannot read config {args.config}: {exc}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise checks.ConfigError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise checks.ConfigError("config must be a JSON object of run fields")
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.table_format is not None:
        payload["table_format"] = args.table_format
    if "eps_list" in payload:
        eps = payload["eps_list"]
        if not isinstance(eps, list) or not all(map(checks._is_finite_number, eps)):
            raise checks.ConfigError(f"eps_list must be a list of finite numbers, got {eps!r}")
        payload["eps_list"] = tuple(float(e) for e in eps)
    try:
        return checks.RunConfig(**payload)
    except TypeError as exc:
        raise checks.ConfigError(f"bad config field: {exc}")


def _slug(name: str) -> str:
    return re.sub(r"-+", "-", re.sub(r"[^a-z0-9._]+", "-", name.lower())).strip("-.")


def _write_table(path: Path, header: list[str], table: Iterable[Sequence], fmt: str) -> Path:
    # not with_suffix: stems like "...c-0.5" would lose their tail
    out = path.parent / f"{path.name}.{fmt}"
    if fmt == "csv":
        tables.write_csv(out, header, table)
    else:
        tables.write_json_table(out, header, table)
    return out


def _stride(n: int) -> int:
    return max(1, -(-n // _TABLE_CAP))


def _mid_eps(config: checks.RunConfig) -> float:
    return sorted(config.eps_list)[len(config.eps_list) // 2]


def _cmd_solve(config: checks.RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    spec = config.drift()
    epsilon = config.eps_list[0]
    grid = pde.default_grid(
        spec, config.probe_x, epsilon,
        n_y=config.n_y, n_t=config.n_t, t_start=config.probe_t,
    )
    st, sy = _stride(grid.n_t), _stride(grid.n_y)
    heat = pde.solve_u(spec, config.probe_x, grid, epsilon, rows=slice(None, None, st))
    table = _write_table(
        out_dir / "field", ["t", "y", "u", "q", "dq_dy", "dq_dx"],
        pde.costfield_blocks(heat, y_stride=sy), config.table_format,
    )
    tables.write_json(out_dir / "field_meta.json", {
        "drift": spec.name,
        "epsilon": epsilon,
        "threshold_x": config.probe_x,
        "grid": {
            "y_min": grid.y_min, "y_max": grid.y_max, "n_y": grid.n_y,
            "t_start": grid.t_start, "T": grid.T, "n_t": grid.n_t,
        },
        "stride_t": st, "stride_y": sy,
        "diagnostics": heat.diagnostics,
    })
    print(f"wrote {table} and {out_dir / 'field_meta.json'}")
    return 0


_CLASSICAL_DX = (-0.5, -0.25, 0.0, 0.25, 0.5)
_CLASSICAL_DY = (-1.0, -0.75, -0.5, -0.25, 0.0)


def _cmd_classical(config: checks.RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    spec = config.drift()
    t = config.probe_t
    points = [
        (config.probe_x + dxo, config.probe_y + dyo)
        for dxo in _CLASSICAL_DX for dyo in _CLASSICAL_DY
    ]
    xs, ys = zip(*points)
    sols = action.solve_shooting_many(spec, xs, ys, t)
    rows = []
    for (x, y), sol in zip(points, sols):
        q_direct, _ = action.minimize_direct(spec, x, y, t)
        rows.append([
            x, y, sol.q_value, q_direct,
            abs(sol.q_value - q_direct),
            sol.diagnostics.get("conservation", 0.0),
        ])
    grid_table = _write_table(
        out_dir / "classical_grid",
        ["x", "y", "q_shooting", "q_direct", "gap", "conservation_drift"],
        rows, config.table_format,
    )
    # the probe itself is the grid point with zero offsets
    central = sols[points.index((config.probe_x, config.probe_y))]
    path_table = _write_table(
        out_dir / "classical_path", ["s", "y", "p", "control"],
        action.path_rows(central, spec),
        config.table_format,
    )
    stride = _stride(central.path.times.size)
    tables.write_json(out_dir / "classical_summary.json", {
        "drift": spec.name,
        "x": config.probe_x, "y": config.probe_y, "t": t,
        "q_value": central.q_value,
        "dq_dy": central.dq_dy, "dq_dx": central.dq_dx, "dq_dt": central.dq_dt,
        "diagnostics": central.diagnostics,
        "path_times": central.path.times[::stride],
        "path_y": central.path.y[::stride],
    })
    print(f"wrote {grid_table}, {path_table}, {out_dir / 'classical_summary.json'}")
    return 0


def _cmd_simulate(config: checks.RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    spec = config.drift()
    epsilon = _mid_eps(config)
    x, t = config.probe_x, config.probe_t
    grid = pde._fan_grid(spec, x, epsilon, min(config.n_y, 1201), min(config.n_t, 1201), t_start=t)
    controller, _ = simulate.ControllerField.from_fields(spec, x, grid, epsilon)
    y0 = float(grid.y_nodes()[grid.nearest_node(config.probe_y)])
    sim_config = simulate.SimConfig(n_paths=config.n_paths, dt=config.dt, seed=config.seed)

    # the naive row reads the plain twin, which marches on the steered leg's draws
    steered = simulate.Leg(controller, y0, t, epsilon, sim_config)
    ensemble, plain = simulate.simulate_legs(
        spec, [steered, dataclasses.replace(steered, controller=None)])
    records = [simulate.representation_q(ensemble).as_dict()]
    for est in simulate.representation_dq(ensemble).values():
        records.append(est.as_dict())
    records.append(simulate.importance_sampling(ensemble, x).as_dict())
    records.append(simulate.estimate_u_naive(plain.terminal, x).as_dict())

    ts = _stride(ensemble.times.size)
    table = _write_table(
        out_dir / "ensemble", ["path_id", "s", "y"],
        simulate.ensemble_blocks(ensemble, time_stride=ts),
        config.table_format,
    )
    header = simulate.ensemble_header(ensemble, epsilon)
    header.update({"drift": spec.name, "y0": y0, "threshold_x": x,
                   "path_stride": ensemble.path_ids.step, "time_stride": ts, "dt": config.dt})
    tables.write_json(out_dir / "ensemble_meta.json", header)
    tables.write_json(out_dir / "estimates.json", {"estimates": records})
    print(f"wrote {table}, {out_dir / 'ensemble_meta.json'}, {out_dir / 'estimates.json'}")
    return 0


def _cmd_bridge(config: checks.RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    spec = config.drift()
    epsilon = _mid_eps(config)
    query = bridge.BridgeQuery(
        y_start=config.probe_y, T=spec.horizon_T,
        delta=config.bridge_delta, epsilon=epsilon,
    )
    starts = (config.probe_y, config.probe_y - 0.2, config.probe_y - 0.4)
    fractions = (bridge.DEFAULT_C_BELOW, bridge.DEFAULT_C_ABOVE)
    # one set of kernels serves the conditionals and the sweep
    kernels = bridge.bridge_kernels(spec, query, starts, fractions)
    cond_rows = []
    for fraction, side in zip(fractions, ("below", "above")):
        est = bridge.conditional_prob_green(kernels, query, fraction, side)
        cond_rows.append([
            est.method, side, fraction, est.mean, est.variance,
            est.prob_below, est.prob_above,
        ])
    if spec.A_of_s is not None:
        exact = bridge.linear_bridge_moments(spec, query)
        cond_rows.append([
            exact.method, "both", float("nan"), exact.mean, exact.variance,
            exact.prob_below, exact.prob_above,
        ])
    # the sweep may refuse the configuration: nothing is written before it runs
    sweep = bridge.concentration_check(spec, kernels)
    cond_table = _write_table(
        out_dir / "conditionals",
        ["method", "side", "threshold_fraction", "mean", "variance",
         "prob_below", "prob_above"],
        cond_rows, config.table_format,
    )
    conc_table = _write_table(
        out_dir / "concentration",
        ["y", "delta", "event", "probability", "bound_rhs"],
        bridge.concentration_rows(sweep),
        config.table_format,
    )
    summary = bridge.concentration_summary(sweep)
    summary.update({"drift": spec.name, "epsilon": epsilon, "delta": config.bridge_delta})
    tables.write_json(out_dir / "bridge_summary.json", summary)
    print(f"wrote {cond_table}, {conc_table}, {out_dir / 'bridge_summary.json'}")
    return 0


def _cmd_verify(config: checks.RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    reports, exit_code = checks.run_all(config, only=args.only)
    finals = []
    for report in reports:
        rows = report.observed.get("rows") if isinstance(report.observed, dict) else None
        if rows:
            header = list(rows[0].keys())
            table = _write_table(
                out_dir / _slug(report.check_name), header,
                [[row.get(k) for k in header] for row in rows],
                config.table_format,
            )
            report = dataclasses.replace(report, artifacts=(table.name,))
        finals.append(report)
        print(f"{report.status:8s} {report.check_name}")
    counts = {s: sum(1 for r in finals if r.status == s) for s in (checks.PASS, checks.FAIL, checks.SKIPPED)}
    tables.write_json(out_dir / "report.json", {
        "config": dataclasses.asdict(config),
        "exit_code": exit_code,
        "counts": counts,
        "reports": checks.report_records(finals),
    })
    print(
        f"{counts[checks.PASS]} passed, {counts[checks.FAIL]} failed, "
        f"{counts[checks.SKIPPED]} skipped -> {out_dir / 'report.json'}"
    )
    return exit_code


_COMMANDS = {
    "solve": _cmd_solve,
    "classical": _cmd_classical,
    "simulate": _cmd_simulate,
    "bridge": _cmd_bridge,
    "verify": _cmd_verify,
}

# configuration-induced failures that should exit 2 rather than raise
_CONFIG_FAULTS = (
    checks.ConfigError,
    pde.GridExtentError,
    simulate.SimulationError,
    bridge.BridgeError,
    bridge.EmptySweepError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        out_dir = Path(args.out) if args.out else Path("tailcost-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir, args)
    except _CONFIG_FAULTS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
