"""Command-line surface: artifacts, exit codes, and byte-level determinism.

Everything runs in process through main(argv) with outputs under
tmp_path; the slow battery members are covered by their own test
modules, so verify here is always filtered with --only.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tailcost import action, bridge, checks, cli, drifts, pde, simulate

SMALL = {
    "drift_kind": "zero",
    "eps_list": [0.2],
    "n_y": 401,
    "n_t": 301,
    "n_paths": 400,
    "dt": 0.01,
}


def _cfg(tmp_path: Path, **overrides) -> str:
    payload = dict(SMALL, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------- happy paths

def test_solve_writes_field_and_meta(tmp_path: Path) -> None:
    rc = cli.main(["solve", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = _rows(tmp_path / "o" / "field.csv")
    assert list(rows[0]) == ["t", "y", "u", "q", "dq_dy", "dq_dx"]
    assert all(0.0 <= float(r["u"]) <= 1.0 + 1e-12 for r in rows)
    meta = json.loads((tmp_path / "o" / "field_meta.json").read_text())
    assert meta["drift"] == "zero"
    assert meta["epsilon"] == 0.2
    assert meta["grid"]["n_y"] == 401
    assert meta["diagnostics"]["max_principle"] <= 1e-9


def test_classical_writes_grid_path_and_summary(tmp_path: Path) -> None:
    rc = cli.main(["classical", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    grid = _rows(tmp_path / "o" / "classical_grid.csv")
    assert len(grid) == 25  # five threshold offsets times five start offsets
    assert all(float(r["gap"]) <= 1e-4 for r in grid)
    path = _rows(tmp_path / "o" / "classical_path.csv")
    assert list(path[0]) == ["s", "y", "p", "control"]
    summary = json.loads((tmp_path / "o" / "classical_summary.json").read_text())
    # zero drift from y=-1 to the threshold: straight line, unit slope cost
    assert summary["q_value"] == pytest.approx(0.5, abs=1e-9)
    assert summary["dq_dy"] == pytest.approx(-1.0, abs=1e-6)


def test_simulate_writes_estimates_and_ensemble(tmp_path: Path) -> None:
    rc = cli.main(["simulate", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "estimates.json").read_text())
    names = [rec["name"] for rec in payload["estimates"]]
    assert len(names) == 6  # cost, three slopes, reweighted mass, naive mass
    assert len(set(names)) == 6
    assert all("estimate" in rec and "std_error" in rec for rec in payload["estimates"])
    meta = json.loads((tmp_path / "o" / "ensemble_meta.json").read_text())
    assert meta["n_paths"] == 400
    assert meta["escaped"] == 0  # zero drift stays far from the grid walls
    assert (tmp_path / "o" / "ensemble.csv").exists()


def test_simulate_runs_one_steered_ensemble(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the representations and the reweighted mass all average one ensemble
    calls = []
    steer = simulate.simulate_controlled

    def counted(*args, **kwargs):
        calls.append(args)
        return steer(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_controlled", counted)
    rc = cli.main(["simulate", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 1


def test_simulate_steers_on_one_cost_field(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the controller reads the centre threshold's field only: no threshold fan
    calls = []
    solve = pde.solve_u

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pde, "solve_u", counted)
    rc = cli.main(["simulate", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 1


def test_classical_shoots_the_grid_in_a_few_batched_sweeps(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # one ladder sweep, a few Newton sweeps and one node record for all 25
    # grid points; the probe's own solution is the grid's zero-offset point
    calls = []
    shoot = action.shoot_terminal

    def counted(*args, **kwargs):
        calls.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(action, "shoot_terminal", counted)
    config = _cfg(tmp_path, drift_kind="sin")
    rc = cli.main(["classical", "--config", config, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) <= 8


def test_direct_minimizer_factors_a_few_times_per_point(monkeypatch: pytest.MonkeyPatch) -> None:
    # Newton from the straight line: a handful of tridiagonal factorizations
    # per point on the criterion-02 grid, shifted refactors included
    calls = []
    factor = action.dpttrf

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(action, "dpttrf", counted)
    specs = (
        drifts.zero_drift(), drifts.linear_drift(0.5), drifts.time_varying_linear(0.3, 0.2, 3.0),
        drifts.logcosh_drift(), drifts.sin_drift(),
    )
    for spec in specs:
        for x in (-0.5, -0.25, 0.0, 0.25, 0.5):
            for y in (-2.0, -1.75, -1.5, -1.25, -1.0):
                calls.clear()
                action.minimize_direct(spec, x, y)
                assert 1 <= len(calls) <= 5, f"{spec.name} at ({x}, {y}): {len(calls)}"


def test_cli_import_leaves_scipy_stats_out() -> None:
    # scipy.stats costs about half a second of start-up; the Gaussian cdf
    # comes from scipy.special
    script = "import sys, tailcost.cli\nprint('scipy.stats' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_integrate_and_optimize_out() -> None:
    # the two smooth 1-D integrals use a fixed Gauss-Legendre rule, so the
    # adaptive quadrature stack and the optimizers it pulls in stay unloaded
    script = (
        "import sys, tailcost.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _count_marches(monkeypatch: pytest.MonkeyPatch) -> list:
    calls = []
    march = bridge._cn_march

    def counted(*args, **kwargs):
        calls.append(args)
        return march(*args, **kwargs)

    monkeypatch.setattr(bridge, "_cn_march", counted)
    return calls


@pytest.mark.parametrize("delta", [0.25, 0.5])
def test_bridge_builds_each_distinct_kernel_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, delta: float
) -> None:
    # two conditionals and three concentration cells on one lattice: one
    # backward march from the pin, one forward march with a column per start
    # (at delta 0.5 the below threshold widens the lattice, not the count)
    calls = _count_marches(monkeypatch)
    config = _cfg(tmp_path, bridge_delta=delta)
    assert cli.main(["bridge", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 2
    forward = [data for spec, data, grid, eps, wall, backward in calls if not backward]
    assert [d.shape[0] for d in forward] == [3]


def test_bridge_falls_back_to_a_lattice_per_start(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # -1.0001, -1.2001 and -1.4001 share only a 1e-4 spacing, far finer than
    # any start anchors alone: each start keeps its own lattice
    calls = _count_marches(monkeypatch)
    config = _cfg(tmp_path, probe_y=-1.0001)
    assert cli.main(["bridge", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 6
    assert all(data.ndim == 1 for _, data, *_ in calls)
    assert len(_rows(tmp_path / "o" / "concentration.csv")) == 6


def test_bridge_writes_conditionals_with_exact_row(tmp_path: Path) -> None:
    rc = cli.main(["bridge", "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = _rows(tmp_path / "o" / "conditionals.csv")
    methods = [r["method"] for r in rows]
    assert methods.count("green-quadrature") == 2
    assert methods.count("exact-linear") == 1  # zero drift is linear
    quad = {r["side"]: r for r in rows if r["method"] == "green-quadrature"}
    exact = [r for r in rows if r["method"] == "exact-linear"][0]
    assert float(quad["below"]["mean"]) == pytest.approx(float(exact["mean"]), rel=1e-3)
    conc = _rows(tmp_path / "o" / "concentration.csv")
    assert all(float(r["probability"]) <= float(r["bound_rhs"]) for r in conc)
    summary = json.loads((tmp_path / "o" / "bridge_summary.json").read_text())
    assert summary["passed"] is True


def test_verify_only_writes_report_and_artifact(tmp_path: Path) -> None:
    out = tmp_path / "o"
    rc = cli.main(["verify", "--only", "convexity:zero", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"config", "exit_code", "counts", "reports"}
    assert report["exit_code"] == 0
    assert report["counts"] == {"pass": 1, "fail": 0, "skipped": 0}
    (rec,) = report["reports"]
    assert set(rec) == {
        "check_name", "status", "observed", "expected", "tolerance",
        "paper_anchor", "artifacts",
    }
    assert rec["artifacts"] == ["convexity-zero.csv"]
    rows = _rows(out / "convexity-zero.csv")
    assert "min_eigenvalue" in rows[0]


def test_verify_artifact_names_keep_numeric_tails(tmp_path: Path) -> None:
    out = tmp_path / "o"
    rc = cli.main(["verify", "--only", "convexity:logcosh", "--out", str(out)])
    assert rc == 0
    assert (out / "convexity-logcosh-c-0.5.csv").exists()


def test_verify_json_format(tmp_path: Path) -> None:
    out = tmp_path / "o"
    rc = cli.main([
        "verify", "--only", "convexity:zero", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    table = json.loads((out / "convexity-zero.json").read_text())
    assert set(table) == {"header", "rows"}
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["table_format"] == "json"


def test_verify_runs_are_byte_identical(tmp_path: Path) -> None:
    for sub in ("a", "b"):
        rc = cli.main(["verify", "--only", "convexity:zero", "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("report.json", "convexity-zero.csv"):
        one = (tmp_path / "a" / name).read_bytes()
        two = (tmp_path / "b" / name).read_bytes()
        assert one == two
    # no absolute paths or timestamps may leak into the report
    assert str(tmp_path).encode() not in (tmp_path / "a" / "report.json").read_bytes()


def test_seed_flag_overrides_config(tmp_path: Path) -> None:
    out = tmp_path / "o"
    rc = cli.main([
        "verify", "--only", "cdf-bound", "--seed", "123", "--out", str(out),
        "--config", _cfg(tmp_path, seed=7),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 123


# -------------------------------------------------------------- exit codes

def test_verify_propagates_battery_failure(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    stub = checks.VerificationReport(
        check_name="stub", status="fail", observed={"rows": [{"a": 1.0}]},
        expected="", tolerance=0.0, anchor="cross-route",
    )
    monkeypatch.setattr(checks, "run_all", lambda config, only=None: ([stub], 1))
    out = tmp_path / "o"
    rc = cli.main(["verify", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 1
    assert report["counts"]["fail"] == 1
    assert report["reports"][0]["artifacts"] == ["stub.csv"]


def _expect_config_error(capsys: pytest.CaptureFixture, argv: list[str]) -> None:
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_config_error_exit_codes(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    out = ["--out", str(tmp_path / "o")]
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope", encoding="utf-8")
    _expect_config_error(capsys, ["verify", "--config", str(bad_json)] + out)
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    _expect_config_error(capsys, ["verify", "--config", str(not_object)] + out)
    _expect_config_error(capsys, ["verify", "--config", str(tmp_path / "missing.json")] + out)
    _expect_config_error(capsys, ["verify", "--config", _cfg(tmp_path, warp_speed=9)] + out)
    _expect_config_error(capsys, ["verify", "--config", _cfg(tmp_path, eps_list=["a"])] + out)
    _expect_config_error(capsys, ["solve", "--config", _cfg(tmp_path, drift_kind="warp")] + out)
    # verify never builds the drift, yet it must refuse a kind it could not build
    _expect_config_error(
        capsys, ["verify", "--only", "cdf", "--config", _cfg(tmp_path, drift_kind="warp")] + out
    )
    _expect_config_error(capsys, ["verify", "--only", "no-such-check"] + out)
    _expect_config_error(capsys, ["verify", "--seed", "-1"] + out)
    # step size too coarse for the horizon: simulation refuses to run
    _expect_config_error(capsys, ["simulate", "--config", _cfg(tmp_path, dt=0.2)] + out)


def test_integer_config_fields_reject_other_types(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    out = ["--out", str(tmp_path / "o")]
    for fields, name in (
        ({"n_paths": 150.5}, "n_paths"),
        ({"n_y": 301.5, "n_t": 101}, "n_y"),
        ({"n_t": 301.0}, "n_t"),
        ({"seed": True}, "seed"),
    ):
        assert cli.main(["simulate", "--config", _cfg(tmp_path, **fields)] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name} must be an integer")


@pytest.mark.parametrize("command, fields", [
    ("classical", {"probe_x": "0"}),
    ("classical", {"probe_t": "0"}),
    ("classical", {"probe_x": float("nan")}),
    ("classical", {"probe_y": float("inf")}),
    ("verify", {"eps_list": [0.4, float("nan"), 0.1, 0.05]}),
    ("verify", {"eps_list": [True, 0.2, 0.1, 0.05]}),
    ("verify", {"eps_list": ["0.4", 0.2, 0.1, 0.05]}),
    ("verify", {"drift_kind": "linear", "drift_params": {"A": True},
                "eps_list": [0.4, 0.2, 0.1, 0.05]}),
    ("classical", {"drift_kind": "linear", "drift_params": {"A": 0.5, "T": True}}),
])
def test_bad_float_config_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, command: str, fields: dict
) -> None:
    argv = [command, "--config", _cfg(tmp_path, **fields), "--out", str(tmp_path / "o")]
    if command == "verify":
        argv += ["--only", "rate-limit:zero"]
    _expect_config_error(capsys, argv)


def test_step_past_the_terminal_cutoff_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # a step as long as the horizon leaves nothing before the terminal cutoff
    argv = ["simulate", "--config", _cfg(tmp_path, dt=1.0), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "configuration error: terminal cutoff swallows the whole horizon\n"


def test_unresolvable_linear_drift_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # A(s) = 0.25 + 0.25 cos(3000 s) is too fast for 64 Gauss-Legendre panels
    params = {"a0": 0.25, "a1": 0.25, "omega": 3000.0}
    argv = ["bridge", "--config", _cfg(tmp_path, drift_kind="linear_tv", drift_params=params)]
    _expect_config_error(capsys, argv + ["--out", str(tmp_path / "o")])


def test_step_count_beyond_memory_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # 1e6 paths of 1e10 steps: an 80 GB time grid and 4 TB of recorded rows
    too_fine = _cfg(tmp_path, n_paths=1_000_000, dt=1e-10)
    assert cli.main(["simulate", "--config", too_fine, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "80 GB for the time grid" in err and "4e+03 GB for the recorded rows" in err
    assert "physical memory" in err
    config = simulate.SimConfig(n_paths=1_000_000, dt=1e-6, seed=0)
    with pytest.raises(checks.ConfigError, match="physical memory"):
        simulate.simulate_uncontrolled(drifts.zero_drift(), -1.0, 0.0, 0.2, config)


def test_probe_at_the_horizon_is_a_config_error(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    out = ["--out", str(tmp_path / "o")]
    for command in ("solve", "classical", "simulate"):
        _expect_config_error(capsys, [command, "--config", _cfg(tmp_path, probe_t=1.0)] + out)


def test_solver_value_error_is_not_a_configuration_error(tmp_path: Path) -> None:
    # a fault inside the solvers exits non-zero with its own message
    script = (
        "import sys\n"
        "from tailcost import cli, pde\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('solver fault')\n"
        "pde.solve_u = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--config", _cfg(tmp_path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "ValueError: solver fault" in proc.stderr
    assert "configuration error" not in proc.stderr


def test_drift_breaking_its_declared_flags_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # c < 0 makes the log-cosh drift convex with a negative Lipschitz bound
    cfg = _cfg(tmp_path, drift_kind="logcosh", drift_params={"c": -0.5})
    _expect_config_error(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    _expect_config_error(
        capsys, ["verify", "--only", "cdf", "--config", cfg, "--out", str(tmp_path / "o")]
    )


def test_missing_subcommand_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
