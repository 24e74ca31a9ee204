"""The benchmark's own tests; not part of the package's test suite.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/selftest.py

The second test runs two traced iterations of the verify workload (about
half a minute on two cores).
"""

from __future__ import annotations

import json
import math
import os
import shutil

import hostclock
import run
import spans


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts or {}]


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("pde.solve_u", 1.0, 4.0, 0, {"cells": 7}),
        _span("drifts.characteristic_F", 2.0, 3.0, 1),
        # overlapping and overhanging children count once and only inside the parent
        _span("pde.solve_u", 3.0, 6.0, 0, {"cells": 5}),
        _span("tables.write_csv", 8.0, 12.0, 0, {"bytes": 9}),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 4.0]

    m = spans.layer_metrics(tree)
    assert m["pde.solve_u.calls"] == 2
    assert m["pde.solve_u.self_s"] == 5.0
    assert m["pde.solve_u.cells"] == 12
    assert m["pde.cells_per_s"] == 12 / 5.0
    assert m["tables.write_csv.bytes"] == 9
    assert m["layer.pde.self_s"] == 5.0
    assert m["layer.drifts.self_s"] == 1.0
    assert m["cli.main.self_s"] == 3.0
    assert math.isclose(m["trace.coverage"], 0.7)
    assert m["action.sweeps_per_solve"] == 0.0


def test_reference_seconds_drop_handler_time_and_scale_by_kernels():
    clock = hostclock.HostClock(t_spawn=0.0)
    nominal = {name: k[1] for name, k in hostclock.KERNELS.items()}
    slow = {"rk4": 2.0, "loop": 1.25, "array": 1.0, "memory": 1.0}
    # two samples inside the interval, the third after it
    inside = {n: (nominal[n] * slow[n], nominal[n] * slow[n]) for n in nominal}
    clock.samples = [inside, inside, {n: (1.0, 1.0) for n in nominal}]
    # (wall, cpu, handler wall, handler cpu, samples so far)
    start, end = (10.0, 1.0, 0.25, 0.5, 0), (20.0, 9.0, 1.25, 1.0, 2)

    out = clock.normalise(start, end, {"rk4": 1.0})
    assert out["raw_wall_s"] == 9.0 and out["raw_cpu_s"] == 7.5
    assert math.isclose(out["host_speed"], 0.5)
    assert math.isclose(out["wall_ref_s"], 4.5) and math.isclose(out["cpu_ref_s"], 3.75)

    both = clock.normalise(start, end, {"rk4": 1.0, "loop": 3.0})
    speed = (nominal["rk4"] + 3.0 * nominal["loop"]) / (
        2.0 * nominal["rk4"] + 3.0 * 1.25 * nominal["loop"])
    assert math.isclose(both["wall_ref_s"], 9.0 * speed)


def test_count_metrics_repeat_across_traced_runs():
    names = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in names}
    scratch = run.ROOT / ".perfbench-runs" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        bench = run.Run("verify", scratch)
        first, second = (bench.child(trace=True) for _ in range(2))
    finally:
        shutil.rmtree(scratch)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    assert bench.failures == [] and bench.failed == 0

    reported = set(first["layers"]) | {"trace.overhead_s"}
    assert reported == set(units)
    counts = [k for k, unit in units.items() if unit in ("count", "B") and k in first["layers"]]
    for key in ("pde.solve_u.cells", "pde.green_function.marches", "action.rk4_lane_steps",
                "simulate.path_steps", "simulate.stored_path_bytes"):
        assert key in counts and first["layers"][key] > 0
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    assert first["layers"]["trace.coverage"] >= 0.95
