"""Span tracing installed from outside the package, and the per-layer metrics.

``install`` wraps every public module-level function of the tailcost
modules, rebinding each binding of the same function object (so
``characteristic_F`` is traced whether called through drifts, action or
checks), plus the ``ControllerField`` methods on the class.  A span is
``[name, start, end, parent, counts]`` with ``perf_counter`` seconds;
spans stay in memory until the iteration writes them out.  Counts are
computed from call arguments and results after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "checks", "pde", "action", "simulate", "bridge", "drifts", "tables")
# per-element helpers: a span per table cell or JSON node would swamp the
# trace; their cost stays in the self time of write_csv and write_json
UNTRACED = {"tables.scrub", "tables.format_cell"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Traced stand-in for fn; generators are drained inside the span."""
        sig = inspect.signature(fn) if count else None
        drain = inspect.isgeneratorfunction(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, {}])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = count(bound.arguments, result)
            return iter(result) if drain else result

        return traced


def _counters(tailcost) -> dict:
    """span name -> count(arguments, result) for the spans that carry counts."""
    def sim_steps(a, r):
        cfg, span = a["config"], a["spec"].horizon_T - a["t"]
        return {"path_steps": cfg.n_paths * max(1, math.ceil(span / cfg.dt - 1e-12))}

    def paths(a, r):
        n, m = r.paths.shape
        escaped = 0 if r.escaped is None else int(r.escaped.sum())
        return {"path_steps": n * (m - 1), "stored_path_bytes": r.paths.nbytes,
                "paths": n, "escaped": escaped}

    return {
        "pde.solve_u": lambda a, r: {"cells": a["grid"].n_y * a["grid"].n_t},
        "pde.green_function": lambda a, r: {"marches": int(r.x_nodes.size)},
        "pde.hopf_cole": lambda a, r: {
            "bytes": r.q.nbytes + r.dq_dy.nbytes + r.dq_dx.nbytes + r.overflow_mask.nbytes},
        "action.shoot_terminal": lambda a, r: {"rk4_lane_steps": r.size * a["n_steps"]},
        "simulate.simulate_controlled": paths,
        "simulate.simulate_uncontrolled": paths,
        "simulate.terminal_sample": sim_steps,
        "simulate.importance_sampling": lambda a, r: {
            "ess": r.extra["ess"], "n": r.n, "rel_se": r.std_error / r.estimate},
        "bridge.bridge_kernel": lambda a, r: {"cells": 2 * r.xi.size * (
            a["resources"] or tailcost.bridge.GreenResources()).n_t},
        "tables.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    }


def install(tracer: Tracer) -> None:
    import tailcost

    modules = [importlib.import_module(f"tailcost.{layer}") for layer in LAYERS]
    counters = _counters(tailcost)
    traced = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                traced[obj] = tracer.wrap(name, obj, counters.get(name))
    for mod in (tailcost, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in traced:
                setattr(mod, attr, traced[obj])
    field = tailcost.simulate.ControllerField
    field.evaluate = tracer.wrap("simulate.ControllerField.evaluate", field.evaluate)
    field.from_fields = classmethod(
        tracer.wrap("simulate.ControllerField.from_fields", field.from_fields.__func__))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """The per-layer metrics of one traced iteration (names as in BENCHMARK.json)."""
    own = self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for span, s in zip(spans, own):
        calls[span[0]] += 1
        self_s[span[0]] += s
        for key, value in span[4].items():
            counts[span[0]][key] += value

    m = {}
    for name, fields in (
        ("pde.solve_u", ("calls", "self_s")),
        ("pde.green_function", ("self_s",)),
        ("pde.solve_bundle", ("self_s",)),
        ("pde.hopf_cole", ("self_s",)),
        ("action.solve_shooting", ("calls", "self_s")),
        ("action.shoot_terminal", ("calls", "self_s")),
        ("action.minimize_direct", ("calls", "self_s")),
        ("simulate.simulate_controlled", ("calls", "self_s")),
        ("simulate.ControllerField.evaluate", ("calls", "self_s")),
        ("simulate.terminal_sample", ("self_s",)),
        ("bridge.bridge_kernel", ("calls", "self_s")),
        ("bridge.conditional_prob_green", ("self_s",)),
        ("bridge.concentration_check", ("self_s",)),
        ("tables.write_csv", ("self_s",)),
        ("tables.write_json", ("self_s",)),
        ("drifts.characteristic_F", ("calls", "self_s")),
        ("checks.run_all", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for f in fields:
            m[f"{name}.{f}"] = calls[name] if f == "calls" else self_s[name]

    m["pde.solve_u.cells"] = counts["pde.solve_u"]["cells"]
    m["pde.green_function.marches"] = counts["pde.green_function"]["marches"]
    m["pde.hopf_cole.bytes"] = counts["pde.hopf_cole"]["bytes"]
    m["pde.cells_per_s"] = _ratio(m["pde.solve_u.cells"], self_s["pde.solve_u"])

    m["action.rk4_lane_steps"] = counts["action.shoot_terminal"]["rk4_lane_steps"]
    # sweeps inside binding solves over the solves that needed any
    sweeps = defaultdict(int)
    for span in spans:
        if span[0] == "action.shoot_terminal":
            p = span[3]
            while p >= 0 and spans[p][0] != "action.solve_shooting":
                p = spans[p][3]
            if p >= 0:
                sweeps[p] += 1
    m["action.sweeps_per_solve"] = _ratio(sum(sweeps.values()), len(sweeps))

    stepping = ("simulate.simulate_controlled", "simulate.simulate_uncontrolled",
                "simulate.terminal_sample")
    steps = sum(counts[n]["path_steps"] for n in stepping)
    m["simulate.path_steps"] = steps
    m["simulate.path_steps_per_s"] = _ratio(steps, sum(self_s[n] for n in stepping))
    m["simulate.stored_path_bytes"] = sum(counts[n]["stored_path_bytes"] for n in stepping)
    ctl = counts["simulate.simulate_controlled"]
    m["simulate.escaped_fraction"] = _ratio(ctl["escaped"], ctl["paths"])
    last_is = [s[4] for s in spans if s[0] == "simulate.importance_sampling" and s[4]]
    m["simulate.is_ess"] = _ratio(last_is[-1]["ess"], last_is[-1]["n"]) if last_is else 0.0
    m["simulate.is_rel_se"] = last_is[-1]["rel_se"] if last_is else 0.0

    m["bridge.bridge_kernel.cells"] = counts["bridge.bridge_kernel"]["cells"]
    m["tables.write_csv.bytes"] = counts["tables.write_csv"]["bytes"]

    layer_self = defaultdict(float)
    for name, s in self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    # share of the commands' duration that layer spans below cli.main account for
    main_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    m["trace.coverage"] = 1.0 - _ratio(self_s["cli.main"], main_s) if main_s else 0.0
    m["trace.spans"] = len(spans)
    return m


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
