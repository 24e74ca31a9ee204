"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 child.py JOB T_SPAWN`` in an empty iteration directory,
where JOB is a JSON file ``{"workload", "trace", "setup_only"}`` and
T_SPAWN the parent's ``perf_counter`` just before the spawn.  The child
imports tailcost, writes the workload's inputs (the end of set-up), runs
the CLI commands in this process, and only then checks their outputs, so
the gates stay out of the timed region.  An untraced child samples the
host's speed with a ``HostClock`` from its first line and reports set-up
and command times in reference seconds as well as raw.  It writes
``result.json`` (and, when traced, ``spans.json``) next to JOB.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

from hostclock import HostClock
from workloads import ALL_KINDS, REFERENCE_MIX, WORKLOADS

IGNORED_OUTPUTS = {"job.json", "result.json", "spans.json"}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _outputs_digest(root: Path, inputs: dict) -> str:
    """sha256 over every file the commands wrote, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in IGNORED_OUTPUTS or rel in inputs:
            continue
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(job_path: str, t_spawn: float) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    # traced iterations report self times, which the handler would inflate
    clock = None if job["trace"] else HostClock(t_spawn)
    if clock is not None:
        clock.start()
    try:
        return _main(job, clock)
    finally:
        if clock is not None:
            clock.stop()


def _main(job: dict, clock: HostClock | None) -> int:
    import tailcost.cli

    inputs, ops = WORKLOADS[job["workload"]]()
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    for name, payload in inputs.items():
        Path(name).write_text(json.dumps(payload), encoding="utf-8")
    result = {"package": tailcost.cli.__file__}
    if clock is not None:
        setup = clock.normalise(clock.spawned, clock.mark(), ALL_KINDS)
        result["setup_s"], result["raw_setup_s"] = setup["wall_ref_s"], setup["raw_wall_s"]
    if not job["setup_only"]:
        result.update(_run(ops, tracer, inputs, clock, REFERENCE_MIX[job["workload"]]))
        result["versions"] = _versions()
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run(ops: list, tracer, inputs: dict, clock: HostClock | None, mix: dict) -> dict:
    import tailcost.cli

    records = []
    mark0 = clock.mark() if clock is not None else None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv, _ in ops:
            try:
                records.append({"argv": argv, "rc": tailcost.cli.main(argv), "error": None})
            except (Exception, SystemExit) as exc:
                traceback.print_exc()
                records.append({"argv": argv, "rc": None, "error": repr(exc)})
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    timing = {"raw_wall_s": wall, "raw_cpu_s": cpu}
    if clock is not None:
        timing = clock.normalise(mark0, clock.mark(), mix)
        clock.stop()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    root = Path(".")
    for rec, (_, gate) in zip(records, ops):
        if rec["error"] is not None:
            rec["failures"] = [rec["error"]]
        elif rec["rc"] != 0:
            rec["failures"] = [f"exit code {rec['rc']}"]
        else:
            try:
                rec["failures"] = gate(root)
            except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
                rec["failures"] = [f"unreadable output: {exc!r}"]
    ess_warnings = sum("collapsed" in str(w.message) for w in caught)
    out = {
        **timing,
        "peak_rss_mb": maxrss_mb,
        "ops": records,
        "digest": _outputs_digest(root, inputs),
        "ess_warnings": ess_warnings,
    }
    if tracer is not None:
        import spans

        Path("spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        out["layers"] = spans.layer_metrics(tracer.spans)
        out["layers"]["simulate.ess_warnings"] = ess_warnings
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
