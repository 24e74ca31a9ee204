"""Benchmark for the tailcost command line, one workload per invocation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

--seed is recorded with the result but changes no input: every workload's
work is independent of the random stream (see workloads.PROGRAM_SEED).
Each iteration is a fresh child interpreter (``child.py``) that imports
tailcost from ``src/``, writes the workload's inputs and runs its CLI
commands in-process, pinned to one BLAS thread.  Iterations repeat, one at
a time, until S seconds have passed (at least one), and
every metric is the median over the iterations of the run.

--trace 0 reports the end-to-end metrics: wall_ref_s and cpu_ref_s of the
commands, setup_s (spawn to package imported and inputs written, with
extra set-up-only children so the median has at least SETUP_SAMPLES
values) and peak_rss_mb.  The times are in reference seconds (see
``hostclock``), because the host's own speed drifts too much for raw
times to compare between runs; the raw times and the host speed are
printed beside them.  --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones plus
trace.overhead_s.  Every command's outputs pass through the workload's
gates, and all iterations of a run must write byte-identical outputs.
The last line of standard output is the JSON result; the line before it
records the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
# the end-to-end metrics, then raw figures printed beside them but not
# reported, since raw times follow the host's speed (see hostclock)
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s", "host_speed": "ratio"}
# one BLAS thread: with the default two, CPU time ran ~15% above wall time on
# classical while wall time stayed the same, so extra threads only add noise
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Run:
    """Iterations of one workload, and their failure tally."""

    def __init__(self, workload: str, scratch: Path) -> None:
        self.workload, self.scratch = workload, scratch
        self.n_ops = len(WORKLOADS[workload]()[1])
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.failures: list[str] = []
        self.versions: dict = {}
        self._n = 0

    def child(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Spawn one child, wait for it, and tally its operations."""
        self._n += 1
        job_dir = self.scratch / f"it{self._n:03d}"
        job_dir.mkdir()
        job = {"workload": self.workload, "trace": trace, "setup_only": setup_only}
        (job_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, **CHILD_ENV)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "job.json", repr(time.perf_counter())],
            cwd=job_dir, env=env, stdout=subprocess.DEVNULL,
        )
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            # also on an interrupt of this process: no child outlives it
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result_path = job_dir / "result.json"
        result = None
        if rc == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if Path(result["package"]).resolve().parent != SRC / "tailcost":
                self.failures.append(f"tailcost imported from {result['package']}")
                result = None
        if not setup_only:
            self._tally(result, rc)
        shutil.rmtree(job_dir)
        if result is None and setup_only:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"set-up child exited with {rc}")
        return result

    def _tally(self, result: dict | None, rc) -> None:
        self.attempted += self.n_ops
        if result is None:
            self.failed += self.n_ops
            self.failures.append(f"child exited with {rc}")
            return
        self.versions = result["versions"]
        failed_ops = [op for op in result["ops"] if op["failures"]]
        for op in failed_ops:
            self.failures.append(f"{' '.join(op['argv'])}: {'; '.join(op['failures'])}")
        differs = self.digest not in (None, result["digest"])
        if differs:
            self.failures.append("outputs differ between iterations")
        self.digest = result["digest"]
        # an iteration can fail at most all of its operations
        self.failed += max(len(failed_ops), int(differs))


def _timed(seconds: float, step) -> None:
    """Call step at least once and until seconds have passed."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def end_to_end(run: Run, seconds: float) -> dict:
    samples = []

    def step() -> None:
        r = run.child()
        if r is not None:
            samples.append(r)

    _timed(seconds, step)
    setups = list(samples)
    while len(setups) < SETUP_SAMPLES and run.failed == 0:
        r = run.child(setup_only=True)
        if r is not None:
            setups.append(r)
    if not samples:
        return {}
    values = {k: statistics.median(s[k] for s in samples) for k in END_TO_END}
    for key in ("setup_s", "raw_setup_s"):
        values[key] = statistics.median(s[key] for s in setups)
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(run: Run, seconds: float, units: dict) -> dict:
    import spans

    plain, traced = [], []

    def step() -> None:
        for sink, trace in ((plain, False), (traced, True)):
            r = run.child(trace=trace)
            if r is not None:
                sink.append(r)

    _timed(seconds, step)
    if not (plain and traced):
        return {}
    metrics = spans.median_metrics([r["layers"] for r in traced])
    metrics["trace.overhead_s"] = (
        statistics.median(r["raw_wall_s"] for r in traced)
        - statistics.median(r["raw_wall_s"] for r in plain)
    )
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def environment(run: Run, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailcost").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **run.versions,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tailcost" / "cli.py").is_file():
        print(f"no tailcost sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch_root = ROOT / ".perfbench-runs"
    attempted = failed = 0
    correct, results = True, {}
    for name in names:
        scratch = scratch_root / f"{name}-{os.getpid()}"
        scratch.mkdir(parents=True)
        run = Run(name, scratch)
        try:
            if args.trace:
                metrics = per_layer(run, args.seconds, units)
            else:
                metrics = end_to_end(run, args.seconds)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not metrics:
            run.failures.append("no iteration completed")
        for failure in run.failures:
            print(f"FAIL {name}: {failure}", file=sys.stderr)
        correct = correct and not run.failures
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, m in metrics.items():
            print(f"{name:12s} {key:40s} {m['value']:.6g} {m['unit']}")
            if key in reported:
                results[prefix + key] = m
        if len(names) > 1:
            print(f"{name:12s} {'error_rate':40s} {run.failed / run.attempted:.6g} ratio")
    if not any(scratch_root.iterdir()):
        scratch_root.rmdir()
    print("env " + json.dumps(environment(run, args.seed), sort_keys=True))
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
