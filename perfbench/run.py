"""Benchmark of bitboundary's Monte Carlo experiments.

    python3 perfbench/run.py --workload closest --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; the program is imported from its src/.
Load model: a closed loop with one client. One experiment runs at a time,
each in a fresh interpreter as a CLI invocation is (child.py), with trials
serial (parallel = 1) and BLAS threads pinned to 1.

--trace 0 repeats the untraced experiment until --seconds have passed and
reports the end-to-end metrics: the median over repetitions of trials per
second of run_experiment wall time, of set-up time and of peak RSS. The first
two repetitions share the workload seed, so their rows CSVs must match byte
for byte; later ones draw fresh inputs from (seed, k).

--trace 1 alternates untraced and traced repetitions of the workload seed
and reports the per-layer metrics (medians over traced repetitions) and the
tracing overhead.

Every repetition's outputs are checked (checks.py) outside its timed region.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (names and units from BENCHMARK.json). Set-up failures exit non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, rep_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed child)."""


class Runner:
    """Starts child experiments of one workload inside a scratch directory."""

    def __init__(self, workload: str, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.count = 0
        self.env = dict(os.environ, **THREADS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def child(self, seed: int, mode: str) -> dict:
        self.count += 1
        out = self.scratch / f"{self.count:03d}-{mode}"
        out.mkdir(parents=True)
        cmd = [sys.executable]
        if mode == "trace":
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), self.workload, str(seed), str(out), mode]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out after {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{tail}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["seed"] = seed
        if mode == "trace":
            record["scipy_stats_import_s"] = scipy_stats_import_s(proc.stderr)
            OUT.mkdir(exist_ok=True)
            shutil.copy(out / "spans.jsonl", OUT / f"{self.workload}-seed{seed}-spans.jsonl")
        shutil.rmtree(out)
        return record


def scipy_stats_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy.stats from a `-X importtime` log."""
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and line.split("|")[-1].strip() == "scipy.stats":
            return int(line.split("|")[1]) / 1e6
    raise BenchError("scipy.stats missing from the -X importtime log")


def timed_runs(runner: Runner, seed: int, seconds: float):
    """Untraced repetitions until `seconds` have passed (at least two)."""
    deadline = time.perf_counter() + seconds
    reps = []
    while len(reps) < 2 or time.perf_counter() < deadline:
        reps.append(runner.child(rep_seed(seed, max(0, len(reps) - 1)), "run"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.child(seed, "setup")["setup_s"])
    metrics = {
        "trials_per_s": statistics.median(r["trials"] / r["run_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, metrics, reps[:2]


def traced_runs(runner: Runner, seed: int, seconds: float):
    """Pairs of untraced and traced repetitions of the workload seed."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.child(seed, "run"))
        traced.append(runner.child(seed, "trace"))
    # median_low keeps each value one that was measured (counts stay whole).
    layers = [r["trace"]["metrics"] for r in traced]
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["import.scipy_stats_s"] = statistics.median(
        r["scipy_stats_import_s"] for r in traced
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain)
        - 1.0
    )
    return plain + traced, metrics, plain + traced


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def golden_status(workload: str, seed: int, first: dict) -> str:
    """Informational: do the rows match the bytes recorded in baseline.json?"""
    try:
        with open(HERE / "baseline.json", encoding="utf-8") as fh:
            golden = json.load(fh)["golden"][workload].get(str(seed))
    except FileNotFoundError:
        golden = None
    if golden is None:
        return f"no golden bytes recorded for seed {seed}"
    same = all(golden[k] == first[k] for k in ("rows_sha256", "config_sha256"))
    return "rows CSV and config_sha256 match baseline.json" if same else (
        "rows CSV or config_sha256 differ from baseline.json (informational)"
    )


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        runner = Runner(workload, scratch)
        collect = traced_runs if trace else timed_runs
        reps, measured, same_bytes = collect(runner, seed, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f for r in reps for f in r["checks"]["failures"]]
    attempted = sum(r["checks"]["attempted"] for r in reps) + 1
    if len({(r["rows_sha256"], r["config_sha256"]) for r in same_bytes}) != 1:
        failures.append("runs with the same code and seed wrote different rows CSVs")
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }
    env = dict(reps[0]["env"], workload_seed=seed)
    golden = golden_status(workload, seed, reps[0])
    cfg = WORKLOADS[workload]
    print(
        f"workload {workload}: {cfg['kind']} n={','.join(map(str, cfg['n_values']))} "
        f"x {cfg['trials']} trials, {cfg.get('activation', 'relu')}; seed {seed}, "
        f"trace {trace}, {len(reps)} fresh-interpreter repetitions"
    )
    print(
        f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']} threads="
        + ",".join(f"{k}={v}" for k, v in env["threads"].items())
    )
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    print(
        f"  {'verify_fail_frac':<44} {len(failures) / attempted:.6g} "
        f"({len(failures)} of {attempted} checks failed)"
    )
    for failure in failures[:10]:
        print(f"    FAILED: {failure}")
    print(f"  golden: {golden}")
    record = {
        "workload": workload,
        "spec": cfg,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "env": env,
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "golden": golden,
        "reps": [{k: v for k, v in r.items() if k != "env"} for r in reps],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bitboundary" / "harness.py").is_file():
        print(f"perfbench: no bitboundary sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
