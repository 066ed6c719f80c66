"""One experiment in a fresh interpreter, as one CLI invocation runs it.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR MODE

MODE is `setup` (time the set-up only), `run` or `trace` (run the experiment
untraced or traced, then check its outputs). run.py starts this script with
PYTHONPATH pointing at the checkout's src/ and BLAS threads pinned to 1.
Prints one JSON line with the measurements.

Only the standard library is imported before the set-up clock starts, so
set-up time covers `import bitboundary.cli` (numpy and scipy included) and
the config construction that every CLI run pays before its first trial.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time

from workloads import VERIFY_PER_N, WORKLOADS, trials_in

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv) -> int:
    workload, seed, out_dir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    spec = WORKLOADS[workload]
    out_csv = os.path.join(out_dir, "rows.csv")
    out_json = os.path.join(out_dir, "summary.json")

    t0 = time.perf_counter()
    import bitboundary.cli  # noqa: F401  (what a CLI run imports)
    from bitboundary import harness

    config = harness.ExperimentConfig(seed=seed, out_csv=out_csv, out_json=out_json, **spec)
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    import checks
    import tracing

    if mode == "trace":
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    t1 = time.perf_counter()
    harness.run_experiment(config)
    run_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "trace":
        uninstall()
        record["trace"] = tracing.summarize(tracer, run_s)
        tracing.write_spans(tracer.spans, os.path.join(out_dir, "spans.jsonl"))
    with open(out_csv, "rb") as fh:
        rows_sha256 = hashlib.sha256(fh.read()).hexdigest()
    record.update(
        run_s=run_s,
        trials=trials_in(spec),
        peak_rss_mb=peak_rss_mb,
        rows_sha256=rows_sha256,
        config_sha256=harness.config_hash(config),
        checks=checks.verify(config, VERIFY_PER_N),
        env=environment(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
