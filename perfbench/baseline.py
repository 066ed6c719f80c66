"""Collect the run records in .perfbench_out/ into perfbench/baseline.json.

    python3 perfbench/baseline.py

Reads every `<workload>-seed<seed>-trace<0|1>.json` that run.py wrote and
records, per workload: the median and quartiles of each end-to-end metric
over the untraced runs, the per-layer metrics of the traced runs, the
per-trial time at n = 512 from the traced spans, and the golden bytes (rows
CSV SHA-256 and config_sha256 of the workload seed's first repetition) for
every seed run. run.py compares later runs with these golden bytes.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE.parent / ".perfbench_out"


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def per_trial_ms_n512(record: dict) -> dict:
    """Mean ms per trial at n = 512 by span, over the traced repetitions."""
    spans: dict = {}
    for rep in record["reps"]:
        for name, by_n in rep.get("trace", {}).get("ms_by_n", {}).items():
            if "512" in by_n:
                spans.setdefault(name, []).append(by_n["512"])
    out = {name: statistics.fmean(v) for name, v in spans.items()}
    if out:
        out["trial_total"] = sum(out.values())
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*-seed*-trace*.json"))]
    baseline: dict = {"env": None, "workloads": {}, "golden": {}}
    for rec in records:
        w = baseline["workloads"].setdefault(rec["workload"], {"untraced": {}, "traced": {}})
        baseline["env"] = {k: v for k, v in rec["env"].items() if k != "workload_seed"}
        kind = "traced" if rec["trace"] else "untraced"
        w[kind][str(rec["seed"])] = {k: v["value"] for k, v in rec["metrics"].items()}
        if rec["trace"]:
            w.setdefault("per_trial_ms_n512", {})[str(rec["seed"])] = per_trial_ms_n512(rec)
        first = rec["reps"][0]
        baseline["golden"].setdefault(rec["workload"], {})[str(rec["seed"])] = {
            "rows_sha256": first["rows_sha256"],
            "config_sha256": first["config_sha256"],
        }
    for w in baseline["workloads"].values():
        runs = list(w["untraced"].values())
        if len(runs) >= 2:
            w["end_to_end"] = {m: quartiles([r[m] for r in runs]) for m in runs[0]}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
