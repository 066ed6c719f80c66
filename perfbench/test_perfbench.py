"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bitboundary
import bitboundary.cli  # noqa: F401  (load every module that binds a measured name)
from bitboundary import bitstrings, gp, harness, kernel, nets, search

import checks
import run
import tracing
from workloads import WORKLOADS, rep_seed

HERE = Path(__file__).resolve().parent

TINY = {
    "closest": {"n_values": (16, 32), "trials": 6},
    "flips": {"n_values": (16, 32), "trials": 6},
    "gp-tanh": {"n_values": (8,), "trials": 40},
}


def tiny_config(workload, tmp_path, seed=42):
    spec = dict(WORKLOADS[workload], **TINY[workload])
    return harness.ExperimentConfig(
        seed=seed,
        out_csv=str(tmp_path / "rows.csv"),
        out_json=str(tmp_path / "summary.json"),
        **spec,
    )


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_of_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("a.leaf", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b.leaf1", 5.5, 6.0, 3),
        S("b.leaf2", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0, None), S("x", 1.0, 4.0, 0), S("y", 3.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


# -- wrapper installation ----------------------------------------------------

CALLER_SIDE = [
    (harness, "sample_network", nets.sample_network),
    (harness, "forward_batch", nets.forward_batch),
    (harness, "greedy_search", search.greedy_search),
    (harness, "random_flip_walk", search.random_flip_walk),
    (harness, "profile_for_config", kernel.profile_for_config),
    (harness, "build_ensemble", gp.build_ensemble),
    (harness, "sample_block", gp.sample_block),
    (harness, "write_rows_csv", harness.write_rows_csv),
    (harness, "run_experiment", harness.run_experiment),
    (search, "forward_batch", nets.forward_batch),
    (search, "forward_from_first_layer", nets.forward_from_first_layer),
    (search, "forward_with_first_layer_cache", nets.forward_with_first_layer_cache),
    (nets, "sample_network", nets.sample_network),
    (nets, "forward_batch", nets.forward_batch),
    (nets, "forward_from_first_layer", nets.forward_from_first_layer),
    (nets, "forward_with_first_layer_cache", nets.forward_with_first_layer_cache),
    (bitboundary, "sample_network", nets.sample_network),
    (bitboundary, "forward_batch", nets.forward_batch),
    (bitboundary, "greedy_search", search.greedy_search),
    (bitboundary, "run_experiment", harness.run_experiment),
    (bitstrings.BitString, "digest", bitstrings.BitString.digest),
    (kernel.KernelProfile, "evaluate", kernel.KernelProfile.evaluate),
]


def test_install_rebinds_every_caller_side_name_and_uninstall_restores():
    uninstall = tracing.install(tracing.Tracer())
    try:
        for owner, name, original in CALLER_SIDE:
            bound = getattr(owner, name)
            assert bound is not original, f"{owner.__name__}.{name} escapes the trace"
            assert bound.__wrapped__ is original
        originals = {id(o) for _, _, o in CALLER_SIDE}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bitboundary"):
                leaked = [k for k, v in vars(mod).items() if id(v) in originals]
                assert not leaked, f"{mod_name} still binds unwrapped {leaked}"
    finally:
        uninstall()
    for owner, name, original in CALLER_SIDE:
        assert getattr(owner, name) is original


def test_every_measured_function_is_a_caller_side_name():
    measured = {tracing.span_name(m, a) for m, a, _ in tracing.MEASURED}
    listed = set()
    for owner, name, original in CALLER_SIDE:
        module = original.__module__.split(".")[-1]
        listed.add(f"{module}.{original.__qualname__}")
    assert measured <= listed


# -- smoke runs of all workloads at tiny sizes -------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_checks_clean_and_accounts_for_wall(workload, tmp_path):
    config = tiny_config(workload, tmp_path)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        wall = time.perf_counter()
        harness.run_experiment(config)
        wall = time.perf_counter() - wall
    finally:
        uninstall()
    result = checks.verify(config, per_n_sample=3)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]  # verify_fail_frac == 0
    tracing.write_spans(tracer.spans, str(tmp_path / "spans.jsonl"))
    written = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(written) == len(tracer.spans) and written[0]["parent"] is None
    assert written[0]["name"] == tracing.ROOT
    m = tracing.summarize(tracer, wall)["metrics"]
    assert 0.99 < m["trace.accounted_frac"] <= 1.0
    assert m["harness.write_rows_csv.bytes"] == (tmp_path / "rows.csv").stat().st_size
    declared = {e["name"] for e in run.benchmark_spec()["per_layer"]}
    measured_here = declared - {"import.scipy_stats_s", "trace.overhead_frac"}
    assert measured_here <= set(m)
    if workload == "closest":
        assert m["search.greedy_search.calls"] == 12
        assert m["nets.forward_from_first_layer.rows"] >= m["search.greedy_search.evaluations"]
    elif workload == "flips":
        assert m["search.random_flip_walk.calls"] == 12
        assert 0 < m["search.random_flip_walk.useful_frac"] <= 1
    else:
        assert m["kernel.profile_for_config.calls"] == 1
        assert m["gp.sample_block.draws"] == 40


def test_checks_catch_a_corrupted_row(tmp_path):
    config = tiny_config("closest", tmp_path)
    harness.run_experiment(config)
    lines = Path(config.out_csv).read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("16,0,"))
    cells = lines[first].split(",")
    cells[3] = str(int(cells[3]) + 1)  # distance
    lines[first] = ",".join(cells)
    Path(config.out_csv).write_text("\n".join(lines) + "\n")
    result = checks.verify(config, per_n_sample=6)
    assert result["failed"] >= 2  # the trial and the refit both disagree


def test_gp_check_flags_out_of_range_z(tmp_path):
    config = tiny_config("gp-tanh", tmp_path)
    harness.run_experiment(config)
    summary = json.loads(Path(config.out_json).read_text())
    meta, columns, rows = harness.read_rows_csv(config.out_csv)
    rows[0] = tuple(9.0 if c == "net_z" else v for c, v in zip(columns, rows[0]))
    bad = checks.Checks()
    checks._gp(bad, columns, rows, summary)
    assert len(bad.failures) == 2  # the row and the max-|z| summary


# -- runner plumbing ---------------------------------------------------------


def test_rep_seeds_start_at_the_workload_seed_and_differ():
    assert rep_seed(42, 0) == 42
    assert len({rep_seed(42, k) for k in range(20)}) == 20
    assert rep_seed(42, 3) != rep_seed(43, 3)


def test_scipy_stats_import_time_parsed_from_importtime_log():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |       5000 |     scipy.stats._stats\n"
        "import time:       300 |     571234 |   scipy.stats\n"
    )
    assert run.scipy_stats_import_s(log) == pytest.approx(0.571234)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closest", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
