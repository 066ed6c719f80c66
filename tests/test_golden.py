"""Golden bytes: the rows CSV and config hash of small seed-42 runs.

Every pin was computed with numpy 2.4.6 on OpenBLAS 0.3.31 with its
SkylakeX kernels (`OPENBLAS_VERBOSE=2` prints `Core: SkylakeX`). The float
columns' last bits depend on the BLAS kernel: under OpenBLAS's Haswell,
Zen, Sandybridge, Nehalem or Prescott kernels (`OPENBLAS_CORETYPE`), 10 of
these 16 tests fail, while the rows compared there differ only in the last
bits of float columns (ROADMAP item 8).

The menu is the one of the parallel-determinism gate (test_11), run
serially. The pinned SHA-256 values are the bytes these configs produced
before the per-trial `micros` column left the CSV, with that column removed,
so a refactor that passes here kept every other byte of every row.

The closest pin at n = 64, 128 was computed later, before the greedy step
moved to a per-trial flip table and reused GEMM output rows: the small pins
finish greedy in a step or two on tiny batches, this one takes several steps
on batches wider than the BLAS blocking.

The closest pin at n = 256, 512 is the only one above greedy's float32
screen size gate: its 30 greedy steps are decided by the screen, with no
float64 fallback. It was computed before the flip rows and the screen's
decisions moved into nets.

The gp-check rows pin is the one exception: it was recomputed when gp-check
moved from drawing whole networks to sampling each layer's preactivations
at the probe points (nets.sample_outputs), which draws from its own stream.

The kernel table pins are the bytes `bitboundary kernel --out-csv` wrote
while kernel profiles still carried the tabulated grid, so the CLI's own
table of F_1 .. F_{L+1} on default_grid() has kept every byte.

The summary JSON and stdout JSON pins were computed before
the harness became the one writer of CSV and JSON files and the one owner of
the provenance hash and of each kind's scaling law. JSON is compared as
parsed values; output paths, which name per-test directories, are left out.
"""

import hashlib
import json

import pytest

from bitboundary import cli
from bitboundary.harness import (
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    ExperimentConfig,
    config_hash,
    run_experiment,
)

from conftest import ACCEPTANCE_SEED

# label: (config arguments, rows CSV SHA-256, config_sha256)
GOLDEN = {
    KIND_CLOSEST: (
        dict(kind=KIND_CLOSEST, n_values=(12, 16), trials=4),
        "7ecf68fa5ae40b410a371db48d43f9a279e61e518484887ec8f0db0887220ba0",
        "2bc5813b90991efe4daecf6832a242f8757c07eaf9c8aee7d2da19bc26d2f2e5",
    ),
    KIND_FLIPS: (
        dict(kind=KIND_FLIPS, n_values=(12,), trials=6),
        "239828827adfcf1bc339c0635148350ec23883eb421b25bff8763a316d336720",
        "1a88f443bc099dd6e8b08822dda6d0a491b43fc20ff17a50080e7b507f7e9091",
    ),
    KIND_GP_CHECK: (
        dict(kind=KIND_GP_CHECK, n_values=(16,), trials=8),
        "347580d6b5582b996be376717e610ebb4cf7508d24a3219ae26bf2a37f2b82a4",
        "4219ec2916e6bfa18b5003047980c39b6a1814cf003304c1bf2a16885e774a4e",
    ),
    KIND_GREEDY_VS_EXACT: (
        dict(kind=KIND_GREEDY_VS_EXACT, n_values=(6, 8), trials=4),
        "a1020891bae5e9044294c69ee649f41627828b2b52fdb6af7e8604c2e7630eb2",
        "5099b3a9dc38d393a6cc316a731b2d6b7c4607b1e4cf136842a9bd69399ec4ff",
    ),
    "closest-n64-128": (
        dict(kind=KIND_CLOSEST, n_values=(64, 128), trials=6),
        "db1214030ce6932a46160966544026701942987a4ddf6003635bbf3df448d200",
        "9deb436cfe4f36c792e3a9d8c613ee39f21a774fedc098450e7314e1178ca7b5",
    ),
    "closest-n256-512": (
        dict(kind=KIND_CLOSEST, n_values=(256, 512), trials=6),
        "32e57e6a214c9fc1aa65c3f6f357fbb92878e0850b91a48572b9c6ee5fff7085",
        "27ed1596b3d1e73f3313063650d1d6ed8f63ee69153d1c2fcfc0272b521bc4c9",
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_rows_csv_and_config_hash_are_golden(label, tmp_path):
    args, rows_sha256, config_sha256 = GOLDEN[label]
    out = tmp_path / "rows.csv"
    config = ExperimentConfig(seed=ACCEPTANCE_SEED, out_csv=str(out), **args)
    run_experiment(config)
    assert config_hash(config) == config_sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == rows_sha256


# kernel flags: SHA-256 of the --out-csv table
KERNEL_CSV_GOLDEN = {
    "relu-default": (
        [],
        "3c43d0f600cb560bcedf8310737dd0e7f2e9edb3250d0c7ebce219d76b91556a",
    ),
    "relu-1-1-3": (
        ["--sigma-w2", "1", "--sigma-b2", "1", "--layers", "3"],
        "6d76be027130a627ae61162956be5e562cac8f767a58fa2a741861edf3a6e7b5",
    ),
}


@pytest.mark.parametrize("label", sorted(KERNEL_CSV_GOLDEN))
def test_kernel_csv_is_golden(label, tmp_path, capsys):
    flags, csv_sha256 = KERNEL_CSV_GOLDEN[label]
    out = tmp_path / "kernel.csv"
    assert cli.main(["kernel", *flags, "--out-csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256


def _parsed_sha256(obj) -> str:
    """SHA-256 of a parsed JSON object in canonical form (sorted keys), so
    the pin compares values, not layout."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# label: parsed summary JSON SHA-256 with the output paths removed
GOLDEN_OUTPUTS = {
    KIND_CLOSEST: "4bebd17545f72214e0f7400767d8abac78c04b629dd38f88c66e79d3592768a5",
    KIND_FLIPS: "7ea6430d1217d3c4220765cafdb665115d3d7aeda955058d3ab16c2faeea6884",
    KIND_GP_CHECK: "cf759c3f6fdd859e30e7a40646c3a6ef6b74271ced91560e8a045a9fd7b52fda",
    KIND_GREEDY_VS_EXACT: "f788bf7efd12654b2e22e438d86d8fa98491d61ca57587f444db351c6fbf6e23",
    "closest-n64-128": "76bc5d6dc646e9f1c8f7704b7d4e27c6141827d2f1e83f09e38581aa565b8a30",
}


@pytest.mark.parametrize("label", sorted(GOLDEN_OUTPUTS))
def test_summary_json_is_golden(label, tmp_path):
    """The summary JSON pins."""
    summary = tmp_path / "run.json"
    args = GOLDEN[label][0]
    run_experiment(ExperimentConfig(seed=ACCEPTANCE_SEED, out_json=str(summary), **args))
    obj = json.loads(summary.read_text())
    for key in ("out_csv", "out_json"):
        del obj["config"][key]
    assert _parsed_sha256(obj) == GOLDEN_OUTPUTS[label]


# command: (CLI arguments, parsed stdout JSON SHA-256); `fit` reads the rows
# CSV of the closest pin, and its `source` (the file's path) is dropped.
STDOUT_GOLDEN = {
    "kernel": (
        ["kernel"],
        "a74516c0adc0754d8100cd7a909a02ad08c393a5db6d5284d108962a96a9eef1",
    ),
    "theory-784": (
        ["theory", "--n", "784"],
        "bb142a6b0758976bff4b5866adc956b63993cfcfe542460dd55d05a565b8e2db",
    ),
    "fit-closest": (
        ["fit"],
        "eb27cdd26a9e6aa1a38257eea6b3354213e16ea37c504206d2a73c59031dae74",
    ),
}


@pytest.mark.parametrize("label", sorted(STDOUT_GOLDEN))
def test_stdout_json_is_golden(label, tmp_path, capsys):
    argv, stdout_sha256 = STDOUT_GOLDEN[label]
    if argv == ["fit"]:
        rows = tmp_path / "rows.csv"
        config_args = GOLDEN[KIND_CLOSEST][0]
        run_experiment(ExperimentConfig(seed=ACCEPTANCE_SEED, out_csv=str(rows), **config_args))
        argv = ["fit", str(rows)]
    assert cli.main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    obj.pop("source", None)
    assert _parsed_sha256(obj) == stdout_sha256
