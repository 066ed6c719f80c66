"""Golden bytes: the rows CSV and config hash of small seed-42 runs.

The menu is the one of the parallel-determinism gate (test_11), run
serially. The pinned SHA-256 values are the bytes these configs produced
before the per-trial `micros` column left the CSV, with that column removed,
so a refactor that passes here kept every other byte of every row.

The gp-check rows pin is the one exception: it was recomputed when gp-check
moved from drawing whole networks to sampling each layer's preactivations
at the probe points (nets.sample_outputs), which draws from its own stream.
"""

import hashlib

import pytest

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

# kind: (config arguments, rows CSV SHA-256, config_sha256)
GOLDEN = {
    KIND_CLOSEST: (
        dict(n_values=(12, 16), trials=4),
        "7ecf68fa5ae40b410a371db48d43f9a279e61e518484887ec8f0db0887220ba0",
        "2bc5813b90991efe4daecf6832a242f8757c07eaf9c8aee7d2da19bc26d2f2e5",
    ),
    KIND_FLIPS: (
        dict(n_values=(12,), trials=6),
        "239828827adfcf1bc339c0635148350ec23883eb421b25bff8763a316d336720",
        "1a88f443bc099dd6e8b08822dda6d0a491b43fc20ff17a50080e7b507f7e9091",
    ),
    KIND_GP_CHECK: (
        dict(n_values=(16,), trials=8),
        "347580d6b5582b996be376717e610ebb4cf7508d24a3219ae26bf2a37f2b82a4",
        "4219ec2916e6bfa18b5003047980c39b6a1814cf003304c1bf2a16885e774a4e",
    ),
    KIND_GREEDY_VS_EXACT: (
        dict(n_values=(6, 8), trials=4),
        "a1020891bae5e9044294c69ee649f41627828b2b52fdb6af7e8604c2e7630eb2",
        "5099b3a9dc38d393a6cc316a731b2d6b7c4607b1e4cf136842a9bd69399ec4ff",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_rows_csv_and_config_hash_are_golden(kind, tmp_path):
    args, rows_sha256, config_sha256 = GOLDEN[kind]
    out = tmp_path / "rows.csv"
    config = ExperimentConfig(kind=kind, seed=ACCEPTANCE_SEED, out_csv=str(out), **args)
    run_experiment(config)
    assert config_hash(config) == config_sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == rows_sha256
