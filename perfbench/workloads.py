"""The benchmark's workloads: one experiment config per name.

Each workload is an ExperimentConfig minus its seed and output paths; the
benchmark adds those. Every workload runs ReLU or tanh networks with
sigma_w^2 = 2, sigma_b^2 = 0 and L = 2 hidden layers of width n, trials run
serially (parallel = 1), and each stresses a different layer (see README.md).

Per-repetition trial counts keep one repetition at about 4-5 s on one core
(about 10 s for gp-tanh, whose tanh kernel build costs about 3 s whatever
the trial count, so that weight sampling still dominates it); a run repeats
the experiment until its time is used up.
"""

from __future__ import annotations

import hashlib

N_VALUES = (64, 128, 256, 512)  # DESK_DEFAULTS n-list of closest and flips

WORKLOADS = {
    # Headline experiment: greedy search plus tail-layer forward passes over
    # n-row candidate batches. Walk, GP code and quadrature are idle.
    "closest": {"kind": "closest", "n_values": N_VALUES, "trials": 50},
    # Full forward passes on 64-row walk blocks and one network sample per
    # trial. Greedy is idle.
    "flips": {"kind": "flips", "n_values": N_VALUES, "trials": 200},
    # No search: weight sampling, then the tanh kernel by polar quadrature
    # (ReLU skips it through its closed form). Holds the memory peak.
    "gp-tanh": {
        "kind": "gp-check",
        "n_values": (512,),
        "trials": 400,
        "activation": "tanh",
    },
}

# Per-n trials re-run by the output checks in each repetition.
VERIFY_PER_N = 5


def rep_seed(seed: int, k: int) -> int:
    """Experiment seed of the k-th distinct repetition of a run.

    k = 0 is the workload seed itself, so its rows CSV is the one whose bytes
    are recorded as golden; later repetitions draw fresh inputs from a hash of
    (seed, k), which averages the seed-dependent amount of search work.
    """
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{k}".encode()).hexdigest()
    return int(digest[:15], 16)


def trials_in(spec: dict) -> int:
    """Trials one repetition runs: trials per n times the number of n."""
    return spec["trials"] * len(spec["n_values"])
