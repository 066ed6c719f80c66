"""Experiment orchestration: configs, parallel trial execution, persistence.

Four experiments, each a pure function of its config:

* closest: fresh network + random string per trial, greedy (or exact) search
  for the nearest boundary; fits a in mean distance = a * sqrt(n / ln n).
* flips: random geodesic walks; fits s in mean steps = s * n.
* gp-check: network output covariance at controlled overlaps versus the
  kernel prediction Q * F(t) and versus exact GP sampling, as z-scores.
  Finite networks are sampled exactly in law through each layer's
  preactivations at the probe points (nets.sample_outputs).
* greedy-vs-exact: paired searches on identical (net, string) instances.

Every trial derives its own RNG stream from (seed, stream, n, trial), so
results are independent of scheduling: the row for (n, trial) is identical
whether computed inline or in any process pool, and rows are written back in
(n, trial) order. CSV output is therefore byte-identical across parallelism
degrees. Rows hold no wall-clock measurement for the same reason.

Each kind is one entry of EXPERIMENTS: its CSV columns, the row worker that
computes one (n, trial) row, and the summarizer that turns all rows into the
per-n aggregates, fit and details. run_experiment is the only driver.

Output files carry a provenance header: a hash over the scientific config
fields (execution details like parallelism and output paths are excluded),
the seed, and the package version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.stats import kurtosis, skew

from ._version import VERSION
from .bitstrings import BitString
from .errors import ConfigError
from .gp import build_ensemble, sample_block
from .kernel import KernelProfile, profile_for_config
from .nets import DeepNet, NetworkConfig, sample_network, sample_outputs
from .nets import forward_batch  # noqa: F401  unused, kept: perfbench traces harness.forward_batch
from .rng import STREAM_INPUT, derive_seed, spawn_rng
from .search import (
    DEFAULT_BUDGET,
    SearchResult,
    exact_search,
    greedy_search,
    random_flip_walk,
)
from .stats import (
    FitResult,
    fit_line,
    fit_power_law,
    fit_through_origin,
    mean_stderr,
)
from .theory import heuristic_flip_bound, validate_n

KIND_CLOSEST = "closest"
KIND_FLIPS = "flips"
KIND_GP_CHECK = "gp-check"
KIND_GREEDY_VS_EXACT = "greedy-vs-exact"

SCALING_COLUMNS = ("n", "trial", "start_phi", "distance", "evaluations")
PAIRED_COLUMNS = (
    "n",
    "trial",
    "start_phi",
    "greedy_distance",
    "exact_distance",
    "greedy_evaluations",
    "exact_evaluations",
)
GP_COLUMNS = (
    "n",
    "label",
    "h",
    "t",
    "qf",
    "net_cov",
    "net_stderr",
    "net_z",
    "gp_cov",
    "gp_stderr",
    "gp_z",
    "trials",
)

# Overlap menu of the gp-check experiment; None means the one-flip overlap
# 1 - 2/n. Targets are snapped to the realizable lattice 1 - 2h/n.
GP_TARGETS: Tuple[Tuple[str, Optional[float]], ...] = (
    ("1-2/n", None),
    ("0.9", 0.9),
    ("0.5", 0.5),
    ("0.0", 0.0),
    ("-0.5", -0.5),
    ("-1.0", -1.0),
)

PHI_BIN_WIDTH_SCALE = 0.25  # |phi| bin width in units of sqrt(Q)
PHI_BIN_MIN_COUNT = 10

_HASH_FIELDS = (
    "kind",
    "n_values",
    "trials",
    "seed",
    "sigma_w2",
    "sigma_b2",
    "layers",
    "widths",
    "activation",
    "method",
    "max_h",
    "budget",
)

DESK_DEFAULTS: Dict[str, Dict] = {
    KIND_CLOSEST: {"n_values": (64, 128, 256, 512), "trials": 200},
    KIND_FLIPS: {"n_values": (64, 128, 256, 512), "trials": 1000},
    KIND_GP_CHECK: {"n_values": (512,), "trials": 2000},
    KIND_GREEDY_VS_EXACT: {"n_values": (8, 10, 12, 14), "trials": 500},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: what to run, at which sizes, and where to write."""

    kind: str
    n_values: Tuple[int, ...]
    trials: int
    seed: int = 42
    sigma_w2: float = 2.0
    sigma_b2: float = 0.0
    layers: int = 2
    widths: Optional[Tuple[int, ...]] = None
    activation: str = "relu"
    method: str = "greedy"
    max_h: Optional[int] = None
    budget: int = DEFAULT_BUDGET
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    plot_csv: Optional[str] = None
    parallel: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        if self.widths is not None:
            object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.kind not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r} (known: {tuple(EXPERIMENTS)})"
            )
        if not self.n_values:
            raise ConfigError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ConfigError(f"n_values must be strictly ascending, got {self.n_values}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {self.parallel}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.method not in ("greedy", "exact"):
            raise ConfigError(f"method must be greedy or exact, got {self.method!r}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.plot_csv is not None and self.kind not in (KIND_CLOSEST, KIND_FLIPS):
            raise ConfigError("plot data is only defined for closest and flips runs")
        if self.kind == KIND_GP_CHECK and min(self.n_values) < 4:
            raise ConfigError("gp-check needs n >= 4 for its overlap menu")
        if self.kind in (KIND_CLOSEST, KIND_FLIPS):
            validate_n(min(self.n_values))
        # Validate the network parameters once up front.
        network_config_for(self, self.n_values[0])


def network_config_for(config: ExperimentConfig, n: int) -> NetworkConfig:
    """Network architecture at input size n; the net seed is derived per n so
    different sizes use independent weight streams."""
    widths = config.widths if config.widths is not None else (n,) * config.layers
    return NetworkConfig(
        n=n,
        hidden_widths=widths,
        sigma_w2=config.sigma_w2,
        sigma_b2=config.sigma_b2,
        activation=config.activation,
        seed=derive_seed(config.seed, n),
    )


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the scientific fields (not execution details)."""
    parts = []
    for name in _HASH_FIELDS:
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{name}={value!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class ExperimentResult:
    """Rows, aggregates, fits, and provenance of one run."""

    config: ExperimentConfig
    columns: Tuple[str, ...]
    rows: List[tuple]
    per_n: List[dict]
    fit: Optional[FitResult]
    details: dict = field(default_factory=dict)
    truncated: bool = False

    def provenance(self) -> dict:
        return {
            "config_sha256": config_hash(self.config),
            "seed": self.config.seed,
            "version": VERSION,
        }

    def to_json_obj(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "provenance": self.provenance(),
            "per_n": self.per_n,
            "fit": self.fit.as_dict() if self.fit is not None else None,
            "details": self.details,
            "truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# row workers (module level so process pools can pickle them)
# ---------------------------------------------------------------------------


def _net_and_input(config: ExperimentConfig, n: int, trial: int) -> Tuple[DeepNet, BitString]:
    """The (network, start string) instance of one search trial."""
    net = sample_network(network_config_for(config, n), trial)
    x = BitString.random(n, spawn_rng(config.seed, STREAM_INPUT, n, trial))
    return net, x


def _distance_cell(res: SearchResult) -> int:
    """The CSV distance: -1 marks a search that found no boundary."""
    return res.distance if res.distance is not None else -1


def _closest_row(config: ExperimentConfig, n: int, trial: int) -> tuple:
    net, x = _net_and_input(config, n, trial)
    if config.method == "exact":
        res = exact_search(net, x, max_h=config.max_h, budget=config.budget)
    else:
        res = greedy_search(net, x)
    return (n, trial, res.start_phi, _distance_cell(res), res.evaluations)


def _flips_row(config: ExperimentConfig, n: int, trial: int) -> tuple:
    net, x = _net_and_input(config, n, trial)
    res = random_flip_walk(net, x, trial)
    return (n, trial, res.start_phi, res.distance, res.evaluations)


def _paired_row(config: ExperimentConfig, n: int, trial: int) -> tuple:
    net, x = _net_and_input(config, n, trial)
    g = greedy_search(net, x)
    e = exact_search(net, x, max_h=config.max_h, budget=config.budget)
    gd, ed = _distance_cell(g), _distance_cell(e)
    return (n, trial, g.start_phi, gd, ed, g.evaluations, e.evaluations)


@lru_cache(maxsize=64)
def _gp_points(seed: int, n: int):
    """Fixed point set per (seed, n): base string, its duplicate, and one
    partner per overlap target (a random h-subset flip), all from a derived
    stream; plus their read-only stacked sign rows. Drawn once, not per row."""
    rng = spawn_rng(seed, STREAM_INPUT, n)
    x = BitString.random(n, rng)
    labels, hs, points = ["base", "duplicate"], [0, 0], [x, x]
    for label, target in GP_TARGETS:
        if target is None:
            h = 1
        else:
            h = min(max(int(round(n * (1.0 - target) / 2.0)), 1), n)
        idx = rng.choice(n, size=h, replace=False)
        labels.append(label)
        hs.append(h)
        points.append(x.flip_many(idx))
    signs = np.stack([p.signs for p in points])
    signs.flags.writeable = False
    return tuple(labels), tuple(hs), tuple(points), signs


def _gp_row(config: ExperimentConfig, n: int, trial: int) -> tuple:
    signs = _gp_points(config.seed, n)[3]
    phi = sample_outputs(network_config_for(config, n), trial, signs)
    return (n, trial, *map(float, phi))


# ---------------------------------------------------------------------------
# summarizers: all rows of a run -> (rows to write, per_n, fit, details)
# ---------------------------------------------------------------------------


def sqrt_n_over_ln_n(n: Union[int, np.ndarray]):
    return np.sqrt(np.asarray(n, dtype=float) / np.log(np.asarray(n, dtype=float)))


def _scaling_x(kind: str, n: int) -> float:
    """Abscissa of the scaling law: sqrt(n / ln n) for closest, n for flips."""
    return float(sqrt_n_over_ln_n(n)) if kind == KIND_CLOSEST else float(n)


def _aggregate_distances(
    n_values: Sequence[int], rows: Sequence[tuple]
) -> Tuple[List[dict], Dict[int, int]]:
    """Per-n mean/stderr/count over rows with a found distance (>= 1);
    sentinel rows (distance -1) are counted as censored."""
    per_n, censored = [], {}
    for n in n_values:
        dists = [r[3] for r in rows if r[0] == n]
        found = [d for d in dists if d >= 1]
        censored[n] = len(dists) - len(found)
        if found:
            mean, stderr = mean_stderr(found)
            per_n.append(
                {"n": n, "mean": mean, "stderr": stderr, "count": len(found)}
            )
    return per_n, censored
def _phi_binned(
    profile: KernelProfile, rows: Sequence[tuple], n: int
) -> Optional[dict]:
    """The |phi| vs distance relation at one n: equally spaced |phi| bins of
    width 0.25 sqrt(Q) (minimum 10 samples each), through-origin fit of the
    binned means, and the predicted slope sqrt(n/ln n) / (2 sqrt(Q F'(1)))."""
    sel = [(abs(r[2]), r[3]) for r in rows if r[0] == n and r[3] >= 1]
    if len(sel) < 2 * PHI_BIN_MIN_COUNT:
        return None
    phis = np.array([s[0] for s in sel])
    dists = np.array([s[1] for s in sel], dtype=float)
    width = PHI_BIN_WIDTH_SCALE * math.sqrt(profile.q)
    bin_idx = np.floor(phis / width).astype(int)
    bins = []
    for b in sorted(set(bin_idx)):
        mask = bin_idx == b
        if mask.sum() < PHI_BIN_MIN_COUNT:
            continue
        bins.append(
            {
                "bin": int(b),
                "phi_mean": float(phis[mask].mean()),
                "distance_mean": float(dists[mask].mean()),
                "count": int(mask.sum()),
            }
        )
    if len(bins) < 2:
        return None
    bin_fit = fit_through_origin(
        [b["phi_mean"] for b in bins],
        [b["distance_mean"] for b in bins],
        model="mean_distance=k*|phi|",
    )
    predicted = math.sqrt(n / math.log(n)) / (
        2.0 * math.sqrt(profile.q * profile.f_prime_1)
    )
    return {
        "n": n,
        "bin_width": width,
        "bins": bins,
        "fit": bin_fit.as_dict(),
        "predicted_slope": predicted,
        "slope_over_predicted": bin_fit.coefficient / predicted,
    }


def _scaling_fit(kind: str, per_n: Sequence[dict]) -> Optional[FitResult]:
    """The through-origin scaling-law fit of a closest or flips aggregate."""
    if not per_n:
        return None
    xs = [_scaling_x(kind, e["n"]) for e in per_n]
    ys = [e["mean"] for e in per_n]
    if kind == KIND_CLOSEST:
        model = "mean_distance=a*sqrt(n/ln(n))"
    else:
        model = "mean_steps=s*n"
    return fit_through_origin(xs, ys, model=model)


def _check_scaling_row(row: tuple) -> None:
    if len(row) != len(SCALING_COLUMNS):
        raise ConfigError(
            f"row {row!r} has {len(row)} cells, expected {len(SCALING_COLUMNS)}"
        )
    n, distance = row[0], row[3]
    if not isinstance(n, int) or not isinstance(distance, int):
        raise ConfigError(f"row {row!r}: n and distance must be integers")
    validate_n(n)
    if distance != -1 and not 1 <= distance <= n:
        raise ConfigError(f"row {row!r}: distance must be -1 or in [1, {n}]")


def refit_rows(
    kind: str, rows: Sequence[tuple]
) -> Tuple[List[dict], Optional[FitResult], Dict[int, int]]:
    """Recompute (per_n, fit, censored) from raw closest or flips rows.

    This is the `fit` subcommand's engine and the invariant behind it: the
    aggregates in a run's JSON equal this recomputation from its CSV rows.
    Rows come from files, so each is checked before it is used.
    """
    if kind not in (KIND_CLOSEST, KIND_FLIPS):
        raise ConfigError(f"refit is defined for closest and flips rows, not {kind!r}")
    for row in rows:
        _check_scaling_row(row)
    n_values = sorted({int(r[0]) for r in rows})
    if not n_values:
        raise ConfigError("no data rows to refit")
    per_n, censored = _aggregate_distances(n_values, rows)
    return per_n, _scaling_fit(kind, per_n), censored


def _scaling_summary(config: ExperimentConfig, rows: List[tuple]):
    """per_n, fit and the details closest and flips share, plus the kernel
    profile their own details need."""
    per_n, censored = _aggregate_distances(config.n_values, rows)
    details: dict = {"censored": censored}
    if len(per_n) >= 2:
        xs = [_scaling_x(config.kind, e["n"]) for e in per_n]
        details["free_intercept_fit"] = fit_line(xs, [e["mean"] for e in per_n])
    profile = profile_for_config(network_config_for(config, config.n_values[0]))
    details["kernel"] = {"q": profile.q, "f_prime_1": profile.f_prime_1}
    return per_n, _scaling_fit(config.kind, per_n), details, profile


def _summarize_closest(config: ExperimentConfig, rows: List[tuple]):
    """Nearest-boundary distances and the sqrt(n / ln n) prefactor fit."""
    per_n, fit, details, profile = _scaling_summary(config, rows)
    details["method"] = config.method
    if len(per_n) >= 2:
        ns, ys = [e["n"] for e in per_n], [e["mean"] for e in per_n]
        details["power_law_fit"] = fit_power_law(ns, ys)
    binned = _phi_binned(profile, rows, config.n_values[-1])
    if binned is not None:
        details["phi_binned"] = binned
    return rows, per_n, fit, details


def _summarize_flips(config: ExperimentConfig, rows: List[tuple]):
    """Random-walk flip counts and the linear slope fit."""
    per_n, fit, details, profile = _scaling_summary(config, rows)
    details["heuristic_slope_lower_bound"] = heuristic_flip_bound(
        1, profile.f_prime_1
    )
    return rows, per_n, fit, details


def _product_stats(a: np.ndarray, b: np.ndarray, target: float) -> Tuple[float, float, float]:
    """Empirical E[a b], its standard error, and the z-score against target."""
    mean, stderr = mean_stderr(a * b)
    z = 0.0 if stderr == 0.0 else (mean - target) / stderr
    return mean, stderr, z


def _summarize_gp(config: ExperimentConfig, rows: List[tuple]):
    """Network covariance vs Q*F(t) vs GP sampling at the overlap menu; the
    rows written are one summary row per (n, overlap target)."""
    profile = profile_for_config(network_config_for(config, config.n_values[0]))
    q = profile.q
    summary_rows: List[tuple] = []
    details: dict = {"per_n": {}, "jitter": {}}
    max_net_z = 0.0
    max_gp_z = 0.0
    for n in config.n_values:
        labels, hs, points, _ = _gp_points(config.seed, n)
        net_phi = np.array([r[2:] for r in rows if r[0] == n])
        if net_phi.size == 0:
            continue
        trials = net_phi.shape[0]
        ensemble = build_ensemble(profile, points, seed=derive_seed(config.seed, n))
        gp_phi = sample_block(ensemble, 0, trials)
        for col in range(2, len(points)):
            h = hs[col]
            t = 1.0 - 2.0 * h / n
            qf = q * float(profile.evaluate(t))
            net_cov, net_se, net_z = _product_stats(
                net_phi[:, 0], net_phi[:, col], qf
            )
            gp_cov, gp_se, gp_z = _product_stats(gp_phi[:, 0], gp_phi[:, col], qf)
            max_net_z = max(max_net_z, abs(net_z))
            max_gp_z = max(max_gp_z, abs(gp_z))
            summary_rows.append(
                (
                    n,
                    labels[col],
                    h,
                    t,
                    qf,
                    net_cov,
                    net_se,
                    net_z,
                    gp_cov,
                    gp_se,
                    gp_z,
                    trials,
                )
            )
        base = net_phi[:, 0]
        mean, se = mean_stderr(base)
        gp_mean, gp_se_m = mean_stderr(gp_phi[:, 0])
        var_mean, var_se = mean_stderr(base * base)
        details["per_n"][str(n)] = {
            "trials": trials,
            "net_mean": mean,
            "net_mean_z": 0.0 if se == 0 else mean / se,
            "gp_mean_z": 0.0 if gp_se_m == 0 else gp_mean / gp_se_m,
            "net_var": var_mean,
            "net_var_z": 0.0 if var_se == 0 else (var_mean - q) / var_se,
            "net_skew": float(skew(base)),
            "net_excess_kurtosis": float(kurtosis(base)),
            "net_duplicate_corr": float(np.corrcoef(net_phi[:, 0], net_phi[:, 1])[0, 1]),
            "gp_duplicate_corr": float(np.corrcoef(gp_phi[:, 0], gp_phi[:, 1])[0, 1]),
            "net_gp_corr_gap": {
                labels[col]: float(
                    np.corrcoef(net_phi[:, 0], net_phi[:, col])[0, 1]
                    - np.corrcoef(gp_phi[:, 0], gp_phi[:, col])[0, 1]
                )
                for col in range(2, len(points))
            },
        }
        details["jitter"][str(n)] = ensemble.jitter
    details["max_abs_net_z"] = max_net_z
    details["max_abs_gp_z"] = max_gp_z
    details["kernel"] = {"q": q, "f_prime_1": profile.f_prime_1}
    return summary_rows, [], None, details


def _summarize_paired(config: ExperimentConfig, rows: List[tuple]):
    """Paired greedy and exact distances on identical instances."""
    per_n: List[dict] = []
    violations: Dict[int, int] = {}
    censored: Dict[int, int] = {}
    max_gap = 0
    for n in config.n_values:
        sub = [r for r in rows if r[0] == n]
        pairs = [(r[3], r[4]) for r in sub if r[3] >= 1 and r[4] >= 1]
        censored[n] = len(sub) - len(pairs)
        violations[n] = sum(1 for g, e in pairs if g < e)
        if pairs:
            gaps = [g - e for g, e in pairs]
            max_gap = max(max_gap, max(gaps))
            mean, stderr = mean_stderr(gaps)
            per_n.append({"n": n, "mean": mean, "stderr": stderr, "count": len(pairs)})
    details = {
        "gap_definition": "greedy_distance - exact_distance",
        "violations": violations,
        "total_violations": sum(violations.values()),
        "censored": censored,
        "max_gap": max_gap,
    }
    return rows, per_n, None, details


# ---------------------------------------------------------------------------
# experiment kinds and the driver
# ---------------------------------------------------------------------------

Summary = Tuple[List[tuple], List[dict], Optional[FitResult], dict]


@dataclass(frozen=True)
class ExperimentKind:
    """Everything kind-specific about an experiment."""

    columns: Tuple[str, ...]
    row: Callable[[ExperimentConfig, int, int], tuple]
    summarize: Callable[[ExperimentConfig, List[tuple]], Summary]


EXPERIMENTS: Dict[str, ExperimentKind] = {
    KIND_CLOSEST: ExperimentKind(SCALING_COLUMNS, _closest_row, _summarize_closest),
    KIND_FLIPS: ExperimentKind(SCALING_COLUMNS, _flips_row, _summarize_flips),
    KIND_GP_CHECK: ExperimentKind(GP_COLUMNS, _gp_row, _summarize_gp),
    KIND_GREEDY_VS_EXACT: ExperimentKind(PAIRED_COLUMNS, _paired_row, _summarize_paired),
}


def _pool_task(payload: Tuple[ExperimentConfig, int, int]) -> tuple:
    config, n, trial = payload
    return EXPERIMENTS[config.kind].row(config, n, trial)


def _execute(config: ExperimentConfig) -> Tuple[List[tuple], bool]:
    """Run all (n, trial) tasks and return rows in (n, trial) order.

    Results are collected into a preallocated slot list indexed by task rank,
    so output order is schedule independent. On interrupt the rows computed
    so far are kept and the result is marked truncated.
    """
    tasks = [(n, t) for n in config.n_values for t in range(config.trials)]
    slots: List[Optional[tuple]] = [None] * len(tasks)
    truncated = False
    worker = EXPERIMENTS[config.kind].row
    try:
        if config.parallel == 1:
            for rank, (n, t) in enumerate(tasks):
                slots[rank] = worker(config, n, t)
        else:
            payloads = [(config, n, t) for n, t in tasks]
            chunk = max(1, len(tasks) // (config.parallel * 8))
            with ProcessPoolExecutor(max_workers=config.parallel) as pool:
                for rank, row in enumerate(
                    pool.map(_pool_task, payloads, chunksize=chunk)
                ):
                    slots[rank] = row
    except KeyboardInterrupt:
        truncated = True
    rows = [r for r in slots if r is not None]
    return rows, truncated


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (n, trial) row, summarize them, and write the outputs the
    config names. The config validated itself on construction."""
    kind = EXPERIMENTS[config.kind]
    rows, truncated = _execute(config)
    rows, per_n, fit, details = kind.summarize(config, rows)
    result = ExperimentResult(config, kind.columns, rows, per_n, fit, details, truncated)
    _persist(result)
    return result


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _provenance_lines(result: ExperimentResult) -> List[str]:
    p = result.provenance()
    return [
        f"# kind={result.config.kind}",
        f"# config_sha256={p['config_sha256']}",
        f"# seed={p['seed']}",
        f"# version={p['version']}",
    ]


def write_rows_csv(path: Union[str, Path], result: ExperimentResult) -> None:
    """Rows with the provenance header; UTF-8, LF, full float round-trip."""
    lines = _provenance_lines(result)
    lines.append(",".join(result.columns))
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in result.rows)
    if result.truncated:
        lines.append("# truncated=1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_summary_json(path: Union[str, Path], result: ExperimentResult) -> None:
    Path(path).write_text(
        json.dumps(result.to_json_obj(), indent=2) + "\n", encoding="utf-8"
    )


def write_plot_csv(path: Union[str, Path], result: ExperimentResult) -> None:
    """(x, y, yerr) per n: x is sqrt(n / ln n) for closest runs, n for flips."""
    lines = _provenance_lines(result)
    lines.append("x,y,yerr")
    for entry in result.per_n:
        x = _scaling_x(result.config.kind, entry["n"])
        lines.append(
            f"{_fmt_cell(x)},{_fmt_cell(entry['mean'])},{_fmt_cell(entry['stderr'])}"
        )
    if result.truncated:
        lines.append("# truncated=1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _persist(result: ExperimentResult) -> None:
    cfg = result.config
    if cfg.out_csv:
        write_rows_csv(cfg.out_csv, result)
    if cfg.out_json:
        write_summary_json(cfg.out_json, result)
    if cfg.plot_csv:
        write_plot_csv(cfg.plot_csv, result)


def read_rows_csv(path: Union[str, Path]) -> Tuple[dict, Tuple[str, ...], List[tuple]]:
    """Parse a rows CSV back into (provenance meta, columns, typed rows).

    Cells parse as int when possible, then float, else stay strings."""
    meta: dict = {}
    columns: Optional[Tuple[str, ...]] = None
    rows: List[tuple] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if columns is None:
            columns = tuple(cells)
            continue
        typed = []
        for cell in cells:
            try:
                typed.append(int(cell))
            except ValueError:
                try:
                    typed.append(float(cell))
                except ValueError:
                    typed.append(cell)
        rows.append(tuple(typed))
    if columns is None:
        raise ConfigError(f"{path}: no header row found")
    return meta, columns, rows
