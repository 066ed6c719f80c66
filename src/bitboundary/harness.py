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
computes one (n, trial) row, the summarizer that turns all rows into the
per-n aggregates, fit and details, and the scaling law its fit uses
(closest and flips only). run_experiment is the only driver.

This module alone lays out output files, all checked before any trial runs.
Every CSV, the kernel table included, carries a provenance header: a hash
over the scientific config fields (execution details like parallelism and
output paths are excluded), the seed, and the package version.

On glibc a run keeps freed memory in the process (_keep_freed_memory), so a
trial reuses the pages the previous trial's arrays freed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._version import VERSION
from .activations import get_activation
from .bitstrings import BitString
from .errors import ConfigError, integer
from .gp import build_ensemble, sample_block
from .kernel import KernelProfile, default_grid, f_recursion, overlap, profile_for_config
from .nets import DeepNet, NetworkConfig, probe_factor, sample_network, sample_outputs
# unused: kept only because perfbench/test_perfbench.py's CALLER_SIDE lists
# harness.forward_batch; the tracer itself runs without it
from .nets import forward_batch  # noqa: F401
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
    skew_kurtosis,
)
from .theory import h_star, heuristic_flip_bound, sqrt_n_over_ln_n, validate_n

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

# ExperimentConfig's output paths, each with the label the CLI reports it by
OUTPUT_FIELDS = {"out_csv": "rows", "out_json": "summary"}
# ExperimentConfig fields that say where and how fast a run goes, not what it
# computes; config_hash covers every other field.
_EXECUTION_FIELDS = (*OUTPUT_FIELDS, "parallel")

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
    parallel: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(integer("n_values", v) for v in self.n_values))
        if self.widths is not None:
            object.__setattr__(self, "widths", tuple(integer("widths", w) for w in self.widths))
        for name in ("trials", "seed", "layers", "parallel", "budget", "max_h"):
            if name != "max_h" or self.max_h is not None:
                object.__setattr__(self, name, integer(name, getattr(self, name)))
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
        if not 0 <= self.seed < 1 << 64:  # derive_seed reduces seeds mod 2**64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {self.parallel}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.method not in ("greedy", "exact"):
            raise ConfigError(f"method must be greedy or exact, got {self.method!r}")
        if self.method != "greedy" and self.kind != KIND_CLOSEST:
            raise ConfigError(f"method applies to closest runs only, not {self.kind}")
        # only exact search reads max_h and budget, but config_hash covers them
        exact = self.method == "exact" or self.kind == KIND_GREEDY_VS_EXACT
        for name, unset in (("max_h", None), ("budget", DEFAULT_BUDGET)):
            if not exact and getattr(self, name) != unset:
                raise ConfigError(f"{name} applies to exact search, which this run does not do")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.max_h is not None and not 1 <= self.max_h <= self.n_values[0]:
            raise ConfigError(f"max_h must be in [1, {self.n_values[0]}], got {self.max_h}")
        if self.widths is not None and len(self.widths) != self.layers:
            raise ConfigError(f"{len(self.widths)} widths given for {self.layers} layers")
        if self.kind == KIND_GP_CHECK and min(self.n_values) < 4:
            raise ConfigError("gp-check needs n >= 4 for its overlap menu")
        if self.kind == KIND_GP_CHECK and self.trials < 2:
            raise ConfigError(f"gp-check needs trials >= 2 for standard errors, got {self.trials}")
        if EXPERIMENTS[self.kind].law is not None:
            validate_n(min(self.n_values))
        # Validate the network parameters once up front, and keep its float variances.
        net = network_config_for(self, self.n_values[0])
        for name in ("sigma_w2", "sigma_b2"):
            object.__setattr__(self, name, getattr(net, name))
        check_output_paths(*(getattr(self, name) for name in OUTPUT_FIELDS))


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


def provenance_hash(fields: Iterable[Tuple[str, object]], label: Optional[str] = None) -> str:
    """SHA-256 over `key=repr(value)` lines, after an optional label line."""
    lines = [] if label is None else [label]
    lines.extend(f"{key}={value!r}" for key, value in fields)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the scientific fields, in declaration order."""
    fields = []
    for f in dataclasses.fields(config):
        if f.name in _EXECUTION_FIELDS:
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        fields.append((f.name, value))
    return provenance_hash(fields)


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


class _GPPoints(NamedTuple):
    labels: Tuple[str, ...]
    hs: Tuple[int, ...]
    signs: np.ndarray  # (m, n), read-only
    factor: np.ndarray  # nets.probe_factor(signs, n), shared by every trial


@lru_cache(maxsize=64)
def _gp_points(seed: int, n: int) -> _GPPoints:
    """Fixed point set per (seed, n): base string, its duplicate, and one
    partner per overlap target (a random h-subset flip), all from a derived
    stream, as read-only stacked sign rows with their first-layer factor.
    Drawn once, not per row."""
    rng = spawn_rng(seed, STREAM_INPUT, n)
    x = BitString.random(n, rng)
    labels, hs, points = ["base", "duplicate"], [0, 0], [x.signs, x.signs]
    for label, target in GP_TARGETS:
        if target is None:
            h = 1
        else:
            h = min(max(int(round(n * (1.0 - target) / 2.0)), 1), n)
        idx = rng.choice(n, size=h, replace=False)
        labels.append(label)
        hs.append(h)
        points.append(x.flip_many(idx).signs)
    signs = np.stack(points)
    signs.flags.writeable = False
    return _GPPoints(tuple(labels), tuple(hs), signs, probe_factor(signs, n))


def _gp_row(config: ExperimentConfig, n: int, trial: int) -> tuple:
    factor = _gp_points(config.seed, n).factor
    phi = sample_outputs(network_config_for(config, n), trial, factor)
    return (n, trial, *map(float, phi))


# ---------------------------------------------------------------------------
# summarizers: all rows of a run -> (rows to write, per_n, fit, details)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingLaw:
    """mean = coefficient * x(n), fitted through the origin; `model` names
    the law in fit output."""

    model: str
    x: Callable[[int], float]

    def fit(self, per_n: Sequence[dict]) -> Optional[FitResult]:
        if not per_n:
            return None
        xs = [self.x(e["n"]) for e in per_n]
        return fit_through_origin(xs, [e["mean"] for e in per_n], model=self.model)


def _phi_binned(profile: KernelProfile, rows: Sequence[tuple], n: int) -> Optional[dict]:
    """The |phi| vs distance relation at one n: equally spaced |phi| bins of
    width 0.25 sqrt(Q) (minimum 10 samples each), through-origin fit of the
    binned means, and the predicted slope h*_n at |phi| = 1."""
    sel = [(abs(r[2]), r[3]) for r in rows if r[0] == n and r[3] >= 1]
    if len(sel) < 2 * PHI_BIN_MIN_COUNT:
        return None
    phis, dists = np.array(sel, dtype=float).T
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
    predicted = h_star(1.0, profile.q, profile.f_prime_1, n)
    return {
        "n": n,
        "bin_width": width,
        "bins": bins,
        "fit": bin_fit.as_dict(),
        "predicted_slope": predicted,
        "slope_over_predicted": bin_fit.coefficient / predicted,
    }


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


def _per_n_entry(n: int, values: Sequence[float]) -> dict:
    """The per-n aggregate of a run: mean, stderr and count of values at n."""
    mean, stderr = mean_stderr(values)
    return {"n": n, "mean": mean, "stderr": stderr, "count": len(values)}


def refit_rows(
    kind: str, rows: Sequence[tuple]
) -> Tuple[List[dict], Optional[FitResult], Dict[int, int]]:
    """Recompute (per_n, fit, censored) from raw closest or flips rows.

    This is the one definition of the run aggregates: a run's JSON takes
    them from this function over its rows, so they equal the `fit`
    subcommand's recomputation from its CSV by construction, an interrupted
    run's included. Each n present in the rows gets its per-n mean, stderr
    and count over the rows with a found distance (>= 1), if any, and its
    censored count of sentinel rows (distance -1). Rows come from files, so
    each is checked before it is used.
    """
    law = scaling_law(kind, "refit")
    for row in rows:
        _check_scaling_row(row)
    if not rows:
        raise ConfigError("no data rows to refit")
    per_n, censored = [], {}
    for n in sorted({r[0] for r in rows}):
        dists = [r[3] for r in rows if r[0] == n]
        found = [d for d in dists if d >= 1]
        censored[n] = len(dists) - len(found)
        if found:
            per_n.append(_per_n_entry(n, found))
    return per_n, law.fit(per_n), censored


def refit_csv(path: Union[str, Path]) -> dict:
    """The `fit` report: a closest or flips rows CSV, re-aggregated and
    refitted, with the file's provenance."""
    meta, columns, rows = read_rows_csv(path)
    kind = meta.get("kind")
    scaling_law(kind, "fit")
    if columns != SCALING_COLUMNS:
        raise ConfigError(
            f"unexpected columns {','.join(columns)}; want {','.join(SCALING_COLUMNS)}"
        )
    per_n, fit, censored = refit_rows(kind, rows)
    return {
        "kind": kind,
        "source": str(path),
        "source_meta": meta,
        "per_n": per_n,
        "fit": fit.as_dict() if fit is not None else None,
        "censored": {str(k): v for k, v in censored.items()},
    }


def _scaling_summary(config: ExperimentConfig, rows: List[tuple]):
    """per_n, fit and the details closest and flips share; a run interrupted
    before its first row has none."""
    per_n, fit, censored = refit_rows(config.kind, rows) if rows else ([], None, {})
    details: dict = {"censored": censored}
    if len(per_n) >= 2:
        xs = [EXPERIMENTS[config.kind].law.x(e["n"]) for e in per_n]
        details["free_intercept_fit"] = fit_line(xs, [e["mean"] for e in per_n])
    return per_n, fit, details


def _summarize_closest(config: ExperimentConfig, rows: List[tuple], profile: KernelProfile):
    """Nearest-boundary distances and the sqrt(n / ln n) prefactor fit."""
    per_n, fit, details = _scaling_summary(config, rows)
    details["method"] = config.method
    if len(per_n) >= 2:
        ns, ys = [e["n"] for e in per_n], [e["mean"] for e in per_n]
        details["power_law_fit"] = fit_power_law(ns, ys)
    binned = _phi_binned(profile, rows, config.n_values[-1])
    if binned is not None:
        details["phi_binned"] = binned
    return rows, per_n, fit, details


def _summarize_flips(config: ExperimentConfig, rows: List[tuple], profile: KernelProfile):
    """Random-walk flip counts and the linear slope fit."""
    per_n, fit, details = _scaling_summary(config, rows)
    details["heuristic_slope_lower_bound"] = heuristic_flip_bound(
        1, profile.f_prime_1
    )
    return rows, per_n, fit, details


def _stat(values: np.ndarray, target: float) -> Tuple[float, float, float]:
    """(mean, stderr, z) of values, z = (mean - target) / stderr. Without
    spread, z is 0 on target and +-inf off it, so it fails any z check."""
    mean, stderr = mean_stderr(values)
    gap = mean - target
    return mean, stderr, gap / stderr if stderr else (math.copysign(math.inf, gap) if gap else 0.0)


def _corr(phi: np.ndarray, col: int) -> float:
    """corr(phi_0, phi_col) over the draws (rows) of phi; NaN without spread."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(phi[:, 0], phi[:, col])[0, 1])


def _summarize_gp(config: ExperimentConfig, rows: List[tuple], profile: KernelProfile):
    """Network covariance vs Q*F(t) vs GP sampling at the overlap menu; the
    rows written are one summary row per (n, overlap target). An n with fewer
    than 2 rows (an interrupted run) is left out, as one with none. Every
    statistic is one helper applied to the network's draws and the GP's."""
    summary_rows: List[tuple] = []
    details: dict = {"per_n": {}, "jitter": {}}
    for n in config.n_values:
        labels, hs, signs, _ = _gp_points(config.seed, n)
        net_phi = np.array([r[2:] for r in rows if r[0] == n])
        if len(net_phi) < 2:  # an interrupted run: no standard errors at this n
            continue
        trials = net_phi.shape[0]
        ensemble = build_ensemble(profile, signs, seed=derive_seed(config.seed, n))
        gp_phi = sample_block(ensemble, 0, trials)
        cols = range(2, len(labels))
        for col in cols:
            qf = float(ensemble.cov[0, col])
            net, gp = (_stat(phi[:, 0] * phi[:, col], qf) for phi in (net_phi, gp_phi))
            h = hs[col]
            summary_rows.append((n, labels[col], h, overlap(h, n), qf, *net, *gp, trials))
        base = net_phi[:, 0]
        mean, _, mean_z = _stat(base, 0.0)
        var_mean, _, var_z = _stat(base * base, profile.q)
        skew, excess_kurtosis = skew_kurtosis(base)
        details["per_n"][str(n)] = {
            "trials": trials,
            "net_mean": mean,
            "net_mean_z": mean_z,
            "gp_mean_z": _stat(gp_phi[:, 0], 0.0)[2],
            "net_var": var_mean,
            "net_var_z": var_z,
            "net_skew": skew,
            "net_excess_kurtosis": excess_kurtosis,
            "net_duplicate_corr": _corr(net_phi, 1),
            "gp_duplicate_corr": _corr(gp_phi, 1),
            "net_gp_corr_gap": {labels[c]: _corr(net_phi, c) - _corr(gp_phi, c) for c in cols},
        }
        details["jitter"][str(n)] = ensemble.jitter
    for sampler in ("net", "gp"):
        k = GP_COLUMNS.index(f"{sampler}_z")
        details[f"max_abs_{sampler}_z"] = max((abs(r[k]) for r in summary_rows), default=0.0)
    return summary_rows, [], None, details


def _summarize_paired(config: ExperimentConfig, rows: List[tuple], profile: None):
    """Paired greedy and exact distances on identical instances, at each n
    that has rows."""
    per_n: List[dict] = []
    violations: Dict[int, int] = {}
    censored: Dict[int, int] = {}
    max_gap = 0
    for n in sorted({r[0] for r in rows}):
        sub = [r for r in rows if r[0] == n]
        pairs = [(r[3], r[4]) for r in sub if r[3] >= 1 and r[4] >= 1]
        censored[n] = len(sub) - len(pairs)
        violations[n] = sum(1 for g, e in pairs if g < e)
        if pairs:
            gaps = [g - e for g, e in pairs]
            max_gap = max(max_gap, max(gaps))
            per_n.append(_per_n_entry(n, gaps))
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
    """Everything kind-specific about an experiment. `kernel` says whether
    the summarizer reads the run's kernel profile (else it gets None) and
    the run's details record its q and F'(1)."""

    columns: Tuple[str, ...]
    row: Callable[[ExperimentConfig, int, int], tuple]
    summarize: Callable[[ExperimentConfig, List[tuple], Optional[KernelProfile]], Summary]
    law: Optional[ScalingLaw] = None
    kernel: bool = True


EXPERIMENTS: Dict[str, ExperimentKind] = {
    KIND_CLOSEST: ExperimentKind(
        SCALING_COLUMNS,
        _closest_row,
        _summarize_closest,
        ScalingLaw("mean_distance=a*sqrt(n/ln(n))", sqrt_n_over_ln_n),
    ),
    KIND_FLIPS: ExperimentKind(
        SCALING_COLUMNS, _flips_row, _summarize_flips, ScalingLaw("mean_steps=s*n", float)
    ),
    KIND_GP_CHECK: ExperimentKind(GP_COLUMNS, _gp_row, _summarize_gp),
    KIND_GREEDY_VS_EXACT: ExperimentKind(
        PAIRED_COLUMNS, _paired_row, _summarize_paired, kernel=False
    ),
}


def scaling_law(kind: Optional[str], what: str) -> ScalingLaw:
    """The scaling law of `kind`, or ConfigError saying that `what` needs a
    kind that has one."""
    law = EXPERIMENTS[kind].law if kind in EXPERIMENTS else None
    if law is None:
        with_law = " and ".join(k for k, e in EXPERIMENTS.items() if e.law is not None)
        raise ConfigError(f"{what} is defined for {with_law} runs only, not {kind!r}")
    return law


def _pool_task(payload: Tuple[ExperimentConfig, int, int]) -> tuple:
    config, n, trial = payload
    return EXPERIMENTS[config.kind].row(config, n, trial)


@cache
def _keep_freed_memory() -> None:
    """Keep the pages a trial frees for the next trial (glibc; once a process).

    Every trial allocates arrays of a few MB (an n = 512 net's weights are
    2 MB a layer) and frees them when it ends. By default glibc serves such
    arrays by mmap and unmaps them on free, or trims them off the heap top,
    so the next trial page-faults every page in again. Both thresholds are
    needed: setting either one freezes glibc's dynamic mmap threshold, so
    the trim threshold alone leaves every array above 128 KiB mmapped, and
    the mmap threshold alone lets the heap top be trimmed. Arrays above
    32 MiB are still mmapped. The setting is process-wide; a libc without
    mallopt leaves the allocator as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the ceiling glibc's own rule reaches on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, the ratio glibc's rule keeps


def _execute(config: ExperimentConfig) -> Tuple[List[tuple], bool]:
    """Run all (n, trial) tasks and return rows in (n, trial) order.

    Both paths yield rows in task order, whatever the schedule. On interrupt
    the rows computed so far are kept and the result is marked truncated.
    """
    tasks = [(config, n, t) for n in config.n_values for t in range(config.trials)]
    rows: List[tuple] = []
    truncated = False
    # the fork start method starts every worker at once: never more than
    # there are tasks or CPUs this process may run on, and no pool for one
    # worker; sched_getaffinity is missing on macOS and Windows
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(config.parallel, len(tasks), cpus)
    try:
        if workers == 1:
            rows.extend(map(_pool_task, tasks))
        else:
            if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ):
                print("bitboundary: note: each worker may run a multithreaded BLAS; set "
                      "OPENBLAS_NUM_THREADS=1 (README, Performance)", file=sys.stderr)
            chunk = max(1, len(tasks) // (workers * 8))
            # forked workers inherit the allocator setting; the initializer
            # covers any other start method
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_keep_freed_memory
            ) as pool:
                rows.extend(pool.map(_pool_task, tasks, chunksize=chunk))
    except KeyboardInterrupt:
        truncated = True
    return rows, truncated


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (n, trial) row, summarize them, and write the outputs the
    config names. The config validated itself on construction; the kernel
    profile is built before the first trial, so a faulty kernel costs none."""
    _keep_freed_memory()
    kind = EXPERIMENTS[config.kind]
    network = network_config_for(config, config.n_values[0])
    profile = profile_for_config(network) if kind.kernel else None
    rows, truncated = _execute(config)
    rows, per_n, fit, details = kind.summarize(config, rows, profile)
    if profile is not None:
        details["kernel"] = {"q": profile.q, "f_prime_1": profile.f_prime_1}
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


def _write_csv(
    path: Union[str, Path],
    header: Iterable[Tuple[str, object]],
    columns: Sequence[str],
    rows: Iterable[Sequence],
    truncated: bool = False,
) -> None:
    """The one CSV layout: `# key=value` provenance lines, the column line,
    one line per row (floats as repr, so they parse back bit for bit), and
    `# truncated=1` after an interrupted run; UTF-8 with LF."""
    lines = [f"# {key}={value}" for key, value in header]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    if truncated:
        lines.append("# truncated=1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_safe(obj):
    """obj with every NaN or infinite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(obj) -> str:
    """The one JSON layout, for files and stdout alike. JSON has no NaN or
    infinity, so a non-finite number is written as null."""
    return json.dumps(_json_safe(obj), indent=2, allow_nan=False) + "\n"


def write_json(path: Union[str, Path], obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8", newline="\n")


def check_output_paths(*paths: Optional[str], source: Optional[str] = None) -> None:
    """ConfigError for an output path that is empty, names a directory, lies
    in a missing one, or names the same file as another output or as the
    input file `source`, so that a run fails before its first trial, not
    after. None means no output."""
    named = {Path(source).resolve(): f"the input {source}"} if source else {}
    for path in paths:
        if path is None:
            continue
        if not path:
            raise ConfigError("an output path is empty")
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"output path {path} is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"output path {path}: no directory {target.parent}")
        resolved = target.resolve()
        if resolved in named:
            raise ConfigError(f"output path {path} is also {named[resolved]}")
        named[resolved] = f"output path {path}"


def write_rows_csv(path: Union[str, Path], result: ExperimentResult) -> None:
    """Rows with the provenance header."""
    header = [("kind", result.config.kind), *result.provenance().items()]
    _write_csv(path, header, result.columns, result.rows, result.truncated)


def _persist(result: ExperimentResult) -> None:
    cfg = result.config
    if cfg.out_csv:
        write_rows_csv(cfg.out_csv, result)
    if cfg.out_json:
        write_json(cfg.out_json, result.to_json_obj())


def kernel_summary(profile: KernelProfile) -> dict:
    """The `kernel` report: Q_l, Q, F'(1), and the build_profile arguments
    the profile was built from with their hash as provenance."""
    params = {k: getattr(profile, k) for k in ("sigma_w2", "sigma_b2", "layers", "activation")}
    return {
        "Q_l": list(profile.q_per_layer),
        "Q": profile.q,
        "Fprime1": profile.f_prime_1,
        "activation": profile.activation,
        "params": params,
        "provenance": {
            "config_sha256": provenance_hash(sorted(params.items()), label="kernel"),
            "version": VERSION,
        },
    }


def write_kernel_csv(path: Union[str, Path], profile: KernelProfile) -> None:
    """F_1 .. F_{L+1} and F on default_grid(), one row per overlap t, under
    the kernel summary's provenance."""
    t = default_grid()
    act = get_activation(profile.activation)
    _, stack = f_recursion(profile.sigma_w2, profile.sigma_b2, list(profile.q_per_layer), t, act)
    columns = ["t"] + [f"F_{l}" for l in range(1, stack.shape[0] + 1)] + ["F"]
    header = [("kind", "kernel"), *kernel_summary(profile)["provenance"].items()]
    rows = ((tj, *column, column[-1]) for tj, column in zip(t, stack.T))
    _write_csv(path, header, columns, rows)


def read_text(path: Union[str, Path]) -> str:
    """A UTF-8 input file's text, or ConfigError naming an unreadable or undecodable file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_rows_csv(path: Union[str, Path]) -> Tuple[dict, Tuple[str, ...], List[tuple]]:
    """Parse a rows CSV back into (provenance meta, columns, typed rows).

    Cells parse as int when possible, then float, else stay strings."""
    meta: dict = {}
    columns: Optional[Tuple[str, ...]] = None
    rows: List[tuple] = []
    for line in read_text(path).splitlines():
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
