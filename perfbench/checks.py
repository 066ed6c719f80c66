"""Output checks of one experiment, run after its timed region.

Each check is one unit of `attempted`; a check that fails adds a line to
`failures`. The checks read the rows CSV and summary JSON the experiment
wrote and rebuild what they need from the public API:

* closest / flips: on a fixed seeded sample of trials, rebuild (net, x) from
  the stream API, re-run the search, and require that the row's distance,
  start phi and evaluations match, that len(path) == distance, that an
  independent `nets.forward` of x.flip_many(path) has the opposite sign and
  that the path without its last flip keeps the start sign. A search that
  ends without a crossing (greedy censored after n steps, a walk at its cap
  n) is valid when the re-run agrees with the row.
* gp-check: every z-score is finite and |z| <= 5 (statistical, so it holds
  for any correct sampler, not only the current random stream).
* all: the JSON summary is reproduced from the CSV rows (`harness.refit_rows`
  for closest / flips; the max |z| of the rows for gp-check).
"""

from __future__ import annotations

import json
import math
import random
from typing import List

from bitboundary import harness, nets, search
from bitboundary.bitstrings import BitString
from bitboundary.rng import STREAM_INPUT, spawn_rng

Z_LIMIT = 5.0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }


def _json_normal(value):
    return json.loads(json.dumps(value))


def _search_trial(checks: Checks, config, row: tuple) -> None:
    n, trial, start_phi, distance, evaluations = row[:5]
    net = nets.sample_network(harness.network_config_for(config, n), trial)
    x = BitString.random(n, spawn_rng(config.seed, STREAM_INPUT, n, trial))
    if config.kind == harness.KIND_CLOSEST:
        res = search.greedy_search(net, x)
    else:
        res = search.random_flip_walk(net, x, trial)
    found = res.distance if res.distance is not None else -1  # the CSV sentinel
    start_positive = start_phi >= 0.0
    path = res.path or ()
    crossed = (nets.forward(net, x.flip_many(path)) >= 0.0) != start_positive
    before = (nets.forward(net, x.flip_many(path[:-1])) >= 0.0) != start_positive
    # A search may end without a crossing: greedy after n steps (distance -1),
    # the walk at its cap n.
    may_end_uncrossed = distance == -1 or (config.kind == harness.KIND_FLIPS and distance == n)
    ok = (
        (found, res.start_phi, res.evaluations) == (distance, start_phi, evaluations)
        and len(path) == (n if distance == -1 else distance)
        and ((crossed and not before) or (may_end_uncrossed and not crossed))
    )
    checks.expect(ok, f"{config.kind} n={n} trial={trial}: search output does not check")


def _scaling(checks: Checks, config, rows: list, summary: dict, per_n_sample: int) -> None:
    pick = random.Random(config.seed)
    for n in config.n_values:
        trials = sorted(pick.sample(range(config.trials), min(per_n_sample, config.trials)))
        by_trial = {r[1]: r for r in rows if r[0] == n}
        for trial in trials:
            _search_trial(checks, config, by_trial[trial])
    per_n, fit, censored = harness.refit_rows(config.kind, rows)
    reproduced = (
        _json_normal(per_n) == summary["per_n"]
        and _json_normal(fit.as_dict() if fit else None) == summary["fit"]
        and _json_normal({str(k): v for k, v in censored.items()})
        == summary["details"]["censored"]
    )
    checks.expect(reproduced, "refit_rows on the CSV does not reproduce the JSON")


def _gp(checks: Checks, columns: tuple, rows: list, summary: dict) -> None:
    net_z, gp_z = columns.index("net_z"), columns.index("gp_z")
    for row in rows:
        ok = all(math.isfinite(row[i]) and abs(row[i]) <= Z_LIMIT for i in (net_z, gp_z))
        checks.expect(ok, f"gp-check n={row[0]} {row[1]}: z-score not finite or |z| > {Z_LIMIT}")
    for n, entry in summary["details"]["per_n"].items():
        zs = (entry["net_mean_z"], entry["gp_mean_z"], entry["net_var_z"])
        ok = all(math.isfinite(z) and abs(z) <= Z_LIMIT for z in zs)
        checks.expect(ok, f"gp-check n={n}: mean or variance z-score out of range")
    details = summary["details"]
    reproduced = (
        details["max_abs_net_z"] == max(abs(r[net_z]) for r in rows)
        and details["max_abs_gp_z"] == max(abs(r[gp_z]) for r in rows)
    )
    checks.expect(reproduced, "max |z| of the CSV rows does not match the JSON")


def verify(config, per_n_sample: int) -> dict:
    """Check the rows CSV and summary JSON that `config` wrote."""
    checks = Checks()
    _, columns, rows = harness.read_rows_csv(config.out_csv)
    with open(config.out_json, encoding="utf-8") as fh:
        summary = json.load(fh)
    if config.kind == harness.KIND_GP_CHECK:
        _gp(checks, columns, rows, summary)
    else:
        _scaling(checks, config, rows, summary, per_n_sample)
    return checks.as_dict()
