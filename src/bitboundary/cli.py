"""Command-line interface.

Subcommands:

* kernel            tabulate the kernel profile (CSV + JSON summary)
* theory            closed-form predictors for one (n, a, z)
* closest           nearest-boundary experiment (greedy or exact search)
* flips             random-flip-walk experiment
* gp-check          network covariance vs kernel vs GP sampling
* greedy-vs-exact   paired greedy/exact distances at small n
* fit               recompute aggregates and the scaling fit from a rows CSV

Every subcommand but fit reads an optional key=value config file (one run
per file, `#` comments). Its keys are exactly the subcommand's flags, with `_`
for `-`, and flags override file values; one table, PARAMS, defines both. Size lists accept `64,128,256`, linear ranges `100-400:100`, and
geometric ranges `64-512:x2`.

Exit codes: 0 success, 2 config error, 3 budget exceeded, 4 numerical fault.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ._version import VERSION
from .errors import BitBoundaryError, ConfigError
from .harness import (
    DESK_DEFAULTS,
    EXPERIMENTS,
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    SCALING_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    read_rows_csv,
    refit_rows,
    run_experiment,
)
from .kernel import KernelProfile, build_profile
from .search import DEFAULT_BUDGET
from .theory import theory_report

# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------


def parse_n_values(text: str) -> Tuple[int, ...]:
    """Parse a size list: comma-separated integers, linear ranges `a-b:step`
    (`a-b` means step 1), and geometric ranges `a-b:xfactor`."""
    values = []
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item[1:]:
            span, _, step_part = item.partition(":")
            lo_text, _, hi_text = span.partition("-")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigError(f"bad size range {item!r}") from None
            if lo > hi:
                raise ConfigError(f"empty size range {item!r}")
            if step_part.startswith("x"):
                try:
                    factor = int(step_part[1:])
                except ValueError:
                    raise ConfigError(f"bad geometric factor in {item!r}") from None
                if factor < 2:
                    raise ConfigError(f"geometric factor must be >= 2 in {item!r}")
                v = lo
                while v <= hi:
                    values.append(v)
                    v *= factor
            else:
                try:
                    step = int(step_part) if step_part else 1
                except ValueError:
                    raise ConfigError(f"bad step in {item!r}") from None
                if step < 1:
                    raise ConfigError(f"step must be >= 1 in {item!r}")
                values.extend(range(lo, hi + 1, step))
        else:
            try:
                values.append(int(item))
            except ValueError:
                raise ConfigError(f"bad size value {item!r}") from None
    if not values:
        raise ConfigError(f"no sizes in {text!r}")
    return tuple(values)


def parse_widths(text: str) -> Tuple[int, ...]:
    try:
        widths = tuple(int(w) for w in str(text).split(",") if w.strip())
    except ValueError:
        raise ConfigError(f"bad widths list {text!r}") from None
    if not widths:
        raise ConfigError(f"no widths in {text!r}")
    return widths


def read_config_file(path: str) -> Dict[str, str]:
    """Plain key=value lines; `#` starts a comment; blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# the parameter table: flags, config-file keys and their parsing
# ---------------------------------------------------------------------------

RUNS = tuple(EXPERIMENTS)
NETWORK = ("kernel", "theory") + RUNS


@dataclass(frozen=True)
class Param:
    """One parameter of the subcommands in `commands`: the flag --key (with
    `-` for `_`) and the config-file key `key`, both parsed by `parse` into
    the setting `field` (default: the key itself)."""

    key: str
    parse: Callable[[str], object]
    metavar: Optional[str]
    help: str
    commands: Tuple[str, ...]
    field: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None

    def value(self, raw: str):
        try:
            return self.parse(raw)
        except ValueError:
            raise ConfigError(f"{self.key} has non-numeric value {raw!r}") from None


PARAMS = (
    Param("n", int, "N", "input size", ("theory",)),
    Param("n", parse_n_values, "SIZES",
          "input sizes: comma list, a-b:STEP, or a-b:xFACTOR", RUNS, field="n_values"),
    Param("a", float, "A",
          "distance scale in h = floor(a sqrt(n/ln n)) (default 0.4)", ("theory",)),
    Param("z", float, "Z", "conditioning phi(x) = sqrt(Q) z (default 1.0)", ("theory",)),
    Param("trials", int, "T", "trials per size", RUNS),
    Param("seed", int, "SEED", "root seed (default 42)", RUNS),
    Param("sigma_w2", float, "VAR", "weight variance (default 2.0)", NETWORK),
    Param("sigma_b2", float, "VAR", "bias variance (default 0.0)", NETWORK),
    Param("layers", int, "L", "hidden layer count (default 2)", NETWORK),
    Param("activation", str, "NAME", "activation name (default relu)", NETWORK),
    Param("widths", parse_widths, "W1,W2,..",
          "explicit hidden widths (default: each n wide)", RUNS),
    Param("out_csv", str, "PATH", "write the (t, F_1..F_{L+1}, F) table", ("kernel",)),
    Param("out_csv", str, "PATH", "write per-trial (or summary) rows as CSV", RUNS),
    Param("out_json", str, "PATH", "write the summary instead of printing it", ("kernel",)),
    Param("out_json", str, "PATH", "write the report instead of printing it", ("theory",)),
    Param("out_json", str, "PATH", "write the aggregate summary as JSON", RUNS),
    Param("out_json", str, "PATH", "write the fit instead of printing it", ("fit",)),
    Param("parallel", int, "P", "worker processes (default 1; output is identical)", RUNS),
    Param("method", str, None, "search method (default greedy)", (KIND_CLOSEST,),
          choices=("greedy", "exact")),
    Param("max_h", int, "H", "largest Hamming shell for exact search (default n)",
          (KIND_CLOSEST, KIND_GREEDY_VS_EXACT)),
    Param("budget", int, "EVALS", f"exact enumeration budget (default {DEFAULT_BUDGET})",
          (KIND_CLOSEST, KIND_GREEDY_VS_EXACT)),
    Param("emit_plot_data", str, "PATH", "write (x, y, yerr) plot data CSV next to the fit",
          (KIND_CLOSEST, KIND_FLIPS), field="plot_csv"),
)


def _settings(command: str, args) -> dict:
    """The subcommand's config-file values overridden by its explicit flags,
    parsed and keyed by field. The file may hold exactly the keys that the
    subcommand has flags for, plus a `kind` that must name the subcommand."""
    params = {p.key: p for p in PARAMS if command in p.commands}
    values = {}
    if args.config is not None:
        for key, raw in read_config_file(args.config).items():
            if key == "kind":
                if raw != command:
                    raise ConfigError(
                        f"config file is for kind {raw!r}, not subcommand {command!r}"
                    )
            elif key in params:
                values[key] = params[key].value(raw)
            else:
                raise ConfigError(f"config key {key!r} not valid for {command}")
    for key, param in params.items():
        raw = getattr(args, key)
        if raw is not None:
            values[key] = param.value(raw)
    return {params[key].field or key: value for key, value in values.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit_json(obj: dict, path: Optional[str], label: str) -> None:
    """Write obj to path (reporting it) or, without a path, print it."""
    text = json.dumps(obj, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {label} to {path}")
    else:
        print(text)


def _print_run_summary(result: ExperimentResult) -> None:
    cfg = result.config
    sizes = ",".join(str(n) for n in cfg.n_values)
    print(f"{cfg.kind}: n={sizes} trials={cfg.trials} seed={cfg.seed}")
    for entry in result.per_n:
        print(
            f"  n={entry['n']}: mean={entry['mean']:.6g} "
            f"stderr={entry['stderr']:.3g} count={entry['count']}"
        )
    if result.fit is not None:
        f = result.fit
        print(
            f"  fit {f.model}: coefficient={f.coefficient:.6g} "
            f"+/- {f.stderr:.3g} (r2={f.r_squared:.6g})"
        )
    if cfg.kind == KIND_GP_CHECK:
        print(
            f"  max |net z|={result.details['max_abs_net_z']:.3g} "
            f"max |gp z|={result.details['max_abs_gp_z']:.3g}"
        )
    if cfg.kind == KIND_GREEDY_VS_EXACT:
        print(
            f"  violations={result.details['total_violations']} "
            f"max_gap={result.details['max_gap']}"
        )
    for attr, label in (
        ("out_csv", "rows"),
        ("out_json", "summary"),
        ("plot_csv", "plot data"),
    ):
        path = getattr(cfg, attr)
        if path:
            print(f"  wrote {label} to {path}")
    if result.truncated:
        print("  TRUNCATED: interrupted before all trials finished")


def _cmd_experiment(args) -> int:
    values = dict(DESK_DEFAULTS[args.command])
    values.update(_settings(args.command, args))
    result = run_experiment(ExperimentConfig(kind=args.command, **values))
    _print_run_summary(result)
    return 130 if result.truncated else 0


def _profile_params(values: dict) -> dict:
    """build_profile arguments from kernel or theory settings, with the
    defaults the flag help states."""
    return {
        "sigma_w2": values.get("sigma_w2", 2.0),
        "sigma_b2": values.get("sigma_b2", 0.0),
        "layers": values.get("layers", 2),
        "activation": values.get("activation", "relu"),
    }


def _params_hash(label: str, params: dict) -> str:
    text = label + "".join(f"\n{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(text.encode()).hexdigest()


def _kernel_csv(profile: KernelProfile, sha: str) -> str:
    depth = profile.grid_f_layers.shape[0]
    header = ["t"] + [f"F_{l}" for l in range(1, depth + 1)] + ["F"]
    lines = [
        "# kind=kernel",
        f"# config_sha256={sha}",
        f"# version={VERSION}",
        ",".join(header),
    ]
    for j in range(profile.grid_t.size):
        cells = [repr(float(profile.grid_t[j]))]
        cells.extend(repr(float(profile.grid_f_layers[l, j])) for l in range(depth))
        cells.append(repr(float(profile.grid_f_layers[-1, j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_kernel(args) -> int:
    values = _settings("kernel", args)
    build = _profile_params(values)
    profile = build_profile(**build)
    sha = _params_hash("kernel", build)
    summary = {
        "Q_l": list(profile.q_per_layer),
        "Q": profile.q,
        "Fprime1": profile.f_prime_1,
        "activation": profile.activation,
        "params": build,
        "provenance": {"config_sha256": sha, "version": VERSION},
    }
    out_csv = values.get("out_csv")
    if out_csv:
        Path(out_csv).write_text(
            _kernel_csv(profile, sha), encoding="utf-8", newline="\n"
        )
        print(f"wrote kernel table to {out_csv}")
    _emit_json(summary, values.get("out_json"), "kernel summary")
    return 0


def _cmd_theory(args) -> int:
    values = _settings("theory", args)
    if "n" not in values:
        raise ConfigError("theory requires --n")
    profile = build_profile(**_profile_params(values))
    report = theory_report(
        profile,
        n=values["n"],
        a=values.get("a", 0.4),
        z=values.get("z", 1.0),
    )
    _emit_json(report, values.get("out_json"), "theory report")
    return 0


def _cmd_fit(args) -> int:
    meta, columns, rows = read_rows_csv(args.csv)
    kind = meta.get("kind")
    if kind not in (KIND_CLOSEST, KIND_FLIPS):
        raise ConfigError(
            f"fit expects a closest or flips rows CSV, got kind={kind!r}"
        )
    if columns != SCALING_COLUMNS:
        raise ConfigError(
            f"unexpected columns {','.join(columns)}; "
            f"want {','.join(SCALING_COLUMNS)}"
        )
    per_n, fit, censored = refit_rows(kind, rows)
    out = {
        "kind": kind,
        "source": str(args.csv),
        "source_meta": meta,
        "per_n": per_n,
        "fit": fit.as_dict() if fit is not None else None,
        "censored": {str(k): v for k, v in censored.items()},
    }
    _emit_json(out, args.out_json, "fit")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

COMMANDS = (
    ("kernel", "tabulate Q, F_l(t), F'(1)", _cmd_kernel),
    ("theory", "closed-form predictors at one (n, a, z)", _cmd_theory),
    (KIND_CLOSEST, "nearest-boundary distance experiment", _cmd_experiment),
    (KIND_FLIPS, "random-flip-walk experiment", _cmd_experiment),
    (KIND_GP_CHECK, "network vs kernel vs GP covariance", _cmd_experiment),
    (KIND_GREEDY_VS_EXACT, "paired search comparison", _cmd_experiment),
    ("fit", "recompute aggregates and fit from a rows CSV", _cmd_fit),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitboundary",
        description="Boundary-distance experiments and kernel theory for "
        "random deep networks on bit strings.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == "fit":
            p.add_argument("csv", help="rows CSV written by closest or flips")
        for param in PARAMS:
            if name in param.commands:
                flag = "--" + param.key.replace("_", "-")
                p.add_argument(flag, default=None, metavar=param.metavar,
                               choices=param.choices, help=param.help)
        if name != "fit":
            p.add_argument("--config", metavar="FILE", default=None,
                           help="key=value config file; explicit flags override file values")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2
    try:
        return args.handler(args)
    except BitBoundaryError as exc:
        print(f"bitboundary: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"bitboundary: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bitboundary: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
