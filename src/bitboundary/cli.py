"""Command-line interface.

Subcommands:

* kernel            tabulate the kernel profile (CSV + JSON summary)
* theory            closed-form predictors for one (n, a, z)
* closest           nearest-boundary experiment (greedy or exact search)
* flips             random-flip-walk experiment
* gp-check          network covariance vs kernel vs GP sampling
* greedy-vs-exact   paired greedy/exact distances at small n
* fit               recompute aggregates and the scaling fit from a rows CSV

Flags are the only input; one table, PARAMS, defines every subcommand's
flags and how each one's text converts to a value: `int`, `float`, `str`,
or a comma list of integers such as `64,128,256` for sizes and widths. The
rules on the values are ExperimentConfig's, NetworkConfig's and
build_profile's.

Exit codes: 0 success, 1 an output that could not be written after the run
(an OS error such as a full disk), 2 config error, 3 budget exceeded,
4 numerical fault, 130 interrupted (partial results written, marked
truncated).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ._version import VERSION
from .errors import BitBoundaryError, ConfigError
from .harness import (
    DESK_DEFAULTS,
    EXPERIMENTS,
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    OUTPUT_FIELDS,
    ExperimentConfig,
    ExperimentResult,
    check_output_paths,
    json_text,
    kernel_summary,
    refit_csv,
    run_experiment,
    write_json,
    write_kernel_csv,
)
from .kernel import build_profile
from .search import DEFAULT_BUDGET
from .theory import theory_report

# ---------------------------------------------------------------------------
# the parameter table: flags and their parsing
# ---------------------------------------------------------------------------


def parse_int_list(text: str) -> Tuple[int, ...]:
    """A comma-separated list of integers, such as `64,128, 256`. Any other
    text, an empty item included, raises ValueError; the rules on the values
    are ExperimentConfig's."""
    return tuple(int(item) for item in text.split(","))


RUNS = tuple(EXPERIMENTS)
NETWORK = ("kernel", "theory") + RUNS


@dataclass(frozen=True)
class Param:
    """One parameter of the subcommands in `commands`: the flag --key (with
    `-` for `_`), parsed by `parse` into the setting `field` (default: the
    key itself)."""

    key: str
    parse: Callable[[str], object]
    metavar: Optional[str]
    help: str
    commands: Tuple[str, ...]
    field: Optional[str] = None

    def value(self, raw: str):
        try:
            return self.parse(raw)
        except ValueError:
            raise ConfigError(f"{self.key} has non-numeric value {raw!r}") from None


PARAMS = (
    Param("n", int, "N", "input size", ("theory",)),
    Param("n", parse_int_list, "SIZES", "input sizes, a comma list", RUNS, field="n_values"),
    Param("a", float, "A",
          "distance scale in h = floor(a sqrt(n/ln n)) (default 0.4)", ("theory",)),
    Param("z", float, "Z", "conditioning phi(x) = sqrt(Q) z (default 1.0)", ("theory",)),
    Param("trials", int, "T", "trials per size", RUNS),
    Param("seed", int, "SEED", "root seed (default 42)", RUNS),
    Param("sigma_w2", float, "VAR", "weight variance (default 2.0)", NETWORK),
    Param("sigma_b2", float, "VAR", "bias variance (default 0.0)", NETWORK),
    Param("layers", int, "L", "hidden layer count (default 2)", NETWORK),
    Param("activation", str, "NAME", "activation name (default relu)", NETWORK),
    Param("widths", parse_int_list, "W1,W2,..",
          "explicit hidden widths (default: each n wide)", RUNS),
    Param("out_csv", str, "PATH", "write the (t, F_1..F_{L+1}, F) table", ("kernel",)),
    Param("out_csv", str, "PATH", "write per-trial (or summary) rows as CSV", RUNS),
    Param("out_json", str, "PATH", "write the summary instead of printing it", ("kernel",)),
    Param("out_json", str, "PATH", "write the report instead of printing it", ("theory",)),
    Param("out_json", str, "PATH", "write the aggregate summary as JSON", RUNS),
    Param("out_json", str, "PATH", "write the fit instead of printing it", ("fit",)),
    Param("parallel", int, "P", "worker processes (default 1; output is identical)", RUNS),
    Param("method", str, None, "search method, greedy or exact (default greedy)",
          (KIND_CLOSEST,)),
    Param("max_h", int, "H", "largest Hamming shell for exact search (default n)",
          (KIND_CLOSEST, KIND_GREEDY_VS_EXACT)),
    Param("budget", int, "EVALS", f"exact enumeration budget (default {DEFAULT_BUDGET})",
          (KIND_CLOSEST, KIND_GREEDY_VS_EXACT)),
)


def _settings(command: str, args) -> dict:
    """The subcommand's flags that were given, parsed and keyed by field."""
    return {
        param.field or param.key: param.value(getattr(args, param.key))
        for param in PARAMS
        if command in param.commands and getattr(args, param.key) is not None
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit_json(obj: dict, path: Optional[str], label: str) -> None:
    """Write obj to path (reporting it) or, without a path, print it."""
    if path:
        write_json(path, obj)
        print(f"wrote {label} to {path}")
    else:
        sys.stdout.write(json_text(obj))


def _print_run_summary(result: ExperimentResult) -> None:
    cfg = result.config
    sizes = ",".join(str(n) for n in cfg.n_values)
    print(f"{cfg.kind}: n={sizes} trials={cfg.trials} seed={cfg.seed}")
    for entry in result.per_n:
        print(
            f"  n={entry['n']}: mean={entry['mean']:.6g} "
            f"stderr={entry['stderr']:.3g} count={entry['count']}"
        )
    found = {entry["n"]: entry["count"] for entry in result.per_n}
    for n, censored in result.details.get("censored", {}).items():
        if censored:
            print(f"  n={n}: {censored} of {censored + found.get(n, 0)} trials censored")
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
    for attr, label in OUTPUT_FIELDS.items():
        path = getattr(cfg, attr)
        if path:
            print(f"  wrote {label} to {path}")
    if result.truncated:
        print("  TRUNCATED: interrupted before all trials finished")


def _cmd_experiment(args) -> int:
    values = dict(DESK_DEFAULTS[args.command])
    values.update(_settings(args.command, args))
    config = ExperimentConfig(kind=args.command, **values)
    result = run_experiment(config)
    _print_run_summary(result)
    return 130 if result.truncated else 0


def _cmd_kernel(args) -> int:
    values = _settings("kernel", args)
    out_csv, out_json = values.pop("out_csv", None), values.pop("out_json", None)
    check_output_paths(out_csv, out_json)
    profile = build_profile(**values)
    if out_csv:
        write_kernel_csv(out_csv, profile)
        print(f"wrote kernel table to {out_csv}")
    _emit_json(kernel_summary(profile), out_json, "kernel summary")
    return 0


def _cmd_theory(args) -> int:
    values = _settings("theory", args)
    out_json = values.pop("out_json", None)
    check_output_paths(out_json)
    query = {key: values.pop(key) for key in ("n", "a", "z") if key in values}
    if "n" not in query:
        raise ConfigError("theory requires --n")
    report = theory_report(build_profile(**values), **query)
    _emit_json(report, out_json, "theory report")
    return 0


def _cmd_fit(args) -> int:
    check_output_paths(args.out_json, source=args.csv)
    _emit_json(refit_csv(args.csv), args.out_json, "fit")
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
                p.add_argument(flag, default=None, metavar=param.metavar, help=param.help)
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
    except (BitBoundaryError, OSError) as exc:
        print(f"bitboundary: error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, BitBoundaryError) else 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
