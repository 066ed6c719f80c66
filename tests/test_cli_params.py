"""The CLI parameter table: every subcommand's flags."""

import argparse
import dataclasses
import inspect
import re

import pytest

from bitboundary import cli
from bitboundary.harness import DESK_DEFAULTS, ExperimentConfig
from bitboundary.kernel import build_profile
from bitboundary.theory import theory_report

NETWORK = {
    "--sigma-w2": ("VAR", None, "weight variance (default 2.0)"),
    "--sigma-b2": ("VAR", None, "bias variance (default 0.0)"),
    "--layers": ("L", None, "hidden layer count (default 2)"),
    "--activation": ("NAME", None, "activation name (default relu)"),
}
RUN = {
    "--n": ("SIZES", None, "input sizes, a comma list"),
    "--trials": ("T", None, "trials per size"),
    "--seed": ("SEED", None, "root seed (default 42)"),
    **NETWORK,
    "--widths": ("W1,W2,..", None, "explicit hidden widths (default: each n wide)"),
    "--out-csv": ("PATH", None, "write per-trial (or summary) rows as CSV"),
    "--out-json": ("PATH", None, "write the aggregate summary as JSON"),
    "--parallel": ("P", None, "worker processes (default 1; output is identical)"),
}
EXACT = {
    "--max-h": ("H", None, "largest Hamming shell for exact search (default n)"),
    "--budget": ("EVALS", None, "exact enumeration budget (default 20000000)"),
}

# {subcommand: {option: (metavar, default, help)}}, as the CLI had them
# before the parameter table, less the removed --timings and --emit-plot-data.
EXPECTED = {
    "kernel": {
        **NETWORK,
        "--out-csv": ("PATH", None, "write the (t, F_1..F_{L+1}, F) table"),
        "--out-json": ("PATH", None, "write the summary instead of printing it"),
    },
    "theory": {
        "--n": ("N", None, "input size"),
        "--a": ("A", None, "distance scale in h = floor(a sqrt(n/ln n)) (default 0.4)"),
        "--z": ("Z", None, "conditioning phi(x) = sqrt(Q) z (default 1.0)"),
        **NETWORK,
        "--out-json": ("PATH", None, "write the report instead of printing it"),
    },
    "closest": {
        **RUN,
        "--method": (None, None, "search method, greedy or exact (default greedy)"),
        **EXACT,
    },
    "flips": RUN,
    "gp-check": RUN,
    "greedy-vs-exact": {**RUN, **EXACT},
    "fit": {
        "csv": (None, None, "rows CSV written by closest or flips"),
        "--out-json": ("PATH", None, "write the fit instead of printing it"),
    },
}

def subparsers():
    parser = cli.build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def options(subparser):
    return {
        (a.option_strings[0] if a.option_strings else a.dest): (a.metavar, a.default, a.help)
        for a in subparser._actions
        if not isinstance(a, argparse._HelpAction)
    }


def test_options_match_reference():
    got = {name: options(p) for name, p in subparsers().items()}
    assert got == EXPECTED


@pytest.mark.parametrize(
    "argv",
    [
        ["flips", "--method", "exact"],
        ["flips", "--budget", "5"],
        ["gp-check", "--max-h", "3"],
        ["closest", "--timings", "1"],
        ["closest", "--emit-plot-data", "p.csv"],
    ],
    ids=" ".join,
)
def test_keys_without_a_flag_are_rejected(argv, tmp_path, monkeypatch):
    """A setting the subcommand does not read has no flag, so naming one
    exits 2 rather than being ignored while it changes the hash."""
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--n", "16", "--trials", "2"]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "3-100000000000", "n has non-numeric value '3-100000000000'"),
        ("--method", "newton", "method must be greedy or exact, got 'newton'"),
    ],
)
def test_value_rules_are_the_configs(flag, value, message, tmp_path, monkeypatch, capsys):
    """The CLI converts text; a range is not a size list, so it exits 2
    without building one, and the method's one rule is ExperimentConfig's."""
    monkeypatch.chdir(tmp_path)
    argv = ["closest", "--n", "8", "--trials", "1", flag, value]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"bitboundary: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_removed_plot_data_flag_exits_2(tmp_path, monkeypatch, capsys):
    """Runs write their per-n aggregates to the summary JSON only, and take
    their settings from flags only."""
    monkeypatch.chdir(tmp_path)
    for flag in ("--emit-plot-data", "--config"):
        assert cli.main(["closest", "--n", "8", "--trials", "1", flag, "run.cfg"]) == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [name for name, _, _ in cli.COMMANDS])
def test_subcommand_help_names_every_flag(command, capsys):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for param in cli.PARAMS:
        if command in param.commands:
            assert "--" + param.key.replace("_", "-") in out


def _signature_defaults(fn):
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def _real_defaults(command):
    """What a command runs with for each setting no flag gives."""
    if command == "kernel":
        return _signature_defaults(build_profile)
    if command == "theory":
        return {**_signature_defaults(build_profile), **_signature_defaults(theory_report)}
    fields = {
        f.name: f.default
        for f in dataclasses.fields(ExperimentConfig)
        if f.default is not dataclasses.MISSING
    }
    return {**fields, **DESK_DEFAULTS[command]}


def test_help_states_the_real_default():
    """A "(default X)" in a flag's help is the value each of its commands uses
    without it; max_h's "n" stands for None, which searches up to n."""
    checked, wrong = 0, []
    for param in cli.PARAMS:
        stated = re.search(r"\(default ([^;)]+)", param.help)
        if stated is None:
            continue
        expected = None if stated.group(1) == "n" else param.parse(stated.group(1))
        for command in param.commands:
            checked += 1
            if _real_defaults(command)[param.field or param.key] != expected:
                wrong.append((command, param.key, stated.group(1)))
    assert checked and not wrong, wrong
