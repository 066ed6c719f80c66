"""The CLI parameter table: every subcommand's flags and config-file keys."""

import argparse

import pytest

from bitboundary import cli
from bitboundary.errors import ConfigError

NETWORK = {
    "--sigma-w2": ("VAR", None, "weight variance (default 2.0)"),
    "--sigma-b2": ("VAR", None, "bias variance (default 0.0)"),
    "--layers": ("L", None, "hidden layer count (default 2)"),
    "--activation": ("NAME", None, "activation name (default relu)"),
}
CONFIG = {
    "--config": ("FILE", None, "key=value config file; explicit flags override file values"),
}
RUN = {
    "--n": ("SIZES", None, "input sizes: comma list, a-b:STEP, or a-b:xFACTOR"),
    "--trials": ("T", None, "trials per size"),
    "--seed": ("SEED", None, "root seed (default 42)"),
    **NETWORK,
    "--widths": ("W1,W2,..", None, "explicit hidden widths (default: each n wide)"),
    "--out-csv": ("PATH", None, "write per-trial (or summary) rows as CSV"),
    "--out-json": ("PATH", None, "write the aggregate summary as JSON"),
    "--parallel": ("P", None, "worker processes (default 1; output is identical)"),
    **CONFIG,
}
EXACT = {
    "--max-h": ("H", None, "largest Hamming shell for exact search (default n)"),
    "--budget": ("EVALS", None, "exact enumeration budget (default 20000000)"),
}
PLOT = {
    "--emit-plot-data": ("PATH", None, "write (x, y, yerr) plot data CSV next to the fit"),
}

# {subcommand: {option: (metavar, default, help)}}, as the CLI had them
# before the parameter table, less the removed --timings.
EXPECTED = {
    "kernel": {
        **NETWORK,
        "--out-csv": ("PATH", None, "write the (t, F_1..F_{L+1}, F) table"),
        "--out-json": ("PATH", None, "write the summary instead of printing it"),
        **CONFIG,
    },
    "theory": {
        "--n": ("N", None, "input size"),
        "--a": ("A", None, "distance scale in h = floor(a sqrt(n/ln n)) (default 0.4)"),
        "--z": ("Z", None, "conditioning phi(x) = sqrt(Q) z (default 1.0)"),
        **NETWORK,
        "--out-json": ("PATH", None, "write the report instead of printing it"),
        **CONFIG,
    },
    "closest": {
        **RUN,
        "--method": (None, None, "search method (default greedy)"),
        **EXACT,
        **PLOT,
    },
    "flips": {**RUN, **PLOT},
    "gp-check": RUN,
    "greedy-vs-exact": {**RUN, **EXACT},
    "fit": {
        "csv": (None, None, "rows CSV written by closest or flips"),
        "--out-json": ("PATH", None, "write the fit instead of printing it"),
    },
}

# A valid value for every key any subcommand has ever taken.
SAMPLE_VALUES = {
    "n": "16",
    "a": "0.4",
    "z": "1.0",
    "trials": "2",
    "seed": "1",
    "sigma_w2": "2.0",
    "sigma_b2": "0.0",
    "layers": "2",
    "activation": "relu",
    "widths": "4,4",
    "out_csv": "rows.csv",
    "out_json": "run.json",
    "parallel": "1",
    "method": "greedy",
    "max_h": "2",
    "budget": "10",
    "emit_plot_data": "plot.csv",
    "timings": "1",
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
    method = next(a for a in subparsers()["closest"]._actions if a.dest == "method")
    assert method.choices == ("greedy", "exact")


@pytest.mark.parametrize("command", [c for c in EXPECTED if "--config" in EXPECTED[c]])
def test_config_file_keys_are_exactly_the_flags(command, tmp_path):
    flags = {o[2:].replace("-", "_") for o in EXPECTED[command]} - {"config"}
    assert flags <= set(SAMPLE_VALUES)
    accepted = set()
    for key, value in SAMPLE_VALUES.items():
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"kind = {command}\n{key} = {value}\n")
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        try:
            cli._settings(command, args)
        except ConfigError:
            continue
        accepted.add(key)
    assert accepted == flags


@pytest.mark.parametrize(
    "command, line",
    [
        ("flips", "method = exact"),
        ("flips", "budget = 5"),
        ("gp-check", "max_h = 3"),
        ("closest", "timings = 1"),
    ],
)
def test_keys_without_a_flag_are_rejected(command, line, tmp_path):
    """Such keys used to be accepted, ignored, and still change the hash."""
    path = tmp_path / "run.cfg"
    path.write_text(f"n = 16\ntrials = 2\n{line}\n")
    assert cli.main([command, "--config", str(path)]) == 2

