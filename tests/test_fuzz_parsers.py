"""Property tests of the input parsers: any input ends as a valid result or
as ConfigError, never as another exception. Any float given to a `kernel` or
`theory` flag ends as exit 0, 2 or 4, never a traceback, and what is printed
is strict JSON.

Size and width lists convert by one parser, cli.parse_int_list, through the
flag's Param. The strategies also draw range forms (`a-b:STEP`,
`a-b:xFACTOR`), which are not size lists: each ends as ConfigError.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitboundary.bitstrings import BitString
from bitboundary import cli
from bitboundary.errors import ConfigError
from bitboundary.harness import read_rows_csv

FUZZ = settings(deadline=None)

small = st.integers(min_value=-20, max_value=3000).map(str)
range_item = st.builds(
    lambda lo, hi, step: f"{lo}-{hi}{step}",
    small,
    small,
    st.one_of(
        st.just(""),
        st.integers(-2, 40).map(lambda k: f":{k}"),
        st.integers(-1, 9).map(lambda k: f":x{k}"),
        st.text("0123456789x-", max_size=3).map(lambda t: ":" + t),
    ),
)
# at most six ASCII characters from the digits and the range forms' signs
ascii_item = st.text("0123456789-:x, ", max_size=6)
digitless_text = st.text(st.characters(blacklist_categories=("Nd",)), max_size=12)
size_list = st.lists(
    st.one_of(small, range_item, ascii_item, digitless_text), max_size=5
).map(",".join)

file_bytes = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda t: t.encode("utf-8")),
    st.lists(
        st.tuples(st.text("abcn_- ", min_size=1, max_size=6), st.text(max_size=8)), max_size=6
    ).map(lambda kv: "\n".join(f"{k}={v}" for k, v in kv).encode("utf-8")),
)

sign_leaf = st.one_of(
    st.sampled_from([1, -1, 1.0, -1.0]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
sign_input = st.one_of(
    st.lists(st.sampled_from([1, -1, 1.0, -1.0]), max_size=20),
    st.recursive(sign_leaf, lambda inner: st.lists(inner, max_size=5), max_leaves=20),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _outcome(call, *args):
    """call(*args), or None when it raised ConfigError."""
    try:
        return call(*args)
    except ConfigError:
        return None


def _int_list_param(key):
    return next(p for p in cli.PARAMS if p.key == key and p.parse is cli.parse_int_list)


@FUZZ
@given(size_list)
@example("0-5:x2")
@example("0-0:x3")
@example("3-100000000000")
def test_parse_n_values(text):
    values = _outcome(_int_list_param("n").value, text)
    if values is not None:
        assert values and all(type(v) is int for v in values)
        # no range form is a size list
        assert ":" not in text and all("-" not in item.strip()[1:] for item in text.split(","))


@FUZZ
@given(st.one_of(size_list, st.text(max_size=30)))
def test_parse_widths(text):
    widths = _outcome(_int_list_param("widths").value, text)
    if widths is not None:
        assert widths and all(type(w) is int for w in widths)


@FUZZ
@given(file_bytes)
def test_read_rows_csv(fuzz_dir, data):
    path = fuzz_dir / "rows.csv"
    path.write_bytes(data)
    parsed = _outcome(read_rows_csv, path)
    if parsed is not None:
        meta, columns, rows = parsed
        assert isinstance(meta, dict) and columns and isinstance(rows, list)


@FUZZ
@given(sign_input)
def test_bitstring_constructor(signs):
    x = _outcome(BitString, signs)
    if x is not None:
        assert np.asarray(signs).dtype.kind in "iuf"
        assert x.signs.dtype == np.float64 and x.signs.ndim == 1 and x.n >= 1
        assert np.all(np.abs(x.signs) == 1.0) and not x.signs.flags.writeable


def _strict_json(text):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _cli_outcome(argv):
    """Run the CLI and check the allowed outcomes: exit 0 with strict JSON on
    stdout, or exit 2 or 4 with one error line; never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        return _strict_json(out)
    assert out == "" and err.startswith("bitboundary: error:") and err.count("\n") == 1
    return None


any_float = st.floats(allow_nan=True, allow_infinity=True)


@FUZZ
@given(any_float, any_float)
@example(float("inf"), 1.0)
@example(0.4, float("nan"))
@example(1e308, 1.0)
@example(5e-324, 0.0)
@example(0.4, 1e200)
@example(0.01, 1.0)
def test_theory_cli_any_float(a, z):
    report = _cli_outcome(["theory", "--n", "784", f"--a={a!r}", f"--z={z!r}"])
    if report is not None:
        assert report["a"] == a and report["z"] == z and 0 <= report["h_n"] <= 784


@FUZZ
@given(st.integers(min_value=-(2**70), max_value=10**400))
@example(2**63)
@example(2**63 - 2)
@example(10**20)
@example(10**400)
@example(2)
def test_theory_cli_any_size(n):
    # n + 1 beyond int64 or n beyond the float range must exit 2, not crash
    report = _cli_outcome(["theory", "--n", str(n)])
    assert (report is not None) == (3 <= n <= 2**63 - 2)


@FUZZ
@given(any_float, any_float, st.sampled_from(["relu", "tanh"]))
@example(float("nan"), 0.0, "relu")
@example(2.0, float("-inf"), "relu")
@example(1e308, 1e308, "relu")
@example(5e-324, 0.0, "tanh")
@example(0.0, 1.0, "relu")
def test_kernel_cli_any_float(sigma_w2, sigma_b2, activation):
    argv = ["kernel", f"--sigma-w2={sigma_w2!r}", f"--sigma-b2={sigma_b2!r}",
            "--activation", activation]
    summary = _cli_outcome(argv)
    if summary is not None:
        assert summary["Q"] > 0 and summary["Fprime1"] > 0
