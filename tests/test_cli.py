"""End-to-end command-line tests driven through main(argv)."""

import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halley_cert import ConvergenceCertificate, SolveTrace, cli
from halley_cert.certificate import _certified_parts
from halley_cert.cli import main
from halley_cert.majorant import _cached_roots
from helpers import render_json_oracle

TABLE_ARGS = ["certificate", "kantorovich",
              "--beta", "0.2", "--eta", "1.2", "--lip", "1.2"]
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_certificate_json_output(capsys):
    rc, out, err = run_cli(capsys, TABLE_ARGS + ["--format", "json"])
    assert rc == 0
    assert err == ""
    data = json.loads(out)
    assert set(data) == {"kind", "verdict", "criterion", "t_star",
                         "uniqueness_radius", "rate_constant", "sequence",
                         "apriori_errors"}
    assert data["verdict"] == "certified"
    assert data["t_star"] == pytest.approx(0.2360679774997897, rel=1e-13)
    assert data["uniqueness_radius"] == pytest.approx(1.0, abs=1e-13)
    # the printed digits round-trip into the same certificate
    back = ConvergenceCertificate.from_json_dict(data)
    assert back.certified
    assert back.sequence.points[1] == pytest.approx(0.2272727272727273, rel=1e-15)


def test_certificate_csv_and_human(capsys):
    rc, out, _ = run_cli(capsys, TABLE_ARGS + ["--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("kind,verdict,criterion_lhs")
    cells = lines[1].split(",")
    assert cells[0] == "kantorovich"
    assert float(cells[4]) == pytest.approx(0.2360679774997897, rel=1e-15)

    rc2, out2, _ = run_cli(capsys, TABLE_ARGS)
    assert rc2 == 0
    assert "kind: kantorovich" in out2
    assert "verdict: certified" in out2


@pytest.mark.parametrize("order", [("-0", "0"), ("0", "-0")])
def test_zero_beta_prints_a_positive_zero_radius_in_either_order(capsys, order):
    # beta = -0.0 and 0.0 make equal majorants, which share one cache entry:
    # the radius is +0.0 whichever came first, the criterion side keeps its sign
    _cached_roots.cache_clear()
    _certified_parts.cache_clear()
    for kind, rest in (("smale", ["--gamma", "0.5"]),
                       ("kantorovich", ["--eta", "1.2", "--lip", "1.2"])):
        for beta in order:
            rc, out, _ = run_cli(capsys, ["certificate", kind, f"--beta={beta}", *rest,
                                          "--format", "json"])
            assert rc == 0
            assert f'"lhs": {beta},' in out
            assert '"t_star": 0,' in out
            assert '"apriori_errors": [0]' in out


def test_certificate_failed_criterion_exit_code(capsys):
    rc, out, _ = run_cli(capsys, ["certificate", "smale", "--beta", "1",
                                  "--gamma", "1", "--format", "json"])
    assert rc == 2
    data = json.loads(out)
    assert data["verdict"] == "criterion_failed"
    assert data["t_star"] is None
    assert data["sequence"] is None


def test_usage_errors_exit_one(capsys):
    rc, _, err = run_cli(capsys, ["certificate", "kantorovich", "--beta", "0.2"])
    assert rc == 1
    assert err.startswith("error:")

    rc2, _, err2 = run_cli(capsys, ["frobnicate"])
    assert rc2 == 1
    assert err2.startswith("error:")

    # invalid inputs surface as usage errors, not tracebacks
    rc3, _, err3 = run_cli(capsys, ["certificate", "kantorovich", "--beta",
                                    "-1", "--eta", "1", "--lip", "1"])
    assert rc3 == 1
    assert "beta" in err3


def test_one_parser_serves_every_call(capsys):
    family = ["solve", "hammerstein", "--lambda", "0.5", "--nodes", "8",
              "--method", "family", "--coeffs", "1,0.5", "--format", "csv"]
    rc, _, _ = run_cli(capsys, family)
    assert rc == 0
    # a call after one with --coeffs still sees no coefficients
    rc, _, err = run_cli(capsys, family[:-4] + ["--format", "csv"])
    assert rc == 1
    assert err == "error: --method family requires --coeffs\n"
    assert cli._shared_parser() is cli._shared_parser()


_S = ["solve", "hammerstein"]
_K = ["certificate", "kantorovich", "--beta", "0.2", "--eta", "1.2", "--lip", "1.2"]
_SM = ["certificate", "smale", "--beta", "0.1", "--gamma", "0.5"]
# every command, --flag=value, an abbreviation, values that start with "-",
# help at each depth, unknown, repeated and missing flags, bad values, "--"
# and extra positionals; the solves use 8 nodes
_ARGV_MATRIX = [
    [], ["-h"], ["--help"], ["frobnicate"], ["-x"], ["--lam", "1"], ["table"],
    ["solve"], ["solve", "-h"], ["solve", "x"], ["solve", "--", "hammerstein"],
    ["--", "table1"], ["certificate"], ["certificate", "-h"], ["certificate", "k"],
    ["certificate", "kantorovich", "smale"],
    _K, _K + ["--format", "json"], _K + ["-h"], _K[:4], _K + ["--lip"],
    _K + ["--seq-len=3", "--format=csv"], _K + ["--beta", "0.3"],
    _K + ["--beta", "inf"], _K + ["--eta", "abc"], _K + ["--seq-len", "2.5"],
    ["certificate", "kantorovich", "--beta", "-1", "--eta", "1", "--lip", "1"],
    _SM, _SM + ["-h"], _SM[:4], _SM + ["--format", "xml"], _SM + ["extra"],
    ["table1"], ["table1", "-h"], ["table1", "-h", "--bogus"], ["table1", "extra"],
    ["table1", "--lambdas", "-0.5,0.5", "--format", "json"], ["table1", "--lambdas=0.5,1"],
    ["table1", "--lambdas"], ["table1", "--lambdas", "-x"], ["table1", "--lambdas", ","],
    ["table1", "--seq-len", "-3"], ["table1", "--", "--lambdas", "1"],
    _S, _S + ["-h"], _S + ["--bogus", "-h"], _S + ["--lam", "0.5", "--nodes", "8"],
    _S + ["--lambda=0.5", "--nodes=8", "--format=json"],
    _S + ["--lambda", "0.5", "--lambda", "0.7", "--nodes", "8"],
    _S + ["--lambda", "-0.5,0.5"], _S + ["--lambda", "-1", "--nodes", "8"],
    _S + ["--lambda", "0.5", "--nodes", "8", "extra"], _S + ["--lambda", "x"],
    _S + ["--lambda", "0.5", "--", "--nodes", "8"], _S + ["--lambda", "0.5", "--nodes", "8", "--"],
    _S + ["--lambda", "0.5", "--bogus"], _S + ["--lambda", "0.5", "--method", "quux"],
    _S + ["--lambda", "0.5", "--nodes", "8", "--method", "family"],
    _S + ["--lambda", "0.5", "--nodes", "8", "--method", "family", "--coeffs", "1,0.5"],
    _S + ["--lambda", "0.5", "--nodes", "8", "--method", "family", "--coeffs", "1,0.5,nan"],
    _S + ["--lambda", "0.5", "--nodes", "8", "--tol", "inf"],
    _S + ["--lambda", "0.5", "--nodes", "8", "--fo", "csv"], _S + ["--nodes", "8"],
]


def _outcome(capsys, call, argv):
    """What call(argv) returns, raises or exits with, and what it prints."""
    try:
        result = call(argv)
    except cli._UsageError as exc:
        result = ("usage error", str(exc))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", _ARGV_MATRIX, ids=lambda argv: " ".join(argv) or "-")
def test_leaf_dispatch_parses_as_the_tree(capsys, monkeypatch, argv):
    # the same namespace, usage error, help text and exit, parsed alone and
    # through main
    monkeypatch.setenv("COLUMNS", "80")
    tree = cli._shared_parser().parse_args
    assert _outcome(capsys, cli._parse_args, argv) == _outcome(capsys, tree, argv)
    through_leaf = _outcome(capsys, main, argv)
    monkeypatch.setattr(cli, "_parse_args", tree)
    assert through_leaf == _outcome(capsys, main, argv)


# the required flags of each leaf
_REQUIRED = {("certificate", "kantorovich"): _K[2:], ("certificate", "smale"): _SM[2:],
             ("table1",): [], ("solve", "hammerstein"): ["--lambda", "0.5"]}


def test_every_leaf_of_the_tree_is_in_the_dispatch_table(capsys, monkeypatch):
    # the tree's help names the command words below each depth as "{a,b} ..."
    monkeypatch.setenv("COLUMNS", "200")
    tree = cli._shared_parser().parse_args
    leaves, pending = {}, [()]
    while pending:
        words = pending.pop()
        _, help_text, _ = _outcome(capsys, tree, list(words) + ["-h"])
        below = re.search(r"\{([\w,]+)\} \.\.\.", help_text.split("\n\n")[0])
        if below is None:
            leaves[words] = help_text
        else:
            pending += [words + (w,) for w in below.group(1).split(",")]
    assert set(leaves) == {("certificate", "kantorovich"), ("certificate", "smale"),
                           ("table1",), ("solve", "hammerstein")}
    table = cli._shared_parser().leaves
    assert set(table) == set(leaves)
    for words, (parser, named) in table.items():
        assert parser.format_help() == leaves[words]
        assert parser.prog == " ".join(("halley-cert",) + words)
        assert tuple(named.values()) == words
        # the names are the destinations the tree's namespace holds
        args = tree(list(words) + _REQUIRED[words])
        assert {k: getattr(args, k) for k in named} == named


@pytest.mark.parametrize("coeffs", ["nan", "1,0.5,nan", "1,0.5,inf", "1,-inf"])
def test_non_finite_family_coefficients_are_usage_errors(capsys, coeffs):
    argv = ["solve", "hammerstein", "--lambda", "1", "--nodes", "16",
            "--method", "family", "--coeffs", coeffs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, argv)
    bad = next(c for c in coeffs.split(",") if not math.isfinite(float(c)))
    assert (rc, out) == (1, "")
    assert err == f"error: coefficients must be finite, got {float(bad)}\n"


def test_an_infinite_tol_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                    "--nodes", "16", "--tol", "inf"])
    assert (rc, out, err) == (1, "", "error: tol must be finite, got inf\n")


def test_table1_csv_default_grid(capsys):
    rc, out, _ = run_cli(capsys, ["table1", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,existence,uniqueness"
    assert len(lines) == 5
    row = lines[4].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(0.2360679774997897, rel=1e-15)
    assert float(row[2]) == pytest.approx(1.0, abs=1e-15)


def test_table1_zero_lambda_json_infinity(capsys):
    rc, out, _ = run_cli(capsys, ["table1", "--lambdas", "0",
                                  "--format", "json"])
    assert rc == 0
    assert "Infinity" in out
    data = json.loads(out)
    assert data[0]["existence"] == 0.0
    assert math.isinf(data[0]["uniqueness"])
    assert data[0]["certified"] is True


def test_table1_uncertified_row_exits_three(capsys):
    for fmt in ("human", "json", "csv"):
        rc, out, _ = run_cli(capsys, ["table1", "--lambdas", "0.5,1.2",
                                      "--format", fmt])
        assert rc == 3
    # the csv row for the failed coupling has empty cells
    rc, out, _ = run_cli(capsys, ["table1", "--lambdas", "1.2",
                                  "--format", "csv"])
    assert rc == 3
    assert out.splitlines()[1] == "1.2,,"

    rc2, out2, _ = run_cli(capsys, ["table1", "--lambdas", "1.2"])
    assert rc2 == 3
    assert "not certified" in out2


def test_table1_rejects_malformed_lambdas(capsys):
    rc, _, err = run_cli(capsys, ["table1", "--lambdas", "0.5,abc"])
    assert rc == 1
    assert "--lambdas" in err
    rc2, _, _ = run_cli(capsys, ["table1", "--lambdas", ","])
    assert rc2 == 1
    # beyond the domain limit
    rc3, _, _ = run_cli(capsys, ["table1", "--lambdas", "2.7"])
    assert rc3 == 1


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_leading_negative_numbers_are_values(capsys, fmt):
    # argparse would read -0.5,0.5 as an unknown option; as a list of
    # numbers it is the flag's value, as with --lambdas=-0.5,0.5
    for flag, value, rest in (("--lambdas", "-0.5,0.5", ["table1"]),
                              ("--lambda", "-5e-1", ["solve", "hammerstein"])):
        spaced = run_cli(capsys, rest + [flag, value, "--format", fmt])
        joined = run_cli(capsys, rest + [f"{flag}={value}", "--format", fmt])
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""


def test_solve_reference_instance_json(capsys):
    rc, out, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                  "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["problem"] == {"lambda": 1.0, "power": 3, "nodes": 32}
    assert data["certificate"]["verdict"] == "certified"
    assert data["containment_ok"] is True
    assert data["start_distance"] == pytest.approx(0.196772, abs=1e-5)
    assert data["error_bounds"]["all_ok"] is True
    assert data["note"] == ""

    trace = SolveTrace.from_json_dict(data["trace"])
    assert trace.converged
    assert 2.5 <= trace.q_order_estimate <= 3.5
    assert len(trace.iterates[0]) == 32


def test_solve_zero_lambda_single_iterate(capsys):
    rc, out, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "0",
                                  "--nodes", "16", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert len(data["trace"]["iterates"]) == 1
    assert "linear" in data["note"]
    assert data["certificate"] is None


def test_solve_methods_differ_in_iteration_count(capsys):
    rc_h, out_h, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                      "--format", "json"])
    rc_n, out_n, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                      "--method", "newton", "--format", "json"])
    assert rc_h == 0 and rc_n == 0
    halley = json.loads(out_h)
    newton = json.loads(out_n)
    assert len(newton["trace"]["iterates"]) > len(halley["trace"]["iterates"])
    assert newton["trace"]["q_order_estimate"] < 2.5
    # Newton converges but misses the cubic schedule; the report is honest
    assert newton["error_bounds"]["all_ok"] is False


def test_solve_family_coefficient_handling(capsys):
    rc, _, err = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                  "--method", "family"])
    assert rc == 1
    assert "--coeffs" in err

    rc2, _, err2 = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                    "--coeffs", "1,0.5"])
    assert rc2 == 1
    assert "--coeffs" in err2

    rc3, out3, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                    "--method", "family",
                                    "--coeffs", "1,0.5,0.25,0.125",
                                    "--format", "json"])
    assert rc3 == 0
    assert json.loads(out3)["trace"]["stop_reason"] in (
        "residual_below_tol", "step_below_tol")

    # coefficient validation routes through the usage path
    rc4, _, err4 = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                    "--method", "family", "--coeffs", "1,0.4"])
    assert rc4 == 1
    assert "a_1" in err4


def test_solve_unconverged_exits_four(capsys):
    rc, out, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                  "--max-iters", "1", "--format", "json"])
    assert rc == 4
    data = json.loads(out)
    assert data["trace"]["stop_reason"] == "max_iters"
    assert data["trace"]["q_order_estimate"] is None


def test_solve_validation_errors(capsys):
    rc, _, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "3.0"])
    assert rc == 1
    rc2, _, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1",
                                 "--nodes", "4"])
    assert rc2 == 1


def test_solve_human_output(capsys):
    rc, out, _ = run_cli(capsys, ["solve", "hammerstein", "--lambda", "1"])
    assert rc == 0
    assert "converged: true" in out
    assert "certificate: certified" in out
    assert "containment_ok: true" in out


def test_format_env_override_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("HALLEY_CERT_FORMAT", "csv")
    rc, out, _ = run_cli(capsys, ["table1"])
    assert rc == 0
    assert out.splitlines()[0] == "lambda,existence,uniqueness"

    # an explicit flag beats the environment
    rc2, out2, _ = run_cli(capsys, ["table1", "--format", "json"])
    assert rc2 == 0
    json.loads(out2)

    monkeypatch.setenv("HALLEY_CERT_FORMAT", "yaml")
    rc3, _, err3 = run_cli(capsys, ["table1"])
    assert rc3 == 1
    assert "HALLEY_CERT_FORMAT" in err3
    # the flag never consults the broken environment value
    rc4, _, _ = run_cli(capsys, ["table1", "--format", "csv"])
    assert rc4 == 0


def run_module(argv, stdout=subprocess.PIPE):
    """python -m halley_cert.cli in a fresh interpreter, with the package
    source first on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "halley_cert.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_module_entry_point_subprocess():
    proc = run_module(["certificate", "smale", "--beta", "0.1", "--gamma", "0.5",
                       "--format", "json"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "certified"
    assert data["t_star"] == pytest.approx(0.10592363464399475, abs=1e-14)


@pytest.mark.parametrize("beta, eta, lip", [
    # A1 fails: h''(0) = eta = 0
    ("0.1", "0", "1"),
    # the last float below the criterion bound: h'(t*) rounds to zero
    ("0.34185937264581556", "1.2", "1.2"),
])
def test_typed_errors_exit_1_without_traceback(beta, eta, lip):
    proc = run_module(["certificate", "kantorovich", "--beta", beta,
                       "--eta", eta, "--lip", lip])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    "solve hammerstein --lambda 0.5 --nodes 8 --power 4 --format json",
    "table1 --format csv",
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # fails, and so would the flush at interpreter exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(argv.split(), stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output was closed\n"


def test_smale_radii_near_the_float_maximum_do_not_hang():
    # 2 beta overflows, t* = 1.42e308 does not
    proc = run_module(["certificate", "smale", "--beta", "9e307",
                       "--gamma", "1.889e-309", "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_star"] == 1.4239950317680297e308
    # t** is past the largest float
    proc = run_module(["certificate", "smale", "--beta", "1e-300",
                       "--gamma", "1e-309"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "float range" in proc.stderr


def test_rate_constant_past_the_float_range_prints_infinity():
    # gamma^2 = 1e400 leaves the floats, so the rate constant is +inf
    proc = run_module(["certificate", "smale", "--beta", "1e-201", "--gamma", "1e200",
                       "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert '"rate_constant": Infinity' in proc.stdout
    data = json.loads(proc.stdout)
    assert data["verdict"] == "certified"
    assert data["rate_constant"] == math.inf


# Edges of the float range, spliced into lists of floats drawn bit by bit,
# so subnormals and both zeros come up as well.
_FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                1.7976931348623155e308, -1.7976931348623155e308)
_NOT_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def _float_lists(draw, extras):
    """Lists of length 0, 1, 255, 256, 257 or 513: random bit patterns, any
    non-finite one read as 0.0, with up to 8 entries overwritten by extras."""
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 513]))
    bits = draw(st.binary(min_size=8 * n, max_size=8 * n))
    values = [x if math.isfinite(x) else 0.0
              for x in struct.unpack(f"<{n}d", bits)]
    if n:
        for i, item in draw(st.lists(st.tuples(st.integers(0, n - 1), extras),
                                     max_size=8)):
            values[i] = item
    return values


@settings(max_examples=100, deadline=None)
@given(values=_float_lists(st.sampled_from(_FLOAT_EDGES)))
def test_float_lists_render_as_one_value_at_a_time(values):
    assert cli._render_json(values) == render_json_oracle(values)


@settings(max_examples=100, deadline=None)
@given(values=_float_lists(st.one_of(st.sampled_from(_FLOAT_EDGES + _NOT_FINITE),
                                     st.integers(), st.booleans(), st.none())))
def test_mixed_lists_render_as_one_value_at_a_time(values):
    assert cli._render_json(values) == render_json_oracle(values)


@settings(max_examples=100, deadline=None)
@given(value=st.dictionaries(
    st.text(), st.one_of(st.text(), st.sampled_from(_FLOAT_EDGES + _NOT_FINITE),
                         st.none()), max_size=8))
def test_keys_and_strings_render_as_json_dumps_writes_them(value):
    assert cli._render_json(value) == render_json_oracle(value)


@pytest.mark.parametrize("a", [
    np.array([0.1, -2.5e-300, 1e308, 3.0]),
    np.array([1.0, math.inf, -math.inf, math.nan]),
    np.array([-0.0, 0.0, -1e-320]),
    np.array([]),
    np.arange(6.0).reshape(2, 3) / 7.0,
    np.array([[math.nan, -0.0]]),
    np.arange(-3, 4),
    np.array([0.1, 2.0], dtype=np.float32),
    np.array(2.5),
], ids=["finite", "not-finite", "signed-zeros", "empty", "2-d", "2-d-nan", "int",
        "float32", "0-d"])
def test_arrays_render_as_their_lists(a):
    assert cli._render_json(a) == cli._render_json(a.tolist())


# The exact bytes the command line prints, pinned in every format for the
# certificates and the table, and in human format for the solves: their
# 17-digit json and csv residuals rest on the rounding of the linear solves.
# The failed certificates print none for the radii, and the solves print a
# note line. A solve that stops without converging has no order estimate.
_GOLDEN = [
    ('certificate kantorovich --beta 0.2 --eta 1.2 --lip 1.2 --seq-len 3 --format human', 0,
     'kind: kantorovich\n'
     'verdict: certified\n'
     'criterion:\n'
     '  lhs: 0.2\n'
     '  rhs: 0.341859\n'
     '  margin: 0.414964\n'
     't_star: 0.236068\n'
     'uniqueness_radius: 1\n'
     'rate_constant: 1.96109\n'
     'sequence: 0 0.227273 0.236067 0.236068\n'
     'apriori_errors: 0.236068 0.00879525 9.67116e-07 2.77556e-17\n'),
    ('certificate kantorovich --beta 0.2 --eta 1.2 --lip 1.2 --seq-len 3 --format json', 0,
     '{"kind": "kantorovich", "verdict": "certified", '
     '"criterion": {"lhs": 0.20000000000000001, '
     '"rhs": 0.34185937264581562, "margin": 0.41496411681767581}, '
     '"t_star": 0.23606797749978969, "uniqueness_radius": 1, '
     '"rate_constant": 1.961093857666582, "sequence": [0, '
     '0.22727272727272729, 0.23606701038357364, 0.23606797749978967], '
     '"apriori_errors": [0.23606797749978969, 0.0087952502270624011, '
     '9.6711621605516385e-07, 2.7755575615628914e-17]}\n'),
    ('certificate kantorovich --beta 0.2 --eta 1.2 --lip 1.2 --seq-len 3 --format csv', 0,
     'kind,verdict,criterion_lhs,criterion_rhs,t_star,uniqueness_radius,rate_constant\n'
     'kantorovich,certified,0.20000000000000001,0.34185937264581562,'
     '0.23606797749978969,1,1.961093857666582\n'),
    ('certificate kantorovich --beta 0.4 --eta 1.2 --lip 1.2 --format human', 2,
     'kind: kantorovich\n'
     'verdict: criterion_failed\n'
     'criterion:\n'
     '  lhs: 0.4\n'
     '  rhs: 0.341859\n'
     '  margin: -0.170072\n'
     't_star: none\n'
     'uniqueness_radius: none\n'
     'rate_constant: none\n'
     'sequence: none\n'
     'apriori_errors: none\n'),
    ('certificate kantorovich --beta 0.4 --eta 1.2 --lip 1.2 --format json', 2,
     '{"kind": "kantorovich", "verdict": "criterion_failed", '
     '"criterion": {"lhs": 0.40000000000000002, "rhs": 0.34185937264581562, '
     '"margin": -0.17007176636464832}, "t_star": null, "uniqueness_radius": null, '
     '"rate_constant": null, "sequence": null, "apriori_errors": null}\n'),
    ('certificate kantorovich --beta 0.4 --eta 1.2 --lip 1.2 --format csv', 2,
     'kind,verdict,criterion_lhs,criterion_rhs,t_star,uniqueness_radius,rate_constant\n'
     'kantorovich,criterion_failed,0.40000000000000002,0.34185937264581562,,,\n'),
    ('certificate kantorovich --beta 0 --eta 1.2 --lip 1.2 --format human', 0,
     'kind: kantorovich\n'
     'verdict: certified\n'
     'criterion:\n'
     '  lhs: 0\n'
     '  rhs: 0.341859\n'
     '  margin: 1\n'
     't_star: 0\n'
     'uniqueness_radius: 1.19258\n'
     'rate_constant: 0.746667\n'
     'sequence: 0\n'
     'apriori_errors: 0\n'),
    ('certificate kantorovich --beta 0 --eta 1.2 --lip 1.2 --format json', 0,
     '{"kind": "kantorovich", "verdict": "certified", "criterion": {"lhs": 0, '
     '"rhs": 0.34185937264581562, "margin": 1}, "t_star": 0, '
     '"uniqueness_radius": 1.1925824035672519, "rate_constant": 0.74666666666666659, '
     '"sequence": [0], "apriori_errors": [0]}\n'),
    ('certificate kantorovich --beta 0 --eta 1.2 --lip 1.2 --format csv', 0,
     'kind,verdict,criterion_lhs,criterion_rhs,t_star,uniqueness_radius,rate_constant\n'
     'kantorovich,certified,0,0.34185937264581562,0,1.1925824035672519,0.74666666666666659\n'),
    ('certificate smale --beta 0.1 --gamma 0.5 --seq-len 3 --format human', 0,
     'kind: smale\n'
     'verdict: certified\n'
     'criterion:\n'
     '  lhs: 0.05\n'
     '  rhs: 0.171573\n'
     '  margin: 0.708579\n'
     't_star: 0.105924\n'
     'uniqueness_radius: 0.944076\n'
     'rate_constant: 1.0581\n'
     'sequence: 0 0.105263 0.105924 0.105924\n'
     'apriori_errors: 0.105924 0.000660477 2.28105e-10 1.38778e-17\n'),
    ('certificate smale --beta 0.1 --gamma 0.5 --seq-len 3 --format json', 0,
     '{"kind": "smale", "verdict": "certified", '
     '"criterion": {"lhs": 0.050000000000000003, '
     '"rhs": 0.17157287525380971, "margin": 0.7085786437626902}, '
     '"t_star": 0.10592363464399475, "uniqueness_radius": 0.94407636535600514, '
     '"rate_constant": 1.0581017529772567, "sequence": [0, '
     '0.10526315789473685, 0.10592363441588964, 0.10592363464399474], '
     '"apriori_errors": [0.10592363464399475, 0.0006604767492578989, '
     '2.2810510424964292e-10, 1.3877787807814457e-17]}\n'),
    ('certificate smale --beta 0.1 --gamma 0.5 --seq-len 3 --format csv', 0,
     'kind,verdict,criterion_lhs,criterion_rhs,t_star,uniqueness_radius,rate_constant\n'
     'smale,certified,0.050000000000000003,0.17157287525380971,'
     '0.10592363464399475,0.94407636535600514,1.0581017529772567\n'),
    ('certificate smale --beta 1 --gamma 1 --format human', 2,
     'kind: smale\n'
     'verdict: criterion_failed\n'
     'criterion:\n'
     '  lhs: 1\n'
     '  rhs: 0.171573\n'
     '  margin: -4.82843\n'
     't_star: none\n'
     'uniqueness_radius: none\n'
     'rate_constant: none\n'
     'sequence: none\n'
     'apriori_errors: none\n'),
    ('certificate smale --beta 1 --gamma 1 --format json', 2,
     '{"kind": "smale", "verdict": "criterion_failed", "criterion": {"lhs": 1, '
     '"rhs": 0.17157287525380971, "margin": -4.828427124746197}, '
     '"t_star": null, "uniqueness_radius": null, "rate_constant": null, '
     '"sequence": null, "apriori_errors": null}\n'),
    ('certificate smale --beta 1 --gamma 1 --format csv', 2,
     'kind,verdict,criterion_lhs,criterion_rhs,t_star,uniqueness_radius,rate_constant\n'
     'smale,criterion_failed,1,0.17157287525380971,,,\n'),
    ('table1 --lambdas 0,0.5,1.2 --format human', 3,
     '    lambda      existence     uniqueness\n'
     '         0              0            inf\n'
     '       0.5      0.0783777        2.35026\n'
     '       1.2                 not certified\n'),
    ('table1 --lambdas 0,0.5,1.2 --format json', 3,
     '[{"lambda": 0, "existence": 0, "uniqueness": Infinity, '
     '"certified": true}, {"lambda": 0.5, "existence": 0.078377745621778225, '
     '"uniqueness": 2.3502617411332918, "certified": true}, '
     '{"lambda": 1.2, "existence": null, "uniqueness": null, '
     '"certified": false}]\n'),
    ('table1 --lambdas 0,0.5,1.2 --format csv', 3,
     'lambda,existence,uniqueness\n'
     '0,0,inf\n'
     '0.5,0.078377745621778225,2.3502617411332918\n'
     '1.2,,\n'),
    ('solve hammerstein --lambda 0 --nodes 8 --format human', 0,
     'converged: true\n'
     'stop_reason: residual_below_tol\n'
     'iterations: 0\n'
     'final_residual: 0\n'
     'q_order_estimate: none\n'
     'certificate: none\n'
     't_star: none\n'
     'start_distance: 0\n'
     'containment_ok: true\n'
     'error_bounds_ok: none\n'
     'note: linear equation, the start point is the solution\n'),
    ('solve hammerstein --lambda 0.5 --nodes 8 --power 4 --format human', 0,
     'converged: true\n'
     'stop_reason: residual_below_tol\n'
     'iterations: 3\n'
     'final_residual: 1.11022e-16\n'
     'q_order_estimate: 2.98171\n'
     'certificate: none\n'
     't_star: none\n'
     'start_distance: 0.079057\n'
     'containment_ok: none\n'
     'error_bounds_ok: none\n'
     'note: no closed-form bounds for this forcing or power\n'),
    ('solve hammerstein --lambda 2 --power 4 --nodes 64 --max-iters 3', 4,
     'converged: false\n'
     'stop_reason: max_iters\n'
     'iterations: 3\n'
     'final_residual: 2.46258\n'
     'q_order_estimate: none\n'
     'certificate: none\n'
     't_star: none\n'
     'start_distance: 1.43673\n'
     'containment_ok: none\n'
     'error_bounds_ok: none\n'
     'note: no closed-form bounds for this forcing or power\n'),
]


@pytest.mark.parametrize("argv, code, stdout", _GOLDEN, ids=[g[0] for g in _GOLDEN])
def test_golden_bytes(capsys, argv, code, stdout):
    assert run_cli(capsys, argv.split()) == (code, stdout, "")


# sha256 of stdout for the solve requests of the solve-dense-512 bench mix,
# as printed before the per-node-count tables and the one-pass running sums,
# except for the last bits of q_order_estimate, retaken when the order fit
# moved from np.polyfit to its closed form.
# The digits rest on the rounding of LAPACK's tridiagonal solves, so another
# LAPACK build may print others; on one build they must not move.
_HALLEY_SERIES_8 = ",".join(repr(0.5 ** k) for k in range(8))
_SOLVE_DIGESTS = [
    ("halley", "0.8", "5f054b3ab2c9795034be6e585e4f8d2a6da1441136974ad8c0c174458338b421"),
    ("chebyshev", "0.8", "c58ba12877575162466e23a2827cce8046712e645124fb5d0735e75eb270cb6c"),
    ("family", "0.8", "5855acaf2ca3cca23eb3840ed6cad274e6b62333d2b8b2cf0879ed9252377518"),
    ("halley", "1.15", "a7e963b186cad581fd8320e40075e5913242da9e41951f643da13515c4856654"),
    ("chebyshev", "1.15", "098d4101d77d65ba988e052ce5237a0a8f4e7541e41cf2ea70c5163ab08bd314"),
    ("family", "1.15", "f4c2283aa42157d05a1d6f4c458512c8f27689ee95ef9ec27622edd8552da924"),
]


@pytest.mark.parametrize("method, lam, digest", _SOLVE_DIGESTS,
                         ids=[f"{m}-{lam}" for m, lam, _ in _SOLVE_DIGESTS])
def test_solve_json_bytes_at_512_nodes(capsys, method, lam, digest):
    argv = ["solve", "hammerstein", "--nodes", "512", "--format", "json",
            "--lambda", lam, "--method", method]
    if method == "family":
        argv += ["--coeffs", _HALLEY_SERIES_8]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for small solves, taken before the iterates were written
# as one block, except for the last bits of q_order_estimate: each row is
# below the vector path's crossover, a block of three rows of 33 or more is
# not.
_SMALL_SOLVE_DIGESTS = [
    ("1", "8", "aeef2eb2e9968cdda930c41af177c4c213589fe171775f2c824b72b8a33ab079"),
    ("-1", "8", "99ef30061be524ee3d8141ecefffc8c50167302ab933ff01ac5378fea1972161"),
    ("1", "33", "2dbcbbb7c4e98db0f53e38ded6b110d121a2f57a55144f41ecab1124dd3acb92"),
    ("-1", "33", "def00b0027dd9adc7a2e647fe89afc3d42aedb273fdb8e5c91b52eff3d82e2b6"),
    ("1", "99", "535ced5c8f938b90c81626291d93292178d1c6151530cd03dfd6153188e96b00"),
    ("-1", "99", "f791a2d6562bc2c77e6d59dc45ae1843df8a676f19365ab44eca692e3f1789dd"),
]


@pytest.mark.parametrize("lam, nodes, digest", _SMALL_SOLVE_DIGESTS,
                         ids=[f"{lam}-{n}" for lam, n, _ in _SMALL_SOLVE_DIGESTS])
def test_solve_json_bytes_at_a_few_nodes(capsys, lam, nodes, digest):
    argv = ["solve", "hammerstein", "--lambda", lam, "--nodes", nodes,
            "--format", "json"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for two larger solves, taken before the array formatter
# (4097 nodes retaken for q_order_estimate's closed-form fit, as above):
# at lambda = -1 the iterates straddle 1 (k = -1 and 0) and fill two chunks
# of the formatter, and 4097 nodes leave a one-entry tail chunk.
_LARGE_SOLVE_DIGESTS = [
    ("-1", "5000", "13a444c428d33d8c44570f01b720bb48124f7dc81c523e2a0d0cade065695e88"),
    ("1", "4097", "b1d77d0aff3743bb4584eccc2e28b9d4a20aac28dc394d57a8ce659e7ed5d840"),
]


@pytest.mark.parametrize("lam, nodes, digest", _LARGE_SOLVE_DIGESTS,
                         ids=[f"{lam}-{n}" for lam, n, _ in _LARGE_SOLVE_DIGESTS])
def test_solve_json_bytes_at_thousands_of_nodes(capsys, lam, nodes, digest):
    argv = ["solve", "hammerstein", "--lambda", lam, "--nodes", nodes,
            "--format", "json"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
