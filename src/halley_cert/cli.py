"""Command-line front end: certificates, the radii table, and solves.

Exit codes are a function of outcome class only:

    0  success (certified / converged / all table rows certified)
    1  usage error (bad flags, malformed numbers, invalid env override),
       a typed package error (such as a majorant failing its assumptions),
       or standard output closed before the result was written
    2  certificate criterion failed
    3  table contains at least one uncertified row
    4  solver did not converge

Output format is human by default, overridden by the HALLEY_CERT_FORMAT
environment variable, overridden in turn by --format. Each command builds
its record once, as json data, csv rows and human lines, and ``_emit``
prints the one the format asks for. ``_format`` decides the text of every
scalar: 6 significant digits in human mode, 17 in json and csv modes; a
list of arrays, such as a trace's iterates, is written as one block.

``main`` parses argv with the leaf parser its command words name (``solve
hammerstein``, ``certificate kantorovich|smale``, ``table1``), read from the
``leaves`` table that ``build_parser`` fills as it builds the one shared tree
parser. Only an argv that names no leaf (help, a missing or an unknown
command) goes through the tree. The values, ``error:`` lines, help texts and
exits are the tree's own, as the leaf is the parser the tree would reach.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from ._format import csv_text, float_text, floats_text, human_text, rows_text
from .certificate import (
    KantorovichInputs,
    SmaleInputs,
    kantorovich_certificate,
    smale_certificate,
)
from .exceptions import HalleyCertError
from .hammerstein import HammersteinSpec, solve_and_check, table1

__all__ = ["main", "build_parser", "cmd_certificate", "cmd_table1", "cmd_solve"]

_FORMATS = ("human", "json", "csv")

_METHOD_COEFFS = {
    "halley": None,
    "newton": (1.0,),
    "chebyshev": (1.0, 0.5),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit(2),
    and reads a token that parses as a comma list of numbers, such as
    -0.5,0.5, as a value rather than as an unknown option.

    The tree's root holds ``leaves``: each leaf parser by the command words
    that name it, with the values the tree's subparsers set for those words,
    for example ("solve", "hammerstein") -> (its parser, {"command": "solve",
    "problem": "hammerstein"})."""

    leaves: dict

    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # every option but -h starts with "--", which no number does
        if arg_string[:1] == "-" and arg_string[1:2] != "-":
            try:
                _parse_float_list(arg_string, "")
                return None
            except _UsageError:
                pass
        return super()._parse_optional(arg_string)


def _render_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float_text(x)
    if isinstance(value, str):
        # what json.dumps writes for a str under its defaults
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        body = ", ".join(
            f"{encode_basestring_ascii(str(k))}: {_render_json(v)}"
            for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, np.ndarray):
        return _arrays_json([value])[0]
    if isinstance(value, (list, tuple)):
        # a list of finite floats skips the per-item dispatch; a sum that
        # is not finite sends it down the general path
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            return "[" + floats_text(value) + "]"
        # a list of arrays, such as a trace's iterates, is written as a block
        if value and all(isinstance(v, np.ndarray) for v in value):
            return "[" + ", ".join(_arrays_json(value)) + "]"
        return "[" + ", ".join(map(_render_json, value)) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as json")


def _arrays_json(arrays) -> list[str]:
    """The json of each array. The 1-D float64 arrays of finite entries go
    to rows_text as one block, each written with the bytes of its list; any
    other goes as its list."""
    rows = [a.ndim == 1 and a.dtype == np.float64 and bool(np.isfinite(a).all())
            for a in arrays]
    texts = iter(rows_text([a for a, row in zip(arrays, rows) if row]))
    return ["[" + next(texts) + "]" if row else _render_json(a.tolist())
            for a, row in zip(arrays, rows)]


def _human_lines(record: dict, pad: str = "") -> list[str]:
    lines = []
    for k, v in record.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            lines.extend(_human_lines(v, pad + "  "))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{pad}{k}: " + " ".join(map(human_text, v)))
        else:
            lines.append(f"{pad}{k}: {human_text(v)}")
    return lines


def _resolve_format(flag_value: str | None) -> str:
    # argparse admits no other flag value than the formats
    fmt = flag_value or os.environ.get("HALLEY_CERT_FORMAT") or "human"
    if fmt not in _FORMATS:
        raise _UsageError(
            f"HALLEY_CERT_FORMAT must be one of {', '.join(_FORMATS)}, got {fmt!r}")
    return fmt


def _emit(fmt: str, data, csv_rows, human_lines: list[str]) -> None:
    """Print data as json, csv_rows (the header first) or human_lines, and
    flush, so that a closed stdout raises here rather than at exit."""
    if fmt == "json":
        print(_render_json(data))
    elif fmt == "csv":
        sys.stdout.write(csv_text(csv_rows))
    else:
        print("\n".join(human_lines))
    sys.stdout.flush()


def build_parser() -> _Parser:
    parser = _Parser(prog="halley-cert",
                     description="Convergence certificates and cubically "
                                 "convergent solves for nonlinear systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certificate", help="evaluate a semilocal certificate")
    cert_kind = cert.add_subparsers(dest="kind", required=True)

    kant = cert_kind.add_parser("kantorovich",
                                help="cubic-majorant certificate from "
                                     "(beta, eta, lip)")
    kant.add_argument("--beta", type=float, required=True)
    kant.add_argument("--eta", type=float, required=True)
    kant.add_argument("--lip", type=float, required=True)
    kant.add_argument("--seq-len", type=int, default=10)

    smale = cert_kind.add_parser("smale",
                                 help="rational-majorant certificate from "
                                      "(beta, gamma)")
    smale.add_argument("--beta", type=float, required=True)
    smale.add_argument("--gamma", type=float, required=True)
    smale.add_argument("--seq-len", type=int, default=10)

    tab = sub.add_parser("table1", help="existence/uniqueness radii table")
    tab.add_argument("--lambdas", type=str, default="0.25,0.5,0.75,1")
    tab.add_argument("--seq-len", type=int, default=10)

    slv = sub.add_parser("solve", help="discretize and solve a test problem")
    slv_kind = slv.add_subparsers(dest="problem", required=True)
    ham = slv_kind.add_parser("hammerstein",
                              help="integral equation with the Green kernel")
    ham.add_argument("--lambda", dest="lam", type=float, required=True)
    ham.add_argument("--nodes", type=int, default=32)
    ham.add_argument("--power", type=int, default=3)
    ham.add_argument("--tol", type=float, default=1e-12)
    ham.add_argument("--max-iters", type=int, default=30)
    ham.add_argument("--method", choices=("halley", "newton", "chebyshev",
                                          "family"), default="halley")
    ham.add_argument("--coeffs", type=str, default=None)
    for command in (kant, smale, tab, ham):
        command.add_argument("--format", choices=_FORMATS, default=None)
    parser.leaves = {
        ("certificate", "kantorovich"):
            (kant, {"command": "certificate", "kind": "kantorovich"}),
        ("certificate", "smale"): (smale, {"command": "certificate", "kind": "smale"}),
        ("table1",): (tab, {"command": "table1"}),
        ("solve", "hammerstein"): (ham, {"command": "solve", "problem": "hammerstein"}),
    }
    return parser


def cmd_certificate(args) -> int:
    fmt = _resolve_format(args.format)
    try:
        if args.kind == "kantorovich":
            cert = kantorovich_certificate(
                KantorovichInputs(args.beta, args.eta, args.lip),
                seq_len=args.seq_len)
        else:
            cert = smale_certificate(SmaleInputs(args.beta, args.gamma),
                                     seq_len=args.seq_len)
    except ValueError as exc:
        raise _UsageError(str(exc))
    data = cert.to_json_dict()
    header = ("kind", "verdict", "criterion_lhs", "criterion_rhs", "t_star",
              "uniqueness_radius", "rate_constant")
    flat = dict(data, criterion_lhs=data["criterion"]["lhs"],
                criterion_rhs=data["criterion"]["rhs"])
    _emit(fmt, data, [header, [flat[k] for k in header]], _human_lines(data))
    return 0 if cert.certified else 2


def _parse_float_list(text: str, flag: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise _UsageError(f"{flag} expects comma-separated numbers, "
                              f"got {piece!r}")
    if not out:
        raise _UsageError(f"{flag} must name at least one value")
    return out


def cmd_table1(args) -> int:
    fmt = _resolve_format(args.format)
    lambdas = _parse_float_list(args.lambdas, "--lambdas")
    try:
        rows = table1(lambdas, seq_len=args.seq_len)
    except ValueError as exc:
        raise _UsageError(str(exc))
    data, csv_rows = [], [("lambda", "existence", "uniqueness")]
    human = [f"{'lambda':>10} {'existence':>14} {'uniqueness':>14}"]
    for r in rows:
        data.append({"lambda": r.lam, "existence": r.existence,
                     "uniqueness": r.uniqueness, "certified": r.certified})
        csv_rows.append((r.lam, r.existence, r.uniqueness))
        radii = (f"{human_text(r.existence):>14} {human_text(r.uniqueness):>14}"
                 if r.certified else f"{'not certified':>29}")
        human.append(f"{human_text(r.lam):>10} {radii}")
    _emit(fmt, data, csv_rows, human)
    return 0 if all(r.certified for r in rows) else 3


def cmd_solve(args) -> int:
    fmt = _resolve_format(args.format)
    if args.method == "family":
        if args.coeffs is None:
            raise _UsageError("--method family requires --coeffs")
        coeffs = _parse_float_list(args.coeffs, "--coeffs")
    else:
        if args.coeffs is not None:
            raise _UsageError("--coeffs is only valid with --method family")
        coeffs = _METHOD_COEFFS[args.method]
    try:
        spec = HammersteinSpec(lam=args.lam, power=args.power,
                               nodes=args.nodes)
        report = solve_and_check(spec, tol=args.tol,
                                 max_iters=args.max_iters, coeffs=coeffs)
    except ValueError as exc:
        raise _UsageError(str(exc))

    trace, cert, bounds = report.trace, report.certificate, report.error_bounds
    data = {
        "problem": {"lambda": spec.lam, "power": spec.power, "nodes": spec.nodes},
        "trace": trace._json_record(),
        "certificate": None if cert is None else cert.to_json_dict(),
        "start_distance": report.start_distance,
        "containment_ok": report.containment_ok,
        "error_bounds": None if bounds is None else {
            "all_ok": bounds.all_ok, "checks": len(bounds.checks),
            "message": bounds.message},
        "note": report.note,
    }
    summary = {
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.step_norms),
        "final_residual": trace.residual_norms[-1],
        "q_order_estimate": trace.q_order_estimate,
        "certificate": None if cert is None else cert.verdict,
        "t_star": None if cert is None else cert.t_star,
        "start_distance": report.start_distance,
        "containment_ok": report.containment_ok,
        "error_bounds_ok": None if bounds is None else bounds.all_ok,
    }
    if report.note:
        summary["note"] = report.note
    # the csv row is the summary without the certificate and the audit
    header = ("converged", "stop_reason", "iterations", "final_residual",
              "q_order_estimate", "start_distance", "containment_ok")
    _emit(fmt, data, [header, [summary[k] for k in header]],
          _human_lines(summary))
    return 0 if trace.converged else 4


# parse_args leaves the parser unchanged, so one parser serves every call
_shared_parser = functools.cache(build_parser)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """The tree parser's namespace for argv, parsed by the leaf parser that
    argv's first command words name, or by the tree where they name none."""
    argv = sys.argv[1:] if argv is None else list(argv)
    leaves = _shared_parser().leaves
    for words in (tuple(argv[:1]), tuple(argv[:2])):
        if words in leaves:
            parser, named = leaves[words]
            return parser.parse_args(argv[len(words):], argparse.Namespace(**named))
    return _shared_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        if args.command == "certificate":
            return cmd_certificate(args)
        if args.command == "table1":
            return cmd_table1(args)
        return cmd_solve(args)
    except (_UsageError, HalleyCertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python flushes stdout once more at exit; pointing it at devnull
        # keeps that flush from raising too (the SIGPIPE note of the signal
        # module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
