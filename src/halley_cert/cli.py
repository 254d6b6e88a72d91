"""Command-line front end: certificates, the radii table, and solves.

Exit codes are a function of outcome class only:

    0  success (certified / converged / all table rows certified)
    1  usage error (bad flags, malformed numbers, invalid env override) or
       a typed package error (such as a majorant failing its assumptions)
    2  certificate criterion failed
    3  table contains at least one uncertified row
    4  solver did not converge

Output format is human by default, overridden by the HALLEY_CERT_FORMAT
environment variable, overridden in turn by --format. Numeric output uses 6
significant digits in human mode and 17 in json and csv modes.
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

from ._format import float_text, floats_text
from .certificate import (
    KantorovichInputs,
    SmaleInputs,
    kantorovich_certificate,
    smale_certificate,
)
from .exceptions import HalleyCertError
from .hammerstein import HammersteinSpec, solve_and_check, table1, table1_csv

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
    """argparse that reports usage problems as exceptions, not sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


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
    if isinstance(value, (list, tuple)):
        # a list of finite floats, such as an iterate, skips the per-item
        # dispatch; a sum that is not finite sends it down the general path
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            return "[" + floats_text(value) + "]"
        return "[" + ", ".join(map(_render_json, value)) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as json")


def _human_scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _human_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, dict):
                lines.append(f"{pad}{k}:")
                lines.extend(_human_lines(v, indent + 1))
            elif isinstance(v, (list, tuple)):
                joined = " ".join(_human_scalar(item) for item in v)
                lines.append(f"{pad}{k}: {joined}")
            else:
                lines.append(f"{pad}{k}: {_human_scalar(v)}")
    else:
        lines.append(f"{pad}{_human_scalar(value)}")
    return lines


def _resolve_format(flag_value: str | None) -> str:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("HALLEY_CERT_FORMAT")
    if env is None or env == "":
        return "human"
    if env not in _FORMATS:
        raise _UsageError(
            f"HALLEY_CERT_FORMAT must be one of {', '.join(_FORMATS)}, got {env!r}")
    return env


def _csv_row(header: Sequence[str], values: Sequence) -> str:
    cells = []
    for v in values:
        if v is None:
            cells.append("")
        elif isinstance(v, (bool, np.bool_)):
            cells.append("true" if v else "false")
        elif isinstance(v, (float, np.floating)):
            cells.append(float_text(v))
        else:
            cells.append(str(v))
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


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
    kant.add_argument("--format", choices=_FORMATS, default=None)

    smale = cert_kind.add_parser("smale",
                                 help="rational-majorant certificate from "
                                      "(beta, gamma)")
    smale.add_argument("--beta", type=float, required=True)
    smale.add_argument("--gamma", type=float, required=True)
    smale.add_argument("--seq-len", type=int, default=10)
    smale.add_argument("--format", choices=_FORMATS, default=None)

    tab = sub.add_parser("table1", help="existence/uniqueness radii table")
    tab.add_argument("--lambdas", type=str, default="0.25,0.5,0.75,1")
    tab.add_argument("--seq-len", type=int, default=10)
    tab.add_argument("--format", choices=_FORMATS, default=None)

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
    ham.add_argument("--format", choices=_FORMATS, default=None)
    return parser


def _emit_certificate(cert, fmt: str) -> None:
    data = cert.to_json_dict()
    if fmt == "json":
        print(_render_json(data))
    elif fmt == "csv":
        header = ("kind", "verdict", "criterion_lhs", "criterion_rhs",
                  "t_star", "uniqueness_radius", "rate_constant")
        values = (data["kind"], data["verdict"], data["criterion"]["lhs"],
                  data["criterion"]["rhs"], data["t_star"],
                  data["uniqueness_radius"], data["rate_constant"])
        sys.stdout.write(_csv_row(header, values))
    else:
        print("\n".join(_human_lines(data)))


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
    _emit_certificate(cert, fmt)
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
    if fmt == "csv":
        sys.stdout.write(table1_csv(rows))
    elif fmt == "json":
        data = [{"lambda": r.lam, "existence": r.existence,
                 "uniqueness": r.uniqueness, "certified": r.certified}
                for r in rows]
        print(_render_json(data))
    else:
        print(f"{'lambda':>10} {'existence':>14} {'uniqueness':>14}")
        for r in rows:
            if r.certified:
                print(f"{r.lam:>10.6g} {r.existence:>14.6g} "
                      f"{r.uniqueness:>14.6g}")
            else:
                print(f"{r.lam:>10.6g} {'not certified':>29}")
    return 0 if all(r.certified for r in rows) else 3


def _report_dict(report) -> dict:
    data = {
        "problem": {
            "lambda": report.spec.lam,
            "power": report.spec.power,
            "nodes": report.spec.nodes,
        },
        "trace": report.trace.to_json_dict(),
        "certificate": (report.certificate.to_json_dict()
                        if report.certificate is not None else None),
        "start_distance": report.start_distance,
        "containment_ok": report.containment_ok,
        "error_bounds": None,
        "note": report.note,
    }
    if report.error_bounds is not None:
        data["error_bounds"] = {
            "all_ok": report.error_bounds.all_ok,
            "checks": len(report.error_bounds.checks),
            "message": report.error_bounds.message,
        }
    return data


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

    if fmt == "json":
        print(_render_json(_report_dict(report)))
    elif fmt == "csv":
        trace = report.trace
        header = ("converged", "stop_reason", "iterations", "final_residual",
                  "q_order_estimate", "start_distance", "containment_ok")
        values = (trace.converged, trace.stop_reason, len(trace.iterates),
                  trace.residual_norms[-1], trace.q_order_estimate,
                  report.start_distance, report.containment_ok)
        sys.stdout.write(_csv_row(header, values))
    else:
        trace = report.trace
        summary = {
            "converged": trace.converged,
            "stop_reason": trace.stop_reason,
            "iterations": len(trace.iterates),
            "final_residual": trace.residual_norms[-1],
            "q_order_estimate": trace.q_order_estimate,
            "certificate": (report.certificate.verdict
                            if report.certificate is not None else "none"),
            "t_star": (report.certificate.t_star
                       if report.certificate is not None else None),
            "start_distance": report.start_distance,
            "containment_ok": report.containment_ok,
            "error_bounds_ok": (report.error_bounds.all_ok
                                if report.error_bounds is not None else None),
        }
        if report.note:
            summary["note"] = report.note
        print("\n".join(_human_lines(summary)))
    return 0 if report.trace.converged else 4


# parse_args leaves the parser unchanged, so one parser serves every call
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "certificate":
            return cmd_certificate(args)
        if args.command == "table1":
            return cmd_table1(args)
        return cmd_solve(args)
    except (_UsageError, HalleyCertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
