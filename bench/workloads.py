"""Seeded inputs, requests and correctness oracles of the three workloads.

Each workload is a closed loop with one client: the next request starts when
the previous one has returned. Request ``i`` of seed ``s`` is generated from
``(s, i)`` alone, so a session of a worker process can start anywhere in the
stream and two runs with the same seed see the same requests.

The oracles never call the function under test to decide what is right:
criteria, majorant values and reference radii are evaluated here from their
formulas. The solve oracle recomputes residuals through the public
``discretize(spec).eval_f`` and the Jacobian solve through ``numpy``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from halley_cert import certificate, cli, hammerstein
from halley_cert.majorant import CubicMajorant

SMALE_BOUND = 3.0 - 2.0 * math.sqrt(2.0)

# README's table1 rows: lambda -> (existence, uniqueness).
TABLE1_README = {
    0.25: (0.034608090016611047, 4.0681403934454634),
    0.5: (0.078377745621778225, 2.3502617411332918),
    0.75: (0.13825957281539716, 1.544540158422236),
    1.0: (0.23606797749978969, 1.0),
}
_TABLE1_RTOL = 1e-12

# Evaluating a majorant in floating point rounds; which side of zero a root
# polished by the library lands on is only defined up to that rounding. The
# oracle evaluates h exactly in rationals and allows 4 units of roundoff of
# the sum of the magnitudes of h's terms (the worst seen in 40,000 random
# certificates was 1.44 units).
_ROUNDING_UNITS = 4.0 * 2.0 ** -53

# Residual below which a converged Hammerstein iterate counts as a solution.
_RESIDUAL_MAX = 1e-10
_SOLVE_RTOL = 1e-12

# The 8-term Halley series 1, 1/2, ..., 1/128 used by the family share.
_HALLEY_SERIES_8 = ",".join(repr(0.5 ** k) for k in range(8))

# solve-dense-512 method mix: every block of 20 consecutive requests holds
# 14 halley, 3 chebyshev and 3 family requests, shuffled by the seed.
_METHOD_BLOCK = ("halley",) * 14 + ("chebyshev",) * 3 + ("family",) * 3

# certify-sweep composition of one 32-certificate sweep. Kinds: "table1"
# repeats a table1 coupling (8 = 25 %), "past" sits strictly past the
# criterion (6 = 18.75 %), "near" sits 1e-9 to 1e-3 relative below it
# (3 = 9.4 %), "generic" is certified with margin (15).
_SWEEP_KANTOROVICH = ("table1",) * 8 + ("past",) * 3 + ("near",) + ("generic",) * 4
_SWEEP_SMALE = ("past",) * 3 + ("near",) * 2 + ("generic",) * 11


class Workload(NamedTuple):
    make_input: Callable[[int, int], object]   # (seed, index) -> request
    run: Callable[[object], object]            # the timed request
    check: Callable[[object, object], list]    # oracle: list of problems


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# certify-sweep


def _kantorovich_bound(eta: float, lip: float) -> float:
    s = math.sqrt(eta * eta + 2.0 * lip)
    return 2.0 * (eta + 2.0 * s) / (3.0 * (eta + s) ** 2)


def _table1_inputs(lam: float) -> tuple[float, float, float]:
    # Closed-form start-point bounds of the reference integral equation.
    denom = 8.0 - 3.0 * lam
    return lam / denom, 6.0 * lam / denom, 6.0 * lam / denom


def _kantorovich_item(rng: random.Random, kind: str, table_slot: int):
    if kind == "table1":
        lam = (0.25, 0.5, 0.75, 1.0)[table_slot % 4]
        return ("kantorovich", _table1_inputs(lam), lam)
    eta = rng.uniform(0.1, 3.0)
    lip = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    bound = _kantorovich_bound(eta, lip)
    return ("kantorovich", (bound * _criterion_factor(rng, kind), eta, lip), None)


def _smale_item(rng: random.Random, kind: str):
    gamma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    alpha = SMALE_BOUND * _criterion_factor(rng, kind)
    return ("smale", (alpha / gamma, gamma), None)


def _criterion_factor(rng: random.Random, kind: str) -> float:
    if kind == "past":
        return 1.0 + 10.0 ** rng.uniform(-3.0, 0.0)
    if kind == "near":
        return 1.0 - 10.0 ** rng.uniform(-9.0, -3.0)
    return rng.uniform(0.05, 0.95)


def _sweep_input(seed: int, index: int) -> list:
    rng = _rng("certify-sweep", seed, index)
    items = [_kantorovich_item(rng, kind, slot)
             for slot, kind in enumerate(_SWEEP_KANTOROVICH)]
    items += [_smale_item(rng, kind) for kind in _SWEEP_SMALE]
    rng.shuffle(items)
    return items


def _sweep_run(items: list) -> list:
    out = []
    for kind, args, _ in items:
        if kind == "kantorovich":
            out.append(certificate.kantorovich_certificate(
                certificate.KantorovichInputs(*args)))
        else:
            out.append(certificate.smale_certificate(
                certificate.SmaleInputs(*args)))
    return out


def _exact_h(kind: str, args, t: float) -> tuple[Fraction, Fraction]:
    """h(t) in exact rationals and the roundoff allowance of its terms."""
    t = Fraction(t)
    if kind == "kantorovich":
        beta, eta, lip = map(Fraction, args)
        terms = (beta, -t, eta * t * t / 2, lip * t ** 3 / 6)
    else:
        beta, gamma = map(Fraction, args)
        terms = (beta, -t, gamma * t * t / (1 - gamma * t))
    return sum(terms), sum(abs(x) for x in terms) * Fraction(_ROUNDING_UNITS)


def _sweep_check(items: list, certs: list) -> list:
    problems = []
    for pos, ((kind, args, lam), cert) in enumerate(zip(items, certs)):
        if kind == "kantorovich":
            expect = args[0] < _kantorovich_bound(args[1], args[2])
        else:
            expect = args[0] * args[1] < SMALE_BOUND
        where = f"item {pos} {kind}{args}"
        if cert.certified != expect:
            problems.append(f"{where}: verdict {cert.verdict}, expected "
                            f"{'certified' if expect else 'criterion_failed'}")
            continue
        if not expect:
            continue
        t_star, t_out = cert.t_star, cert.uniqueness_radius
        if not (math.isfinite(t_star) and math.isfinite(t_out) and t_star < t_out):
            problems.append(f"{where}: radii t*={t_star!r}, t**={t_out!r} "
                            "not finite and increasing")
            continue
        value, allow = _exact_h(kind, args, t_star)
        if value < -allow:
            problems.append(f"{where}: h(t*) = {float(value):.3e} < 0")
        value, allow = _exact_h(kind, args, t_out)
        if value > allow:
            problems.append(f"{where}: h(t**) = {float(value):.3e} > 0")
        if lam is not None:
            ref_star, ref_out = TABLE1_README[lam]
            if not (math.isclose(t_star, ref_star, rel_tol=_TABLE1_RTOL)
                    and math.isclose(t_out, ref_out, rel_tol=_TABLE1_RTOL)):
                problems.append(f"{where}: table1 lambda={lam} radii "
                                f"({t_star!r}, {t_out!r}) differ from README "
                                f"({ref_star!r}, {ref_out!r})")
    return problems


# ---------------------------------------------------------------------------
# solve-dense-512 and audit-small


def _solve_problems(problem, iterate, converged: bool, certified: bool,
                    containment_ok: bool, bounds_ok: bool | None) -> list:
    problems = []
    if not converged:
        problems.append("did not converge")
    if not certified:
        problems.append("certificate not certified")
    if not containment_ok:
        problems.append("containment failed")
    if bounds_ok is not True:
        problems.append(f"error_bounds.all_ok is {bounds_ok}")
    residual = float(np.max(np.abs(problem.eval_f(np.asarray(iterate, dtype=float)))))
    if not residual <= _RESIDUAL_MAX:
        problems.append(f"final residual {residual:.3e} exceeds {_RESIDUAL_MAX:g}")
    return problems


def _dense_input(seed: int, index: int) -> tuple[float, str]:
    lam = _rng("solve-dense-512", seed, index).uniform(0.8, 1.15)
    block = _rng("solve-dense-512/mix", seed, index // 20).sample(
        _METHOD_BLOCK, len(_METHOD_BLOCK))
    return lam, block[index % len(_METHOD_BLOCK)]


def _dense_run(request: tuple[float, str]) -> tuple[int, dict]:
    lam, method = request
    argv = ["solve", "hammerstein", "--lambda", repr(lam), "--nodes", "512",
            "--method", method, "--format", "json"]
    if method == "family":
        argv += ["--coeffs", _HALLEY_SERIES_8]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _dense_check(request: tuple[float, str], result: tuple[int, dict]) -> list:
    lam, _ = request
    code, data = result
    problems = [] if code == 0 else [f"exit code {code}"]
    trace = data["trace"]
    cert = data["certificate"]
    bounds = data["error_bounds"]
    problem = hammerstein.discretize(hammerstein.HammersteinSpec(lam=lam, nodes=512))
    return problems + _solve_problems(
        problem, trace["iterates"][-1],
        converged=trace["stop_reason"] in ("residual_below_tol", "step_below_tol"),
        certified=cert is not None and cert["verdict"] == "certified",
        containment_ok=data["containment_ok"] is True,
        bounds_ok=None if bounds is None else bounds["all_ok"])


def _audit_input(seed: int, index: int) -> float:
    return _rng("audit-small", seed, index).uniform(0.25, 1.15)


def _audit_run(lam: float):
    spec = hammerstein.HammersteinSpec(lam=lam, nodes=24)
    problem = hammerstein.discretize(spec)
    h = CubicMajorant(*hammerstein.analytic_bounds(lam))
    initial = certificate.check_initial_conditions(problem, np.ones(spec.nodes), h)
    return problem, initial, hammerstein.solve_and_check(spec)


def _audit_check(lam: float, result) -> list:
    problem, initial, report = result
    problems = [] if initial.both_hold else [
        f"initial conditions fail: residual {initial.residual_norm:.6g} vs "
        f"{initial.residual_bound:.6g}, second {initial.second_norm:.6g} vs "
        f"{initial.second_bound:.6g}"]
    x0 = np.ones(problem.dim)
    newton = np.linalg.solve(problem.eval_jacobian(x0), problem.eval_f(x0))
    expect = float(np.max(np.abs(newton)))
    if not math.isclose(initial.residual_norm, expect, rel_tol=_SOLVE_RTOL):
        problems.append(f"residual_norm {initial.residual_norm!r} differs from "
                        f"|J^-1 F| = {expect!r}")
    cert = report.certificate
    return problems + _solve_problems(
        problem, report.trace.iterates[-1],
        converged=report.trace.converged,
        certified=cert is not None and cert.certified,
        containment_ok=report.containment_ok,
        bounds_ok=None if report.error_bounds is None else report.error_bounds.all_ok)


WORKLOADS = {
    "certify-sweep": Workload(_sweep_input, _sweep_run, _sweep_check),
    "solve-dense-512": Workload(_dense_input, _dense_run, _dense_check),
    "audit-small": Workload(_audit_input, _audit_run, _audit_check),
}


def scaling_request(nodes: int):
    """One Halley solve and audit at the given node count, lambda = 1."""
    return hammerstein.solve_and_check(hammerstein.HammersteinSpec(lam=1.0, nodes=nodes))
