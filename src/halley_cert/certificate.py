"""Semilocal convergence certificates built from majorizing functions.

A certificate answers, before running any iteration in R^n: does a solution
exist near the start point, in what ball is it unique, how fast does Halley's
method close in on it, and what error budget is available after k steps. The
two flavors differ only in the majorant driving them: a cubic polynomial
model under a Lipschitz bound on the second derivative, and the rational
model used for analytic operators.

Everything a certified verdict reports past its criterion follows from the
majorant alone, so the radii, rate constant and schedule are cached per
(majorant, ``seq_len``) in an LRU of 1,024 entries, next to the roots that
``majorant`` caches per majorant. A repeated input, such as a table1
coupling, reads them back; distinct inputs cannot grow the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .majorant import (
    _ROOTS_CACHE_SIZE,
    SMALE_CRITERION_BOUND,
    CubicMajorant,
    MajorantFunction,
    MajorizingSequence,
    SmaleMajorant,
    majorizing_sequence,
    smallest_root,
    uniqueness_radius,
)
from .problem import (NonlinearProblem, SolveTrace, _dense_factor, _errors_to_final,
                      _max_abs_row_sum)

__all__ = [
    "KantorovichInputs",
    "SmaleInputs",
    "ConvergenceCertificate",
    "InitialConditionsReport",
    "ErrorBoundCheck",
    "ErrorBoundReport",
    "SMALE_CRITERION_BOUND",
    "kantorovich_certificate",
    "smale_certificate",
    "check_initial_conditions",
    "verify_error_bound",
]

_DEFAULT_SEQ_TOL = 1e-12
_BOUND_SLACK = 1.0 + 1e-8
_NOISE_FLOOR = 1e-13


# The start-point data are the coefficients of the majorant h they define,
# so the inputs of a certificate are the majorant itself, validated once.
KantorovichInputs = CubicMajorant
SmaleInputs = SmaleMajorant


@dataclass(frozen=True, slots=True)
class ConvergenceCertificate:
    """Verdict plus the radii, rate constant and error schedule behind it.

    ``verdict`` is "certified" exactly when criterion_lhs < criterion_rhs
    strictly. For a failed criterion everything past the two criterion sides
    is None. ``apriori_errors[k]`` equals t_star - sequence.points[k].
    """

    majorant_kind: str
    verdict: str
    criterion_lhs: float
    criterion_rhs: float
    t_star: float | None
    uniqueness_radius: float | None
    rate_constant: float | None
    sequence: MajorizingSequence | None
    majorant: MajorantFunction | None = field(default=None, compare=False, repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    @property
    def apriori_errors(self) -> tuple[float, ...] | None:
        """The error budget t* - t_k per step: the sequence's gaps."""
        return None if self.sequence is None else self.sequence.gaps

    @property
    def criterion_margin(self) -> float:
        return (self.criterion_rhs - self.criterion_lhs) / self.criterion_rhs

    def to_json_dict(self) -> dict:
        return {
            "kind": self.majorant_kind,
            "verdict": self.verdict,
            "criterion": {
                "lhs": self.criterion_lhs,
                "rhs": self.criterion_rhs,
                "margin": self.criterion_margin,
            },
            "t_star": self.t_star,
            "uniqueness_radius": self.uniqueness_radius,
            "rate_constant": self.rate_constant,
            "sequence": None if self.sequence is None else list(self.sequence.points),
            "apriori_errors": None if self.apriori_errors is None
                              else list(self.apriori_errors),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConvergenceCertificate":
        """The certificate that ``to_json_dict`` wrote, without its majorant.

        JSON holds no majorant, so ``verify_error_bound`` cannot extend the
        schedule of a loaded certificate to a longer trace and reads the
        budget past the schedule's end as 0. A short schedule that passes
        the audit in memory can fail it once loaded.
        """
        points = data.get("sequence")
        apriori = data.get("apriori_errors")
        sequence = None
        if points is not None:
            gaps = tuple(float(g) for g in (apriori or []))
            converged_at = None
            for k, g in enumerate(gaps):
                if g < _DEFAULT_SEQ_TOL:
                    converged_at = k
                    break
            sequence = MajorizingSequence(
                points=tuple(float(t) for t in points),
                t_star=float(data["t_star"]),
                gaps=gaps,
                converged_at=converged_at,
            )
        return cls(
            majorant_kind=str(data["kind"]),
            verdict=str(data["verdict"]),
            criterion_lhs=float(data["criterion"]["lhs"]),
            criterion_rhs=float(data["criterion"]["rhs"]),
            t_star=None if data["t_star"] is None else float(data["t_star"]),
            uniqueness_radius=(None if data["uniqueness_radius"] is None
                               else float(data["uniqueness_radius"])),
            rate_constant=(None if data["rate_constant"] is None
                           else float(data["rate_constant"])),
            sequence=sequence,
        )


def _certificate(kind: str, h: MajorantFunction, lhs: float, rhs: float,
                 seq_len: int) -> ConvergenceCertificate:
    """Certified iff lhs < rhs strictly; a failed criterion carries only its
    two sides and h."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be at least 1, got {seq_len}")
    if not lhs < rhs:
        return ConvergenceCertificate(
            majorant_kind=kind, verdict="criterion_failed", criterion_lhs=lhs,
            criterion_rhs=rhs, t_star=None, uniqueness_radius=None,
            rate_constant=None, sequence=None, majorant=h)
    t_star, t_out, rate, seq = _certified_parts(h, seq_len)
    return ConvergenceCertificate(
        majorant_kind=kind, verdict="certified", criterion_lhs=lhs,
        criterion_rhs=rhs, t_star=t_star, uniqueness_radius=t_out,
        rate_constant=rate, sequence=seq, majorant=h)


@lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _certified_parts(h: MajorantFunction,
                     seq_len: int) -> tuple[float, float, float, MajorizingSequence]:
    """(t*, t**, rate constant, schedule) of a certified h: a pure function
    of (h, seq_len), so a repeated input reads them back, and immutable, so
    every hit can share them. Errors are raised again on every call:
    lru_cache keeps only returned values."""
    t_star = smallest_root(h)
    t_out = uniqueness_radius(h)
    rate = h.rate_constant()
    if t_star <= 0.0:
        # beta = 0: the start point already solves the system and the
        # majorizing sequence never leaves the origin.
        seq = MajorizingSequence(points=(0.0,), t_star=t_star, gaps=(t_star,),
                                 converged_at=0)
    else:
        seq = majorizing_sequence(h, max_iters=seq_len, tol=_DEFAULT_SEQ_TOL)
    return t_star, t_out, rate, seq


def kantorovich_certificate(inputs: KantorovichInputs,
                            seq_len: int = 10) -> ConvergenceCertificate:
    """Certificate from (beta, eta, lip) under the cubic majorant.

    Certifies iff beta < 2(eta + 2s) / (3 (eta + s)^2) with s = sqrt(eta^2
    + 2 lip), strictly. beta = 0 yields the trivial certificate t* = 0.
    """
    return _certificate("kantorovich", inputs, inputs.beta,
                        inputs.criterion_bound(), seq_len)


def smale_certificate(inputs: SmaleInputs,
                      seq_len: int = 10) -> ConvergenceCertificate:
    """Certificate from (beta, gamma) under the rational analytic majorant.

    Certifies iff alpha = beta * gamma < 3 - 2 sqrt(2), strictly.
    """
    return _certificate("smale", inputs, inputs.alpha, SMALE_CRITERION_BOUND,
                        seq_len)


@dataclass(frozen=True)
class InitialConditionsReport:
    """Comparison of measured start-point quantities against h(0) and h''(0).

    ``second_norm`` is max_i sum_{j,k} |(F'(x0)^{-1} F''(x0)[e_j, e_k])_i|.
    It bounds the bilinear norm of F'(x0)^{-1} F''(x0) from above, up to the
    rounding of the solves, and equals it where F'' is diagonal in (j, k),
    so ``second_is_lower_bound`` is always False. It costs n^2
    ``eval_second`` calls and n solves (see :func:`check_initial_conditions`).
    """

    residual_norm: float
    residual_bound: float
    residual_ok: bool
    second_norm: float
    second_bound: float
    second_ok: bool
    second_is_lower_bound: bool = False

    @property
    def both_hold(self) -> bool:
        return self.residual_ok and self.second_ok


def check_initial_conditions(p: NonlinearProblem, x0,
                             h: MajorantFunction) -> InitialConditionsReport:
    """Check |F'(x0)^{-1} F(x0)| <= h(0) and |F'(x0)^{-1} F''(x0)| <= h''(0).

    The first quantity takes one linear solve. For the second, with
    C[i, j, k] = (F'(x0)^{-1} F''(x0)[e_j, e_k])_i, the triangle inequality
    gives sup over |u|, |v| <= 1 of |F'(x0)^{-1} F''(x0)[u, v]| <=
    max_i sum_{j,k} |C[i, j, k]|, and that sum is reported. It is an upper
    bound up to the rounding of the solves, and the exact norm when F'' is
    diagonal in (j, k), as for the Hammerstein system. It costs n^2 calls to
    ``eval_second`` and n solves with n right-hand sides each, one per e_j,
    against one factorization of F'(x0). x0 must have ``p.dim`` entries.
    """
    x0 = np.asarray(x0, dtype=float).reshape(p.dim)
    solve = _dense_factor(p.eval_jacobian(x0))
    residual_norm = p.vector_norm(solve(np.asarray(p.eval_f(x0), dtype=float)))
    residual_bound = h.value(0.0)

    units = np.eye(p.dim)
    second_norm = _max_abs_row_sum(
        solve, (np.array([p.eval_second(x0, u, v) for v in units], dtype=float).T
                for u in units))
    second_bound = h.second_deriv(0.0)
    return InitialConditionsReport(
        residual_norm=float(residual_norm),
        residual_bound=float(residual_bound),
        residual_ok=residual_norm <= residual_bound * _BOUND_SLACK,
        second_norm=second_norm,
        second_bound=float(second_bound),
        second_ok=second_norm <= second_bound * _BOUND_SLACK,
    )


@dataclass(frozen=True)
class ErrorBoundCheck:
    """One row of the a priori error-bound verification."""

    index: int
    error: float
    gap: float
    containment_ok: bool
    recursion_bound: float | None
    recursion_ok: bool | None
    vacuous: bool


@dataclass(frozen=True)
class ErrorBoundReport:
    """Per-step verification of the error schedule promised by a certificate.

    ``mismatch`` is set when the trace is not covered by the certificate at
    all (the initial error already exceeds the existence radius); no checks
    are fabricated in that case.
    """

    checks: tuple[ErrorBoundCheck, ...]
    mismatch: bool = False
    message: str = ""

    @property
    def all_ok(self) -> bool:
        if self.mismatch:
            return False
        return all(c.containment_ok and (c.recursion_ok is not False)
                   for c in self.checks)


def verify_error_bound(trace: SolveTrace,
                       cert: ConvergenceCertificate) -> ErrorBoundReport:
    """Check the trace against the certificate's majorizing schedule.

    Treats the final iterate as the limit x*. For each earlier step k the
    containment |x* - x_k| <= t* - t_k and the cubic recursion
    |x* - x_{k+1}| <= (t* - t_{k+1}) (|x* - x_k| / (t* - t_k))^3 must hold,
    each up to a slack factor of 1 + 1e-8. Errors at or below 1e-13 are
    rounding noise; their rows are marked vacuous and pass.
    """
    if not cert.certified:
        raise ValueError("certificate did not certify; nothing to verify against")
    if cert.sequence is None or cert.t_star is None:
        raise ValueError("certificate carries no majorizing sequence")
    if not trace.converged:
        raise ValueError(
            f"trace did not converge (stop reason {trace.stop_reason!r})")

    errors = _errors_to_final(trace)

    t_star = cert.t_star
    points = list(cert.sequence.points)
    # t* = 0 leaves every gap at 0, and h(0) = 0 fails A1, so no refresh
    if len(points) < len(errors) and cert.majorant is not None and t_star > 0.0:
        refreshed = majorizing_sequence(cert.majorant, max_iters=len(errors) + 1,
                                        tol=1e-16)
        points = list(refreshed.points)
    # Past float saturation of the scalar sequence the budget is exhausted.
    gaps = [t_star - points[k] if k < len(points) else 0.0
            for k in range(len(errors))]

    if errors and errors[0] > t_star * _BOUND_SLACK and errors[0] > _NOISE_FLOOR:
        return ErrorBoundReport(
            checks=(),
            mismatch=True,
            message=(f"initial error {errors[0]:.6g} exceeds the existence "
                     f"radius {t_star:.6g}; the certificate does not cover "
                     "this trace"),
        )

    checks: list[ErrorBoundCheck] = []
    for k in range(len(errors) - 1):
        e_k = errors[k]
        gap_k = gaps[k]
        vacuous = e_k <= _NOISE_FLOOR
        containment_ok = vacuous or e_k <= gap_k * _BOUND_SLACK
        recursion_bound: float | None = None
        e_next = errors[k + 1]
        if vacuous or gap_k <= 0.0:
            # the budget ratio e_k / gap_k is all noise here
            recursion_ok: bool | None = e_next <= _NOISE_FLOOR
        else:
            recursion_bound = gaps[k + 1] * (e_k / gap_k) ** 3
            recursion_ok = (e_next <= _NOISE_FLOOR
                            or e_next <= recursion_bound * _BOUND_SLACK)
        checks.append(ErrorBoundCheck(
            index=k,
            error=e_k,
            gap=gap_k,
            containment_ok=bool(containment_ok),
            recursion_bound=recursion_bound,
            recursion_ok=recursion_ok,
            vacuous=bool(vacuous),
        ))
    return ErrorBoundReport(checks=tuple(checks))
