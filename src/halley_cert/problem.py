"""Finite-dimensional nonlinear systems and the Halley iteration family.

A problem bundles callbacks for F, its Jacobian and the action of its second
derivative. The solver family is

    x_{k+1} = x_k - H(S(x_k)) F'(x_k)^{-1} F(x_k)

where S(x) = F'(x)^{-1} F''(x) F'(x)^{-1} F(x) and H is a power series with
H(0) = I. Halley's method corresponds to H(S) = (I - S/2)^{-1}, reached by
the coefficients (1, 1/2, 1/4, ...); (1,) is Newton and (1, 1/2) is the
Chebyshev variant. Everywhere else in the package L_F(x) denotes S(x)/2,
the operator appearing in Halley's closed form (I - L_F)^{-1}.

Every step needs the n-by-n matrix B = F''(x)[., d] with d the Newton
direction. A problem may supply it whole through the optional
``eval_second_matrix(x, d)`` hook; without the hook B is assembled column by
column from n calls to ``eval_second``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .exceptions import LFNormExceededError, LinearSolveError

__all__ = [
    "NonlinearProblem",
    "SolveTrace",
    "STOP_REASONS",
    "lf_matrix",
    "halley_step",
    "family_step",
    "halley_solve",
    "family_solve",
    "estimate_q_order",
    "second_derivative_from_tensor",
]

STOP_REASONS = frozenset({
    "residual_below_tol",
    "step_below_tol",
    "max_iters",
    "linear_solve_failure",
    "lf_norm_exceeded",
})

_CONVERGED_REASONS = frozenset({"residual_below_tol", "step_below_tol"})

_NORM_KINDS = ("max", "euclidean")

# Relative pivot threshold for declaring a dense factorization singular.
_PIVOT_RTOL = 1e-13


@dataclass(frozen=True)
class NonlinearProblem:
    """A system F(x) = 0 in R^n with first and second derivative callbacks.

    eval_second(x, u, v) must return the vector F''(x)[u, v]; it is expected
    to be symmetric and bilinear in (u, v). The optional
    eval_second_matrix(x, d) returns the n-by-n matrix F''(x)[., d], whose
    column j is eval_second(x, e_j, d); the solvers use it in place of n
    eval_second calls per step when it is given. The max-norm (and its
    induced matrix norm, the max absolute row sum) is the default because
    the integral-equation bounds are stated in it.
    """

    dim: int
    eval_f: Callable[[np.ndarray], np.ndarray]
    eval_jacobian: Callable[[np.ndarray], np.ndarray]
    eval_second: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    norm_kind: str = "max"
    eval_second_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.norm_kind not in _NORM_KINDS:
            raise ValueError(
                f"norm_kind must be one of {_NORM_KINDS}, got {self.norm_kind!r}")

    def vector_norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if self.norm_kind == "max":
            return float(np.max(np.abs(v))) if v.size else 0.0
        return float(np.linalg.norm(v))

    def matrix_norm(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=float)
        if self.norm_kind == "max":
            return float(np.max(np.sum(np.abs(a), axis=1)))
        return float(np.linalg.norm(a, 2))


@dataclass
class SolveTrace:
    """Record of one solver run.

    residual_norms has one entry per iterate; step_norms and lf_norms have
    one fewer (no step is taken from the final iterate).
    """

    iterates: list[np.ndarray]
    residual_norms: list[float]
    step_norms: list[float]
    lf_norms: list[float]
    stop_reason: str
    q_order_estimate: float | None = None
    norm_kind: str = "max"

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED_REASONS

    def to_json_dict(self) -> dict:
        return {
            "iterates": [list(map(float, x)) for x in self.iterates],
            "residual_norms": list(map(float, self.residual_norms)),
            "step_norms": list(map(float, self.step_norms)),
            "lf_norms": list(map(float, self.lf_norms)),
            "stop_reason": self.stop_reason,
            "q_order_estimate": self.q_order_estimate,
            "norm_kind": self.norm_kind,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolveTrace":
        return cls(
            iterates=[np.array(x, dtype=float) for x in data["iterates"]],
            residual_norms=[float(v) for v in data["residual_norms"]],
            step_norms=[float(v) for v in data["step_norms"]],
            lf_norms=[float(v) for v in data["lf_norms"]],
            stop_reason=str(data["stop_reason"]),
            q_order_estimate=(None if data.get("q_order_estimate") is None
                              else float(data["q_order_estimate"])),
            norm_kind=str(data.get("norm_kind", "max")),
        )


# ---------------------------------------------------------------------------
# dense linear algebra with an explicit singularity guard


def _lu_factor_checked(a: np.ndarray):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinearSolveError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinearSolveError("matrix contains non-finite entries")
    column_scale = np.abs(a).max(axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    bad = pivots <= _PIVOT_RTOL * column_scale
    if np.any(bad):
        worst = int(np.argmax(bad))
        biggest = float(pivots.max()) if pivots.size else 0.0
        raise LinearSolveError(
            f"factorization pivot {pivots[worst]:.3e} in column {worst} fell below "
            f"{_PIVOT_RTOL:g} of the column magnitude {column_scale[worst]:.3e} "
            f"(largest pivot {biggest:.3e}); treating the matrix as singular")
    return lu, piv


def _solve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lu_piv = _lu_factor_checked(a)
    return scipy.linalg.lu_solve(lu_piv, b)


def _step_pieces(p: NonlinearProblem, x: np.ndarray, fx: np.ndarray):
    """Shared setup for one step at x with F(x) = fx: the Newton direction d
    and L_F(x).

    B = F''(x)[., d] comes from the problem's eval_second_matrix when it has
    one, and otherwise column by column from eval_second. Both right-hand
    sides, d and L_F = (1/2) F'(x)^{-1} B, reuse one factorization of the
    Jacobian.
    """
    n = p.dim
    jac = np.asarray(p.eval_jacobian(x), dtype=float)
    lu_piv = _lu_factor_checked(jac)
    d = scipy.linalg.lu_solve(lu_piv, fx)
    if p.eval_second_matrix is None:
        second = np.empty((n, n), dtype=float)
        basis = np.eye(n)
        for j in range(n):
            second[:, j] = np.asarray(p.eval_second(x, basis[:, j], d), dtype=float)
    else:
        second = np.asarray(p.eval_second_matrix(x, d), dtype=float)
        if second.shape != (n, n):
            raise ValueError(
                f"eval_second_matrix must return an array of shape {(n, n)}, "
                f"got {second.shape}")
    return d, 0.5 * scipy.linalg.lu_solve(lu_piv, second)


def _correction(p: NonlinearProblem, x: np.ndarray, fx: np.ndarray,
                coeffs: tuple[float, ...] | None) -> tuple[np.ndarray, float]:
    """The step x -> x - correction and |L_F(x)| for Halley (coeffs None) or
    the series family.

    The family needs the series operator norm, twice |L_F|, to be at most
    1/2 and raises LFNormExceededError otherwise; Halley only records it.
    """
    d, lf = _step_pieces(p, x, fx)
    lf_norm = p.matrix_norm(lf)
    if coeffs is None:
        return _solve_checked(np.eye(p.dim) - lf, d), lf_norm
    if 2.0 * lf_norm > 0.5:
        raise LFNormExceededError(
            f"the series operator norm {2.0 * lf_norm:.6g} exceeds 1/2; "
            f"the family step is invalid here")
    return _apply_family(lf, d, coeffs), lf_norm


def _eval_f(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    return np.asarray(p.eval_f(x), dtype=float)


def lf_matrix(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    """The n-by-n matrix of L_F(x) = (1/2) F'(x)^{-1} F''(x) F'(x)^{-1} F(x).

    Column j is (1/2) F'(x)^{-1} F''(x)[e_j, d] with d the Newton direction.
    """
    x = np.asarray(x, dtype=float)
    return _step_pieces(p, x, _eval_f(p, x))[1]


def halley_step(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    """One Halley step: x - (I - L_F(x))^{-1} F'(x)^{-1} F(x)."""
    x = np.asarray(x, dtype=float)
    return x - _correction(p, x, _eval_f(p, x), None)[0]


def _validate_family(coeffs: Sequence[float]) -> tuple[float, ...]:
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) < 1:
        raise ValueError("the coefficient list must contain at least a_0")
    if abs(coeffs[0] - 1.0) > 1e-12:
        raise ValueError(f"a_0 must equal 1, got {coeffs[0]}")
    if len(coeffs) > 1 and abs(coeffs[1] - 0.5) > 1e-12:
        raise ValueError(f"a_1 must equal 1/2, got {coeffs[1]}")
    tail = coeffs[2:]
    if any(c < 0.0 for c in tail):
        raise ValueError("coefficients from a_2 on must be nonnegative")
    if any(b > a + 1e-15 for a, b in zip(tail, tail[1:])):
        raise ValueError("coefficients from a_2 on must be nonincreasing")
    return coeffs


def _apply_family(lf: np.ndarray, d: np.ndarray,
                  coeffs: tuple[float, ...]) -> np.ndarray:
    # Horner evaluation of (sum_k a_k S^k) d using matrix-vector products
    # only; no explicit matrix powers. The series variable S is twice the
    # Halley correction operator: the coefficient normalization a_1 = 1/2 is
    # tied to S, which carries no 1/2 of its own, so that a_k = (1/2)^k sums
    # to (I - S/2)^{-1} = (I - L_F)^{-1}, the exact Halley correction.
    s = 2.0 * lf
    y = coeffs[-1] * d
    for a_k in reversed(coeffs[:-1]):
        y = s @ y + a_k * d
    return y


def family_step(p: NonlinearProblem, x: np.ndarray,
                coeffs: Sequence[float]) -> np.ndarray:
    """One step of the third-order family with the given series coefficients.

    Requires the induced norm of the series operator (twice L_F(x)) to be at
    most 1/2; the truncated series would otherwise leave its region of
    validity, so this is a hard failure rather than a recorded diagnostic.
    """
    coeffs = _validate_family(coeffs)
    x = np.asarray(x, dtype=float)
    return x - _correction(p, x, _eval_f(p, x), coeffs)[0]


def _solve_loop(p: NonlinearProblem, x0, tol: float, max_iters: int,
                coeffs: tuple[float, ...] | None) -> SolveTrace:
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    x = np.array(x0, dtype=float).reshape(p.dim)
    iterates = [x.copy()]
    fx = _eval_f(p, x)
    residual_norms = [p.vector_norm(fx)]
    step_norms: list[float] = []
    lf_norms: list[float] = []
    stop_reason = "max_iters"
    while True:
        if residual_norms[-1] <= tol:
            stop_reason = "residual_below_tol"
            break
        if len(step_norms) >= max_iters:
            stop_reason = "max_iters"
            break
        try:
            # |L_F| > 1/2 is recorded but does not stop Halley
            correction, lf_norm = _correction(p, x, fx, coeffs)
        except LinearSolveError:
            stop_reason = "linear_solve_failure"
            break
        except LFNormExceededError:
            stop_reason = "lf_norm_exceeded"
            break
        lf_norms.append(lf_norm)
        x = x - correction
        iterates.append(x.copy())
        fx = _eval_f(p, x)
        residual_norms.append(p.vector_norm(fx))
        step_norms.append(p.vector_norm(correction))
        if step_norms[-1] <= tol:
            stop_reason = "step_below_tol"
            break

    trace = SolveTrace(
        iterates=iterates,
        residual_norms=residual_norms,
        step_norms=step_norms,
        lf_norms=lf_norms,
        stop_reason=stop_reason,
        norm_kind=p.norm_kind,
    )
    trace.q_order_estimate = estimate_q_order(trace)
    return trace


def halley_solve(p: NonlinearProblem, x0, tol: float = 1e-12,
                 max_iters: int = 30) -> SolveTrace:
    """Run Halley's method from x0 until the residual or step drops below tol.

    Linear-solve failures are recorded as the stop reason instead of raised,
    so a trace always comes back.
    """
    return _solve_loop(p, x0, tol, max_iters, coeffs=None)


def family_solve(p: NonlinearProblem, x0, coeffs: Sequence[float],
                 tol: float = 1e-12, max_iters: int = 60) -> SolveTrace:
    """Run the truncated-series iteration with the given coefficients.

    A step where the series operator norm (twice |L_F|) exceeds 1/2 stops
    the run with reason ``lf_norm_exceeded``.
    """
    return _solve_loop(p, x0, tol, max_iters, coeffs=_validate_family(coeffs))


def estimate_q_order(trace: SolveTrace) -> float | None:
    """Least-squares estimate of the convergence order from a trace.

    Treats the final iterate as the limit, forms errors e_k for the earlier
    iterates and fits log e_{k+1} against log e_k. Errors at or below
    100 * machine epsilon (scaled by the limit) are noise and are dropped.
    Returns None when fewer than four iterates or two usable pairs remain.
    """
    xs = [np.asarray(x, dtype=float) for x in trace.iterates]
    if len(xs) < 4:
        return None
    limit = xs[-1]
    if trace.norm_kind == "euclidean":
        norm = np.linalg.norm
    else:
        def norm(v):
            return np.max(np.abs(v))
    errors = [float(norm(x - limit)) for x in xs[:-1]]
    floor = 100.0 * np.finfo(float).eps * max(1.0, float(norm(limit)))
    pairs = [(math.log(a), math.log(b))
             for a, b in zip(errors, errors[1:])
             if a > floor and b > floor]
    if len(pairs) < 2:
        return None
    lx = np.array([p[0] for p in pairs])
    ly = np.array([p[1] for p in pairs])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def second_derivative_from_tensor(tensor: np.ndarray):
    """Adapter turning a dense n x n x n array T into an eval_second callback.

    The callback returns T[i, j, k] u_j v_k summed over j, k. Symmetrize the
    last two axes of T beforehand if the source is not already symmetric.
    """
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        raise ValueError(f"expected a cubical rank-3 array, got shape {tensor.shape}")

    def action(x, u, v):
        return np.einsum("ijk,j,k->i", tensor, u, v)

    return action
