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
direction. The Halley correction y = (I - L_F)^{-1} d solves the same
system as (F'(x) - B/2) y = F(x), so it costs one more factorization and no
matrix L_F. The family applies S = 2 L_F as y -> F'(x)^{-1} (B y), one
solve per product, and never forms L_F either.

The step systems are dense by default: B comes column by column from n
calls to ``eval_second``, and every factorization is a dense LU. A problem
whose systems become tridiagonal after premultiplication by a fixed
nonsingular matrix A can say so through the optional ``tridiagonal`` hook
(:class:`TridiagonalForm`). The solvers then factor T = A F'(x) and
A F'(x) - A B / 2 with LAPACK's tridiagonal gttrf in O(n) and solve against
A F(x). Halley's method and its family are affine invariant, so the
iterates are those of the dense systems up to rounding; residuals and stop
tests always read the original F.

Every norm is the max norm, and every matrix norm the one it induces, the
largest absolute row sum: the integral-equation bounds are stated in it.
The recorded |L_F|, which the family also uses as its gate, is exact up to
rounding on every path. Under a tridiagonal form it costs one more solve
when a check in O(n) proves T^{-1} >= 0 entrywise and every column of
S = A B has one sign: then |L_F| is the largest entry of T^{-1} (|S| 1) / 2.
Otherwise the absolute row sums of T^{-1} S are summed over solves against
fixed blocks of columns of S, O(n^2) time in O(n) memory. On the dense path
it is the norm of the matrix L_F from one n-right-hand-side solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import LFNormExceededError, LinearSolveError

__all__ = [
    "NonlinearProblem",
    "TridiagonalForm",
    "SolveTrace",
    "STOP_REASONS",
    "lf_matrix",
    "halley_step",
    "family_step",
    "halley_solve",
    "family_solve",
    "estimate_q_order",
    "second_derivative_from_tensor",
    "vector_norm",
]

STOP_REASONS = frozenset({
    "residual_below_tol",
    "step_below_tol",
    "max_iters",
    "linear_solve_failure",
    "lf_norm_exceeded",
})

_CONVERGED_REASONS = frozenset({"residual_below_tol", "step_below_tol"})

# Relative pivot threshold for declaring a factorization singular.
_PIVOT_RTOL = 1e-13


def vector_norm(v) -> float:
    """The max norm of v; 0 for an empty vector."""
    v = np.asarray(v, dtype=float)
    return float(np.abs(v).max()) if v.size else 0.0


@dataclass(frozen=True)
class TridiagonalForm:
    """A problem's step systems premultiplied into tridiagonal form.

    For a fixed nonsingular n-by-n matrix A that the problem chooses,
    ``jacobian(x)`` returns A F'(x), ``second_matrix(x, d)`` returns
    A F''(x)[., d] and ``apply(v)`` returns A v. The two matrices come as
    (3, n) arrays in the diagonal-ordered storage of
    ``scipy.linalg.solve_banded`` with one band on each side: row 0 holds
    the superdiagonal in columns 1 to n-1, row 1 the diagonal, row 2 the
    subdiagonal in columns 0 to n-2, and the two unused corners are ignored.
    """

    jacobian: Callable[[np.ndarray], np.ndarray]
    second_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NonlinearProblem:
    """A system F(x) = 0 in R^n with first and second derivative callbacks.

    eval_second(x, u, v) must return the vector F''(x)[u, v]; it is expected
    to be symmetric and bilinear in (u, v). The solvers assemble
    B = F''(x)[., d] from n such calls per step. The optional
    ``tridiagonal`` hook replaces both dense step systems by their
    premultiplied tridiagonal forms (see :class:`TridiagonalForm`); the
    solvers then never call eval_jacobian or eval_second, and it needs
    dim >= 3. Norms are the max norm and the max absolute row sum.
    """

    dim: int
    eval_f: Callable[[np.ndarray], np.ndarray]
    eval_jacobian: Callable[[np.ndarray], np.ndarray]
    eval_second: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    tridiagonal: TridiagonalForm | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.tridiagonal is not None and self.dim < 3:
            raise ValueError(
                f"a tridiagonal form needs dim >= 3, got {self.dim}")

    @staticmethod
    def vector_norm(v: np.ndarray) -> float:
        return vector_norm(v)

    @staticmethod
    def matrix_norm(a: np.ndarray) -> float:
        """The max absolute row sum, the matrix norm the max norm induces."""
        return float(np.max(np.sum(np.abs(np.asarray(a, dtype=float)), axis=1)))


@dataclass
class SolveTrace:
    """Record of one solver run.

    residual_norms has one entry per iterate; step_norms and lf_norms have
    one fewer (no step is taken from the final iterate). All are max norms,
    and the JSON form says so as ``"norm_kind": "max"``.
    """

    iterates: list[np.ndarray]
    residual_norms: list[float]
    step_norms: list[float]
    lf_norms: list[float]
    stop_reason: str
    q_order_estimate: float | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED_REASONS

    def to_json_dict(self) -> dict:
        record = self._json_record()
        record["iterates"] = [x.tolist() for x in record["iterates"]]
        return record

    def _json_record(self) -> dict:
        """``to_json_dict`` with the iterates left as float64 arrays, which
        the CLI renders without listing them first."""
        return {
            "iterates": [np.asarray(x, dtype=float) for x in self.iterates],
            "residual_norms": list(map(float, self.residual_norms)),
            "step_norms": list(map(float, self.step_norms)),
            "lf_norms": list(map(float, self.lf_norms)),
            "stop_reason": self.stop_reason,
            "q_order_estimate": self.q_order_estimate,
            "norm_kind": "max",
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolveTrace":
        norm_kind = data.get("norm_kind", "max")
        if norm_kind != "max":
            raise ValueError(
                f"a trace must be measured in the max norm, got {norm_kind!r}")
        return cls(
            iterates=[np.array(x, dtype=float) for x in data["iterates"]],
            residual_norms=[float(v) for v in data["residual_norms"]],
            step_norms=[float(v) for v in data["step_norms"]],
            lf_norms=[float(v) for v in data["lf_norms"]],
            stop_reason=str(data["stop_reason"]),
            q_order_estimate=(None if data.get("q_order_estimate") is None
                              else float(data["q_order_estimate"])),
        )


# ---------------------------------------------------------------------------
# factorizations with an explicit singularity guard


def _check_pivots(pivots: np.ndarray, column_scale: np.ndarray) -> None:
    bad = pivots <= _PIVOT_RTOL * column_scale
    if bad.any():
        worst = int(np.argmax(bad))
        biggest = float(pivots.max()) if pivots.size else 0.0
        raise LinearSolveError(
            f"factorization pivot {pivots[worst]:.3e} in column {worst} fell below "
            f"{_PIVOT_RTOL:g} of the column magnitude {column_scale[worst]:.3e} "
            f"(largest pivot {biggest:.3e}); treating the matrix as singular")


# scipy.linalg is imported where a factorization is made, so that importing
# the package, or using only its scalar certificates, loads no scipy; lu_factor
# and lu_solve are still looked up on scipy.linalg at call time.


def _lu_factor_checked(a: np.ndarray):
    import scipy.linalg

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinearSolveError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinearSolveError("matrix contains non-finite entries")
    column_scale = np.abs(a).max(axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    _check_pivots(np.abs(np.diag(lu)), column_scale)
    return lu, piv


def _dense_factor(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    import scipy.linalg

    lu_piv = _lu_factor_checked(a)
    return lambda b: scipy.linalg.lu_solve(lu_piv, b)


class _TridiagonalSolve:
    """b -> T^{-1} b by gttrs, from gttrf's factors of the tridiagonal T;
    ``magnitude`` is |T| in (3, n) storage, its two unused corners 0."""

    __slots__ = ("_gttrs", "_factors", "magnitude")

    def __init__(self, gttrs, factors, magnitude: np.ndarray):
        self._gttrs, self._factors, self.magnitude = gttrs, factors, magnitude

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._gttrs(*self._factors, b)[0]


def _tridiagonal_factor(bands: np.ndarray) -> _TridiagonalSolve:
    """gttrf factorization of a tridiagonal matrix in (3, n) storage, behind
    the guards of _lu_factor_checked; returns the gttrs solve."""
    from scipy.linalg import lapack

    magnitude = np.abs(bands)
    magnitude[0, 0] = magnitude[2, -1] = 0.0
    # column j of the storage is column j of the matrix
    column_scale = magnitude.max(axis=0)
    # max carries a nan or inf of any band into the largest scale
    if not column_scale.max() < math.inf:
        raise LinearSolveError("matrix contains non-finite entries")
    dl, d, du, du2, ipiv, _ = lapack.dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
    # gttrf stops at an exact zero pivot, which the guard below catches too
    _check_pivots(np.abs(d), column_scale)
    return _TridiagonalSolve(lapack.dgttrs, (dl, d, du, du2, ipiv), magnitude)


def _tridiagonal_dense(bands: np.ndarray, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
    """Columns start to stop - 1 of the n-by-n matrix of (3, n) tridiagonal
    storage, all of them by default, in Fortran order."""
    n = bands.shape[1]
    j = np.arange(n)[start:stop]
    a = np.zeros((n, j.size), order="F")
    a[j, j - start] = bands[1, j]
    up, down = j[j > 0], j[j < n - 1]
    a[up - 1, up - start] = bands[0, up]
    a[down + 1, down - start] = bands[2, down]
    return a


def _shaped(a, shape: tuple[int, int], name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(
            f"{name} must return an array of shape {shape}, got {a.shape}")
    return a


def _second_matrix(p: NonlinearProblem, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A B with B = F''(x)[., d]: tridiagonal storage under the problem's
    tridiagonal form, else the dense B column by column from eval_second."""
    n = p.dim
    if p.tridiagonal is not None:
        return _shaped(p.tridiagonal.second_matrix(x, d), (3, n),
                       "tridiagonal.second_matrix")
    second = np.empty((n, n), dtype=float)
    basis = np.eye(n)
    for j in range(n):
        second[:, j] = np.asarray(p.eval_second(x, basis[:, j], d), dtype=float)
    return second


def _band_matvec(bands: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of the tridiagonal matrix in (3, n) storage with y."""
    out = bands[1] * y
    out[:-1] += bands[0, 1:] * y[1:]
    out[1:] += bands[2, :-1] * y[:-1]
    return out


# T x > 0 must hold row by row beyond this multiple of (|T| x): a row of the
# tridiagonal product rounds three terms, at most about 1.5 eps of |T| x.
_POSITIVE_ROW_RTOL = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _one_solve_lf_norm(jac: np.ndarray, second: np.ndarray,
                       solve: _TridiagonalSolve) -> float | None:
    """The max-norm of L_F = (1/2) T^{-1} S for T = A F'(x) and S = A B in
    (3, n) storage, with one solve of T's factorization; None where the
    shortcut is not proven.

    A Z-matrix T (no positive off-diagonal) with T x > 0 for some x > 0 has
    T^{-1} >= 0 entrywise (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, 1979). x = T^{-1} 1 is tried, and T x > 0 counts
    only where each computed row clears its rounding error. If moreover
    every column of S has one sign, |T^{-1} S| = T^{-1} |S|, so the largest
    row sum of |T^{-1} S| is the largest entry of T^{-1} (|S| 1).
    """
    if (jac[0, 1:] > 0.0).any() or (jac[2, :-1] > 0.0).any():
        return None
    columns = second.copy()
    columns[0, 0] = columns[2, -1] = 0.0   # the unused corners
    if not ((columns.min(axis=0) >= 0.0) | (columns.max(axis=0) <= 0.0)).all():
        return None
    x = solve(np.ones(jac.shape[1]))
    if not x.min() > 0.0:
        return None
    floor = _POSITIVE_ROW_RTOL * _band_matvec(solve.magnitude, x) + _TINY
    if not (_band_matvec(jac, x) > floor).all():
        return None
    # |S| 1, the row sums of |S|, in the order of _band_matvec's adds
    magnitude = np.abs(columns)
    row_sums = magnitude[1]
    row_sums[:-1] += magnitude[0, 1:]
    row_sums[1:] += magnitude[2, :-1]
    return 0.5 * float(solve(row_sums).max())


def _max_abs_row_sum(solve: Callable[[np.ndarray], np.ndarray], blocks) -> float:
    """The max absolute row sum of the matrix whose column blocks are
    solve(block) for each of ``blocks``, one block in memory at a time."""
    return float(sum(np.abs(solve(block)).sum(axis=1) for block in blocks).max())


# columns of T^{-1} S per solve when |L_F| is summed without the matrix
_LF_BLOCK = 64


class _Step:
    """The step systems at x with F(x) = fx: A F'(x), factored, the Newton
    direction d, A B with B = F''(x)[., d], and A F(x).

    A is the problem's premultiplier under its tridiagonal form, with both
    matrices in (3, n) storage and gttrf factorizations, and the identity
    otherwise (dense LU). L_F = (1/2) (A F'(x))^{-1} (A B) is formed only
    by ``lf`` and by ``lf_norm`` on the dense path.
    """

    def __init__(self, p: NonlinearProblem, x: np.ndarray, fx: np.ndarray):
        tri = p.tridiagonal
        self.banded = tri is not None
        if tri is None:
            self.jac = np.asarray(p.eval_jacobian(x), dtype=float)
            self.rhs = fx
            self.factor = _dense_factor
        else:
            self.jac = _shaped(tri.jacobian(x), (3, p.dim), "tridiagonal.jacobian")
            self.rhs = np.asarray(tri.apply(fx), dtype=float)
            self.factor = _tridiagonal_factor
        self.solve = self.factor(self.jac)
        self.d = self.solve(self.rhs)
        self.second = _second_matrix(p, x, self.d)

    def series(self, y: np.ndarray) -> np.ndarray:
        """S y = 2 L_F y = (A F'(x))^{-1} (A B y), with no matrix L_F."""
        by = _band_matvec(self.second, y) if self.banded else self.second @ y
        return self.solve(by)

    def lf(self) -> np.ndarray:
        """The n-by-n matrix L_F, by one n-right-hand-side solve."""
        return 0.5 * self.solve(_tridiagonal_dense(self.second) if self.banded
                                else self.second)

    def lf_norm(self) -> float:
        """|L_F|: from T^{-1} S in one block on the dense path. Under the
        tridiagonal form, one more solve where _one_solve_lf_norm proves it,
        else from T^{-1} S in blocks of _LF_BLOCK columns, in O(n) memory."""
        if not self.banded:
            return 0.5 * _max_abs_row_sum(self.solve, [self.second])
        norm = _one_solve_lf_norm(self.jac, self.second, self.solve)
        if norm is not None:
            return norm
        return 0.5 * _max_abs_row_sum(
            self.solve, (_tridiagonal_dense(self.second, start, start + _LF_BLOCK)
                         for start in range(0, self.d.size, _LF_BLOCK)))

    def halley(self) -> np.ndarray:
        """The Halley correction: (A F'(x) - A B / 2) y = A F(x), the same
        system as (I - L_F) y = d, by one more factorization."""
        return self.factor(self.jac - 0.5 * self.second)(self.rhs)


def _correction(p: NonlinearProblem, x: np.ndarray, fx: np.ndarray,
                coeffs: tuple[float, ...] | None) -> tuple[np.ndarray, float]:
    """The step x -> x - correction and |L_F(x)| for Halley (coeffs None) or
    the series family.

    The family needs the series operator norm, twice |L_F|, to be at most
    1/2 and raises LFNormExceededError otherwise; Halley only records it.
    """
    step = _Step(p, x, fx)
    if coeffs is None:
        correction = step.halley()
        return correction, step.lf_norm()
    lf_norm = step.lf_norm()
    if 2.0 * lf_norm > 0.5:
        raise LFNormExceededError(
            f"the series operator norm {2.0 * lf_norm:.6g} exceeds 1/2; "
            f"the family step is invalid here")
    return _apply_family(step.series, step.d, coeffs), lf_norm


def _eval_f(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    return np.asarray(p.eval_f(x), dtype=float)


def lf_matrix(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    """The n-by-n matrix of L_F(x) = (1/2) F'(x)^{-1} F''(x) F'(x)^{-1} F(x).

    Column j is (1/2) F'(x)^{-1} F''(x)[e_j, d] with d the Newton direction.
    """
    x = np.asarray(x, dtype=float)
    return _Step(p, x, _eval_f(p, x)).lf()


def halley_step(p: NonlinearProblem, x: np.ndarray) -> np.ndarray:
    """One Halley step: x - (I - L_F(x))^{-1} F'(x)^{-1} F(x)."""
    x = np.asarray(x, dtype=float)
    return x - _correction(p, x, _eval_f(p, x), None)[0]


def _validate_family(coeffs: Sequence[float]) -> tuple[float, ...]:
    coeffs = tuple(float(c) for c in coeffs)
    for c in coeffs:
        if not math.isfinite(c):
            raise ValueError(f"coefficients must be finite, got {c}")
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


def _apply_family(series: Callable[[np.ndarray], np.ndarray], d: np.ndarray,
                  coeffs: tuple[float, ...]) -> np.ndarray:
    # Horner evaluation of (sum_k a_k S^k) d using products y -> S y only;
    # no matrix S. The series variable S is twice the Halley correction
    # operator: the coefficient normalization a_1 = 1/2 is tied to S, which
    # carries no 1/2 of its own, so that a_k = (1/2)^k sums to
    # (I - S/2)^{-1} = (I - L_F)^{-1}, the exact Halley correction.
    y = coeffs[-1] * d
    for a_k in reversed(coeffs[:-1]):
        y = series(y) + a_k * d
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
    if tol == math.inf:
        raise ValueError("tol must be finite, got inf")
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


def _errors_to_final(trace: SolveTrace) -> list[float]:
    """|x_k - x_final| for every iterate x_k of the trace, the last one 0.

    Computed once per trace: the q-order fit, ``verify_error_bound`` and
    the start distance of a report all read it. The list is kept on the
    trace beside the iterate arrays it came from, and computed anew when
    the trace holds other arrays; an iterate changed in place is not seen.
    """
    kept = getattr(trace, "_final_errors", None)
    if (kept is not None and len(kept[0]) == len(trace.iterates)
            and all(a is b for a, b in zip(kept[0], trace.iterates))):
        return kept[1]
    xs = np.array(trace.iterates, dtype=float)
    errors = np.abs(xs - xs[-1]).max(axis=1, initial=0.0).tolist()
    trace._final_errors = (list(trace.iterates), errors)
    return errors


def estimate_q_order(trace: SolveTrace) -> float | None:
    """Least-squares estimate of the convergence order from a trace.

    Treats the final iterate as the limit, forms errors e_k for the earlier
    iterates and fits log e_{k+1} against log e_k: the slope of the
    least-squares line, in closed form from centered sums. Errors at or
    below 100 * machine epsilon (scaled by the limit) are noise and are
    dropped. Returns None for a trace that did not converge, whose last
    iterate is no limit, when fewer than four iterates or two usable pairs
    remain, and when the usable log e_k are all equal, which fix no slope.
    """
    if not trace.converged or len(trace.iterates) < 4:
        return None
    errors = _errors_to_final(trace)[:-1]
    floor = 100.0 * np.finfo(float).eps * max(1.0, vector_norm(trace.iterates[-1]))
    pairs = [(math.log(a), math.log(b))
             for a, b in zip(errors, errors[1:])
             if a > floor and b > floor]
    if len(pairs) < 2:
        return None
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    sxx = sum((x - mean_x) * (x - mean_x) for x, _ in pairs)
    if sxx == 0.0:
        return None
    return sum((x - mean_x) * (y - mean_y) for x, y in pairs) / sxx


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
