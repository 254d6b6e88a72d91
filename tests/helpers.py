"""Shared builders for the test suite: problems, majorants, and oracles.

The bisection oracle here deliberately avoids every closed form in the
package; it only evaluates h and h' and halves intervals, so agreement with
the library's root finders is a real cross-check. The closed-form rate
constants check the package's one generic rate formula the same way, and
the kernel integrals come from Gauss panels, not from the closed-form
weights. The json renderer is checked against a plain per-value renderer.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from halley_cert import (
    CubicMajorant,
    NonlinearProblem,
    SmaleMajorant,
    green_kernel,
    lf_matrix,
    smallest_root,
)

SMALE_BOUND = 3.0 - 2.0 * math.sqrt(2.0)


def scalar_sqrt2() -> NonlinearProblem:
    """F(x) = x^2 - 2 as a one-dimensional system."""
    return NonlinearProblem(
        dim=1,
        eval_f=lambda x: np.array([x[0] ** 2 - 2.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0]]]),
        eval_second=lambda x, u, v: np.array([2.0 * u[0] * v[0]]),
    )


def linear_problem(a, b) -> NonlinearProblem:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return NonlinearProblem(
        dim=b.size,
        eval_f=lambda x: a @ x - b,
        eval_jacobian=lambda x: a.copy(),
        eval_second=lambda x, u, v: np.zeros(b.size),
    )


def quadratic_problem(rng, dim: int, series_target: float = 0.4):
    """Random quadratic map F(x) = A x + (1/2) B[x,x] - c and a start point.

    c is picked so that the residual at x0 is a chosen vector r, and r is
    rescaled so the series operator norm at x0 (twice the Halley correction
    operator) is at most ``series_target``. The operator is linear in the
    residual, so one rescale lands exactly.
    """
    a = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
    b = rng.standard_normal((dim, dim, dim))
    b = 0.5 * (b + b.transpose(0, 2, 1))
    x0 = rng.standard_normal(dim) * 0.2
    r = rng.standard_normal(dim)

    def build(c):
        return NonlinearProblem(
            dim=dim,
            eval_f=lambda x: a @ x + 0.5 * np.einsum("ijk,j,k->i", b, x, x) - c,
            eval_jacobian=lambda x: a + np.einsum("ijk,k->ij", b, x),
            eval_second=lambda x, u, v: np.einsum("ijk,j,k->i", b, u, v),
        )

    base = a @ x0 + 0.5 * np.einsum("ijk,j,k->i", b, x0, x0)
    p = build(base - r)
    norm = 2.0 * p.matrix_norm(lf_matrix(p, x0))
    if norm > series_target:
        r = r * (series_target / norm)
        p = build(base - r)
    return p, x0


def band_matrix(bands: np.ndarray) -> np.ndarray:
    """The dense matrix of (3, n) tridiagonal storage: superdiagonal in row 0
    from column 1, diagonal in row 1, subdiagonal in row 2 up to column n-2."""
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


def premultiplied(p: NonlinearProblem, m: np.ndarray) -> NonlinearProblem:
    """The problem x -> m F(x): same roots and same Halley iterates."""
    return NonlinearProblem(
        dim=p.dim,
        eval_f=lambda x: m @ np.asarray(p.eval_f(x), dtype=float),
        eval_jacobian=lambda x: m @ np.asarray(p.eval_jacobian(x), dtype=float),
        eval_second=lambda x, u, v: m @ np.asarray(p.eval_second(x, u, v),
                                                   dtype=float),
    )


def random_certified_cubic(rng) -> CubicMajorant:
    eta = float(10.0 ** rng.uniform(-1.3, 0.7))
    lip = float(10.0 ** rng.uniform(-1.3, 0.7))
    bound = CubicMajorant(0.0, eta, lip).criterion_bound()
    beta = float(rng.uniform(0.05, 0.95)) * bound
    return CubicMajorant(beta, eta, lip)


def random_certified_smale(rng) -> SmaleMajorant:
    gamma = float(10.0 ** rng.uniform(-1.3, 1.3))
    alpha = float(rng.uniform(0.05, 0.95)) * SMALE_BOUND
    return SmaleMajorant(alpha / gamma, gamma)


def closed_form_rate_constant(h) -> float:
    """The Q-cubic rate constant of a certified cubic or Smale majorant in
    its own closed form, an oracle for the one generic formula.

    Cubic: (3 (eta + lip t*)^2 + 2 lip d) / (9 d^2) with d = -h'(t*).
    Smale: 8 gamma^2 / (3 (2 q^2 - 1)^2) with q = 1 - gamma t*.
    """
    t_star = smallest_root(h)
    if isinstance(h, SmaleMajorant):
        q = 1.0 - h.gamma * t_star
        denom = 2.0 * q * q - 1.0
        return 8.0 * h.gamma ** 2 / (3.0 * denom * denom)
    denom = 1.0 - h.eta * t_star - 0.5 * h.lip * t_star * t_star
    num = 3.0 * (h.eta + h.lip * t_star) ** 2 + 2.0 * h.lip * denom
    return num / (9.0 * denom * denom)


def bisect_zero(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection to float exhaustion; [lo, hi] must bracket a sign change."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    if fn(hi) == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_roots(h) -> tuple[float, float]:
    """Both positive roots of a certified majorant by bisection only."""
    bound = h.domain_bound

    def expand(t):
        return t * 2.0 if math.isinf(bound) else 0.5 * (t + bound)

    # bracket the minimum through the sign change of h'
    hi = 1.0 if math.isinf(bound) else 0.5 * bound
    for _ in range(200):
        if h.deriv(hi) >= 0.0:
            break
        hi = expand(hi)
    t_min = bisect_zero(h.deriv, 0.0, hi)

    t_star = bisect_zero(h.value, 0.0, t_min)

    hi = t_min
    for _ in range(200):
        hi = expand(hi)
        if h.value(hi) > 0.0:
            break
    t_outer = bisect_zero(h.value, t_min, hi)
    return t_star, t_outer


def _gauss_panels(edges: np.ndarray, order: int):
    """Gauss points and weights for each panel [edges[k], edges[k+1]]."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    wts = half[:, None] * gw[None, :]
    return pts, wts


def integrate_against_kernel(s: float, func: Callable[[float], float],
                             grid: np.ndarray, order: int = 4) -> float:
    """int_0^1 G(s, t) func(t) dt by Gauss panels of the given order.

    The panel edges are the grid nodes plus s itself, so the kernel kink is
    always a panel edge; for polynomial func up to degree 2 * order - 2 the
    result is exact to rounding.
    """
    grid = np.asarray(grid, dtype=float)
    edges = np.unique(np.concatenate([grid, [float(s)]]))
    pts, wts = _gauss_panels(edges, order)
    vals = np.array([func(float(t)) for t in pts.ravel()]).reshape(pts.shape)
    return float(np.sum(green_kernel(s, pts) * wts * vals))


def render_json_oracle(value) -> str:
    """The CLI's json text, one value at a time: finite floats as ".17g",
    non-finite ones as json.dumps writes them, strings through json.dumps."""
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
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        body = ", ".join(
            f"{json.dumps(str(k))}: {render_json_oracle(v)}" for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(render_json_oracle, value)) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as json")
