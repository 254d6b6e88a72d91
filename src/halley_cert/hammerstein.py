"""Nonlinear Hammerstein integral equation on [0, 1] and its certificates.

The equation is

    u(s) = f(s) + lam * integral_0^1 G(s, t) u(t)^power dt

with the Green kernel of -d^2/ds^2 under zero boundary values. Start-point
bounds for the certificate come in closed form: with M = max_s int G(s, t) dt
= 1/8 and f = 1, the scaled quantities are beta = |lam| / (8 - 3 |lam|) and
eta = lip = 6 |lam| / (8 - 3 |lam|), which certify for |lam| < 32/27.

Discretization is Nystrom style on a uniform grid including both endpoints.
Values between nodes come from piecewise-linear interpolation, so the scheme
is O(m^-2) accurate. The weights integrate G(s_i, .) against each hat
function exactly, in closed form (the Nystrom product rule for
piecewise-linear interpolation): every node sits on a panel edge, so the
kink of G(s_i, .) at t = s_i never lands inside a panel, the integrand is
quadratic on every panel, and its integral follows from the kernel values
at the panel ends.

On the uniform grid with spacing h the weights satisfy K W = M exactly (to
rounding), where K is the finite-difference Laplacian tridiag(-1, 2, -1)/h^2
with identity boundary rows and M = tridiag(1, 4, 1)/6, the hat-function
mass matrix divided by h, has zero boundary rows: the second difference of
int G(s, t) phi_k(t) dt at s_i is minus the mean of phi_k against the hat
at s_i. So K F'(u) = K - p lam M diag(u^(p-1)) and
K F''(u)[., d] = -p (p-1) lam M diag(u^(p-2) d) are tridiagonal, and
``discretize`` hands the solvers that form with A = K. Every column of
K F''(u)[., d] has one sign, and on the states tried (|lam| <= 1.15,
powers 2 to 4, u in [0.5, 1.2]) K F'(u) proves to be an M-matrix, so the
recorded |L_F| takes one more O(n) solve too (see ``problem``). States
where that is not proven, which 19 of 40 specs with |lam| from 1 to 2.6
and powers 2 to 5 reach at n = 64, take a blocked sum in O(n^2) time and
O(n) memory. Forming K F(u) in floats loses about eps n^2 |F(u)|, so the
first step differs from the dense one at that level; later steps see
smaller residuals and correct it.

F and the second-derivative action never build W either: W = G M_h with
G[i, j] = G(s_i, s_j) and M_h the tridiagonal mass matrix of the hats, and
G z takes two running sums (``_weights_times``), evaluated in one pass over
a (2, m) array whose second row is padded at its end. So a solve holds O(m)
memory. Only ``eval_jacobian`` builds the dense W, anew on every call and
without keeping it; audits and the dense path call it.

The tables that depend on m alone (the grid, the hat-mass bands, 1 - s,
and the bands of K and M) are built once per node count and kept, read-only,
in an LRU cache of ``_TABLES_CACHED`` entries (``_grid_tables``), about 10
floats per node each.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._format import csv_text
from .certificate import (
    _BOUND_SLACK,
    _NOISE_FLOOR,
    ConvergenceCertificate,
    ErrorBoundReport,
    kantorovich_certificate,
    verify_error_bound,
)
from .majorant import CubicMajorant
from .problem import (
    NonlinearProblem,
    SolveTrace,
    TridiagonalForm,
    _errors_to_final,
    family_solve,
    halley_solve,
)

__all__ = [
    "HammersteinSpec",
    "Table1Row",
    "HammersteinReport",
    "LAMBDA_DOMAIN_LIMIT",
    "LAMBDA_CRITERION_LIMIT",
    "green_kernel",
    "uniform_grid",
    "quadrature_weights",
    "discretize",
    "analytic_bounds",
    "table1",
    "table1_csv",
    "solve_and_check",
]

# The closed-form bounds need 8 - 3|lam| > 0; the criterion further needs
# |lam| below 32/27.
LAMBDA_DOMAIN_LIMIT = 8.0 / 3.0
LAMBDA_CRITERION_LIMIT = 32.0 / 27.0

# Node counts whose tables _grid_tables keeps; each entry holds about 10
# floats per node (80 MB at 10^6 nodes).
_TABLES_CACHED = 4


@dataclass(frozen=True)
class HammersteinSpec:
    """One instance: coupling lam, integer power >= 2, node count >= 8.

    ``forcing`` is the function f; None means the constant 1 used by the
    reference tables. It must be positive on the grid.
    """

    lam: float
    power: int = 3
    nodes: int = 32
    forcing: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and abs(self.lam) < LAMBDA_DOMAIN_LIMIT):
            raise ValueError(
                f"lam must satisfy |lam| < {LAMBDA_DOMAIN_LIMIT:.6g}, got {self.lam}")
        for name, least in (("power", 2), ("nodes", 8)):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def green_kernel(s, t):
    """G(s, t) = t (1 - s) for t <= s and s (1 - t) for s <= t.

    Equals min(s, t) * (1 - max(s, t)); broadcasts over array arguments.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.minimum(s, t) * (1.0 - np.maximum(s, t))


def uniform_grid(m: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, m)


def quadrature_weights(grid: np.ndarray) -> np.ndarray:
    """Matrix W with sum_j W[i, j] g(s_j) ~ int_0^1 G(s_i, t) g(t) dt.

    Row i integrates G(s_i, .) against the piecewise-linear interpolant of g
    on the grid. On the panel [t_k, t_k+1] of width h both G(s_i, .) and
    the two hat functions are linear, so with G_k = G(s_i, t_k) the panel
    adds h/6 (2 G_k + G_k+1) to the weight of t_k and h/6 (G_k + 2 G_k+1) to
    that of t_k+1, exactly. The boundary rows are zero and the row sums
    reproduce int G(s_i, t) dt = s_i (1 - s_i) / 2 to rounding.
    """
    grid = np.asarray(grid, dtype=float)
    kernel = green_kernel(grid[:, None], grid[None, :])   # G(s_i, t_k)
    # node k takes 2 G_k h/6 from each panel it bounds, plus the far end's
    # G h/6 from that panel: W is the kernel times the hat mass matrix
    h6, diag = _hat_mass(grid)
    w = kernel * diag
    w[:, :-1] += kernel[:, 1:] * h6
    w[:, 1:] += kernel[:, :-1] * h6
    return w


def _hat_mass(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tridiagonal mass matrix of the hat functions on the grid, as its
    off-diagonal h_k/6 and its diagonal (h_k-1 + h_k)/3."""
    h6 = np.diff(grid) / 6.0
    return h6, 2.0 * (np.concatenate([h6, [0.0]]) + np.concatenate([[0.0], h6]))


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Running sums of a along its last axis, each addition's rounding error
    added back.

    np.add.accumulate, which np.cumsum calls inside its wrapper, adds in
    order; TwoSum recovers the exact error of every one of those additions
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005), and their running
    sum corrects the result to about twice the working precision, where a
    plain running sum of m terms can be off by m units in the last place.
    """
    total = np.add.accumulate(a, axis=-1)
    before, after = total[..., :-1], total[..., 1:]
    added = after - before
    error = (before - (after - added)) + (a[..., 1:] - added)
    total[..., 1:] += np.add.accumulate(error, axis=-1)
    return total


class _GridTables(NamedTuple):
    """What the discrete system needs of the uniform grid of m nodes, all
    read-only: the grid s, the hat-mass bands h6 and diag (``_hat_mass``),
    rest = 1 - s, and the bands of K and M in (3, m) storage
    (``_laplacian_form``)."""

    grid: np.ndarray
    h6: np.ndarray
    diag: np.ndarray
    rest: np.ndarray
    laplacian: np.ndarray
    mass: np.ndarray


@functools.lru_cache(maxsize=_TABLES_CACHED)
def _grid_tables(m: int) -> _GridTables:
    grid = uniform_grid(m)
    h6, diag = _hat_mass(grid)
    inv_h2 = float((m - 1) ** 2)
    laplacian = np.zeros((3, m))
    laplacian[1] = 1.0
    laplacian[1, 1:-1] = 2.0 * inv_h2
    laplacian[0, 2:] = -inv_h2
    laplacian[2, :-2] = -inv_h2
    mass = np.zeros((3, m))
    mass[1, 1:-1] = 4.0 / 6.0
    mass[0, 2:] = 1.0 / 6.0
    mass[2, :-2] = 1.0 / 6.0
    tables = _GridTables(grid, h6, diag, 1.0 - grid, laplacian, mass)
    for a in tables:
        a.flags.writeable = False
    return tables


def _weights_times(tables: _GridTables) -> Callable[[np.ndarray], np.ndarray]:
    """v -> W v for W = quadrature_weights(tables.grid), in O(m) without W.

    W = G M_h, where G[i, j] = G(s_i, s_j) and M_h is the tridiagonal mass
    matrix of the hat functions (G(s_i, .) is itself piecewise linear on the
    grid). With z = M_h v, (G z)_i = (1 - s_i) sum_{j <= i} s_j z_j
    + s_i sum_{j > i} (1 - s_j) z_j, two running sums. Both come from one
    pass of ``_prefix_sums`` over a (2, m) array: row 0 holds s z, row 1
    holds (1 - s) z from the last node down to node 1 and then a 0.0 pad.
    The pad sits at the end, where its running sum is dropped; a leading
    term for the last node, (1 - 1) z = 0 z, would turn an infinite z there
    into nan. The boundary rows come out exactly zero.
    """
    s, h6, diag, rest = tables.grid, tables.h6, tables.diag, tables.rest
    m = s.size

    def times(v):
        v = np.asarray(v, dtype=float)
        z = diag * v
        z[:-1] += h6 * v[1:]
        z[1:] += h6 * v[:-1]
        terms = np.empty((2, m))
        np.multiply(s, z, out=terms[0])
        np.multiply(rest[:0:-1], z[:0:-1], out=terms[1, :-1])
        terms[1, -1] = 0.0
        sums = _prefix_sums(terms)
        above = np.zeros(m)
        above[:-1] = sums[1, -2::-1]
        return rest * sums[0] + s * above

    return times


def discretize(spec: HammersteinSpec) -> NonlinearProblem:
    """Nystrom system for the spec: F_i(u) = u_i - f(s_i) - lam sum_j w_ij u_j^p.

    The Jacobian and the second-derivative action fall out of the same
    weight matrix. F and the action apply W in O(m) without forming it;
    ``eval_jacobian`` builds the dense W on each call. The solvers use the
    tridiagonal form premultiplied by the finite-difference Laplacian K (see
    the module docstring) instead; the Jacobian stays for audits and callers
    of their own.
    """
    tables = _grid_tables(spec.nodes)
    grid = tables.grid
    if spec.forcing is None:
        f_vec = np.ones(spec.nodes)
    else:
        f_vec = np.array([float(spec.forcing(float(s))) for s in grid])
        if not np.all(f_vec > 0.0):
            raise ValueError("forcing must be positive on the grid")
    lam = spec.lam
    p = spec.power
    w_times = _weights_times(tables)

    def eval_f(u):
        u = np.asarray(u, dtype=float)
        return u - f_vec - lam * w_times(u ** p)

    def eval_jacobian(u):
        u = np.asarray(u, dtype=float)
        w = quadrature_weights(grid)
        return np.eye(spec.nodes) - p * lam * (w * (u ** (p - 1))[None, :])

    def eval_second(u, v, z):
        u = np.asarray(u, dtype=float)
        return -p * (p - 1) * lam * w_times(u ** (p - 2) * np.asarray(v) * np.asarray(z))

    return NonlinearProblem(
        dim=spec.nodes,
        eval_f=eval_f,
        eval_jacobian=eval_jacobian,
        eval_second=eval_second,
        tridiagonal=_laplacian_form(tables, lam, p),
    )


def _laplacian_form(tables: _GridTables, lam: float, p: int) -> TridiagonalForm:
    """The Nystrom system premultiplied by K, with K W = M on the uniform
    grid of the tables, in (3, m) diagonal-ordered storage.

    M diag(c) scales column j of M by c_j, which in this storage is column j
    of the bands, so both step matrices are the bands of K and M with the
    columns scaled.
    """
    laplacian, mass = tables.laplacian, tables.mass
    inv_h2 = float((tables.grid.size - 1) ** 2)

    def jacobian(u):
        u = np.asarray(u, dtype=float)
        return laplacian - p * lam * (mass * u ** (p - 1))

    def second_matrix(u, d):
        u = np.asarray(u, dtype=float)
        return -p * (p - 1) * lam * (mass * (u ** (p - 2) * np.asarray(d)))

    def apply(v):
        v = np.asarray(v, dtype=float)
        out = v.copy()
        out[1:-1] = (2.0 * v[1:-1] - v[:-2] - v[2:]) * inv_h2
        return out

    return TridiagonalForm(jacobian=jacobian, second_matrix=second_matrix,
                           apply=apply)


def analytic_bounds(lam: float) -> tuple[float, float, float]:
    """Closed-form (beta, eta, lip) for forcing 1 and power 3.

    lam = 0 degenerates to (0, 0, 0); a certificate needs lip > 0, so
    callers treat that row separately.
    """
    a = abs(lam)
    if not (math.isfinite(a) and a < LAMBDA_DOMAIN_LIMIT):
        raise ValueError(
            f"bounds require |lam| < {LAMBDA_DOMAIN_LIMIT:.6g}, got {lam}")
    denom = 8.0 - 3.0 * a
    beta = a / denom
    eta = 6.0 * a / denom
    return beta, eta, eta


@dataclass(frozen=True)
class Table1Row:
    """Existence and uniqueness radii for one coupling value."""

    lam: float
    existence: float | None
    uniqueness: float | None
    certified: bool


def table1(lambdas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
           seq_len: int = 10) -> list[Table1Row]:
    """Radii table over the given couplings.

    lam = 0 is the linear equation: the solution is f itself, existence
    radius 0, unique everywhere. Couplings beyond the criterion produce a
    row flagged not certified instead of radii.
    """
    rows = []
    for lam in lambdas:
        if lam == 0.0:
            rows.append(Table1Row(lam=0.0, existence=0.0,
                                  uniqueness=math.inf, certified=True))
            continue
        beta, eta, lip = analytic_bounds(lam)
        cert = kantorovich_certificate(CubicMajorant(beta, eta, lip),
                                       seq_len=seq_len)
        if cert.certified:
            rows.append(Table1Row(lam=lam, existence=cert.t_star,
                                  uniqueness=cert.uniqueness_radius,
                                  certified=True))
        else:
            rows.append(Table1Row(lam=lam, existence=None, uniqueness=None,
                                  certified=False))
    return rows


def table1_csv(rows: Sequence[Table1Row]) -> str:
    """The table as csv; an uncertified row has empty radii."""
    return csv_text([("lambda", "existence", "uniqueness")]
                    + [(r.lam, r.existence, r.uniqueness) for r in rows])


@dataclass(frozen=True)
class HammersteinReport:
    """Everything solve_and_check learned about one instance.

    ``containment_ok`` is None where no existence radius was established:
    the spec has no closed-form bounds, or its criterion failed.
    """

    spec: HammersteinSpec
    trace: SolveTrace
    certificate: ConvergenceCertificate | None
    start_distance: float
    containment_ok: bool | None
    error_bounds: ErrorBoundReport | None
    note: str = ""


def solve_and_check(spec: HammersteinSpec, tol: float = 1e-12,
                    max_iters: int = 30,
                    coeffs: Sequence[float] | None = None) -> HammersteinReport:
    """Discretize, solve from u_0 = f, and audit the certificate promises.

    Checks that the solution stays within the existence radius of the start
    (radius 0 for lam = 0; no check, None, where nothing was certified) and
    that the per-step errors obey the majorizing schedule. ``coeffs``
    switches the iteration to the truncated series family (None is Halley).
    The schedule is the one guaranteed for Halley steps; slower family
    members (Newton in particular) may fail the audit while converging
    perfectly well, and the report records that honestly. The closed-form
    certificate is only available for the reference setup (power 3,
    forcing 1); other specs solve without one.
    """
    problem = discretize(spec)
    # F(0) = -f exactly (W 0 = 0), so a user forcing runs once per node
    u0 = (np.ones(spec.nodes) if spec.forcing is None
          else -problem.eval_f(np.zeros(spec.nodes)))

    if coeffs is None:
        trace = halley_solve(problem, u0, tol=tol, max_iters=max_iters)
    else:
        trace = family_solve(problem, u0, coeffs, tol=tol, max_iters=max_iters)

    cert: ConvergenceCertificate | None = None
    radius: float | None = None   # the existence radius, where one is known
    note = ""
    if spec.lam == 0.0:
        radius = 0.0
        note = "linear equation, the start point is the solution"
    elif spec.power != 3 or spec.forcing is not None:
        note = "no closed-form bounds for this forcing or power"
    else:
        beta, eta, lip = analytic_bounds(spec.lam)
        cert = kantorovich_certificate(CubicMajorant(beta, eta, lip))
        if cert.certified:
            radius = cert.t_star
        else:
            note = (f"criterion failed: beta = {cert.criterion_lhs:.6g} is not "
                    f"below {cert.criterion_rhs:.6g}")

    start_distance = _errors_to_final(trace)[0]
    containment_ok = (None if radius is None
                      else start_distance <= radius * _BOUND_SLACK + _NOISE_FLOOR)

    bounds: ErrorBoundReport | None = None
    if cert is not None and cert.certified and trace.converged:
        bounds = verify_error_bound(trace, cert)
    return HammersteinReport(
        spec=spec,
        trace=trace,
        certificate=cert,
        start_distance=start_distance,
        containment_ok=containment_ok,
        error_bounds=bounds,
        note=note,
    )
