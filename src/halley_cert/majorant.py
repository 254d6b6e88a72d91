"""Scalar majorizing functions and the one-dimensional Halley machinery.

A majorizing function h is a scalar convex model of a nonlinear operator. The
functions in this module locate its smallest positive zero t*, iterate the
scalar Halley map toward it, and extract the constants that drive a priori
error bounds. Everything downstream (certificates, the integral-equation
harness) reduces to these scalar computations.

The structural assumptions used throughout:

  A1: h(0) > 0, h''(0) > 0 and h'(0) = -1.
  A2: h'' is convex and strictly increasing on [0, R).
  A3: h has a zero in (0, R); at the smallest one, t*, the slope h'(t*) is
      strictly negative.

Each question of the theory (the zeros t* and t**, A2, the Q-cubic rate
constant) is one method of ``MajorantFunction``, answered numerically for
any h; the cubic and rational majorants override the first two with closed
forms. The Halley machinery (the step, the A1 check at 0 and the rate
constant) reads h, h' and h'' through one evaluation, ``terms``.

Every zero is estimated by one routine, monotone Newton, or by a closed
form. Under A2 h is convex, so Newton's method cannot overshoot a zero: it
rises monotonically from 0 to t*, and falls monotonically to t** from any
point past the minimum of h where h > 0. The minimum itself is the zero of
the convex h', which Newton on h' approaches the same way from above.

One rule then settles both radii in floats, for every majorant: each is
the sign edge of float h next to its estimate, found by ``_sign_edge``.
h(t**) <= 0 and h > 0 at the next float up, unless that float reaches R;
h(t*) >= 0 and h < 0 at the next float up, below t**. The edge is local:
near a zero float h is rounding noise and can change sign again a few
floats further on, so neither radius need be the last float of its sign,
and neither is decided against the exact zero of h.

The cubic majorant is solved in scale-free form: its slope h' has one
positive zero r1, and t = r1 tau gives h(t) = r1 g(tau) with g(tau) = b -
tau + a tau^2 + c tau^3, b = beta/r1, a = eta r1/2 and c = lip r1^2/6, where
h'(r1) = 0 reads 2a + 3c = 1. The coefficients are of order one for every
valid input. g is convex on tau >= 0 with its minimum at 1, so the zeros
exist iff g(1) <= 0, and Newton rises from g(0) = b >= 0 to tau*, and falls
from tau = 4, where g(4) = b + 4 + 40c > 0, to tau**.

The roots of each majorant are cached, up to 1,024 majorants, so repeated
inputs such as the table1 couplings find them once; ``certificate`` caches
the radii, rate constant and schedule per (majorant, seq_len) with the same
bound.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import AssumptionError, DegenerateRootError, NoRootError

__all__ = [
    "MajorantFunction",
    "CubicMajorant",
    "SmaleMajorant",
    "CallableMajorant",
    "AssumptionReport",
    "MajorizingSequence",
    "check_assumptions",
    "smallest_root",
    "uniqueness_radius",
    "halley_ratio",
    "halley_map",
    "majorizing_sequence",
    "cubic_error_constant",
    "SMALE_CRITERION_BOUND",
]

_SLOPE_FLOOR = 1e-12
_EPS = math.ulp(1.0)
_NORMAL_MIN = sys.float_info.min
# g(1) within this of 0 is the criterion boundary, where the zeros merge
_MERGE_TOL = 16.0 * _EPS

# alpha = beta * gamma must stay below this for the rational majorant to
# have two positive zeros.
SMALE_CRITERION_BOUND = 3.0 - 2.0 * math.sqrt(2.0)

# Points of the grid on which A2 is sampled when no closed form decides it.
_A2_GRID_SIZE = 64

# Entries kept by each LRU cache of a majorant's answers: here the roots and
# the minimum of h, which roots() and a2_holds both read, and in
# ``certificate`` the radii, rate and schedule of a certified (h, seq_len).
# Repeated inputs, such as the table1 couplings, hit them, while a sweep over
# distinct inputs cannot grow them without bound.
_ROOTS_CACHE_SIZE = 1024


class MajorantFunction:
    """A scalar majorizing function h on [0, R) and the three questions the
    semilocal theorem asks of it.

    Subclasses provide h, h', h'' and ``third_deriv``, the left derivative
    of h''. ``terms`` returns the first three from one call; see there for
    when a subclass overrides it. Each question is one method whose body
    here is the generic numeric answer: ``roots`` runs monotone Newton for
    t* and t**, ``a2_holds`` samples h'' on a grid, and ``rate_constant``
    evaluates the paper's formula at t*. ``CubicMajorant`` and
    ``SmaleMajorant`` override the first two with closed forms; the rate
    constant has one body for every h.
    """

    @property
    def domain_bound(self) -> float:
        """Right end R of the domain [0, R)."""
        return math.inf

    def value(self, t: float) -> float:
        raise NotImplementedError

    def deriv(self, t: float) -> float:
        raise NotImplementedError

    def second_deriv(self, t: float) -> float:
        raise NotImplementedError

    def third_deriv(self, t: float) -> float:
        """Left derivative of h'' at t: the third derivative where h has one."""
        raise NotImplementedError

    def terms(self, t: float) -> tuple[float, float, float]:
        """(h(t), h'(t), h''(t)): the one evaluation that the Halley step,
        the A1 check at 0 and the rate constant read.

        This body calls the three methods. A subclass may override it with
        the expressions of its value, deriv and second_deriv in one body,
        bit for bit; a subclass that redefines any of those three without
        redefining terms gets this body back, so terms always agrees with
        them.
        """
        return self.value(t), self.deriv(t), self.second_deriv(t)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "terms" not in own and any(n in own for n in ("value", "deriv", "second_deriv")):
            cls.terms = MajorantFunction.terms

    def roots(self) -> tuple[float, float]:
        """(t*, t**): the smallest zero of h and the uniqueness radius
        sup {t in [t*, R): h(t) <= 0}, which is R itself where h stays
        nonpositive up to R.

        Finds the minimum t_min of h (``_minimum``) and raises NoRootError
        where h(t_min) > 0, which is exactly the failure of the convergence
        criterion. Newton then rises from 0 to t*, and falls to t** from the
        first point with h > 0 that doubling finds above t_min. Both radii
        then sit at the sign edge of float h next to their estimates
        (``_radii``): h(t**) <= 0 < h at the next float up, and h(t*) >= 0 >
        h at the next float up.
        """
        h0 = self.value(0.0)
        if h0 < 0.0:
            raise NoRootError(f"h(0) = {h0} is negative, no majorizing zero to find")
        bound = self.domain_bound
        t_min = _minimum(self)
        # where h' < 0 up to R, h is least at the last float below R
        edge = math.nextafter(bound, 0.0) if t_min is None else t_min
        if self.value(edge) > 0.0:
            raise NoRootError(
                f"h stays positive on [0, {edge:.6g}]; the convergence criterion fails")

        def f(t: float) -> tuple[float, float]:
            return self.value(t), self.deriv(t)

        t_star = _monotone_newton(f, 0.0, edge)
        t = edge
        while True:
            t, last = _toward(t, bound), t
            if not last < t < bound:
                # h stays nonpositive up to R, which is t** itself
                return _sign_edge(self, t_star, _nonnegative, bound), bound
            if self.value(t) > 0.0:
                return _radii(self, t_star, _monotone_newton(f, t, edge))

    def a2_holds(self, t_star: float | None, notes: list[str]) -> bool:
        """Whether A2 holds; appends to ``notes`` why not.

        Tests monotonicity and midpoint convexity of h'' on a uniform grid
        of 64 points over [0, min(R, T)], where T is twice the minimum of h,
        or twice t* when the minimum is out of reach, or else 1.
        """
        t_min = _minimum(self)
        if t_min is not None:
            extent = 2.0 * t_min
        elif t_star is not None and t_star > 0.0:
            extent = 2.0 * t_star
        else:
            extent = 1.0
        bound = self.domain_bound
        if math.isfinite(bound):
            extent = min(extent, bound * (1.0 - 1e-9))

        ok = True
        try:
            grid = np.linspace(0.0, extent, _A2_GRID_SIZE)
            vals = np.array([self.second_deriv(float(t)) for t in grid])
            scale = max(1.0, float(np.max(np.abs(vals))))
            diffs = np.diff(vals)
            if not (np.all(diffs > -1e-12 * scale) and vals[-1] > vals[0]):
                ok = False
                notes.append("h'' is not strictly increasing on the sample grid")
            mid_excess = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
            if not np.all(mid_excess <= 1e-12 * scale):
                ok = False
                notes.append("h'' fails midpoint convexity on the sample grid")
        except Exception as exc:  # diagnostic, not a crash
            ok = False
            notes.append(f"h'' evaluation failed on [0, {extent:.6g}]: {exc}")
        return ok

    def rate_constant(self) -> float:
        """The Q-cubic rate constant C, with t* - t_{k+1} <= C (t* - t_k)^3.

        C = (1/3) (h''(t*) / h'(t*))^2 + (2/9) D-h''(t*) / (-h'(t*)), where
        D-h'' is the left derivative of h'' (``third_deriv``). It is written
        with products, not powers, so it is +inf where C exceeds the float
        range. Raises DegenerateRootError at the criterion boundary, where
        h'(t*) vanishes.
        """
        t_star = smallest_root(self)
        _, slope, second = self.terms(t_star)
        if slope >= -_SLOPE_FLOOR:
            raise DegenerateRootError(
                f"h'(t*) = {slope:.6g} is not strictly negative; the rate constant "
                "degenerates at the criterion boundary")
        ratio = second / slope
        return ratio * (ratio / 3.0) + (2.0 / 9.0) * self.third_deriv(t_star) / (-slope)


@dataclass(frozen=True)
class CubicMajorant(MajorantFunction):
    """h(t) = beta - t + (eta/2) t^2 + (lip/6) t^3 on [0, inf).

    This is the majorant induced by a Lipschitz bound ``lip`` on the scaled
    second derivative of the operator, with ``beta`` bounding the first scaled
    residual and ``eta`` the second derivative at the start point.
    """

    beta: float
    eta: float
    lip: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a nonnegative real, got {self.beta}")
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be a nonnegative real, got {self.eta}")
        if not (self.lip > 0.0 and math.isfinite(self.lip)):
            raise ValueError(f"lip must be a positive real, got {self.lip}")

    def value(self, t: float) -> float:
        # lip t t t: t^3 alone leaves the float range where lip t^3 does not
        return self.beta - t + 0.5 * self.eta * t * t + self.lip * t * t * t / 6.0

    def deriv(self, t: float) -> float:
        return -1.0 + self.eta * t + 0.5 * self.lip * t * t

    def second_deriv(self, t: float) -> float:
        return self.eta + self.lip * t

    def terms(self, t: float) -> tuple[float, float, float]:
        beta, eta, lip = self.beta, self.eta, self.lip
        return (beta - t + 0.5 * eta * t * t + lip * t * t * t / 6.0,
                -1.0 + eta * t + 0.5 * lip * t * t,
                eta + lip * t)

    def third_deriv(self, t: float) -> float:
        return self.lip

    def a2_holds(self, t_star: float | None, notes: list[str]) -> bool:
        """h'' = eta + lip t is affine, so convex, and lip > 0 makes it
        strictly increasing."""
        return True

    def criterion_bound(self) -> float:
        """Largest beta still compatible with a certified iteration."""
        try:
            square = self.eta ** 2 + 2.0 * self.lip
            s = math.sqrt(square)
            bound = 2.0 * (self.eta + 2.0 * s) / (3.0 * (self.eta + s) ** 2)
        except OverflowError:
            square = bound = 0.0
        if square >= _NORMAL_MIN and 0.0 < bound < math.inf:
            return bound
        # a square left the normal float range (subnormal, or 0 or nan
        # above): 2 (eta + 2s) / (3 u^2) with u = eta + s equals
        # (1 + s/u) / (3u) in halves of s, u
        half_s, half_u = self._halved_slope_terms()
        return (1.0 + half_s / half_u) / half_u / 3.0

    def slope_root(self) -> float:
        """The unique positive zero r1 of h', which separates t* from t**."""
        try:
            square = self.eta ** 2 + 2.0 * self.lip
            r1 = 2.0 / (self.eta + math.sqrt(square))
        except OverflowError:
            square = r1 = 0.0
        if square >= _NORMAL_MIN and r1 > 0.0:
            return r1
        return 1.0 / self._halved_slope_terms()[1]

    def _halved_slope_terms(self) -> tuple[float, float]:
        """s/2 and (eta + s)/2 for s = sqrt(eta^2 + 2 lip), free of squares,
        so finite for every valid eta and lip."""
        # sqrt(lip / 2) with one rounding: halving a subnormal lip would
        # round, and doubling a lip near the float maximum would overflow
        lip = self.lip
        root = math.sqrt(0.5 * lip) if lip >= 1.0 else 0.5 * math.sqrt(2.0 * lip)
        half_s = math.hypot(0.5 * self.eta, root)
        return half_s, 0.5 * self.eta + half_s

    def roots(self) -> tuple[float, float]:
        # the zeros of the scale-free cubic g (module docstring), in units of r1
        r1 = self.slope_root()
        b, a, c = self.beta / r1, 0.5 * self.eta * r1, self.lip * r1 * r1 / 6.0
        g_min = b - 1.0 + a + c
        if g_min > _MERGE_TOL:
            raise NoRootError(
                f"h stays positive: its minimum is r1 g(1) with g(1) = {g_min:.6g}; "
                "the convergence criterion fails")
        if g_min >= -_MERGE_TOL:
            # the criterion boundary: the zeros merge at r1 within rounding
            return _radii(self, r1, r1)

        def g(tau: float) -> tuple[float, float]:
            return b - tau + tau * tau * (a + c * tau), tau * (2.0 * a + 3.0 * c * tau) - 1.0

        return _radii(self, r1 * _monotone_newton(g, 0.0, 1.0),
                      r1 * _monotone_newton(g, 4.0, 1.0))


@dataclass(frozen=True)
class SmaleMajorant(MajorantFunction):
    """h(t) = beta - t + gamma t^2 / (1 - gamma t) on [0, 1/gamma).

    The analytic-function majorant. All derivatives are available in closed
    form: h''(t) = 2 gamma / (1 - gamma t)^3 and h''' likewise.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a nonnegative real, got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be a positive real, got {self.gamma}")

    @property
    def domain_bound(self) -> float:
        return 1.0 / self.gamma

    @property
    def alpha(self) -> float:
        return self.beta * self.gamma

    def value(self, t: float) -> float:
        return self.beta - t + self.gamma * t * t / (1.0 - self.gamma * t)

    def deriv(self, t: float) -> float:
        return 1.0 / (1.0 - self.gamma * t) ** 2 - 2.0

    def second_deriv(self, t: float) -> float:
        return 2.0 * self.gamma / (1.0 - self.gamma * t) ** 3

    def terms(self, t: float) -> tuple[float, float, float]:
        gamma = self.gamma
        d = 1.0 - gamma * t
        return self.beta - t + gamma * t * t / d, 1.0 / d ** 2 - 2.0, 2.0 * gamma / d ** 3

    def third_deriv(self, t: float) -> float:
        # gamma gamma: the product overflows to inf, where gamma ** 2 raises
        return 6.0 * self.gamma * self.gamma / (1.0 - self.gamma * t) ** 4

    def a2_holds(self, t_star: float | None, notes: list[str]) -> bool:
        """h'' = 2 gamma / (1 - gamma t)^3 with gamma > 0 is a positive
        power of 1 / (1 - gamma t), which is convex and increasing on
        [0, 1/gamma), so h'' is convex and strictly increasing."""
        return True

    def criterion_bound(self) -> float:
        """Criterion threshold for alpha = beta * gamma."""
        return SMALE_CRITERION_BOUND

    def roots(self) -> tuple[float, float]:
        a = self.alpha
        disc = (1.0 + a) ** 2 - 8.0 * a
        if disc <= -64.0 * _EPS * (1.0 + a) ** 2:
            raise NoRootError(
                f"h stays positive: alpha = {a:.6g} is past 3 - 2 sqrt(2); "
                "the convergence criterion fails")
        # a slightly negative disc is rounding at the criterion boundary,
        # where the two roots collide into a double root
        s = math.sqrt(max(disc, 0.0))
        # the roots of 2 gamma t^2 - (1 + alpha) t + beta multiply to
        # beta / (2 gamma); t* from that product does not cancel for small
        # alpha, where (1 + alpha - s) / (4 gamma) does. Halving the sum, not
        # doubling beta, keeps t* finite wherever the true t* is.
        return _radii(self, self.beta / (0.5 * (1.0 + a + s)),
                      (1.0 + a + s) / (4.0 * self.gamma))


@dataclass(frozen=True)
class CallableMajorant(MajorantFunction):
    """Majorant assembled from user-supplied evaluation rules.

    ``bound`` is R, the right end of the domain [0, R): positive, or inf.
    ``third_deriv_fn`` is the left derivative of h''; without it the
    majorant has no rate constant.
    """

    value_fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]
    second_deriv_fn: Callable[[float], float]
    bound: float = math.inf
    third_deriv_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if not self.bound > 0.0:
            raise ValueError(f"bound must be a positive real or inf, got {self.bound}")

    @property
    def domain_bound(self) -> float:
        return self.bound

    def value(self, t: float) -> float:
        return float(self.value_fn(t))

    def deriv(self, t: float) -> float:
        return float(self.deriv_fn(t))

    def second_deriv(self, t: float) -> float:
        return float(self.second_deriv_fn(t))

    def third_deriv(self, t: float) -> float:
        if self.third_deriv_fn is None:
            raise NotImplementedError(
                "no third_deriv_fn: the rate constant needs the left derivative of h''")
        return float(self.third_deriv_fn(t))


@dataclass(frozen=True, slots=True)
class AssumptionReport:
    """Outcome of checking A1, A2, A3 for one majorant."""

    a1_holds: bool
    a2_holds: bool
    a3_holds: bool
    t_star: float | None
    h_prime_at_t_star: float | None
    diagnostics: tuple[str, ...] = ()

    @property
    def all_hold(self) -> bool:
        return self.a1_holds and self.a2_holds and self.a3_holds


@dataclass(frozen=True, slots=True)
class MajorizingSequence:
    """The scalar iteration t_{k+1} = H_h(t_k) from t_0 = 0.

    ``gaps[k]`` is the a priori error budget t* - t_k available at step k.
    ``converged_at`` is the first index whose gap fell below the tolerance,
    or None if the iteration stopped for another reason.
    """

    points: tuple[float, ...]
    t_star: float
    gaps: tuple[float, ...]
    converged_at: int | None


# ---------------------------------------------------------------------------
# root finding


def _monotone_newton(f: Callable[[float], tuple[float, float]], t: float,
                     limit: float) -> float:
    """Newton's method on a convex function, given as t -> (value, slope),
    from t toward its zero on the side of ``limit``: rising where t < limit,
    falling otherwise.

    Convexity keeps every step on the side of the zero it started on, so
    the iteration stops where rounding turns a step back or carries it past
    ``limit``. Where the zero is nearly double it converges linearly, in up
    to about 30 steps; 100 caps it."""
    rising = t < limit
    for _ in range(100):
        value, slope = f(t)
        if slope == 0.0 or (slope < 0.0) != rising:
            break
        nxt = t - value / slope
        if not (t < nxt <= limit if rising else limit <= nxt < t):
            break
        t = nxt
    return t


def _toward(t: float, bound: float) -> float:
    """The next probe up from t: 2t, or halfway to a finite R where nearer."""
    return min(2.0 * t, t + 0.5 * (bound - t))


@lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _minimum(h: MajorantFunction) -> float | None:
    """The zero of h' in (0, R), where h is least, or None where h' stays
    negative up to R.

    From 1, or R/2 on a finite domain, probes double (``_toward``) or halve
    until h' >= 0 within a factor of 2 of the zero; Newton on the convex h'
    falls from there."""
    bound = h.domain_bound
    hi = 1.0 if math.isinf(bound) else 0.5 * bound
    if h.deriv(hi) >= 0.0:
        lo = 0.5 * hi
        while lo > 0.0 and h.deriv(lo) >= 0.0:
            hi, lo = lo, 0.5 * lo
    else:
        while True:
            lo, hi = hi, _toward(hi, bound)
            if not lo < hi < bound:
                return None
            if h.deriv(hi) >= 0.0:
                break
    return _monotone_newton(lambda t: (h.deriv(t), h.second_deriv(t)), hi, lo)


def _sign_edge(h: MajorantFunction, t: float, keep: Callable[[float], bool],
               limit: float) -> float:
    """The float next to the estimate t, below ``limit``, where float h
    stops having the sign ``keep`` wants: keep(h(e)) holds, and fails at the
    next float up unless that float reaches ``limit``.

    The search runs up toward ``limit`` while the sign holds at t and down
    while it fails. Near a double root h is flat and a stretch of one sign
    can span thousands of floats, so strides double from one unit in the
    last place and bisection then closes on the edge. A zero result is
    +0.0. Raises DegenerateRootError when no float in (0, t] has the sign,
    as at the criterion boundary, where t* and t** merge in floating point
    and h stays positive on every float. Raises NoRootError when t is not
    finite: the zero lies past the float range.
    """
    if not math.isfinite(t):
        raise NoRootError(
            f"the zero of h is not a finite float ({t!r}); it lies past the float range")
    last = math.nextafter(limit, 0.0)
    t = min(t, last) + 0.0   # + 0.0 turns -0.0 into 0.0
    stride = math.ulp(t)
    if keep(h.value(t)):
        lo = t
        while lo < last:
            hi = min(t + stride, last)
            if not keep(h.value(hi)):
                break
            lo, stride = hi, 2.0 * stride
        else:
            return lo
    else:
        hi = t
        smallest = math.nextafter(0.0, 1.0)
        while True:
            lo = max(t - stride, smallest)
            if lo >= hi:
                raise DegenerateRootError(
                    f"no float in (0, {t!r}] gives h the sign wanted at a zero; "
                    "the zeros of h have merged in floating point")
            if keep(h.value(lo)):
                break
            hi, stride = lo, 2.0 * stride
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return lo
        if keep(h.value(mid)):
            lo = mid
        else:
            hi = mid


def _nonnegative(v: float) -> bool:
    return v >= 0.0


def _nonpositive(v: float) -> bool:
    return v <= 0.0


def _radii(h: MajorantFunction, t_lo: float, t_hi: float) -> tuple[float, float]:
    """(t*, t**) from estimates of the two zeros of h, each at the sign edge
    of float h next to its estimate: h(t**) <= 0, with h > 0 at the next
    float up unless that float reaches R, and h(t*) >= 0, with h < 0 at the
    next float up, below t**. Float h may take either sign again further up.
    Equal estimates are zeros merged within rounding. They stay one float,
    the estimate, only where float h is 0 there, which t* and t** both
    need; elsewhere the two edges are found as for separate estimates. So
    where float h < 0 at the estimate, t* < estimate <= t**, and where
    float h > 0 there and on every float below it that ``_sign_edge``
    tries, no float is a zero of h and DegenerateRootError is raised."""
    if t_lo == t_hi and h.value(t_lo) == 0.0:
        return t_lo, t_lo
    t_hi = _sign_edge(h, t_hi, _nonpositive, h.domain_bound)
    return _sign_edge(h, t_lo, _nonnegative, t_hi), t_hi


@lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _cached_roots(h: MajorantFunction) -> tuple[float, float]:
    return h.roots()


def smallest_root(h: MajorantFunction) -> float:
    """Smallest t in [0, R) with h(t) = 0, as the float below t** next to
    the estimate of that zero where float h(t*) >= 0 and h is negative at
    the next float up. Its accuracy is that of h: a rounding error delta in
    h(t*) moves t* by about delta / |h'(t*)|, which grows near the criterion
    boundary, where h'(t*) tends to 0.

    The first of ``h.roots()``, cached per majorant (up to 1,024 of them).
    Raises NoRootError when h never crosses zero, which is exactly the
    failure of the convergence criterion.
    """
    return _cached_roots(h)[0]


def uniqueness_radius(h: MajorantFunction) -> float:
    """sup of the set {t in [t*, R): h(t) <= 0}, the uniqueness radius.

    For both concrete majorants this is the second zero t**, as the float
    below R next to the estimate of that zero where float h(t**) <= 0 and h
    is positive at the next float up. If h stays nonpositive all the way
    to R, R itself is returned and a warning notes that the supremum is not
    attained.
    """
    radius = _cached_roots(h)[1]
    if radius == h.domain_bound:
        warnings.warn("h never returns to positive values before the domain edge; "
                      "reporting the edge, the supremum is not attained", RuntimeWarning)
    return radius


# ---------------------------------------------------------------------------
# the scalar Halley machinery


def halley_ratio(h: MajorantFunction, t: float) -> float:
    """The ratio L_h(t) = h(t) h''(t) / (2 h'(t)^2).

    On [0, t*] of a valid majorant this lies in [0, 1/4]; it measures how far
    the Halley correction deviates from the Newton one.
    """
    value, slope, second = h.terms(t)
    if abs(slope) < 1e-300:
        raise DegenerateRootError(f"h'({t}) vanishes, ratio undefined")
    return value * second / (2.0 * slope * slope)


def halley_map(h: MajorantFunction, t: float) -> float:
    """One scalar Halley step from t, valid for 0 <= t < t*.

    Strictly increases toward t* and never overshoots it in exact arithmetic.
    """
    return _halley_step(h, t, smallest_root(h))


def _halley_step(h: MajorantFunction, t: float, t_star: float) -> float:
    """``halley_map`` with t* already looked up: t - h / ((1 - L_h) h') from
    one ``terms`` evaluation, with L_h as in ``halley_ratio``."""
    if not (0.0 <= t < t_star):
        raise ValueError(f"t = {t} is outside [0, t*) with t* = {t_star}")
    value, slope, second = h.terms(t)
    if abs(slope) < 1e-300:
        raise DegenerateRootError(f"h'({t}) vanishes, ratio undefined")
    ratio = value * second / (2.0 * slope * slope)
    return t - value / ((1.0 - ratio) * slope)


def check_assumptions(h: MajorantFunction) -> AssumptionReport:
    """Check A1 exactly at 0, from one ``terms`` evaluation, A2 in closed
    form or on a grid, A3 via root finding.

    A2 is ``h.a2_holds``: proven by the validated parameters of
    ``CubicMajorant`` and ``SmaleMajorant``, sampled on a grid otherwise.
    The criterion boundary, where h'(t*) = 0, is reported as a failure of
    A3.
    """
    notes: list[str] = []

    h0: float | None = None
    a1 = True
    try:
        h0, hp0, hpp0 = h.terms(0.0)
    except Exception as exc:  # diagnostic, not a crash
        a1 = False
        notes.append(f"evaluation at t = 0 failed: {exc}")
    else:
        if not h0 > 0.0:
            a1 = False
            notes.append(f"h(0) = {h0:.6g} is not positive")
        if not hpp0 > 0.0:
            a1 = False
            notes.append(f"h''(0) = {hpp0:.6g} is not positive")
        if not abs(hp0 + 1.0) <= 1e-12:
            a1 = False
            notes.append(f"h'(0) = {hp0:.6g} differs from -1")

    # A3 first: its root, if any, also sets the extent of the A2 grid.
    t_star: float | None = None
    slope: float | None = None
    if h0 is not None and h0 == 0.0:
        t_star = 0.0
        slope = hp0
        notes.append("h(0) = 0: start point is already the zero")
    elif h0 is not None and h0 > 0.0:
        try:
            t_star = smallest_root(h)
            slope = h.deriv(t_star)
        except (NoRootError, DegenerateRootError) as exc:
            notes.append(str(exc))
    a3 = t_star is not None and t_star > 0.0 and slope is not None \
        and slope < -_SLOPE_FLOOR
    if t_star is not None and t_star > 0.0 and slope is not None \
            and not slope < -_SLOPE_FLOOR:
        notes.append(f"h'(t*) = {slope:.6g} is not strictly negative "
                     "(criterion boundary)")

    a2 = h.a2_holds(t_star, notes)

    return AssumptionReport(
        a1_holds=a1,
        a2_holds=a2,
        a3_holds=a3,
        t_star=t_star,
        h_prime_at_t_star=slope,
        diagnostics=tuple(notes),
    )


def majorizing_sequence(h: MajorantFunction, max_iters: int = 25,
                        tol: float = 1e-12) -> MajorizingSequence:
    """Iterate the Halley map from t_0 = 0 until the gap to t* closes.

    Stops when t* - t_k < tol (recorded in ``converged_at``), when the step
    t_{k+1} - t_k drops below tol * t* (stagnation near the float ceiling),
    or after max_iters steps. Raises AssumptionError when A1, A2 or A3 fails.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    report = check_assumptions(h)
    if not report.all_hold:
        raise AssumptionError(report)
    t_star = report.t_star   # A3 holds, so this is smallest_root(h)

    t = 0.0
    points = [t]
    converged_at: int | None = None
    stagnated = False
    while True:
        if t_star - t < tol:
            converged_at = len(points) - 1
            break
        if stagnated or len(points) > max_iters:
            break
        nxt = _halley_step(h, t, t_star)
        if nxt >= t_star:
            # rounding pushed past the root; settle on the largest float below
            nxt = math.nextafter(t_star, 0.0)
        step = nxt - t
        if step <= 0.0:
            break
        points.append(nxt)
        t = nxt
        if step < tol * t_star:
            stagnated = True

    gaps = tuple([t_star - p for p in points])
    return MajorizingSequence(points=tuple(points), t_star=t_star,
                              gaps=gaps, converged_at=converged_at)


def cubic_error_constant(h: MajorantFunction) -> float:
    """The Q-cubic rate constant of h at t*: ``h.rate_constant()``."""
    return h.rate_constant()
