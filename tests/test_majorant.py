from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halley_cert import (
    AssumptionError,
    CallableMajorant,
    CubicMajorant,
    DegenerateRootError,
    KantorovichInputs,
    NoRootError,
    SmaleInputs,
    SmaleMajorant,
    check_assumptions,
    cubic_error_constant,
    halley_map,
    halley_ratio,
    kantorovich_certificate,
    majorizing_sequence,
    smale_certificate,
    smallest_root,
    uniqueness_radius,
)
from halley_cert import majorant
from halley_cert.certificate import _certified_parts
from halley_cert.majorant import _cached_roots, _sign_edge
from helpers import (
    SMALE_BOUND,
    closed_form_rate_constant,
    oracle_roots,
    random_certified_cubic,
    random_certified_smale,
)

TABLE_CUBIC = CubicMajorant(0.2, 1.2, 1.2)
TABLE_SMALE = SmaleMajorant(0.1, 0.5)


def _callable_copy(h) -> CallableMajorant:
    """h with its closed forms stripped off: only the generic methods remain."""
    return CallableMajorant(value_fn=h.value, deriv_fn=h.deriv,
                            second_deriv_fn=h.second_deriv, bound=h.domain_bound,
                            third_deriv_fn=h.third_deriv)


def _scaled_majorant(log_eta, log_lip, log_gamma, log_share, cubic):
    """A cubic (eta, lip) or Smale (gamma) majorant whose beta is the share
    10 ** log_share of its criterion bound."""
    share = 10.0 ** log_share
    if cubic:
        eta, lip = 10.0 ** log_eta, 10.0 ** log_lip
        return CubicMajorant(CubicMajorant(0.0, eta, lip).criterion_bound() * share, eta, lip)
    gamma = 10.0 ** log_gamma
    return SmaleMajorant(SMALE_BOUND * share / gamma, gamma)


def _assert_generic_roots_match(h):
    # relative only: pytest.approx would also pass anything within 1e-12
    for got, want in zip(_callable_copy(h).roots(), h.roots()):
        assert abs(got - want) <= 1e-14 * want


def test_cubic_pointwise_identities():
    h = TABLE_CUBIC
    assert h.value(0.0) == 0.2
    assert h.deriv(0.0) == -1.0
    assert h.second_deriv(0.0) == 1.2
    assert h.third_deriv(1.7) == 1.2
    assert math.isinf(h.domain_bound)
    t = 0.37
    assert h.value(t) == pytest.approx(0.2 - t + 0.6 * t * t + 0.2 * t ** 3, rel=1e-15)


def test_smale_pointwise_identities():
    h = TABLE_SMALE
    assert h.value(0.0) == 0.1
    assert h.deriv(0.0) == -1.0
    assert h.second_deriv(0.0) == 1.0
    assert h.domain_bound == 2.0
    assert h.alpha == 0.05
    t = 0.3
    q = 1.0 - 0.5 * t
    assert h.second_deriv(t) == pytest.approx(1.0 / q ** 3, rel=1e-15)
    assert h.third_deriv(t) == pytest.approx(1.5 / q ** 4, rel=1e-15)


def test_constructor_validation():
    with pytest.raises(ValueError):
        CubicMajorant(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        CubicMajorant(0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        CubicMajorant(0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        CubicMajorant(math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        SmaleMajorant(0.1, 0.0)
    with pytest.raises(ValueError):
        SmaleMajorant(math.nan, 1.0)
    parts = dict(value_fn=TABLE_CUBIC.value, deriv_fn=TABLE_CUBIC.deriv,
                 second_deriv_fn=TABLE_CUBIC.second_deriv)
    for bound in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="bound"):
            CallableMajorant(**parts, bound=bound)


def test_criterion_bound_value():
    # largest residual bound compatible with eta = lip = 1.2
    assert TABLE_CUBIC.criterion_bound() == pytest.approx(0.3418593726458156, rel=1e-12)


def test_slope_root_is_critical_point():
    for h in (TABLE_CUBIC, CubicMajorant(0.01, 0.3, 2.5)):
        r1 = h.slope_root()
        assert abs(h.deriv(r1)) < 1e-12


def test_cubic_closed_roots_table_row():
    """The lam = 1 cubic factors as 0.2 (t - 1)(t^2 + 4t - 1)."""
    t_star, t_outer = TABLE_CUBIC.roots()
    assert t_star == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-14)
    assert t_outer == pytest.approx(1.0, abs=1e-14)
    assert TABLE_CUBIC.value(t_star) >= 0.0
    assert TABLE_CUBIC.value(t_outer) <= 0.0
    assert abs(TABLE_CUBIC.value(t_star)) <= 1e-14


def test_smale_closed_roots_frozen():
    t_star, t_outer = TABLE_SMALE.roots()
    assert t_star == pytest.approx(0.10592363464399479, abs=1e-14)
    assert t_outer == pytest.approx(0.9440763653560053, abs=1e-13)


def _smale_t_star_reference(beta: float, gamma: float) -> float:
    """t* = (1 + alpha - sqrt((1 + alpha)^2 - 8 alpha)) / (4 gamma) in 50 digits."""
    with mpmath.workdps(50):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        a = b * g
        return float((1 + a - mpmath.sqrt((1 + a) ** 2 - 8 * a)) / (4 * g))


@pytest.mark.parametrize("beta, gamma", [
    # (1 + alpha - s) / (4 gamma) cancels here: to 0 and to 9.25e-18
    (1e-20, 1.0), (1e-17, 3.0),
    # beta / ((1 + alpha + s) / 2) lands two floats below the zero here
    (0.694, 0.209), (0.175, 0.726),
    # 2 beta overflows here, the true t* = 1.42e308 does not
    (9e307, 1.889e-309)])
def test_smale_t_star_is_the_float_nearest_the_zero(beta, gamma):
    h = SmaleMajorant(beta, gamma)
    t_star = h.roots()[0]
    assert t_star == _smale_t_star_reference(beta, gamma)
    assert h.value(t_star) >= 0.0 > h.value(math.nextafter(t_star, math.inf))
    cert = smale_certificate(SmaleInputs(beta, gamma))
    assert cert.certified and cert.t_star == t_star > 0.0
    assert t_star < cert.uniqueness_radius < math.inf
    assert len(cert.sequence.points) >= 1
    assert cert.apriori_errors[0] == t_star


def test_smale_zero_past_the_float_range_is_no_root():
    # t** is about 1 / (2 gamma) = 5e308, past the largest float
    with pytest.raises(NoRootError, match="float range"):
        SmaleMajorant(1e-300, 1e-309).roots()


def test_smale_double_root_at_boundary():
    gamma = 0.7
    h = SmaleMajorant(SMALE_BOUND / gamma, gamma)
    t_star, t_outer = h.roots()
    expected = (1.0 + SMALE_BOUND) / (4.0 * gamma)
    # the discriminant sits at rounding scale, so the colliding roots can
    # split by sqrt(eps) relative
    assert t_star == pytest.approx(expected, rel=1e-7)
    assert t_outer == pytest.approx(expected, rel=1e-7)
    assert t_star <= t_outer


def test_roots_keep_their_sign_where_the_majorant_is_flat():
    # h' is 5e-4 at t**, so the float closed form sits about 5,000 floats
    # above the last float with h <= 0, beyond a float-by-float walk
    h = SmaleMajorant(beta=0.2612764718455344, gamma=0.6566716579716894)
    t_star, t_outer = h.roots()
    assert h.value(t_star) >= 0.0
    assert h.value(t_outer) <= 0.0
    assert h.value(math.nextafter(t_outer, 1.0)) > 0.0
    assert t_star < t_outer
    assert uniqueness_radius(h) == t_outer


def test_nudge_without_a_float_of_the_wanted_sign_raises():
    h = CubicMajorant(0.2, 1.2, 1.2)
    # h > 0 on all of (0, t*/2]
    with pytest.raises(DegenerateRootError):
        _sign_edge(h, 0.5 * smallest_root(h), lambda v: v <= 0.0, math.inf)
    with pytest.raises(DegenerateRootError):
        _sign_edge(h, 0.0, lambda v: v < 0.0, math.inf)
    # a zero past the float range: no stride from inf or nan ever lands
    for t in (math.inf, math.nan):
        with pytest.raises(NoRootError, match="float range"):
            _sign_edge(h, t, lambda v: v >= 0.0, math.inf)


def _float_above(t, k):
    for _ in range(k):
        t = math.nextafter(t, math.inf)
    return t


def test_radii_are_local_sign_edges_not_the_last_float_of_their_sign():
    # each radius is the sign edge next to its estimate; float h is rounding
    # noise near a zero and takes the kept sign again a few floats further up
    h = CubicMajorant(0.23921713917748896, 1.9765650694775418, 0.7208895600460984)
    t_star, t_out = h.roots()
    assert (t_star, t_out) == (0.46291340195693276, 0.46964576905723787)
    assert h.value(t_star) >= 0.0 > h.value(_float_above(t_star, 1))
    assert h.value(_float_above(t_star, 38)) == 0.0
    assert _float_above(t_star, 38) < t_out
    assert h.value(t_out) <= 0.0 < h.value(_float_above(t_out, 1))
    assert h.value(_float_above(t_out, 7)) == 0.0


class _ShiftedCubic(CubicMajorant):
    """Redefines value alone, so it must get the generic terms back."""

    def value(self, t):
        return CubicMajorant.value(self, t) + 1.0


class _ShiftedSmale(SmaleMajorant):
    """Redefines value alone, so it must get the generic terms back."""

    def value(self, t):
        return SmaleMajorant.value(self, t) + 1.0


def _hex_or_error(evaluate, t):
    try:
        return tuple(v.hex() for v in evaluate(t))
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(log_eta=st.floats(-100.0, 100.0), log_lip=st.floats(-100.0, 100.0),
       log_gamma=st.floats(-100.0, 100.0), log_share=st.floats(-6.0, math.log10(0.999)),
       cubic=st.booleans(), share=st.floats(0.0, 1.0, exclude_max=True),
       log_scale=st.floats(-110.0, 110.0), below=st.integers(0, 3))
def test_terms_is_value_deriv_and_second_deriv_bit_for_bit(
        log_eta, log_lip, log_gamma, log_share, cubic, share, log_scale, below):
    h = _scaled_majorant(log_eta, log_lip, log_gamma, log_share, cubic)
    if cubic:
        t = share * 10.0 ** log_scale
    elif below:
        # the floats just below 1/gamma, where 1 - gamma t cancels
        t = h.domain_bound
        for _ in range(below):
            t = math.nextafter(t, 0.0)
    else:
        t = share * h.domain_bound
    shifted = (_ShiftedCubic if cubic else _ShiftedSmale)(*dataclasses.astuple(h))
    assert type(shifted).terms is majorant.MajorantFunction.terms
    for g in (h, shifted):
        assert _hex_or_error(g.terms, t) == _hex_or_error(
            lambda t: (g.value(t), g.deriv(t), g.second_deriv(t)), t)

def _exact_h(h, t):
    """h(t) of a cubic or Smale majorant in exact rationals, and 4 units of
    roundoff of the sum of the magnitudes of its terms, the allowance of the
    bench's certify oracle."""
    t = Fraction(t)
    if isinstance(h, CubicMajorant):
        beta, eta, lip = map(Fraction, (h.beta, h.eta, h.lip))
        terms = (beta, -t, eta * t * t / 2, lip * t ** 3 / 6)
    else:
        beta, gamma = map(Fraction, (h.beta, h.gamma))
        terms = (beta, -t, gamma * t * t / (1 - gamma * t))
    return sum(terms), sum(map(abs, terms)) * Fraction(4.0 * 2.0 ** -53)


def _exact_cubic(args, t):
    """``_exact_h`` of the cubic majorant with an allowance that also counts
    8 of the smallest subnormals, the absolute floor of rounding below the
    normals."""
    value, allow = _exact_h(CubicMajorant(*args), t)
    return value, allow + 8 * Fraction(2.0 ** -1074)


def _assert_radii_bracket_the_zeros(args, t_star, t_out, rel):
    """t* and t** on the correct side of their zeros of h within the
    rounding allowance, and each within ``rel`` (or one float, where the
    floats are coarser) below its zero."""
    def past(t):
        return max(t * (1.0 + rel), math.nextafter(t, math.inf))

    (at_star, allow), (past_star, _) = _exact_cubic(args, t_star), _exact_cubic(args, past(t_star))
    assert at_star >= -allow and past_star < 0
    (at_out, allow), (past_out, _) = _exact_cubic(args, t_out), _exact_cubic(args, past(t_out))
    assert at_out <= allow and past_out > 0


@settings(max_examples=300, deadline=None)
@given(log_eta=st.floats(-100.0, 100.0), log_lip=st.floats(-100.0, 100.0),
       log_gamma=st.floats(-100.0, 100.0), log_share=st.floats(-6.0, math.log10(0.999)),
       cubic=st.booleans())
# a Kantorovich t* that Newton left below the last float with h >= 0
@example(log_eta=17.915427366133073, log_lip=-42.571018711284566, log_gamma=0.0,
         log_share=-0.014073343041888009, cubic=True)
def test_every_radius_sits_at_the_sign_edge_of_float_h(log_eta, log_lip, log_gamma,
                                                      log_share, cubic):
    h = _scaled_majorant(log_eta, log_lip, log_gamma, log_share, cubic)
    for g in (h, _callable_copy(h)):
        t_star, t_out = g.roots()
        up_star, up_out = math.nextafter(t_star, math.inf), math.nextafter(t_out, math.inf)
        # each radius is the local sign edge next to its estimate: h(t*) >= 0
        # and h < 0 at the next float up (or t** is reached), h(t**) <= 0 and
        # h > 0 at the next float up (or t** = R); float h may change sign
        # again further up
        assert g.value(t_star) >= 0.0
        assert up_star >= t_out or g.value(up_star) < 0.0
        assert g.value(t_out) <= 0.0
        assert t_out == g.domain_bound or g.value(up_out) > 0.0
        value, allow = _exact_h(h, t_star)
        assert value >= -allow
        value, allow = _exact_h(h, t_out)
        assert value <= allow


@settings(max_examples=300, deadline=None)
@given(log_eta=st.floats(-300.0, 307.0), log_lip=st.floats(-320.0, 307.0),
       log_share=st.floats(-30.0, math.log10(0.999)))
def test_cubic_certificates_over_the_float_range(log_eta, log_lip, log_share):
    eta, lip = 10.0 ** log_eta, 10.0 ** log_lip
    beta = CubicMajorant(0.0, eta, lip).criterion_bound() * 10.0 ** log_share
    cert = kantorovich_certificate(KantorovichInputs(beta, eta, lip))
    assert cert.certified
    assert cert.t_star < cert.uniqueness_radius
    _assert_radii_bracket_the_zeros((beta, eta, lip), cert.t_star, cert.uniqueness_radius,
                                    rel=1e-12)


def test_scalar_certificates_call_no_numpy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.roots ran")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(majorant, "np", None)
    _cached_roots.cache_clear()
    _certified_parts.cache_clear()
    for args in [(0.2, 1.2, 1.2), (1e-160, 2e154, 1.0), (2.51e-277, 3.47e153, 1.39e-162),
                 (2.383314231173618e-114, 6.088981369790589e-171, 4.1888287133226865e+226)]:
        assert kantorovich_certificate(KantorovichInputs(*args)).certified
    assert smale_certificate(SmaleInputs(0.1, 0.5)).certified
    for h in (TABLE_CUBIC, TABLE_SMALE):
        _assert_generic_roots_match(h)


def test_criterion_bound_where_the_slope_square_is_subnormal():
    # eta^2 + 2 lip is subnormal here, where its rounding moved the bound
    # by 1.4e-5; the square-free path keeps the scale-free g(1) = h(r1) / r1
    # at 0 within rounding
    eta, lip = 5.8e-161, 3.3e-320
    h = CubicMajorant(CubicMajorant(0.0, eta, lip).criterion_bound(), eta, lip)
    r1 = h.slope_root()
    g_at_1 = _exact_cubic((h.beta, eta, lip), r1)[0] / Fraction(r1)
    assert abs(g_at_1) <= 16 * Fraction(2.0 ** -52)


def test_cubic_roots_merge_at_the_criterion_boundary():
    h = CubicMajorant(TABLE_CUBIC.criterion_bound(), 1.2, 1.2)
    r1 = h.slope_root()
    # g(1) is within rounding of 0, but float h(r1) > 0: no float is a zero
    # of h, so the merged zeros are no radii
    assert h.value(r1) > 0.0
    for radius in (CubicMajorant.roots, smallest_root, uniqueness_radius):
        with pytest.raises(DegenerateRootError, match="merge"):
            radius(h)
    # one float lower, float h(r1) is 0: both zeros sit at the minimum r1
    below = CubicMajorant(math.nextafter(h.beta, 0.0), 1.2, 1.2)
    assert below.value(r1) == 0.0
    assert below.roots() == (r1, r1)
    # 40 floats below the bound the criterion holds and float h(r1) < 0: the
    # zeros merge within rounding, yet t* and t** are two sign edges
    near = CubicMajorant(0.3418593726458134, 1.2, 1.2)
    assert near.beta < near.criterion_bound() and near.value(r1) < 0.0
    t_star, t_far = near.roots()
    assert t_star < r1 <= t_far
    assert near.value(t_star) >= 0.0 > near.value(math.nextafter(t_star, math.inf))
    assert near.value(t_far) <= 0.0 < near.value(math.nextafter(t_far, math.inf))
    cert = kantorovich_certificate(KantorovichInputs(near.beta, 1.2, 1.2))
    assert cert.certified
    assert (cert.t_star, cert.uniqueness_radius) == (t_star, t_far)
    with pytest.raises(NoRootError):
        smallest_root(CubicMajorant(h.beta * (1.0 + 1e-12), 1.2, 1.2))


def test_merged_radii_below_the_criterion_bound_keep_their_signs():
    # beta 1 to 64 floats below the criterion bound: g(1) is within
    # _MERGE_TOL of 0, so roots() takes its merged branch; every certified
    # t** has float h <= 0 and every t* float h >= 0, each at its sign edge
    rng = np.random.default_rng(2023)
    merged = certified = 0
    for _ in range(200):
        eta, lip = rng.uniform(0.1, 3.0), math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        beta = CubicMajorant(1.0, eta, lip).criterion_bound()
        for _ in range(rng.integers(1, 65)):
            beta = math.nextafter(beta, 0.0)
        h = CubicMajorant(beta, eta, lip)
        r1 = h.slope_root()
        g_at_1 = beta / r1 - 1.0 + 0.5 * eta * r1 + lip * r1 * r1 / 6.0
        merged += abs(g_at_1) <= majorant._MERGE_TOL
        try:
            cert = kantorovich_certificate(h)
        except DegenerateRootError:
            continue   # h'(t*) is 0 in floats: the rate constant degenerates
        assert cert.certified
        t_star, t_far = cert.t_star, cert.uniqueness_radius
        assert t_star <= t_far
        assert h.value(t_star) >= 0.0 >= h.value(t_far)
        assert h.value(math.nextafter(t_far, math.inf)) > 0.0
        if t_star < t_far:
            assert h.value(math.nextafter(t_star, math.inf)) < 0.0
        certified += 1
    assert merged >= 100 and certified >= 190


def test_smale_beta_zero():
    h = SmaleMajorant(0.0, 2.0)
    t_star, t_outer = h.roots()
    assert t_star == 0.0
    assert t_outer == pytest.approx(0.25, abs=1e-15)


def test_smallest_root_no_root_errors():
    # beta above the criterion bound: h stays positive
    with pytest.raises(NoRootError):
        smallest_root(CubicMajorant(0.4, 1.2, 1.2))
    with pytest.raises(NoRootError):
        smallest_root(SmaleMajorant(1.0, 1.0))


def test_generic_root_finding_matches_closed_forms():
    """Strip the closed forms off via CallableMajorant; monotone Newton must agree."""
    for concrete in (TABLE_CUBIC, CubicMajorant(0.05, 0.4, 2.0), TABLE_SMALE):
        generic = _callable_copy(concrete)
        assert smallest_root(generic) == pytest.approx(smallest_root(concrete), abs=1e-12)
        assert uniqueness_radius(generic) == pytest.approx(
            uniqueness_radius(concrete), abs=1e-11)


@pytest.mark.parametrize("args", [(1e-3, 1e-12, 1e-30), (1e-30, 1e10, 1.0),
                                  (1e-200, 1e150, 1e100)])
def test_generic_roots_of_cubics_far_from_unit_scale(args):
    # t** = 2e12 lies far past unit scale, t* = 1e-30 far below it, and the
    # minimum of h at 1e-150 below every absolute tolerance
    _assert_generic_roots_match(CubicMajorant(*args))


@settings(max_examples=300, deadline=None)
@given(log_eta=st.floats(-100.0, 100.0), log_lip=st.floats(-100.0, 100.0),
       log_gamma=st.floats(-100.0, 100.0), log_share=st.floats(-3.0, math.log10(0.99)),
       cubic=st.booleans())
def test_generic_roots_match_closed_forms_at_every_scale(log_eta, log_lip, log_gamma,
                                                         log_share, cubic):
    _assert_generic_roots_match(
        _scaled_majorant(log_eta, log_lip, log_gamma, log_share, cubic))


def test_uniqueness_radius_supremum_not_attained():
    # h = 0.3 - t on [0, 2): negative all the way to the edge, so the
    # supremum is the domain bound itself and a warning is emitted.
    h = CallableMajorant(
        value_fn=lambda t: 0.3 - t,
        deriv_fn=lambda t: -1.0,
        second_deriv_fn=lambda t: 0.0,
        bound=2.0,
    )
    with pytest.warns(RuntimeWarning):
        rho = uniqueness_radius(h)
    assert rho == 2.0


def test_halley_ratio_values():
    assert halley_ratio(TABLE_CUBIC, 0.0) == pytest.approx(0.12, rel=1e-15)
    t_star = smallest_root(TABLE_CUBIC)
    assert halley_ratio(TABLE_CUBIC, t_star) == pytest.approx(0.0, abs=1e-12)


def test_halley_ratio_range_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_certified_cubic(rng) if rng.uniform() < 0.5 else random_certified_smale(rng)
        t_star = smallest_root(h)
        for t in np.linspace(0.0, t_star, 100):
            val = halley_ratio(h, float(t))
            assert 0.0 <= val <= 0.25 + 1e-12


def test_halley_map_frozen_values():
    assert halley_map(TABLE_CUBIC, 0.0) == pytest.approx(0.2 / 0.88, rel=1e-15)
    # l_h(0) = 0.1 * 1.0 / 2 = 0.05 for the Smale pair, so the first step
    # is 0.1 / 0.95
    assert halley_map(TABLE_SMALE, 0.0) == pytest.approx(0.10526315789473685, rel=1e-15)


def test_halley_map_monotone_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = random_certified_smale(rng) if rng.uniform() < 0.5 else random_certified_cubic(rng)
        t_star = smallest_root(h)
        for t in np.linspace(0.0, t_star, 50)[:-1]:
            nxt = halley_map(h, float(t))
            assert float(t) < nxt < t_star + 1e-15


def test_halley_map_domain_error():
    t_star = smallest_root(TABLE_CUBIC)
    with pytest.raises(ValueError):
        halley_map(TABLE_CUBIC, t_star + 1e-3)
    with pytest.raises(ValueError):
        halley_map(TABLE_CUBIC, -0.1)


def test_derivative_stays_in_unit_band():
    # h' in (-1, 0) strictly inside (0, t*)
    rng = np.random.default_rng(13)
    for _ in range(8):
        h = random_certified_cubic(rng)
        t_star = smallest_root(h)
        for t in np.linspace(0.0, t_star, 40)[1:-1]:
            assert -1.0 < h.deriv(float(t)) < 0.0


def test_check_assumptions_table_cubic():
    rep = check_assumptions(TABLE_CUBIC)
    assert rep.all_hold
    assert rep.t_star == pytest.approx(0.2360680, abs=1e-6)
    assert rep.h_prime_at_t_star < 0.0


def test_check_assumptions_beta_zero_fails_a1():
    rep = check_assumptions(CubicMajorant(0.0, 1.0, 1.0))
    assert not rep.a1_holds
    assert rep.t_star == 0.0


def test_check_assumptions_smale():
    rep = check_assumptions(TABLE_SMALE)
    assert rep.all_hold
    assert rep.t_star == pytest.approx(0.1059237, abs=1e-6)


def test_check_assumptions_criterion_boundary_fails_a3():
    h = CubicMajorant(TABLE_CUBIC.criterion_bound(), 1.2, 1.2)
    rep = check_assumptions(h)
    assert not rep.a3_holds


def test_check_assumptions_survives_evaluation_failure():
    def broken(t):
        raise FloatingPointError("synthetic failure")

    h = CallableMajorant(
        value_fn=lambda t: 0.2 - t,
        deriv_fn=lambda t: -1.0,
        second_deriv_fn=broken,
    )
    rep = check_assumptions(h)
    assert not rep.all_hold
    assert rep.diagnostics


def test_check_assumptions_eta_zero_fails_a1():
    rep = check_assumptions(CubicMajorant(0.1, 0.0, 1.0))
    assert not rep.a1_holds
    assert rep.a2_holds and rep.a3_holds
    assert rep.diagnostics == ("h''(0) = 0 is not positive",)


def test_grid_rejects_a_decreasing_second_derivative():
    h = CallableMajorant(
        value_fn=lambda t: 0.2 - t + 0.5 * t * t,
        deriv_fn=lambda t: -1.0 + t,
        second_deriv_fn=lambda t: 1.0 / (1.0 + t),
    )
    rep = check_assumptions(h)
    assert rep.a1_holds and rep.a3_holds
    assert not rep.a2_holds
    assert rep.diagnostics == ("h'' is not strictly increasing on the sample grid",)


@st.composite
def certified_majorants(draw):
    """Cubic and Smale majorants strictly inside their criteria. The cubic
    draws reach lip / eta^2 down to 1e-28, well into the grid's rounding
    corner."""
    share = draw(st.floats(1e-3, 0.999))
    if draw(st.booleans()):
        eta = 10.0 ** draw(st.floats(-3.0, 8.0))
        lip = 10.0 ** draw(st.floats(-12.0, 3.0))
        bound = CubicMajorant(0.0, eta, lip).criterion_bound()
        return CubicMajorant(share * bound, eta, lip)
    gamma = 10.0 ** draw(st.floats(-8.0, 8.0))
    return SmaleMajorant(share * SMALE_BOUND / gamma, gamma)


@settings(max_examples=200, deadline=None)
@given(h=certified_majorants())
def test_closed_form_a2_agrees_with_the_grid(h):
    fast = check_assumptions(h)
    grid = check_assumptions(_callable_copy(h))
    notes = []
    assert h.a2_holds(fast.t_star, notes) is True and notes == []
    assert fast.all_hold
    assert (grid.a1_holds, grid.a3_holds) == (fast.a1_holds, fast.a3_holds)
    # t* of the callable majorant is bracketed, not taken from the closed
    # form, so the two agree to root-finding precision
    assert grid.t_star == pytest.approx(fast.t_star, rel=1e-12)
    if grid.a2_holds:
        assert grid.diagnostics == fast.diagnostics
    else:
        # the grid's last h'' value, eta + lip 2 r1, rounds to eta
        assert isinstance(h, CubicMajorant)
        assert h.lip * 2.0 * h.slope_root() < math.ulp(h.eta)
        assert grid.diagnostics == ("h'' is not strictly increasing on the sample grid",)


def test_closed_form_a2_skips_the_minimum_search_and_the_grid(monkeypatch):
    def no_search(h):
        raise AssertionError("_minimum ran")

    monkeypatch.setattr(majorant, "_minimum", no_search)
    for h in (TABLE_CUBIC, TABLE_SMALE, CubicMajorant(4e-6, 1e5, 1e-8)):
        points = []

        class Recording(type(h)):
            def second_deriv(self, t):
                points.append(t)
                return super().second_deriv(t)

        assert check_assumptions(Recording(*dataclasses.astuple(h))).all_hold
        assert points == [0.0]


def test_generic_check_assumptions_searches_the_minimum_once():
    # fresh callables, so no cache entry left by another test answers for h
    h = CallableMajorant(value_fn=lambda t: TABLE_CUBIC.value(t),
                         deriv_fn=lambda t: TABLE_CUBIC.deriv(t),
                         second_deriv_fn=lambda t: TABLE_CUBIC.second_deriv(t))
    before = majorant._minimum.cache_info()
    assert check_assumptions(h).all_hold
    after = majorant._minimum.cache_info()
    # roots() searches, a2_holds reads the same minimum back
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_majorizing_sequence_frozen_table_run():
    seq = majorizing_sequence(TABLE_CUBIC, max_iters=10, tol=1e-12)
    assert seq.points[0] == 0.0
    assert seq.points[1] == pytest.approx(0.2272727272727273, rel=1e-15)
    assert seq.points[2] == pytest.approx(0.23606701038357364, rel=1e-13)
    assert seq.converged_at is not None and seq.converged_at <= 5
    assert all(a < b for a, b in zip(seq.points, seq.points[1:]))
    assert all(p < seq.t_star for p in seq.points)
    assert all(a > b for a, b in zip(seq.gaps, seq.gaps[1:]))


def test_majorizing_sequence_tiny_beta():
    seq = majorizing_sequence(CubicMajorant(1e-6, 1.2, 1.2), max_iters=10, tol=1e-12)
    assert seq.converged_at == 1
    assert len(seq.points) == 2
    assert seq.points[1] == pytest.approx(1e-6, rel=1e-4)


def test_majorizing_sequence_rejects_uncertified():
    with pytest.raises(AssumptionError):
        majorizing_sequence(CubicMajorant(0.4, 1.2, 1.2), max_iters=10, tol=1e-12)


def test_majorizing_sequence_looks_up_t_star_once():
    h = CubicMajorant(0.3, 1.2, 1.2)
    smallest_root(h)
    hits = _cached_roots.cache_info().hits
    seq = majorizing_sequence(h, max_iters=20, tol=1e-15)
    assert len(seq.points) > 3
    # one lookup in check_assumptions, whose t* the whole sequence reuses
    assert _cached_roots.cache_info().hits - hits == 1
    below_root = math.nextafter(seq.t_star, 0.0)
    for t, nxt in zip(seq.points, seq.points[1:]):
        assert nxt == min(halley_map(h, t), below_root)


def test_halley_step_evaluates_once_per_point():
    calls = []

    class Counting(CubicMajorant):
        def value(self, t):
            calls.append(("value", t))
            return super().value(t)

        def deriv(self, t):
            calls.append(("deriv", t))
            return super().deriv(t)

        def second_deriv(self, t):
            calls.append(("second_deriv", t))
            return super().second_deriv(t)

    h = Counting(0.2, 1.2, 1.2)
    t_star = smallest_root(h)
    calls.clear()
    nxt = majorant._halley_step(h, 0.1, t_star)
    assert sorted(calls) == [("deriv", 0.1), ("second_deriv", 0.1), ("value", 0.1)]
    # the same arithmetic as the textbook form built on halley_ratio
    ratio = halley_ratio(TABLE_CUBIC, 0.1)
    assert nxt == 0.1 - TABLE_CUBIC.value(0.1) / ((1.0 - ratio) * TABLE_CUBIC.deriv(0.1))


def _textbook_schedule(h, max_iters=25, tol=1e-12):
    """The Halley schedule from value, deriv and second_deriv alone."""
    t_star = smallest_root(h)
    points = [0.0]
    while t_star - points[-1] >= tol and len(points) <= max_iters:
        t = points[-1]
        value, slope, second = h.value(t), h.deriv(t), h.second_deriv(t)
        ratio = value * second / (2.0 * slope * slope)
        nxt = min(t - value / ((1.0 - ratio) * slope), math.nextafter(t_star, 0.0))
        if nxt <= t:
            break
        points.append(nxt)
        if nxt - t < tol * t_star:
            break
    return points


def test_schedule_matches_the_textbook_loop_bit_for_bit():
    rng = np.random.default_rng(1913)
    for k in range(600):
        h = random_certified_cubic(rng) if k % 2 == 0 else random_certified_smale(rng)
        seq = majorizing_sequence(h)
        want = _textbook_schedule(h)
        assert [p.hex() for p in seq.points] == [p.hex() for p in want], h
        assert [g.hex() for g in seq.gaps] == [(seq.t_star - p).hex() for p in want], h


@pytest.mark.parametrize("make, args", [
    (kantorovich_certificate, (CubicMajorant, 0.2171, 1.2, 1.2)),
    (smale_certificate, (SmaleMajorant, 0.1013, 0.5)),
])
def test_a_fresh_certificate_reads_terms_once_per_step_at_zero_and_at_t_star(make, args):
    calls = []

    class Counting(args[0]):
        def terms(self, t):
            calls.append(t)
            return super().terms(t)

    cert = make(Counting(*args[1:]), seq_len=25)
    points = cert.sequence.points
    assert len(points) > 3
    # the rate constant at t*, A1 at 0, then one Halley step per point
    assert calls == [cert.t_star, 0.0, *points[:-1]]


def test_result_records_are_slotted_frozen_and_hashable():
    cert = kantorovich_certificate(KantorovichInputs(0.2, 1.2, 1.2))
    for record in (cert, cert.sequence, check_assumptions(TABLE_CUBIC)):
        assert not hasattr(record, "__dict__")
        copy = dataclasses.replace(record)
        assert copy == record and hash(copy) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)

def test_cubic_error_constant_frozen_values():
    assert cubic_error_constant(TABLE_CUBIC) == pytest.approx(1.961093857666584, rel=1e-12)
    assert cubic_error_constant(TABLE_SMALE) == pytest.approx(1.0581017529772574, rel=1e-12)


def test_cubic_error_constant_beta_zero():
    # t* = 0 collapses the constant to eta^2/3 + 2 lip/9
    h = CubicMajorant(0.0, 1.2, 1.2)
    assert cubic_error_constant(h) == pytest.approx(0.7466666666666666, rel=1e-13)
    assert h.rate_constant() == pytest.approx(0.7466666666666666, rel=1e-13)


def test_rate_constant_degenerate_at_boundary():
    h = CubicMajorant(TABLE_CUBIC.criterion_bound(), 1.2, 1.2)
    with pytest.raises(DegenerateRootError):
        cubic_error_constant(h)


def test_generic_rate_equals_closed_forms():
    rng = np.random.default_rng(17)
    for _ in range(25):
        h = random_certified_cubic(rng)
        assert h.rate_constant() == pytest.approx(closed_form_rate_constant(h), rel=1e-12)
        g = random_certified_smale(rng)
        assert g.rate_constant() == pytest.approx(closed_form_rate_constant(g), rel=1e-12)


def test_rate_constant_past_the_float_range_is_infinite():
    # h''(t*)^2 and gamma^2 leave the float range here; C does too
    for h in (CubicMajorant(1e-203, 1e200, 1.0), SmaleMajorant(1e-201, 1e200)):
        assert h.rate_constant() == math.inf
        assert cubic_error_constant(h) == math.inf


@settings(max_examples=300, deadline=None)
@given(log_eta=st.floats(-300.0, 300.0), log_lip=st.floats(-300.0, 300.0),
       log_gamma=st.floats(-150.0, 300.0), log_share=st.floats(-30.0, math.log10(0.999)),
       cubic=st.booleans())
def test_rate_constant_is_positive_or_infinite(log_eta, log_lip, log_gamma, log_share, cubic):
    # gamma >= 1e-150 keeps gamma^2, and with it C, above the float range's floor
    share = 10.0 ** log_share
    if cubic:
        eta, lip = 10.0 ** log_eta, 10.0 ** log_lip
        h = CubicMajorant(CubicMajorant(0.0, eta, lip).criterion_bound() * share, eta, lip)
    else:
        gamma = 10.0 ** log_gamma
        h = SmaleMajorant(SMALE_BOUND * share / gamma, gamma)
    try:
        rate = h.rate_constant()
    except DegenerateRootError:
        return
    assert isinstance(rate, float)
    assert rate > 0.0


def test_majorants_past_the_criterion_raise_without_a_search(monkeypatch):
    def no_search(h):
        raise AssertionError("a generic root search ran")

    monkeypatch.setattr(majorant, "_minimum", no_search)
    monkeypatch.setattr(majorant.MajorantFunction, "roots", no_search)
    for h in (CubicMajorant(0.4, 1.2, 1.2), CubicMajorant(1e-60, 1e60, 1e-300),
              SmaleMajorant(1.0, 1.0), SmaleMajorant(SMALE_BOUND * 1.001 / 3e-7, 3e-7)):
        with pytest.raises(NoRootError):
            h.roots()
        with pytest.raises(NoRootError):
            smallest_root(h)
        assert not check_assumptions(h).a3_holds


def test_gap_recursion_against_rate_constant():
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = random_certified_cubic(rng)
        seq = majorizing_sequence(h, max_iters=20, tol=1e-14)
        c = cubic_error_constant(h)
        for gk, gk1 in zip(seq.gaps, seq.gaps[1:]):
            if gk1 < 1e-13:
                break
            assert gk1 <= c * gk ** 3 * (1.0 + 1e-12)


def test_roots_match_bisection_oracle_spot():
    for h in (TABLE_CUBIC, TABLE_SMALE):
        ts, tu = oracle_roots(h)
        assert smallest_root(h) == pytest.approx(ts, abs=1e-12)
        assert uniqueness_radius(h) == pytest.approx(tu, abs=1e-12)


def test_second_deriv_increment_matches_integrated_third():
    import scipy.integrate

    rng = np.random.default_rng(23)
    for _ in range(10):
        h = random_certified_smale(rng)
        t_star = smallest_root(h)
        a = float(rng.uniform(0.0, t_star))
        b = float(rng.uniform(a + 0.05 * t_star, 2.0 * t_star))
        integral, _ = scipy.integrate.quad(h.third_deriv, a, b, epsabs=0.0, epsrel=1e-11)
        assert integral == pytest.approx(h.second_deriv(b) - h.second_deriv(a), rel=1e-9)


def test_callable_majorant_needs_a_third_derivative_for_a_rate_constant():
    # the left derivative of h'' comes from third_deriv_fn only: no rate
    # constant without it, the same constant with it
    parts = dict(value_fn=TABLE_CUBIC.value, deriv_fn=TABLE_CUBIC.deriv,
                 second_deriv_fn=TABLE_CUBIC.second_deriv)
    h = CallableMajorant(**parts)
    assert check_assumptions(h).all_hold
    with pytest.raises(NotImplementedError, match="third_deriv_fn"):
        h.third_deriv(0.1)
    with pytest.raises(NotImplementedError, match="third_deriv_fn"):
        h.rate_constant()
    full = CallableMajorant(**parts, third_deriv_fn=TABLE_CUBIC.third_deriv)
    assert full.rate_constant() == pytest.approx(TABLE_CUBIC.rate_constant(), rel=1e-12)
