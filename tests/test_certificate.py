"""Certificate-layer tests: criteria, radii, schedules, audits, JSON."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from halley_cert import (
    AssumptionError,
    ConvergenceCertificate,
    HammersteinSpec,
    KantorovichInputs,
    NonlinearProblem,
    SMALE_CRITERION_BOUND,
    SmaleInputs,
    SolveTrace,
    analytic_bounds,
    check_initial_conditions,
    discretize,
    halley_solve,
    kantorovich_certificate,
    second_derivative_from_tensor,
    smale_certificate,
    solve_and_check,
    verify_error_bound,
)
from halley_cert.certificate import _certified_parts
from halley_cert.majorant import CubicMajorant, SmaleMajorant, _cached_roots
from helpers import (
    linear_problem,
    random_certified_cubic,
    random_certified_smale,
    scalar_sqrt2,
)

TABLE_INPUTS = KantorovichInputs(beta=0.2, eta=1.2, lip=1.2)


def table_cert(seq_len=10):
    return kantorovich_certificate(TABLE_INPUTS, seq_len=seq_len)


def test_input_validation():
    # the inputs are the majorants, so their validation is the majorants'
    assert KantorovichInputs is CubicMajorant
    assert SmaleInputs is SmaleMajorant
    for bad in [(-0.1, 1.0, 1.0), (0.1, -1.0, 1.0), (0.1, 1.0, 0.0),
                (math.inf, 1.0, 1.0), (0.1, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            KantorovichInputs(*bad)
    for bad in [(-0.1, 1.0), (0.1, 0.0), (0.1, -2.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            SmaleInputs(*bad)
    assert SmaleInputs(0.25, 2.0).alpha == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kantorovich_certificate(TABLE_INPUTS, seq_len=0)
    with pytest.raises(ValueError):
        smale_certificate(SmaleInputs(0.1, 0.5), seq_len=0)


def test_kantorovich_table_row():
    cert = table_cert()
    assert cert.certified
    assert cert.majorant is TABLE_INPUTS
    assert cert.verdict == "certified"
    assert cert.majorant_kind == "kantorovich"
    assert cert.criterion_lhs == 0.2
    assert cert.criterion_rhs == pytest.approx(0.3418593726458156, rel=1e-12)
    assert cert.t_star == pytest.approx(math.sqrt(5.0) - 2.0, rel=1e-13)
    assert cert.uniqueness_radius == pytest.approx(1.0, abs=1e-13)
    assert cert.rate_constant == pytest.approx(1.961093857666584, rel=1e-12)
    assert cert.sequence.points[0] == 0.0
    assert cert.sequence.points[1] == pytest.approx(0.2272727272727273, rel=1e-15)
    assert cert.apriori_errors == cert.sequence.gaps
    for t, gap in zip(cert.sequence.points, cert.apriori_errors):
        assert gap == pytest.approx(cert.t_star - t, abs=1e-16)


def test_kantorovich_spec_example_quarter_lambda():
    cert = kantorovich_certificate(
        KantorovichInputs(beta=0.0344828, eta=0.2068966, lip=0.2068966))
    assert cert.certified
    assert cert.t_star == pytest.approx(0.0346081, abs=1e-6)
    assert cert.uniqueness_radius == pytest.approx(4.06814, abs=1e-4)


def test_kantorovich_boundary_is_rejected():
    bound = CubicMajorant(0.0, 1.2, 1.2).criterion_bound()
    cert = kantorovich_certificate(KantorovichInputs(bound, 1.2, 1.2))
    assert not cert.certified
    assert cert.verdict == "criterion_failed"
    assert cert.criterion_lhs == bound
    assert cert.t_star is None
    assert cert.uniqueness_radius is None
    assert cert.rate_constant is None
    assert cert.sequence is None
    assert cert.apriori_errors is None
    # just above fails too
    above = kantorovich_certificate(
        KantorovichInputs(bound * (1.0 + 1e-12), 1.2, 1.2))
    assert not above.certified


def test_zero_beta_is_trivially_certified():
    cert = kantorovich_certificate(KantorovichInputs(0.0, 1.2, 1.2))
    assert cert.certified
    assert cert.t_star == 0.0
    assert cert.sequence.points == (0.0,)
    assert cert.apriori_errors == (0.0,)
    assert cert.sequence.converged_at == 0
    assert cert.uniqueness_radius > 0.0
    assert cert.rate_constant == pytest.approx(0.7466666666666666, rel=1e-12)


def test_zero_eta_fails_a1():
    # the criterion holds, but h''(0) = eta = 0 breaks A1
    with pytest.raises(AssumptionError, match="A1"):
        kantorovich_certificate(KantorovichInputs(0.1, 0.0, 1.0))


@pytest.mark.parametrize("beta, eta, lip", [
    (4e-6, 1e5, 1e-8),  # the A2 grid rounded eta + lip 2 r1 to eta
    (1e-11, 1e10, 1e-10),
    (1e-160, 2e154, 1.0),  # eta^2 overflowed in criterion_bound
    (2.51e-277, 3.47e153, 1.39e-162),  # both companion scalings left the floats
    # t^3 underflowed in value under a huge lip, so h(beta) read 0 and t*
    # was beta; t* = 2.4913e-114, t** = 1.0527e-113
    (2.383314231173618e-114, 6.088981369790589e-171, 4.1888287133226865e+226),
    # absolute filters kept the negative companion root: t** was beta, and
    # not 1.7701e-45, or the roots were lost below the criterion
    (9.49905776334432e-124, 6.417476354243527e-193, 1.9149424547096686e+90),
    (1.7049923727016341e-46, 6.935476855275419e-28, 3.538293846702077e+88),
])
def test_large_eta_small_lip_certify(beta, eta, lip):
    cert = kantorovich_certificate(KantorovichInputs(beta, eta, lip))
    assert cert.certified
    assert 0.0 < cert.t_star < cert.uniqueness_radius
    assert math.isfinite(cert.rate_constant)

    def h(t):
        """h(t) in exact rationals and one unit of roundoff of its terms."""
        b, e, c, t = map(Fraction, (beta, eta, lip, t))
        terms = (b, -t, e * t * t / 2, c * t ** 3 / 6)
        return sum(terms), sum(map(abs, terms)) * Fraction(2.0 ** -53)

    # Each radius sits at most 1e-12 relative below its zero of h. The
    # library decides the side with float h, which can miss the exact
    # sign by rounding of h's terms (0.09 units at t** of eta = 2e154).
    t_star, t_out = cert.t_star, cert.uniqueness_radius
    (at_star, unit), (past_star, _) = h(t_star), h(t_star * (1.0 + 1e-12))
    assert at_star >= -unit and past_star < 0
    (at_out, unit), (past_out, _) = h(t_out), h(t_out * (1.0 + 1e-12))
    assert at_out <= unit and past_out > 0


def test_smale_frozen_values():
    cert = smale_certificate(SmaleInputs(beta=0.1, gamma=0.5))
    assert cert.certified
    assert cert.majorant_kind == "smale"
    assert cert.criterion_lhs == pytest.approx(0.05)
    assert cert.criterion_rhs == SMALE_CRITERION_BOUND
    assert cert.t_star == pytest.approx(0.10592363464399479, abs=1e-14)
    assert cert.uniqueness_radius == pytest.approx(0.9440763653560053, abs=1e-13)
    assert cert.rate_constant == pytest.approx(1.0581017529772574, rel=1e-12)
    assert cert.sequence.converged_at is not None


def test_smale_boundary_and_zero_beta():
    at_bound = smale_certificate(SmaleInputs(SMALE_CRITERION_BOUND, 1.0))
    assert not at_bound.certified
    assert at_bound.criterion_lhs == SMALE_CRITERION_BOUND

    trivial = smale_certificate(SmaleInputs(0.0, 2.0))
    assert trivial.certified
    assert trivial.t_star == 0.0
    assert trivial.uniqueness_radius == pytest.approx(0.25, rel=1e-14)


def test_certificates_are_deterministic():
    assert table_cert() == table_cert()
    s = SmaleInputs(0.07, 1.3)
    assert smale_certificate(s) == smale_certificate(s)


def test_existence_radius_grows_with_beta():
    betas = np.linspace(0.02, 0.32, 7)
    stars = []
    outs = []
    for beta in betas:
        cert = kantorovich_certificate(KantorovichInputs(float(beta), 1.2, 1.2))
        assert cert.certified
        stars.append(cert.t_star)
        outs.append(cert.uniqueness_radius)
    assert all(a < b for a, b in zip(stars, stars[1:]))
    assert all(a > b for a, b in zip(outs, outs[1:]))


def test_radii_are_roots_of_the_majorant():
    rng = np.random.default_rng(101)
    for _ in range(25):
        h = random_certified_cubic(rng)
        cert = kantorovich_certificate(KantorovichInputs(h.beta, h.eta, h.lip))
        assert cert.certified
        assert abs(h.value(cert.t_star)) <= 1e-11
        assert abs(h.value(cert.uniqueness_radius)) <= 1e-11
        assert cert.t_star < cert.uniqueness_radius
    for _ in range(25):
        h = random_certified_smale(rng)
        cert = smale_certificate(SmaleInputs(h.beta, h.gamma))
        assert cert.certified
        assert abs(h.value(cert.t_star)) <= 1e-11
        assert abs(h.value(cert.uniqueness_radius)) <= 1e-11


def test_json_schema_and_round_trip():
    cert = table_cert()
    payload = cert.to_json_dict()
    assert set(payload) == {"kind", "verdict", "criterion", "t_star",
                            "uniqueness_radius", "rate_constant", "sequence",
                            "apriori_errors"}
    assert set(payload["criterion"]) == {"lhs", "rhs", "margin"}
    assert payload["criterion"]["margin"] == pytest.approx(
        (cert.criterion_rhs - cert.criterion_lhs) / cert.criterion_rhs)
    assert all(isinstance(v, float) for v in payload["sequence"])

    back = ConvergenceCertificate.from_json_dict(json.loads(json.dumps(payload)))
    assert back.verdict == cert.verdict
    assert back.t_star == cert.t_star
    assert back.uniqueness_radius == cert.uniqueness_radius
    assert back.rate_constant == cert.rate_constant
    assert back.sequence.points == cert.sequence.points
    assert back.sequence.converged_at == cert.sequence.converged_at
    assert back.apriori_errors == cert.apriori_errors
    assert back.apriori_errors == back.sequence.gaps


def test_loaded_certificate_cannot_extend_a_short_schedule():
    # the loaded certificate has no majorant to extend its one-step
    # schedule with, so the audit reads the budget past it as 0
    trace = solve_and_check(HammersteinSpec(lam=1.0, nodes=64)).trace
    cert = kantorovich_certificate(KantorovichInputs(*analytic_bounds(1.0)), seq_len=1)
    back = ConvergenceCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
    assert len(cert.sequence.points) < len(trace.iterates)
    assert back.majorant is None
    assert verify_error_bound(trace, cert).all_ok
    assert not verify_error_bound(trace, back).all_ok


def test_failed_certificate_round_trip():
    cert = smale_certificate(SmaleInputs(1.0, 1.0))
    payload = json.loads(json.dumps(cert.to_json_dict()))
    assert payload["verdict"] == "criterion_failed"
    assert payload["t_star"] is None
    assert payload["sequence"] is None
    back = ConvergenceCertificate.from_json_dict(payload)
    assert not back.certified
    assert back.sequence is None
    assert back.apriori_errors is None


def test_check_initial_conditions_linear_problem():
    a = np.array([[4.0, 1.0], [0.0, 5.0]])
    b = np.array([1.0, 2.0])
    p = linear_problem(a, b)
    d = np.linalg.solve(a, -b)
    h = CubicMajorant(beta=np.max(np.abs(d)) * 1.5, eta=1.0, lip=1.0)
    report = check_initial_conditions(p, np.zeros(2), h)
    assert report.residual_norm == pytest.approx(np.max(np.abs(d)), rel=1e-14)
    assert report.second_norm == 0.0
    assert not report.second_is_lower_bound
    assert report.both_hold

    tight = CubicMajorant(beta=np.max(np.abs(d)) * 0.5, eta=1.0, lip=1.0)
    report2 = check_initial_conditions(p, np.zeros(2), tight)
    assert not report2.residual_ok
    assert not report2.both_hold


def test_check_initial_conditions_scalar():
    p = scalar_sqrt2()
    x0 = np.array([1.0])
    # |F'^{-1} F| = 1/2 and |F'^{-1} F''| = 1 at x0 = 1
    generous = CubicMajorant(beta=0.6, eta=1.2, lip=1.2)
    rep = check_initial_conditions(p, x0, generous)
    assert rep.residual_norm == pytest.approx(0.5, rel=1e-15)
    assert rep.second_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.both_hold

    table = CubicMajorant(beta=0.2, eta=1.2, lip=1.2)
    rep2 = check_initial_conditions(p, x0, table)
    assert not rep2.residual_ok
    assert rep2.second_ok
    assert not rep2.both_hold


def test_check_initial_conditions_rejects_a_start_point_of_the_wrong_size():
    with pytest.raises(ValueError):
        check_initial_conditions(scalar_sqrt2(), np.array([1.0, 7.0]), TABLE_INPUTS)


def _exact_second_norm(p, x0):
    """sup over |u|, |v| <= 1 of |F'(x0)^{-1} F''(x0)[u, v]| in the max norm:
    max_i max over sign vectors u of sum_k |sum_j C_ijk u_j| with
    C = F'(x0)^{-1} F''(x0), by enumerating all 2^n sign vectors."""
    n = p.dim
    units = np.eye(n)
    c = np.array([[np.linalg.solve(p.eval_jacobian(x0), p.eval_second(x0, u, v))
                   for v in units] for u in units])           # c[j, k, i]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return float(np.abs(np.einsum("sj,jki->sik", signs, c)).sum(axis=2).max())


def _tensor_problem(rng, n, diagonal):
    tensor = rng.standard_normal((n, n, n))
    if diagonal:
        tensor *= np.eye(n)[None, :, :]
    tensor = (tensor + tensor.transpose(0, 2, 1)) / 2.0
    jac = rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
    return NonlinearProblem(dim=n, eval_f=lambda x: jac @ x,
                            eval_jacobian=lambda x: jac,
                            eval_second=second_derivative_from_tensor(tensor))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), diagonal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_sum_bounds_the_second_derivative_norm(n, diagonal, seed):
    p = _tensor_problem(np.random.default_rng(seed), n, diagonal)
    x0 = np.zeros(n)
    report = check_initial_conditions(p, x0, TABLE_INPUTS)
    exact = _exact_second_norm(p, x0)
    # an upper bound up to the rounding of the solves, and the norm itself
    # where F'' is diagonal in (j, k)
    assert report.second_norm >= exact * (1.0 - 1e-13)
    if diagonal:
        assert report.second_norm == pytest.approx(exact, rel=1e-13)
    assert not report.second_is_lower_bound


@pytest.mark.parametrize("lam, power", [(1.0, 3), (1.15, 4), (-0.8, 2)])
def test_tensor_sum_is_the_exact_norm_for_hammerstein(lam, power):
    p = discretize(HammersteinSpec(lam=lam, power=power, nodes=8))
    x0 = np.linspace(0.5, 1.2, 8)
    report = check_initial_conditions(p, x0, TABLE_INPUTS)
    assert report.second_norm == pytest.approx(_exact_second_norm(p, x0), rel=1e-13)


def test_audit_makes_n_squared_second_calls_and_n_block_solves():
    n = 24
    p = discretize(HammersteinSpec(lam=1.0, nodes=n))
    calls, widths = [], []

    def counted(x, u, v):
        calls.append(1)
        return p.eval_second(x, u, v)

    lu_solve = scipy.linalg.lu_solve

    def counted_solve(lu_piv, b):
        widths.append(1 if b.ndim == 1 else b.shape[1])
        return lu_solve(lu_piv, b)

    with mock.patch.object(scipy.linalg, "lu_solve", counted_solve):
        check_initial_conditions(dataclasses.replace(p, eval_second=counted),
                                 np.ones(n), TABLE_INPUTS)
    assert len(calls) == n * n
    # the residual, then one n-column block per unit vector e_j
    assert widths == [1] + [n] * n


def test_verify_error_bound_passes_on_covered_trace():
    cert = table_cert()
    trace = halley_solve(scalar_sqrt2(), np.array([1.3]), tol=1e-12)
    report = verify_error_bound(trace, cert)
    assert not report.mismatch
    assert report.all_ok
    assert len(report.checks) == len(trace.iterates) - 1
    for check in report.checks:
        assert check.containment_ok
        assert check.recursion_ok is not False
    # at least one row carries a real (non-vacuous) recursion bound
    assert any(c.recursion_bound is not None for c in report.checks)


def test_verify_error_bound_flags_uncovered_start():
    cert = table_cert()
    trace = halley_solve(scalar_sqrt2(), np.array([1.0]), tol=1e-12)
    # |x0 - sqrt(2)| = 0.414 exceeds t* = 0.236: the budget never applied
    report = verify_error_bound(trace, cert)
    assert report.mismatch
    assert not report.all_ok
    assert report.checks == ()
    assert "existence" in report.message


def test_verify_error_bound_vacuous_cases():
    cert = table_cert()
    at_root = halley_solve(scalar_sqrt2(), np.array([math.sqrt(2.0)]))
    report = verify_error_bound(at_root, cert)
    assert report.all_ok
    assert report.checks == ()

    # errors at or below 1e-13 are rounding noise: the step is vacuous
    near = halley_solve(scalar_sqrt2(), np.array([math.sqrt(2.0) + 9e-14]),
                        tol=1e-15)
    noisy = verify_error_bound(near, cert)
    assert noisy.all_ok
    assert len(noisy.checks) == 1 and noisy.checks[0].vacuous
    assert 0.0 < noisy.checks[0].error <= 1e-13


def test_verify_error_bound_on_a_zero_beta_certificate():
    # t* = 0: the sequence is the origin alone and every gap is 0, so a
    # longer trace needs no refresh from a majorant that fails A1
    cert = kantorovich_certificate(KantorovichInputs(0.0, 1.2, 1.2))
    trace = SolveTrace(iterates=[np.zeros(2), np.zeros(2)], residual_norms=[0.0, 0.0],
                       step_norms=[0.0], lf_norms=[0.0], stop_reason="step_below_tol")
    report = verify_error_bound(trace, cert)
    assert report.all_ok
    assert len(report.checks) == 1
    assert report.checks[0].vacuous and report.checks[0].gap == 0.0


def test_verify_error_bound_rejects_bad_inputs():
    trace = halley_solve(scalar_sqrt2(), np.array([1.3]), tol=1e-12)
    failed = kantorovich_certificate(KantorovichInputs(0.9, 1.2, 1.2))
    with pytest.raises(ValueError):
        verify_error_bound(trace, failed)

    stuck = halley_solve(scalar_sqrt2(), np.array([1.3]), tol=1e-12, max_iters=1)
    with pytest.raises(ValueError):
        verify_error_bound(stuck, table_cert())


def test_roots_cache_stays_bounded():
    _cached_roots.cache_clear()
    _certified_parts.cache_clear()
    for k in range(2000):
        assert kantorovich_certificate(KantorovichInputs(0.1 + 1e-5 * k, 1.2, 1.2)).certified
    for cache in (_cached_roots, _certified_parts):
        info = cache.cache_info()
        assert info.maxsize == 1024
        assert info.currsize == info.maxsize


def _certificate_hex(cert):
    """Every field of a certificate, floats as float.hex, so -0.0 != 0.0."""
    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(hexed(v) for v in value)
        return value

    seq = cert.sequence
    return (cert.majorant_kind, cert.verdict, hexed(cert.criterion_lhs),
            hexed(cert.criterion_rhs), hexed(cert.t_star),
            hexed(cert.uniqueness_radius), hexed(cert.rate_constant),
            None if seq is None else (hexed(seq.points), hexed(seq.t_star),
                                      hexed(seq.gaps), seq.converged_at))


_CACHE_CASES = [
    (kantorovich_certificate, (0.2, 1.2, 1.2)),
    (kantorovich_certificate, (0.0, 1.2, 1.2)),
    (kantorovich_certificate, (1e-160, 2e154, 1.0)),
    (smale_certificate, (0.1, 0.5)),
]


@pytest.mark.parametrize("make, args", _CACHE_CASES)
def test_cached_certificate_is_bit_identical_to_a_cold_one(make, args):
    inputs_type = KantorovichInputs if make is kantorovich_certificate else SmaleInputs
    _cached_roots.cache_clear()
    _certified_parts.cache_clear()
    cold_inputs = inputs_type(*args)
    cold = make(cold_inputs, seq_len=6)
    before = _certified_parts.cache_info()
    # an equal but distinct instance: the hit must hand back the caller's
    warm_inputs = inputs_type(*args)
    warm = make(warm_inputs, seq_len=6)
    after = _certified_parts.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert _certificate_hex(warm) == _certificate_hex(cold)
    assert warm.majorant is warm_inputs and cold.majorant is cold_inputs


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_cache_keeps_the_sign_of_a_zero_criterion_side(first, second):
    # 0.0 and -0.0 make equal majorants, so they share an entry, but each
    # certificate reports its own beta (json prints "lhs": -0 against 0)
    for make, inputs in ((kantorovich_certificate, lambda b: KantorovichInputs(b, 1.2, 1.2)),
                         (smale_certificate, lambda b: SmaleInputs(b, 0.5))):
        for beta in (first, second):
            cert = make(inputs(beta))
            assert cert.certified
            assert math.copysign(1.0, cert.criterion_lhs) == math.copysign(1.0, beta)


def test_failed_and_rejected_inputs_stay_out_of_the_cache():
    _certified_parts.cache_clear()
    for _ in range(2):
        failed = kantorovich_certificate(KantorovichInputs(0.9, 1.2, 1.2))
        assert not failed.certified and failed.sequence is None
        assert smale_certificate(SmaleInputs(1.0, 1.0)).verdict == "criterion_failed"
    assert _certified_parts.cache_info().currsize == 0
    # eta = 0 fails A1 after the criterion held: raised again on every call
    for attempt in range(2):
        with pytest.raises(AssumptionError, match="A1"):
            kantorovich_certificate(KantorovichInputs(0.1, 0.0, 1.0))
        info = _certified_parts.cache_info()
        assert (info.currsize, info.misses) == (0, attempt + 1)


def test_each_seq_len_has_its_own_cache_entry():
    _certified_parts.cache_clear()
    short, full = table_cert(seq_len=1), table_cert(seq_len=10)
    assert _certified_parts.cache_info().currsize == 2
    assert len(short.sequence.points) == 2
    assert len(full.sequence.points) > 2
    assert table_cert(seq_len=1).sequence == short.sequence
    assert _certified_parts.cache_info().hits == 1
