"""Acceptance suite: one test per contract item, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
test pins the tolerance stated in the contract; nothing here is loosened to
make a failure disappear.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from halley_cert import (
    HammersteinSpec,
    KantorovichInputs,
    analytic_bounds,
    cubic_error_constant,
    family_solve,
    family_step,
    halley_ratio,
    halley_solve,
    halley_step,
    kantorovich_certificate,
    majorizing_sequence,
    smallest_root,
    solve_and_check,
    uniqueness_radius,
)
from helpers import (
    closed_form_rate_constant,
    oracle_roots,
    premultiplied,
    quadratic_problem,
    random_certified_cubic,
    random_certified_smale,
    scalar_sqrt2,
)

HALLEY_COEFFS_60 = tuple(0.5 ** k for k in range(60))

REFERENCE_EXISTENCE = {0.25: 0.0346081, 0.5: 0.0783777,
                       0.75: 0.138260, 1.0: 0.236068}
REFERENCE_UNIQUENESS = {0.25: 4.06814, 0.5: 2.35026,
                        0.75: 1.54454, 1.0: 1.0}


def test_acceptance_01_radii_table():
    start = time.perf_counter()
    results = {}
    for lam in (0.25, 0.5, 0.75, 1.0):
        beta, eta, lip = analytic_bounds(lam)
        cert = kantorovich_certificate(KantorovichInputs(beta, eta, lip))
        assert cert.certified
        results[lam] = (cert.t_star, cert.uniqueness_radius)
    elapsed = time.perf_counter() - start
    for lam, (t_star, t_out) in results.items():
        assert t_star == pytest.approx(REFERENCE_EXISTENCE[lam], rel=1e-5)
        assert t_out == pytest.approx(REFERENCE_UNIQUENESS[lam], rel=1e-5)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 radii_table: PASS ({elapsed * 1e3:.0f} ms)")


def test_acceptance_02_closed_form_roots_match_bisection():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for make in (random_certified_cubic, random_certified_smale):
        for _ in range(100):
            h = make(rng)
            t_star = smallest_root(h)
            t_out = uniqueness_radius(h)
            ref_star, ref_out = oracle_roots(h)
            worst = max(worst, abs(t_star - ref_star), abs(t_out - ref_out))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"ACCEPTANCE 02 closed_form_roots_match_bisection: PASS "
          f"(worst {worst:.2e}, {elapsed * 1e3:.0f} ms)")


def test_acceptance_03_halley_ratio_window():
    rng = np.random.default_rng(31)
    low, high = math.inf, -math.inf
    for k in range(50):
        h = random_certified_cubic(rng) if k % 2 == 0 else random_certified_smale(rng)
        t_star = smallest_root(h)
        grid = np.linspace(0.0, t_star, 1000)
        vals = np.array([halley_ratio(h, float(t)) for t in grid])
        # strictly inside [0, t*) the window is exact; at the float root the
        # sign of h is rounding dust, so the endpoint gets the same 1e-12
        # measurement slack the upper bound carries
        assert np.all(vals[:-1] >= 0.0)
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= 0.25 + 1e-12)
        low = min(low, float(vals.min()))
        high = max(high, float(vals.max()))
    print(f"ACCEPTANCE 03 halley_ratio_window: PASS (range [{low:.2e}, {high:.6f}])")


def test_acceptance_04_majorizing_sequence_cubic_decay():
    rng = np.random.default_rng(47)
    majorants = [random_certified_cubic(rng) for _ in range(15)]
    majorants += [random_certified_smale(rng) for _ in range(15)]
    checked_pairs = 0
    for h in majorants:
        seq = majorizing_sequence(h, max_iters=30, tol=1e-16)
        t_star = seq.t_star
        assert all(a < b for a, b in zip(seq.points, seq.points[1:]))
        assert all(t < t_star for t in seq.points)
        c = cubic_error_constant(h)
        for gap_k, gap_next in zip(seq.gaps, seq.gaps[1:]):
            if gap_next < 1e-13:
                break
            assert gap_next <= c * gap_k ** 3 * (1.0 + 1e-12)
            checked_pairs += 1
    assert checked_pairs >= 30
    print(f"ACCEPTANCE 04 majorizing_sequence_cubic_decay: PASS "
          f"({checked_pairs} pairs)")


def test_acceptance_05_rate_constant_closed_forms():
    rng = np.random.default_rng(59)
    worst = 0.0
    for make in (random_certified_cubic, random_certified_smale):
        for _ in range(100):
            h = make(rng)
            generic = h.rate_constant()
            closed = closed_form_rate_constant(h)
            rel = abs(generic - closed) / closed
            worst = max(worst, rel)
            assert rel <= 1e-12
    print(f"ACCEPTANCE 05 rate_constant_closed_forms: PASS (worst rel {worst:.2e})")


def test_acceptance_06_scalar_solver_orders():
    p = scalar_sqrt2()
    trace = halley_solve(p, np.array([1.0]), tol=1e-12)
    assert trace.converged
    assert len(trace.step_norms) <= 4
    assert abs(trace.iterates[-1][0] - math.sqrt(2.0)) <= 1e-12
    q_halley = trace.q_order_estimate
    assert 2.7 <= q_halley <= 3.3

    newton = family_solve(p, np.array([1.0]), (1.0,), tol=1e-12)
    assert newton.converged
    q_newton = newton.q_order_estimate
    assert 1.7 <= q_newton <= 2.3
    print(f"ACCEPTANCE 06 scalar_solver_orders: PASS "
          f"(halley q {q_halley:.3f}, newton q {q_newton:.3f})")


def test_acceptance_07_error_schedule_reference_instance():
    start = time.perf_counter()
    report = solve_and_check(HammersteinSpec(lam=1.0, nodes=32), tol=1e-14)
    elapsed = time.perf_counter() - start
    assert report.trace.converged
    assert report.certificate is not None and report.certificate.certified
    bounds = report.error_bounds
    assert bounds is not None and not bounds.mismatch
    real_rows = [c for c in bounds.checks if not c.vacuous]
    assert len(real_rows) >= 2
    for c in bounds.checks:
        assert c.vacuous or c.error <= c.gap * (1.0 + 1e-8)
        assert c.recursion_ok is not False
    assert bounds.all_ok
    assert elapsed < 1.0
    print(f"ACCEPTANCE 07 error_schedule_reference_instance: PASS "
          f"({len(real_rows)} bound rows, {elapsed * 1e3:.0f} ms)")


def test_acceptance_08_solution_containment_over_couplings():
    margins = []
    for lam in (0.25, 0.5, 0.75, 1.0):
        report = solve_and_check(HammersteinSpec(lam=lam, nodes=32))
        assert report.trace.converged
        t_star = report.certificate.t_star
        assert report.start_distance <= t_star
        margins.append(t_star - report.start_distance)
    assert all(m > 0.0 for m in margins)
    print(f"ACCEPTANCE 08 solution_containment_over_couplings: PASS "
          f"(smallest margin {min(margins):.2e})")


def test_acceptance_09_family_matches_halley():
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for k in range(20):
        dim = 2 + k % 5
        p, x0 = quadratic_problem(rng, dim)
        via_family = family_step(p, x0, HALLEY_COEFFS_60)
        direct = halley_step(p, x0)
        diff = float(np.max(np.abs(via_family - direct)))
        worst = max(worst, diff)
        assert diff <= 1e-13
    print(f"ACCEPTANCE 09 family_matches_halley: PASS (worst {worst:.2e})")


def test_acceptance_10_affine_invariance():
    rng = np.random.default_rng(71)
    worst = 0.0
    for k in range(10):
        dim = 3 + k % 4
        p, x0 = quadratic_problem(rng, dim)
        m = rng.standard_normal((dim, dim)) * 0.5 + dim * np.eye(dim)
        q = premultiplied(p, m)
        x_p, x_q = np.array(x0), np.array(x0)
        for _ in range(5):
            x_p = halley_step(p, x_p)
            x_q = halley_step(q, x_q)
            rel = float(np.max(np.abs(x_p - x_q)) / max(1.0, np.max(np.abs(x_p))))
            worst = max(worst, rel)
            assert rel <= 1e-10
    print(f"ACCEPTANCE 10 affine_invariance: PASS (worst rel {worst:.2e})")


def test_acceptance_11_curvature_increment_integrals():
    rng = np.random.default_rng(83)
    worst = 0.0
    for k in range(50):
        if k % 2 == 0:
            h = random_certified_cubic(rng)
            span = 2.0 * uniqueness_radius(h)
        else:
            h = random_certified_smale(rng)
            span = 0.9 / h.gamma
        a = float(rng.uniform(0.0, 0.5 * span))
        b = float(rng.uniform(a + 0.05 * span, span))
        increment = h.second_deriv(b) - h.second_deriv(a)
        integral, _ = scipy.integrate.quad(h.third_deriv, a, b,
                                           epsabs=0.0, epsrel=1e-11)
        rel = abs(increment - integral) / abs(integral)
        worst = max(worst, rel)
        assert rel <= 1e-8
    print(f"ACCEPTANCE 11 curvature_increment_integrals: PASS "
          f"(worst rel {worst:.2e})")
