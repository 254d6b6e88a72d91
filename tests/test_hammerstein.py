"""Integral-equation harness tests: quadrature, bounds, radii table, audits."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halley_cert import (
    HalleyCertError,
    HammersteinSpec,
    KantorovichInputs,
    LAMBDA_CRITERION_LIMIT,
    LAMBDA_DOMAIN_LIMIT,
    analytic_bounds,
    check_initial_conditions,
    discretize,
    family_solve,
    green_kernel,
    halley_solve,
    halley_step,
    kantorovich_certificate,
    quadrature_weights,
    solve_and_check,
    table1,
    table1_csv,
    uniform_grid,
)
from halley_cert import hammerstein, problem
from halley_cert.majorant import CubicMajorant
from helpers import band_matrix, integrate_against_kernel

# existence/uniqueness radii for the reference couplings, from the
# closed-form criterion at full precision
EXISTENCE = {
    0.25: 0.034608090016611054,
    0.5: 0.07837774562177824,
    0.75: 0.1382595728153972,
    1.0: 0.2360679774997897,
}
UNIQUENESS = {
    0.25: 4.068140393445464,
    0.5: 2.3502617411332922,
    0.75: 1.5445401584222362,
    1.0: 1.0,
}


def test_spec_validation():
    with pytest.raises(ValueError):
        HammersteinSpec(lam=LAMBDA_DOMAIN_LIMIT)
    with pytest.raises(ValueError):
        HammersteinSpec(lam=3.0)
    with pytest.raises(ValueError):
        HammersteinSpec(lam=math.inf)
    with pytest.raises(ValueError):
        HammersteinSpec(lam=1.0, power=1)
    with pytest.raises(ValueError):
        HammersteinSpec(lam=1.0, nodes=7)
    with pytest.raises(ValueError):
        discretize(HammersteinSpec(lam=1.0, forcing=lambda s: s - 0.5))


@pytest.mark.parametrize("field, value", [
    ("nodes", 16.5), ("nodes", 16.0), ("nodes", "16"), ("power", 3.0), ("power", 2.5)])
def test_spec_rejects_a_count_or_power_that_is_not_an_integer(field, value):
    # a float count would otherwise fail deep inside numpy with a TypeError
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        solve_and_check(HammersteinSpec(lam=0.5, **{field: value}))
    # numpy integers pass, as index types
    spec = HammersteinSpec(lam=0.5, **{field: np.int64(16 if field == "nodes" else 3)})
    assert solve_and_check(spec).trace.converged


def test_green_kernel_values():
    assert green_kernel(0.25, 0.5) == pytest.approx(0.125)
    assert green_kernel(0.5, 0.25) == pytest.approx(0.125)
    assert green_kernel(0.5, 0.5) == pytest.approx(0.25)
    assert green_kernel(0.0, 0.7) == 0.0
    assert green_kernel(0.7, 1.0) == 0.0
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 1.0, 200)
    t = rng.uniform(0.0, 1.0, 200)
    assert np.allclose(green_kernel(s, t), green_kernel(t, s))
    # the kernel peaks at 1/4 on the diagonal midpoint
    assert np.max(green_kernel(s, t)) <= 0.25


def test_quadrature_row_sums_reproduce_kernel_integral():
    for m in (16, 33, 64):
        grid = uniform_grid(m)
        w = quadrature_weights(grid)
        assert np.all(w >= 0.0)
        expected = grid * (1.0 - grid) / 2.0
        assert np.max(np.abs(w.sum(axis=1) - expected)) <= 1e-10
    # a non-uniform grid against a per-hat reference: integrate G(s_i, .)
    # times each hat function with the Gauss panel rule, exact for the
    # quadratic integrand on every panel
    rng = np.random.default_rng(23)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 11)), [1.0]])
    w = quadrature_weights(grid)
    hats = np.eye(grid.size)
    reference = np.array([
        [integrate_against_kernel(s, lambda t, k=k: np.interp(t, grid, hats[k]), grid)
         for k in range(grid.size)]
        for s in grid])
    assert np.max(np.abs(w - reference)) <= 1e-15
    assert np.all(w[0] == 0.0) and np.all(w[-1] == 0.0)
    assert np.max(np.abs(w.sum(axis=1) - grid * (1.0 - grid) / 2.0)) <= 1e-15


def test_integrate_against_kernel_polynomials():
    grid = uniform_grid(16)
    rng = np.random.default_rng(13)
    for s in rng.uniform(0.0, 1.0, 20):
        one = integrate_against_kernel(float(s), lambda t: 1.0, grid)
        assert one == pytest.approx(s * (1.0 - s) / 2.0, abs=1e-10)
        quad = integrate_against_kernel(float(s), lambda t: t * t, grid)
        assert quad == pytest.approx(s * (1.0 - s ** 3) / 12.0, abs=1e-10)


def test_discretize_zero_coupling_is_identity_minus_forcing():
    p = discretize(HammersteinSpec(lam=0.0, nodes=16))
    u0 = np.ones(16)
    assert np.max(np.abs(p.eval_f(u0))) == 0.0
    assert np.allclose(p.eval_jacobian(u0), np.eye(16))


def test_discretize_jacobian_matches_differences():
    p = discretize(HammersteinSpec(lam=1.0, nodes=16))
    rng = np.random.default_rng(17)
    u = 1.0 + 0.1 * rng.uniform(size=16)
    v = rng.standard_normal(16)
    h = 1e-7
    diff = (p.eval_f(u + h * v) - p.eval_f(u - h * v)) / (2.0 * h)
    assert np.allclose(p.eval_jacobian(u) @ v, diff, rtol=1e-6, atol=1e-8)


def test_discretize_second_derivative_action():
    p = discretize(HammersteinSpec(lam=0.75, nodes=16))
    rng = np.random.default_rng(19)
    u = 1.0 + 0.1 * rng.uniform(size=16)
    v, z = rng.standard_normal((2, 16))
    # symmetric and consistent with Jacobian differences
    assert np.allclose(p.eval_second(u, v, z), p.eval_second(u, z, v))
    h = 1e-6
    jac_diff = (p.eval_jacobian(u + h * z) - p.eval_jacobian(u - h * z)) / (2.0 * h)
    assert np.allclose(jac_diff @ v, p.eval_second(u, v, z), rtol=1e-6, atol=1e-7)


def test_discretized_solves_make_no_per_column_second_derivative_calls():
    p = discretize(HammersteinSpec(lam=1.0, nodes=32))
    calls = []

    def counting_second(u, v, z):
        calls.append(1)
        return p.eval_second(u, v, z)

    counted = dataclasses.replace(p, eval_second=counting_second)
    u0 = np.ones(32)
    assert halley_solve(counted, u0).converged
    assert family_solve(counted, u0, [0.5 ** k for k in range(8)]).converged
    assert calls == []
    # without the tridiagonal form the same problem falls back to one call
    # per column
    halley_step(dataclasses.replace(counted, tridiagonal=None), u0)
    assert len(calls) == 32


def test_tridiagonal_form_is_the_laplacian_times_the_dense_system():
    rng = np.random.default_rng(29)
    for m, power in ((8, 2), (33, 3), (200, 4)):
        p = discretize(HammersteinSpec(lam=0.9, power=power, nodes=m))
        tri = p.tridiagonal
        k = np.array([tri.apply(e) for e in np.eye(m)]).T
        # K W = M: tridiag(1, 4, 1)/6 inside, zero boundary rows
        w = quadrature_weights(uniform_grid(m))
        kw = k @ w
        mass = (4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)) / 6.0
        mass[[0, -1]] = 0.0
        assert np.max(np.abs(kw - mass)) <= 1e-11
        u = 1.0 + 0.1 * rng.uniform(size=m)
        d = rng.standard_normal(m)
        kj = k @ p.eval_jacobian(u)
        assert np.max(np.abs(band_matrix(tri.jacobian(u)) - kj)) <= 1e-13 * np.max(np.abs(kj))
        # the dense B = F''(u)[., d] = -p (p - 1) lam W diag(u^(p-2) d)
        kb = k @ (-power * (power - 1) * 0.9 * (w * (u ** (power - 2) * d)))
        assert np.max(np.abs(band_matrix(tri.second_matrix(u, d)) - kb)) <= (
            1e-12 * np.max(np.abs(kb)))


_discretize = hammerstein.discretize
_METHODS = {"halley": None, "chebyshev": (1.0, 0.5),
            "family": tuple(0.5 ** k for k in range(8))}


def _dense_discretize(spec):
    return dataclasses.replace(_discretize(spec), tridiagonal=None)


def _report_or_error(spec, coeffs):
    # where a run raises a typed error, parity means the same failure on
    # both paths
    try:
        return solve_and_check(spec, coeffs=coeffs), None
    except HalleyCertError as exc:
        return None, exc


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 300), lam=st.floats(-1.0, 1.15), power=st.integers(2, 4),
       bump=st.none() | st.floats(-0.5, 0.5), method=st.sampled_from(sorted(_METHODS)))
def test_tridiagonal_solves_match_dense_solves(n, lam, power, bump, method):
    forcing = None if bump is None else (lambda s: 1.0 + bump * math.sin(math.pi * s))
    spec = HammersteinSpec(lam=lam, power=power, nodes=n, forcing=forcing)
    with mock.patch.object(hammerstein, "discretize", _dense_discretize):
        dense, dense_error = _report_or_error(spec, _METHODS[method])
    tri, tri_error = _report_or_error(spec, _METHODS[method])
    assert type(tri_error) is type(dense_error)
    # Past |L_F| = 1/2 a Halley step can magnify rounding without bound, and
    # runs that wander there (|L_F| up to 37 at lam = 1, power 3, forcing
    # 1 + sin(pi s)/2) part at 1e-12 between any two dense step forms
    # within three steps; parity is asked where every step is well-posed.
    assume(dense_error is None and dense.trace.converged
           and max(dense.trace.lf_norms, default=0.0) <= 0.5)
    assert tri.trace.stop_reason == dense.trace.stop_reason
    assert len(tri.trace.step_norms) == len(dense.trace.step_norms)
    assert tri.containment_ok == dense.containment_ok
    assert (tri.error_bounds is None) == (dense.error_bounds is None)
    if dense.error_bounds is not None:
        assert tri.error_bounds.all_ok == dense.error_bounds.all_ok
    diffs = [np.max(np.abs(a - b)) for a, b in zip(tri.trace.iterates, dense.trace.iterates)]
    assert diffs[-1] <= 1e-13
    assert max(diffs) <= 1e-11
    assert np.max(np.abs(np.subtract(tri.trace.lf_norms, dense.trace.lf_norms)),
                  initial=0.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 300), lam=st.floats(-1.0, 1.15), power=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_solve_lf_norm_matches_the_matrix_norm(n, lam, power, seed):
    p = discretize(HammersteinSpec(lam=lam, power=power, nodes=n))
    u = np.random.default_rng(seed).uniform(0.5, 1.2, n)
    step = problem._Step(p, u, p.eval_f(u))
    one = problem._one_solve_lf_norm(step.jac, step.second, step.solve)
    # K F'(u) is an M-matrix and every column of K B has one sign, so the
    # one-solve branch is proven on every such state
    assert one is not None
    dense = p.matrix_norm(step.lf())
    assert abs(one - dense) <= 1e-12 * dense + np.finfo(float).tiny


def test_matrix_free_products_match_the_dense_weights():
    rng = np.random.default_rng(31)
    for m in (8, 33, 512, 1000):
        w = quadrature_weights(uniform_grid(m))
        p = discretize(HammersteinSpec(lam=1.0, power=2, nodes=m))
        for u in (rng.uniform(0.5, 1.5, m), rng.standard_normal(m)):
            scale = np.max(np.abs(w) @ np.abs(u * u))
            dense_f = u - 1.0 - w @ (u * u)
            assert np.max(np.abs(p.eval_f(u) - dense_f)) <= 1e-15 * max(scale, np.max(np.abs(u)))
            v = rng.standard_normal(m)
            assert np.max(np.abs(p.eval_second(u, v, u) + 2.0 * (w @ (v * u)))) <= (
                1e-15 * 2.0 * np.max(np.abs(w) @ np.abs(v * u)))


def _two_pass_prefix_sums(a):
    total = np.cumsum(a)
    before, after = total[:-1], total[1:]
    added = after - before
    error = (before - (after - added)) + (a[1:] - added)
    total[1:] += np.cumsum(error)
    return total


def _two_pass_weights_times(grid, v):
    """W v as two separate compensated running sums over 1-D arrays."""
    h6 = np.diff(grid) / 6.0
    diag = 2.0 * (np.concatenate([h6, [0.0]]) + np.concatenate([[0.0], h6]))
    rest = 1.0 - grid
    z = diag * v
    z[:-1] += h6 * v[1:]
    z[1:] += h6 * v[:-1]
    below = _two_pass_prefix_sums(grid * z)
    above = np.zeros_like(z)
    above[:-1] = _two_pass_prefix_sums((rest * z)[:0:-1])[::-1]
    return rest * below + grid * above


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 600), seed=st.integers(0, 2 ** 32 - 1),
       specials=st.integers(0, 4))
def test_one_pass_running_sums_match_two_passes_bit_for_bit(n, seed, specials):
    rng = np.random.default_rng(seed)
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    v[rng.integers(0, n, specials)] = rng.choice([np.inf, -np.inf, np.nan], specials)
    tables = hammerstein._grid_tables(n)
    with np.errstate(over="ignore", invalid="ignore"):
        got = hammerstein._weights_times(tables)(v)
        want = _two_pass_weights_times(uniform_grid(n), v)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    if specials == 0:
        w = quadrature_weights(tables.grid)
        tol = 8.0 * n * np.finfo(float).eps * (np.abs(w) @ np.abs(v)) + 1e-300
        assert np.all(np.abs(got - w @ v) <= tol)


def test_grid_tables_are_built_once_read_only_and_bounded():
    hammerstein._grid_tables.cache_clear()
    first = discretize(HammersteinSpec(lam=1.0, nodes=24))
    second = discretize(HammersteinSpec(lam=0.0, power=4, nodes=24))
    info = hammerstein._grid_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    tables = hammerstein._grid_tables(24)
    assert not any(a.flags.writeable for a in tables)
    assert info.maxsize == hammerstein._TABLES_CACHED == 4
    for m in range(8, 16):
        hammerstein._grid_tables(m)
    assert hammerstein._grid_tables.cache_info().currsize == 4

    # every callback returns an array of its own: writing into what the
    # callbacks of both problems returned changes none of their next calls
    u, d = np.linspace(0.5, 1.2, 24), np.linspace(-1.0, 1.0, 24)
    calls = [call for p, tri in ((first, first.tridiagonal), (second, second.tridiagonal))
             for call in (lambda p=p: p.eval_f(u), lambda p=p: p.eval_jacobian(u),
                          lambda p=p: p.eval_second(u, d, u), lambda t=tri: t.jacobian(u),
                          lambda t=tri: t.second_matrix(u, d), lambda t=tri: t.apply(u))]
    wants = [call().copy() for call in calls]
    for call in calls:
        call()[...] = 7.0
    for call, want in zip(calls, wants):
        assert np.array_equal(call(), want)


def _counting_weights():
    calls = []

    def weights(grid):
        calls.append(len(grid))
        return quadrature_weights(grid)

    return calls, mock.patch.object(hammerstein, "quadrature_weights", weights)


def test_dense_weights_are_built_once_and_only_for_matrices():
    # the dense W is built once per Jacobian, kept by nobody, and never by
    # F, the second-derivative action or a solve
    calls, patch = _counting_weights()
    with patch:
        p = discretize(HammersteinSpec(lam=1.0, nodes=16))
        u = np.ones(16)
        p.eval_f(u)
        p.eval_second(u, u, u)
        halley_solve(p, u)
        family_solve(p, u, [0.5 ** k for k in range(8)])
        assert calls == []
        p.eval_jacobian(u)
        p.eval_jacobian(u)
        assert calls == [16, 16]
        check_initial_conditions(p, u, CubicMajorant(0.2, 1.2, 1.2))
    assert calls == [16, 16, 16]


def test_large_solves_hold_no_dense_matrix():
    calls, patch = _counting_weights()
    with patch:
        tracemalloc.start()
        try:
            report = solve_and_check(HammersteinSpec(lam=1.0, nodes=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert calls == []
    # one dense 10^5 x 10^5 array alone would be 80 GB
    assert peak < 64 * 2 ** 20
    assert report.trace.converged and report.containment_ok
    assert report.error_bounds.all_ok


def test_lf_norm_fallback_holds_no_dense_matrix():
    # the third Halley step from u = 1 at lam = 2, power 4: the one-solve
    # |L_F| is not proven there, and one n-by-n array would be 128 MB
    n = 4000
    p = discretize(HammersteinSpec(lam=2.0, power=4, nodes=n))
    u = np.ones(n)
    for _ in range(2):
        u = halley_step(p, u)
    step = problem._Step(p, u, p.eval_f(u))
    assert problem._one_solve_lf_norm(step.jac, step.second, step.solve) is None
    tracemalloc.start()
    try:
        norm = step.lf_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n   # an eighth of one n-by-n array
    dense = p.matrix_norm(step.lf())
    assert abs(norm - dense) <= 1e-14 * dense


@pytest.mark.parametrize("lam", [1e-120, 1e-160, 4.04e-254, 1e-310])
def test_tiny_couplings_certify(lam):
    beta, eta, lip = analytic_bounds(lam)
    cert = kantorovich_certificate(KantorovichInputs(beta, eta, lip))
    assert cert.certified
    # h(t) = beta - t + eta t^2/2 + lip t^3/6 is beta - t near t* and
    # lip t^3/6 - t near t**
    assert cert.t_star == pytest.approx(beta, rel=1e-12)
    assert cert.uniqueness_radius == pytest.approx(math.sqrt(6.0) / math.sqrt(lip), rel=1e-12)
    report = solve_and_check(HammersteinSpec(lam=lam, nodes=16))
    assert report.trace.converged and report.containment_ok
    assert report.error_bounds.all_ok


def test_analytic_bounds_values():
    assert analytic_bounds(1.0) == (0.2, 1.2, 1.2)
    assert analytic_bounds(-1.0) == (0.2, 1.2, 1.2)
    beta, eta, lip = analytic_bounds(0.25)
    assert beta == pytest.approx(0.25 / 7.25, rel=1e-15)
    assert eta == pytest.approx(1.5 / 7.25, rel=1e-15)
    assert lip == eta
    assert analytic_bounds(0.0) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic_bounds(LAMBDA_DOMAIN_LIMIT)
    with pytest.raises(ValueError):
        analytic_bounds(math.nan)
    assert LAMBDA_CRITERION_LIMIT == pytest.approx(32.0 / 27.0, rel=1e-16)


def test_discrete_residual_stays_below_analytic_beta():
    # the sampled residual |F'(u0)^{-1} F(u0)| grows with m but stays under
    # the closed-form beta = 0.2 for lam = 1
    seen = []
    for m in (16, 32, 64):
        p = discretize(HammersteinSpec(lam=1.0, nodes=m))
        u0 = np.ones(m)
        d = np.linalg.solve(p.eval_jacobian(u0), p.eval_f(u0))
        seen.append(float(np.max(np.abs(d))))
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert seen[-1] <= 0.2
    assert seen[1] == pytest.approx(0.180913, abs=1e-5)


def test_initial_conditions_hold_for_reference_instance():
    p = discretize(HammersteinSpec(lam=1.0, nodes=32))
    report = check_initial_conditions(p, np.ones(32), CubicMajorant(0.2, 1.2, 1.2))
    assert report.residual_ok
    assert report.second_ok
    assert report.both_hold
    assert report.second_norm == pytest.approx(1.085477, abs=1e-5)
    assert report.second_norm <= 1.2


def test_table1_reference_rows():
    rows = table1()
    assert [r.lam for r in rows] == [0.25, 0.5, 0.75, 1.0]
    for row in rows:
        assert row.certified
        assert row.existence == pytest.approx(EXISTENCE[row.lam], rel=1e-12)
        assert row.uniqueness == pytest.approx(UNIQUENESS[row.lam], rel=1e-12)
        assert row.existence < row.uniqueness


def test_table1_edge_rows():
    rows = table1(lambdas=(0.0, 1.0, 1.2))
    assert rows[0].existence == 0.0
    assert rows[0].uniqueness == math.inf
    assert rows[0].certified
    assert rows[1].certified
    assert not rows[2].certified
    assert rows[2].existence is None
    assert rows[2].uniqueness is None


def test_table1_csv_format():
    rows = table1(lambdas=(0.25, 1.2))
    text = table1_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "lambda,existence,uniqueness"
    assert len(lines) == 3
    assert text.endswith("\n")
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.25
    # %.17g survives a float round trip bit for bit
    assert float(cells[1]) == rows[0].existence
    assert float(cells[2]) == rows[0].uniqueness
    assert lines[2] == "1.2,,"


def test_solve_and_check_reference_coupling():
    report = solve_and_check(HammersteinSpec(lam=1.0, nodes=32))
    assert report.trace.converged
    assert len(report.trace.iterates) <= 5
    assert report.certificate is not None and report.certificate.certified
    assert report.start_distance == pytest.approx(0.196772, abs=1e-5)
    assert report.containment_ok
    assert report.error_bounds is not None
    assert report.error_bounds.all_ok
    assert report.note == ""
    solution = report.trace.iterates[-1]
    assert np.all(solution >= 1.0)
    assert np.max(solution) - 1.0 <= report.certificate.t_star


def test_solve_and_check_error_schedule_values():
    report = solve_and_check(HammersteinSpec(lam=1.0, nodes=32), tol=1e-14)
    checks = report.error_bounds.checks
    assert len(checks) == 3
    errs = [c.error for c in checks]
    gaps = [c.gap for c in checks]
    assert errs[0] == pytest.approx(0.1968, rel=1e-2)
    assert errs[1] == pytest.approx(2.214e-3, rel=1e-2)
    assert errs[2] == pytest.approx(4.266e-9, rel=1e-2)
    assert gaps[0] == pytest.approx(0.2361, rel=1e-3)
    assert gaps[1] == pytest.approx(8.795e-3, rel=1e-3)
    assert gaps[2] == pytest.approx(9.671e-7, rel=1e-3)
    assert report.trace.q_order_estimate == pytest.approx(
        2.932566069359659, rel=1e-10)


def test_solve_and_check_all_reference_couplings():
    for lam in (0.25, 0.5, 0.75, 1.0):
        report = solve_and_check(HammersteinSpec(lam=lam, nodes=32))
        assert report.trace.converged
        assert report.containment_ok
        assert report.error_bounds is not None and report.error_bounds.all_ok
        assert report.start_distance <= report.certificate.t_star


def test_solve_and_check_zero_coupling():
    report = solve_and_check(HammersteinSpec(lam=0.0, nodes=16))
    assert report.trace.converged
    assert len(report.trace.iterates) == 1
    assert report.certificate is None
    assert report.start_distance == 0.0
    assert report.containment_ok is True
    assert "linear" in report.note


def test_solve_and_check_beyond_criterion():
    report = solve_and_check(HammersteinSpec(lam=1.2, nodes=16))
    assert report.trace.converged
    assert report.certificate is not None
    assert not report.certificate.certified
    assert report.containment_ok is None
    assert report.error_bounds is None
    assert "criterion failed" in report.note


def test_solve_and_check_without_closed_form():
    bumpy = solve_and_check(
        HammersteinSpec(lam=0.5, nodes=16, forcing=lambda s: 1.0 + 0.1 * s))
    assert bumpy.trace.converged
    assert bumpy.certificate is None
    assert bumpy.containment_ok is None
    assert "no closed-form bounds" in bumpy.note

    square = solve_and_check(HammersteinSpec(lam=0.5, nodes=16, power=2))
    assert square.trace.converged
    assert square.certificate is None
    assert square.containment_ok is None


@pytest.mark.parametrize("coeffs", [None, (1.0, 0.5)])
def test_a_user_forcing_runs_once_per_node_and_starts_the_solve(coeffs):
    calls = []

    def forcing(s):
        calls.append(s)
        return 1.0 + 0.3 * math.sin(math.pi * s)

    spec = HammersteinSpec(lam=0.8, nodes=33, forcing=forcing)
    report = solve_and_check(spec, coeffs=coeffs)
    assert len(calls) == spec.nodes
    assert report.trace.converged
    # the start point is f at the nodes, bit for bit
    u0 = np.asarray(report.trace.iterates[0])
    expected = np.array([forcing(s) for s in np.linspace(0.0, 1.0, spec.nodes)])
    assert u0.tobytes() == expected.tobytes()


def test_solution_matches_across_literal_grid_refinement():
    # the grids 16/32/64 share only the interval endpoints, where the
    # solution equals the forcing exactly at every resolution
    solutions = {}
    for m in (16, 32, 64):
        report = solve_and_check(HammersteinSpec(lam=0.25, nodes=m))
        solutions[m] = report.trace.iterates[-1]
    for m in (16, 32, 64):
        assert solutions[m][0] == pytest.approx(1.0, abs=1e-12)
        assert solutions[m][-1] == pytest.approx(1.0, abs=1e-12)
    # shared-node agreement across the three literal grids
    for a, b in ((16, 32), (32, 64)):
        assert abs(solutions[a][0] - solutions[b][0]) <= 1e-6
        assert abs(solutions[a][-1] - solutions[b][-1]) <= 1e-6


def test_solution_second_order_convergence_on_nested_grids():
    # 17/33/65 nest properly: every node of the coarse grid is a node of the
    # finer one, so interior agreement measures the quadrature order
    sols = {}
    for m in (17, 33, 65):
        sols[m] = solve_and_check(HammersteinSpec(lam=0.25, nodes=m)).trace.iterates[-1]
    d_coarse = float(np.max(np.abs(sols[33][::2] - sols[17])))
    d_fine = float(np.max(np.abs(sols[65][::2] - sols[33])))
    assert d_coarse <= 3e-5
    ratio = d_coarse / d_fine
    assert 3.0 <= ratio <= 5.5


def test_newton_needs_more_steps_and_fails_the_cubic_audit():
    spec = HammersteinSpec(lam=1.0, nodes=32)
    halley = solve_and_check(spec)
    newton = solve_and_check(spec, coeffs=(1.0,))
    chebyshev = solve_and_check(spec, coeffs=(1.0, 0.5))
    assert newton.trace.converged
    assert len(newton.trace.step_norms) > len(halley.trace.step_norms)
    # the schedule is a Halley guarantee; Newton misses it and the report
    # says so instead of hiding it
    assert newton.error_bounds is not None
    assert not newton.error_bounds.all_ok
    assert chebyshev.error_bounds is not None
    assert chebyshev.error_bounds.all_ok


def test_solve_and_check_unconverged_has_no_audit():
    report = solve_and_check(HammersteinSpec(lam=1.0, nodes=16), max_iters=1)
    assert not report.trace.converged
    assert report.trace.stop_reason == "max_iters"
    assert report.error_bounds is None


def test_a_report_computes_the_errors_to_the_final_iterate_once(monkeypatch):
    # the q-order fit, verify_error_bound and the start distance each read
    # the errors; all three get the one list computed for the trace
    from halley_cert import certificate

    computed = problem._errors_to_final
    seen = []

    def spy(trace):
        seen.append(computed(trace))
        return seen[-1]

    for module in (problem, certificate, hammerstein):
        monkeypatch.setattr(module, "_errors_to_final", spy)
    report = solve_and_check(HammersteinSpec(lam=1.0, nodes=64))
    assert report.error_bounds is not None and len(seen) == 3
    assert seen[1] is seen[0] and seen[2] is seen[0]
    assert report.start_distance == seen[0][0]
    # a trace that holds other iterates gets its own errors
    trace = report.trace
    moved = dataclasses.replace(trace, iterates=[x + 1.0 for x in trace.iterates[:-1]]
                                + [trace.iterates[-1]])
    assert computed(moved) is not seen[0]
    assert computed(moved) == [problem.vector_norm(x - moved.iterates[-1])
                               for x in moved.iterates]
    trace.iterates = trace.iterates[:-1]
    assert computed(trace) == [problem.vector_norm(x - trace.iterates[-1])
                               for x in trace.iterates]
