"""Solver-layer tests: steps, traces, the series family, order estimates."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halley_cert import (
    LFNormExceededError,
    LinearSolveError,
    NonlinearProblem,
    SolveTrace,
    STOP_REASONS,
    TridiagonalForm,
    estimate_q_order,
    family_solve,
    family_step,
    halley_solve,
    halley_step,
    lf_matrix,
    second_derivative_from_tensor,
)
from halley_cert import problem
from helpers import (
    band_matrix,
    linear_problem,
    premultiplied,
    quadratic_problem,
    scalar_sqrt2,
)

HALLEY_COEFFS_60 = tuple(0.5 ** k for k in range(60))


def test_problem_validation():
    with pytest.raises(ValueError):
        NonlinearProblem(dim=0, eval_f=lambda x: x,
                         eval_jacobian=lambda x: x, eval_second=lambda x, u, v: x)


def test_vector_and_matrix_norms():
    p_max = scalar_sqrt2()
    assert p_max.vector_norm(np.array([1.0, -3.0, 2.0])) == 3.0
    a = np.array([[1.0, -2.0], [0.5, 0.25]])
    # max absolute row sum
    assert p_max.matrix_norm(a) == 3.0


def test_lf_matrix_scalar_value():
    # L_F(x) = (x^2 - 2) / (4 x^2) for F(x) = x^2 - 2; at x = 1 that is -1/4
    p = scalar_sqrt2()
    lf = lf_matrix(p, np.array([1.0]))
    assert lf.shape == (1, 1)
    assert lf[0, 0] == pytest.approx(-0.25, rel=1e-15)


def test_lf_matrix_vanishes_at_root_and_for_linear_maps():
    p = scalar_sqrt2()
    at_root = lf_matrix(p, np.array([math.sqrt(2.0)]))
    assert abs(at_root[0, 0]) < 1e-15

    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    lin = linear_problem(a, rng.standard_normal(3))
    assert np.all(lf_matrix(lin, rng.standard_normal(3)) == 0.0)


def test_halley_step_scalar_values():
    p = scalar_sqrt2()
    x1 = halley_step(p, np.array([1.0]))
    assert x1[0] == pytest.approx(1.4, rel=1e-15)
    x2 = halley_step(p, x1)
    # 1.4 + 2.8/197, worked out by hand
    assert x2[0] == pytest.approx(1.4142131979695431, rel=1e-15)


def test_halley_step_exact_on_linear_problems():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        p = linear_problem(a, b)
        x1 = halley_step(p, rng.standard_normal(4))
        assert np.allclose(x1, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)


def _tridiagonal_linear(bands: np.ndarray) -> NonlinearProblem:
    """F(x) = T x - 1 for the tridiagonal T stored in bands, with A = I."""
    n = bands.shape[1]
    form = TridiagonalForm(jacobian=lambda x: bands,
                           second_matrix=lambda x, d: np.zeros((3, n)),
                           apply=lambda v: np.array(v, dtype=float))
    return dataclasses.replace(linear_problem(band_matrix(bands), np.ones(n)),
                               tridiagonal=form)


def test_tridiagonal_form_solves_like_the_dense_system():
    bands = np.array([[0.0, 1.0, -0.5, 2.0],
                      [4.0, 3.0, 5.0, 4.0],
                      [1.0, 0.5, -1.0, 0.0]])
    p = _tridiagonal_linear(bands)
    x1 = halley_step(p, np.zeros(4))
    dense = dataclasses.replace(p, tridiagonal=None)
    assert np.max(np.abs(x1 - halley_step(dense, np.zeros(4)))) <= 1e-15
    assert np.max(np.abs(p.eval_f(x1))) <= 1e-15


def test_near_singular_tridiagonal_form_is_a_linear_solve_failure():
    # rows 0 and 1 agree to 1e-15: the second pivot falls below the guard
    bands = np.array([[0.0, 1.0, 0.0],
                      [1.0, 1.0 + 1e-15, 1.0],
                      [1.0, 0.0, 0.0]])
    p = _tridiagonal_linear(bands)
    with pytest.raises(LinearSolveError, match="in column 1"):
        halley_step(p, np.zeros(3))
    trace = halley_solve(p, np.zeros(3))
    assert trace.stop_reason == "linear_solve_failure"
    assert len(trace.iterates) == 1 and trace.lf_norms == []

    # every entry of the three bands is guarded; F(0) reads the broken entry
    # too, where inf * 0 is nan
    for row, cols in ((0, (1, 2)), (1, (0, 1, 2)), (2, (0, 1))):
        for col in cols:
            for bad in (np.nan, np.inf, -np.inf):
                broken = bands.copy()
                broken[row, col] = bad
                with np.errstate(invalid="ignore"), \
                        pytest.raises(LinearSolveError, match="non-finite"):
                    halley_step(_tridiagonal_linear(broken), np.zeros(3))

    # the two unused corners are never read
    regular = np.array([[0.0, 1.0, 1.0],
                        [4.0, 4.0, 4.0],
                        [1.0, 1.0, 0.0]])
    expected = halley_step(_tridiagonal_linear(regular), np.zeros(3))
    for corner in ((0, 0), (2, 2)):
        broken = regular.copy()
        broken[corner] = np.nan
        assert np.array_equal(halley_step(_tridiagonal_linear(broken), np.zeros(3)),
                              expected)


def test_tridiagonal_form_shape_and_size_are_checked():
    p = _tridiagonal_linear(np.ones((3, 4)))
    wrong = dataclasses.replace(p, tridiagonal=dataclasses.replace(
        p.tridiagonal, jacobian=lambda x: np.ones((4, 4))))
    with pytest.raises(ValueError, match="tridiagonal.jacobian"):
        halley_step(wrong, np.zeros(4))
    with pytest.raises(ValueError, match="dim >= 3"):
        dataclasses.replace(scalar_sqrt2(), tridiagonal=p.tridiagonal)


def _tridiagonal_quadratic(t_bands: np.ndarray, q_bands: np.ndarray) -> NonlinearProblem:
    """F(x) = T x + (1/2) Q (x * x) - 1 for tridiagonal T and Q in (3, n)
    storage, with A = I: F'(x) = T + Q diag(x) and F''(x)[., d] = Q diag(d)."""
    n = t_bands.shape[1]
    t, q = band_matrix(t_bands), band_matrix(q_bands)
    form = TridiagonalForm(jacobian=lambda x: t_bands + q_bands * x,
                           second_matrix=lambda x, d: q_bands * d,
                           apply=lambda v: np.array(v, dtype=float))
    return NonlinearProblem(
        dim=n,
        eval_f=lambda x: t @ x + 0.5 * q @ (x * x) - 1.0,
        eval_jacobian=lambda x: t + q * x,
        eval_second=lambda x, u, v: q @ (u * v),
        tridiagonal=form)


def _lf_norm_paths(p: NonlinearProblem, x: np.ndarray):
    """(one-solve |L_F|, or None where it is not proven; |L_F| of the
    n-by-n matrix; |L_F| the solver records) at x."""
    step = problem._Step(p, x, p.eval_f(x))
    return (problem._one_solve_lf_norm(step.jac, step.second, step.solve),
            p.matrix_norm(lf_matrix(p, x)), step.lf_norm())


def _z_matrix_bands(n: int) -> np.ndarray:
    bands = np.zeros((3, n))
    bands[1] = 4.0
    bands[0, 1:] = bands[2, :-1] = -1.0
    return bands


def test_one_solve_lf_norm_is_exact_on_m_matrices():
    rng = np.random.default_rng(71)
    q = rng.uniform(0.1, 0.3, (3, 12))
    p = _tridiagonal_quadratic(_z_matrix_bands(12), q)
    for _ in range(5):
        x = rng.uniform(0.0, 0.3, 12)
        one, dense, recorded = _lf_norm_paths(p, x)
        assert one is not None and recorded == one
        assert abs(one - dense) <= 1e-14 * dense


def test_lf_norm_falls_back_to_the_matrix_when_not_proven():
    rng = np.random.default_rng(73)
    x = rng.uniform(0.0, 0.3, 12)
    # a positive off-diagonal: T is no Z-matrix
    t = _z_matrix_bands(12)
    t[0, 5] = 0.5
    positive = _tridiagonal_quadratic(t, rng.uniform(0.1, 0.3, (3, 12)))
    # a column of Q, so of S = Q diag(d), with both signs
    q = rng.uniform(0.1, 0.3, (3, 12))
    q[2, 6] = -0.2
    mixed = _tridiagonal_quadratic(_z_matrix_bands(12), q)
    for p in (positive, mixed):
        one, dense, recorded = _lf_norm_paths(p, x)
        assert one is None and recorded == dense
        # and the solver records the norms the dense systems give
        tri = halley_solve(p, x)
        plain = halley_solve(dataclasses.replace(p, tridiagonal=None), x)
        assert tri.converged and len(tri.lf_norms) == len(plain.lf_norms)
        assert np.max(np.abs(np.subtract(tri.lf_norms, plain.lf_norms))) <= (
            1e-14 * max(plain.lf_norms))


def test_series_products_need_no_lf_matrix():
    rng = np.random.default_rng(79)
    p = _tridiagonal_quadratic(_z_matrix_bands(12), rng.uniform(-0.3, 0.3, (3, 12)))
    x = rng.uniform(0.0, 0.3, 12)
    for q in (p, dataclasses.replace(p, tridiagonal=None)):
        step = problem._Step(q, x, q.eval_f(x))
        s = 2.0 * lf_matrix(q, x)
        for y in rng.standard_normal((4, 12)):
            assert np.max(np.abs(step.series(y) - s @ y)) <= 1e-14 * np.max(np.abs(s) @ np.abs(y))


def test_family_coefficient_validation():
    p = scalar_sqrt2()
    x = np.array([1.0])
    for bad in ([], [0.9], [1.0, 0.4], [1.0, 0.5, -0.1], [1.0, 0.5, 0.1, 0.2]):
        with pytest.raises(ValueError):
            family_step(p, x, bad)


def test_family_newton_and_chebyshev_forms():
    p = scalar_sqrt2()
    x = np.array([1.0])
    newton = family_step(p, x, (1.0,))
    assert newton[0] == pytest.approx(1.5, rel=1e-15)
    chebyshev = family_step(p, x, (1.0, 0.5))
    # x - d - L_F d with d = -1/2 and L_F = -1/4
    assert chebyshev[0] == pytest.approx(1.375, rel=1e-15)


def test_family_geometric_coefficients_reproduce_halley():
    p = scalar_sqrt2()
    x = np.array([1.0])
    assert family_step(p, x, HALLEY_COEFFS_60)[0] == pytest.approx(
        halley_step(p, x)[0], rel=1e-15)

    rng = np.random.default_rng(20260817)
    for _ in range(10):
        q, x0 = quadratic_problem(rng, 5)
        via_family = family_step(q, x0, HALLEY_COEFFS_60)
        direct = halley_step(q, x0)
        assert np.max(np.abs(via_family - direct)) <= 1e-13 * max(
            1.0, np.max(np.abs(direct)))


def test_family_step_rejects_large_series_operator():
    # at x = 0.9 the series operator norm is 2 |x^2 - 2| / (4 x^2) ~ 0.73
    p = scalar_sqrt2()
    with pytest.raises(LFNormExceededError):
        family_step(p, np.array([0.9]), (1.0, 0.5))
    # Halley itself has no such restriction
    halley_step(p, np.array([0.9]))


def test_second_derivative_adapter_validation_and_symmetry():
    with pytest.raises(ValueError):
        second_derivative_from_tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        second_derivative_from_tensor(np.zeros((2, 3, 2)))

    rng = np.random.default_rng(3)
    t = rng.standard_normal((4, 4, 4))
    t = 0.5 * (t + t.transpose(0, 2, 1))
    action = second_derivative_from_tensor(t)
    u, v, w = rng.standard_normal((3, 4))
    assert np.allclose(action(None, u, v), action(None, v, u))
    # bilinearity
    lhs = action(None, 2.0 * u + w, v)
    rhs = 2.0 * action(None, u, v) + action(None, w, v)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_second_derivative_matches_jacobian_differences():
    rng = np.random.default_rng(29)
    p, x0 = quadratic_problem(rng, 4)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    h = 1e-6
    jac_diff = (p.eval_jacobian(x0 + h * v) - p.eval_jacobian(x0 - h * v)) / (2 * h)
    assert np.allclose(jac_diff @ u, p.eval_second(x0, u, v),
                       rtol=1e-7, atol=1e-7)


def test_halley_solve_scalar_trace():
    trace = halley_solve(scalar_sqrt2(), np.array([1.0]), tol=1e-12)
    assert trace.converged
    assert trace.stop_reason in STOP_REASONS
    assert len(trace.iterates) <= 4
    got = [x[0] for x in trace.iterates]
    assert got[0] == 1.0
    assert got[1] == pytest.approx(1.4, rel=1e-15)
    assert got[2] == pytest.approx(1.4142131979695431, rel=1e-15)
    assert got[-1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert trace.q_order_estimate == pytest.approx(3.13489472852468, rel=1e-10)


def test_trace_length_invariants():
    rng = np.random.default_rng(41)
    for _ in range(8):
        p, x0 = quadratic_problem(rng, 3)
        trace = halley_solve(p, x0, tol=1e-12)
        assert trace.converged
        assert len(trace.residual_norms) == len(trace.iterates)
        assert len(trace.step_norms) == len(trace.iterates) - 1
        assert len(trace.lf_norms) == len(trace.step_norms)
        assert trace.residual_norms[-1] <= 1e-10


def test_halley_solve_from_root_stops_immediately():
    trace = halley_solve(scalar_sqrt2(), np.array([math.sqrt(2.0)]), tol=1e-12)
    assert trace.stop_reason == "residual_below_tol"
    assert len(trace.iterates) == 1
    assert trace.step_norms == []
    assert trace.lf_norms == []
    assert trace.q_order_estimate is None


def test_halley_solve_max_iters_stop():
    trace = halley_solve(scalar_sqrt2(), np.array([1.0]), tol=1e-12, max_iters=1)
    assert trace.stop_reason == "max_iters"
    assert not trace.converged
    assert len(trace.iterates) == 2


def test_halley_solve_step_below_tol_stop():
    # F(x) = 1e6 (x - 1): the residual at the start, 1e-7, is above tol, the
    # exact step of 1e-13 is below it
    trace = halley_solve(linear_problem([[1e6]], [1e6]), np.array([1.0 + 1e-13]),
                         tol=1e-12)
    assert trace.stop_reason == "step_below_tol"
    assert trace.converged
    assert len(trace.iterates) == 2
    assert trace.residual_norms[0] > 1e-12 >= trace.step_norms[0]


def test_halley_solve_validation():
    p = scalar_sqrt2()
    with pytest.raises(ValueError):
        halley_solve(p, np.array([1.0]), tol=0.0)
    with pytest.raises(ValueError):
        halley_solve(p, np.array([1.0]), max_iters=0)


def test_halley_solve_singular_jacobian_recorded_not_raised():
    # x^2 + 1 has no real root and a singular Jacobian at the start point
    p = NonlinearProblem(
        dim=1,
        eval_f=lambda x: np.array([x[0] ** 2 + 1.0]),
        eval_jacobian=lambda x: np.array([[2.0 * x[0]]]),
        eval_second=lambda x, u, v: np.array([2.0 * u[0] * v[0]]),
    )
    trace = halley_solve(p, np.array([0.0]))
    assert trace.stop_reason == "linear_solve_failure"
    assert not trace.converged
    assert len(trace.iterates) == 1
    assert trace.lf_norms == []

    rank_deficient = linear_problem(np.array([[1.0, 2.0], [2.0, 4.0]]),
                                    np.array([1.0, 1.0]))
    trace2 = halley_solve(rank_deficient, np.zeros(2))
    assert trace2.stop_reason == "linear_solve_failure"
    assert len(trace2.lf_norms) == len(trace2.step_norms)


def test_family_solve_newton_order():
    trace = family_solve(scalar_sqrt2(), np.array([1.0]), (1.0,), tol=1e-12)
    assert trace.converged
    assert len(trace.iterates) == 6
    assert trace.q_order_estimate == pytest.approx(2.016502168705573, rel=1e-10)


def test_family_solve_matches_halley_solve():
    rng = np.random.default_rng(53)
    for _ in range(5):
        p, x0 = quadratic_problem(rng, 4)
        via_family = family_solve(p, x0, HALLEY_COEFFS_60, tol=1e-12)
        direct = halley_solve(p, x0, tol=1e-12)
        assert via_family.converged and direct.converged
        assert len(via_family.iterates) == len(direct.iterates)
        for a, b in zip(via_family.iterates, direct.iterates):
            assert np.max(np.abs(a - b)) <= 1e-13


def test_family_solve_stops_on_large_series_operator():
    trace = family_solve(scalar_sqrt2(), np.array([0.9]), (1.0, 0.5))
    assert trace.stop_reason == "lf_norm_exceeded"
    assert not trace.converged
    assert len(trace.iterates) == 1
    assert trace.lf_norms == []


def test_halley_iterates_unchanged_by_premultiplication():
    rng = np.random.default_rng(67)
    p, x0 = quadratic_problem(rng, 4)
    m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    base = halley_solve(p, x0, tol=1e-12)
    scaled = halley_solve(premultiplied(p, m), x0, tol=1e-12)
    shared = min(len(base.iterates), len(scaled.iterates))
    assert shared >= 3
    for a, b in zip(base.iterates[:shared], scaled.iterates[:shared]):
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def test_estimate_q_order_needs_enough_signal():
    limit = np.array([1.0])
    flat = SolveTrace(
        iterates=[limit.copy() for _ in range(5)],
        residual_norms=[0.0] * 5,
        step_norms=[0.0] * 4,
        lf_norms=[0.0] * 4,
        stop_reason="step_below_tol",
    )
    assert estimate_q_order(flat) is None

    short = SolveTrace(
        iterates=[np.array([0.5]), np.array([0.9]), np.array([1.0])],
        residual_norms=[0.5, 0.1, 0.0],
        step_norms=[0.4, 0.1],
        lf_norms=[0.0, 0.0],
        stop_reason="residual_below_tol",
    )
    assert estimate_q_order(short) is None


def test_estimate_q_order_needs_a_converged_trace():
    # the last iterate of a stop that did not converge is no limit
    trace = halley_solve(scalar_sqrt2(), np.array([1.0]), tol=1e-12)
    assert estimate_q_order(trace) is not None
    for reason in STOP_REASONS - {"residual_below_tol", "step_below_tol"}:
        assert estimate_q_order(dataclasses.replace(trace, stop_reason=reason)) is None


def test_trace_json_iterates_are_python_floats():
    p, x0 = quadratic_problem(np.random.default_rng(41), 6)
    trace = halley_solve(p, x0)
    iterates = trace.to_json_dict()["iterates"]
    assert iterates == [list(map(float, x)) for x in trace.iterates]
    assert all(type(v) is float for x in iterates for v in x)


def test_trace_json_round_trip():
    trace = halley_solve(scalar_sqrt2(), np.array([1.0]), tol=1e-12)
    payload = json.loads(json.dumps(trace.to_json_dict()))
    back = SolveTrace.from_json_dict(payload)
    assert back.stop_reason == trace.stop_reason
    assert payload["norm_kind"] == "max"
    assert back.q_order_estimate == pytest.approx(trace.q_order_estimate)
    assert back.converged
    for a, b in zip(back.iterates, trace.iterates):
        assert np.all(a == b)
    assert back.residual_norms == trace.residual_norms
    assert back.step_norms == trace.step_norms
    assert back.lf_norms == trace.lf_norms
    # a trace measured in another norm cannot be audited in the max norm
    with pytest.raises(ValueError, match="max norm"):
        SolveTrace.from_json_dict(dict(payload, norm_kind="euclidean"))
    # a payload without the key is a max-norm trace
    del payload["norm_kind"]
    assert SolveTrace.from_json_dict(payload).step_norms == trace.step_norms


def test_errors_to_final_is_the_per_iterate_max_norm_bit_for_bit():
    rng = np.random.default_rng(43)
    for n, k in ((1, 1), (1, 5), (7, 4), (512, 4)):
        xs = [rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n) for _ in range(k)]
        if n > 1:
            xs[0][1], xs[-1][0] = math.nan, -0.0
        trace = SolveTrace(xs, [0.0] * k, [0.0] * (k - 1), [0.0] * (k - 1), "max_iters")
        want = [problem.vector_norm(x - xs[-1]) for x in xs]
        got = problem._errors_to_final(trace)
        assert all(type(e) is float for e in got)
        assert [e.hex() for e in got] == [e.hex() for e in want]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2, 3])
def test_non_finite_family_coefficients_are_rejected(bad, at):
    # NaN fails every comparison the other checks make
    coeffs = [1.0, 0.5, 0.25, 0.125]
    coeffs[at] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        family_step(scalar_sqrt2(), np.array([1.0]), coeffs)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        family_solve(scalar_sqrt2(), np.array([1.0]), coeffs)


def test_an_infinite_tol_is_rejected():
    # every residual is below inf: the solve would stop at once as converged
    with pytest.raises(ValueError, match="tol must be finite"):
        halley_solve(scalar_sqrt2(), np.array([1.0]), tol=math.inf)
    with pytest.raises(ValueError, match="tol must be finite"):
        family_solve(scalar_sqrt2(), np.array([1.0]), (1.0, 0.5), tol=math.inf)


def _polyfit_order(trace: SolveTrace) -> float | None:
    """estimate_q_order as np.polyfit computes its slope."""
    if not trace.converged or len(trace.iterates) < 4:
        return None
    last = trace.iterates[-1]
    errors = [problem.vector_norm(x - last) for x in trace.iterates[:-1]]
    floor = 100.0 * np.finfo(float).eps * max(1.0, problem.vector_norm(last))
    pairs = [(math.log(a), math.log(b)) for a, b in zip(errors, errors[1:])
             if a > floor and b > floor]
    if len(pairs) < 2:
        return None
    return float(np.polyfit(*zip(*pairs), 1)[0])


def _scalar_trace(errors) -> SolveTrace:
    """A converged trace of scalar iterates whose errors to its final
    iterate, 0, are ``errors``."""
    k = len(errors) + 1
    return SolveTrace([np.array([e]) for e in errors] + [np.array([0.0])],
                      [0.0] * k, [0.0] * (k - 1), [0.0] * (k - 1), "residual_below_tol")


def _exact_slope(trace: SolveTrace) -> Fraction:
    """The least-squares slope of estimate_q_order's pairs, in rationals."""
    errors = problem._errors_to_final(trace)[:-1]
    pairs = [(Fraction(math.log(a)), Fraction(math.log(b)))
             for a, b in zip(errors, errors[1:])]
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    return (sum((x - mean_x) * (y - mean_y) for x, y in pairs)
            / sum((x - mean_x) ** 2 for x, _ in pairs))


@settings(max_examples=300, deadline=None)
@given(e0=st.floats(1e-4, 0.5), order=st.floats(1.1, 4.0),
       factor=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_order_fit_matches_polyfit_on_random_errors(e0, order, factor, seed):
    # e_{k+1} = factor e_k^order, each perturbed by a random factor in
    # [1/2, 2], while the errors fall at least tenfold a step: log e_k then
    # spread over at least 2.3, so that polyfit's own error stays well
    # below the tolerance (where they spread over 0.5, it reached 1.3e-14)
    rng = np.random.default_rng(seed)
    errors = [e0]
    while len(errors) < 12:
        e = factor * errors[-1] ** order * 2.0 ** rng.uniform(-1.0, 1.0)
        if not 1e-13 < e < errors[-1] / 10.0:
            break
        errors.append(e)
    assume(len(errors) >= 3)
    trace = _scalar_trace(errors)
    want = _polyfit_order(trace)
    assert want is not None
    got = estimate_q_order(trace)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert abs(Fraction(got) / _exact_slope(trace) - 1) <= 1e-15


def test_closed_form_order_fit_matches_polyfit_on_solver_traces():
    from halley_cert.hammerstein import HammersteinSpec, discretize

    fitted = 0
    for nodes in (8, 33, 200, 512):
        for lam in (-1.0, -0.5, 0.5, 1.0, 1.15):
            spec = HammersteinSpec(lam=lam, nodes=nodes)
            p = discretize(spec)
            for coeffs in (None, (1.0,), (1.0, 0.5), HALLEY_COEFFS_60[:8]):
                trace = (halley_solve(p, np.ones(nodes)) if coeffs is None
                         else family_solve(p, np.ones(nodes), coeffs))
                want = _polyfit_order(trace)
                got = estimate_q_order(trace)
                if want is None:
                    assert got is None
                    continue
                fitted += 1
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert fitted >= 40


def test_equal_log_errors_fix_no_order():
    # every usable pair has the same log e_k: the fit has no slope
    assert estimate_q_order(_scalar_trace([1e-3, 1e-3, 1e-3])) is None
