import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgd import (
    GradNormSquared,
    Penalty,
    SolverConfig,
    decompose_grad_f,
    infeasible_stationary_ok,
    quadratic_sanity_problem,
    rng,
    run,
    stationarity_report,
    toy_problem,
    unscaled_kkt_ok,
)


class TestDecompose:
    def test_axis_aligned(self):
        par, perp = decompose_grad_f(np.array([1.0, 1.0]), np.array([2.0, 0.0]))
        assert np.allclose(par, [1.0, 0.0]) and np.allclose(perp, [0.0, 1.0])

    def test_parallel_input_has_no_orthogonal_part(self):
        g = np.array([1.0, 2.0, -1.0])
        par, perp = decompose_grad_f(3.0 * g, g)
        assert np.allclose(perp, 0.0, atol=1e-14)

    def test_guard_convention(self):
        gf = np.array([1.0, -2.0])
        par, perp = decompose_grad_f(gf, np.zeros(2))
        assert np.array_equal(par, np.zeros(2)) and np.array_equal(perp, gf)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 30))
    def test_pythagoras(self, seed, n):
        gen = rng(seed)
        gf = gen.standard_normal(n)
        gg = gen.standard_normal(n)
        par, perp = decompose_grad_f(gf, gg)
        total = float(gf @ gf)
        assert float(par @ par) + float(perp @ perp) == pytest.approx(
            total, rel=1e-10, abs=1e-12
        )
        assert float(par @ perp) == pytest.approx(0.0, abs=1e-10 * (1.0 + total))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.floats(1e-6, 1e6))
    def test_scaling_lower_gradient_changes_nothing(self, seed, c):
        gen = rng(seed)
        gf = gen.standard_normal(5)
        gg = gen.standard_normal(5)
        _, perp_a = decompose_grad_f(gf, gg)
        _, perp_b = decompose_grad_f(gf, c * gg)
        assert np.allclose(perp_a, perp_b, rtol=1e-10, atol=1e-12)


class TestStationarityReport:
    def test_quadratic_at_lower_solution(self):
        problem = quadratic_sanity_problem(5)
        rep = stationarity_report(problem, np.zeros(5), lam=3.0)
        assert rep.grad_g_sq == 0.0
        assert rep.d_sq == pytest.approx(5.0)
        assert rep.f_perp_sq == pytest.approx(5.0)
        assert not rep.cos_defined and math.isnan(rep.cos_theta)
        assert rep.primal_gap == 0.0
        assert rep.lambda_source == "given"

    def test_toy_at_bilevel_optimum(self):
        problem = toy_problem()
        x_star = np.array([-math.pi / 20.0, -1.0])
        rep = stationarity_report(problem, x_star, lam=0.0)
        assert rep.d_sq == 0.0
        assert rep.grad_g_sq == pytest.approx(0.0, abs=1e-28)

    def test_exact_cancellation(self):
        problem = quadratic_sanity_problem(3)
        rep = stationarity_report(problem, 0.5 * np.ones(3), lam=1.0)
        assert rep.d_sq == pytest.approx(0.0, abs=1e-28)
        assert rep.cos_theta == pytest.approx(-1.0)

    def test_residual_minimizing_multiplier_label_and_value(self):
        problem = quadratic_sanity_problem(3)
        x = 0.5 * np.ones(3)
        rep = stationarity_report(problem, x)
        assert rep.lambda_source == "optimal"
        assert rep.lam == pytest.approx(1.0)
        # optimal multiplier minimizes the residual over lam >= 0
        given = stationarity_report(problem, x, lam=0.7)
        assert rep.d_sq <= given.d_sq + 1e-15

    def test_orthogonal_component_bounds_residual(self):
        problem = toy_problem()
        gen = rng(3)
        for _ in range(50):
            x = problem.sample_point(gen)
            lam = abs(gen.standard_normal())
            rep = stationarity_report(problem, x, lam=lam)
            gf_sq = rep.f_par_sq + rep.f_perp_sq
            assert rep.d_sq >= rep.f_perp_sq - 1e-10 * (1.0 + gf_sq)

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError):
            stationarity_report(quadratic_sanity_problem(2), np.zeros(2), lam=-1.0)


@pytest.mark.parametrize("method, eta", [
    (GradNormSquared(1.0), 1e-2),
    (Penalty(10.0), 1e-2 / (1.0 + 10.0)),
], ids=["dbgd", "penalty"])
def test_trace_rows_equal_the_report_at_their_iterate(method, eta):
    # The solver's trace and stationarity_report compute the paper's
    # residuals in two places; row k must be the report at x_k, bit for bit.
    problem = toy_problem()
    x0 = np.array([-3.0, -1.0])
    config = SolverConfig(method, eta, 400)
    trace = run(problem, config, x0)
    # x_k is the final point of a k-iteration run
    shorter = [SolverConfig(method, eta, k) for k in range(1, len(trace))]
    points = [x0] + [t.final_x for t in run(problem, shorter, x0).traces]
    undefined = 0
    for k, x_k in enumerate(points):
        report = stationarity_report(problem, x_k, lam=float(trace.lam[k]))
        for name in ("grad_g_sq", "d_sq", "f_par_sq", "f_perp_sq", "cos_theta"):
            row, rep = np.float64(getattr(trace, name)[k]), np.float64(getattr(report, name))
            assert row.tobytes() == rep.tobytes() or (np.isnan(row) and np.isnan(rep)), (k, name)
        assert bool(trace.cos_defined[k]) == report.cos_defined, k
        undefined += not report.cos_defined
    if not isinstance(method, Penalty):  # the barrier run crosses a vanished lower gradient
        assert undefined > 0


def test_each_relaxed_kkt_condition_rejects_what_it_must():
    # criterion 09 checks only that one of the two holds; each must also fail
    eps_p, eps_d = 1e-3, 0.2
    assert unscaled_kkt_ok(0.0, 0.1, eps_p, eps_d)
    assert not unscaled_kkt_ok(0.005, 0.1, eps_p, eps_d)  # gap above eps_p
    assert not unscaled_kkt_ok(0.0, 0.3, eps_p, eps_d)  # residual above eps_d
    assert infeasible_stationary_ok(0.005, 0.1, eps_p, eps_d)
    assert not infeasible_stationary_ok(0.5 * eps_p, 0.1, eps_p, eps_d)  # nearly feasible
    assert not infeasible_stationary_ok(0.005, 0.3, eps_p, eps_d)  # lower gradient too large
