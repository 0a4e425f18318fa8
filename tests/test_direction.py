import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgd import (
    DEFAULT_GUARD,
    BloopOrthogonal,
    DynamicBarrierMin,
    GradNormSquared,
    InfeasibleSubproblemError,
    LowerLinearization,
    barrier_value,
    bloop_direction,
    dbgd_direction,
    decompose_grad_f,
    penalty_direction,
    qp_oracle_direction,
    rng,
)
from dbgd.direction import halfspace_multiplier, orthogonal_multiplier


def random_pair(gen, n, min_grad_g=0.0):
    gf = gen.standard_normal(n)
    gg = gen.standard_normal(n)
    while np.linalg.norm(gg) < min_grad_g:
        gg = gen.standard_normal(n)
    return gf, gg


class TestBarrierValue:
    def test_grad_norm_squared(self):
        assert barrier_value(GradNormSquared(1.0), 0.0, np.array([0.0, 2.0])) == 4.0

    def test_dynamic_barrier_min(self):
        rule = DynamicBarrierMin(alpha=1.0, beta=1.0, g_star=0.0)
        assert barrier_value(rule, 3.0, np.array([1.0, 0.0])) == 1.0

    def test_lower_linearization(self):
        rule = LowerLinearization(g_star=0.0, eta=0.5)
        assert barrier_value(rule, 2.0, np.array([5.0, 5.0])) == 4.0

    def test_clamps_below_declared_optimum(self):
        rule = LowerLinearization(g_star=1.0, eta=0.5)
        assert barrier_value(rule, 0.5, np.zeros(2)) == 0.0

    def test_orthogonal_rule_has_no_scalar_level(self):
        with pytest.raises(ValueError):
            barrier_value(BloopOrthogonal(1.0), 0.0, np.ones(2))

    def test_rule_parameter_validation(self):
        with pytest.raises(ValueError):
            GradNormSquared(1.5)
        with pytest.raises(ValueError):
            GradNormSquared(-0.1)
        with pytest.raises(ValueError):
            DynamicBarrierMin(alpha=0.0, beta=1.0, g_star=0.0)
        with pytest.raises(ValueError):
            LowerLinearization(g_star=0.0, eta=0.0)
        # the g*-based rules refuse to be built without g*
        with pytest.raises(ValueError, match=r"g\*"):
            DynamicBarrierMin(alpha=1.0, beta=0.5, g_star=None)
        with pytest.raises(ValueError, match=r"g\*"):
            LowerLinearization(g_star=None, eta=0.5)


class TestLambdaClosedForm:
    def test_cross_checked_against_dual_bisection(self):
        gf, gg = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        res = dbgd_direction(gf, gg, 4.0)
        lam = res.lam
        assert not res.degenerate
        oracle = qp_oracle_direction(gf, gg, 4.0, tol=1e-12)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(oracle.lam, abs=1e-11)

    def test_zero_at_exact_balance(self):
        g = np.array([1.0, 0.0])
        res = dbgd_direction(g, g, 1.0)
        assert res.lam == 0.0 and not res.degenerate

    def test_opposed_gradients(self):
        res = dbgd_direction(np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 0.0)
        assert res.lam == pytest.approx(2.0, abs=1e-15)

    def test_guard_fires_on_vanishing_lower_gradient(self):
        res = dbgd_direction(np.array([3.0, 1.0]), np.zeros(2), 0.0)
        assert res.lam == 0.0 and res.degenerate

    def test_the_guard_holds_at_its_own_value(self):
        # ||grad_g||^2 equal to the guard is degenerate, for both multipliers
        assert halfspace_multiplier(-1.0, DEFAULT_GUARD, 1.0) == (0.0, True)
        assert orthogonal_multiplier(-1.0, DEFAULT_GUARD, 1.0) == (0.0, True)

    def test_rejects_negative_phi(self):
        with pytest.raises(ValueError):
            dbgd_direction(np.ones(2), np.ones(2), -1.0)


class TestDbgdDirection:
    def test_projection_example(self):
        res = dbgd_direction(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 4.0)
        assert np.allclose(res.d, [1.0, 2.0], atol=1e-14)
        assert res.lam == pytest.approx(1.0)

    def test_opposed_gradients_annihilate_at_zero_level(self):
        res = dbgd_direction(np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 0.0)
        assert np.allclose(res.d, 0.0, atol=1e-15)
        assert res.lam == pytest.approx(2.0)

    def test_identity_when_already_feasible(self):
        gf = np.array([1.0, 1.0])
        res = dbgd_direction(gf, np.array([1.0, 0.0]), 0.0)
        assert np.array_equal(res.d, gf)
        assert res.lam == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 20))
    def test_halfspace_constraint_and_slackness(self, seed, n):
        gen = rng(seed)
        gf, gg = random_pair(gen, n, min_grad_g=1e-3)
        phi = abs(gen.standard_normal()) * float(gg @ gg)
        res = dbgd_direction(gf, gg, phi)
        assert res.lam >= 0.0
        # feasibility of the projected direction
        assert float(gg @ res.d) >= phi - 1e-9 * (1.0 + abs(phi))
        # complementary slackness
        assert res.lam * (float(gg @ res.d) - phi) == pytest.approx(
            0.0, abs=1e-8 * (1.0 + abs(phi))
        )


class TestBloopDirection:
    def test_orthogonal_composition(self):
        res = bloop_direction(np.array([1.0, 1.0]), np.array([1.0, 0.0]), beta=1.0)
        assert np.allclose(res.d, [1.0, 1.0], atol=1e-15)

    def test_zero_beta_with_orthogonal_gradients(self):
        gf = np.array([0.0, 1.0])
        res = bloop_direction(gf, np.array([1.0, 0.0]), beta=0.0)
        assert np.allclose(res.d, gf, atol=1e-15)

    def test_degenerate_falls_back_to_upper_gradient(self):
        gf = np.array([2.0, -1.0])
        res = bloop_direction(gf, np.zeros(2), beta=1.0)
        assert res.degenerate and np.array_equal(res.d, gf)

    def test_degenerate_direction_is_every_rules_formula(self):
        # grad_f + 0 * grad_g, so a -0.0 of grad_f becomes 0.0 for bloop too
        gf, gg = np.array([-0.0, 1.0]), np.zeros(2)
        ds = [bloop_direction(gf, gg, beta=1.0).d, dbgd_direction(gf, gg, 0.0).d,
              penalty_direction(gf, gg, 1.0).d]
        assert [d.tobytes() for d in ds] == [np.array([0.0, 1.0]).tobytes()] * 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 20))
    def test_equality_constraint_is_exact(self, seed, n):
        gen = rng(seed)
        gf, gg = random_pair(gen, n, min_grad_g=1e-3)
        beta = abs(gen.standard_normal())
        res = bloop_direction(gf, gg, beta)
        target = beta * float(gg @ gg)
        assert float(gg @ res.d) == pytest.approx(target, rel=1e-12, abs=1e-12)


class TestPenaltyDirection:
    def test_zero_multiplier_is_plain_descent(self):
        gf = np.array([1.0, 2.0])
        res = penalty_direction(gf, np.array([5.0, 5.0]), 0.0)
        assert np.array_equal(res.d, gf)

    def test_pure_lower_gradient(self):
        res = penalty_direction(np.zeros(2), np.array([1.0, 0.0]), 5.0)
        assert np.allclose(res.d, [5.0, 0.0])

    def test_combination(self):
        res = penalty_direction(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 10.0)
        assert np.allclose(res.d, [1.0, 10.0])

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError):
            penalty_direction(np.ones(1), np.ones(1), -1.0)


class TestQpOracle:
    def test_agrees_with_closed_form(self):
        res = qp_oracle_direction(
            np.array([1.0, 0.0]), np.array([0.0, 2.0]), 4.0, tol=1e-10
        )
        assert np.allclose(res.d, [1.0, 2.0], atol=1e-9)

    def test_inactive_constraint_returns_upper_gradient(self):
        gf = np.array([1.0, 1.0])
        res = qp_oracle_direction(gf, np.array([1.0, 0.0]), 0.0)
        assert np.array_equal(res.d, gf)

    def test_infeasible_subproblem(self):
        with pytest.raises(InfeasibleSubproblemError):
            qp_oracle_direction(np.ones(2), np.zeros(2), 1.0)

    def test_a_nan_level_is_refused_where_the_closed_form_propagates_it(self):
        # bisecting on a NaN level would return a finite multiplier
        gf, gg = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        closed = dbgd_direction(gf, gg, np.nan)
        assert np.isnan(closed.lam) and np.isnan(closed.d).all()
        with pytest.raises(ValueError, match="phi must be nonnegative"):
            qp_oracle_direction(gf, gg, np.nan)


def test_oracle_equivalence_random_sweep():
    gen = rng(2024)
    for i in range(300):
        n = (2, 10, 100)[i % 3]
        gf, gg = random_pair(gen, n, min_grad_g=1e-3)
        phi = abs(gen.standard_normal()) * float(gg @ gg)
        a = dbgd_direction(gf, gg, phi)
        b = qp_oracle_direction(gf, gg, phi, tol=1e-10)
        err = np.linalg.norm(a.d - b.d)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(gf))


def test_multiplier_bound_on_problem_gradients():
    # closed-form multiplier stays below beta + G_f/||grad_g|| on in-box points
    from dbgd import quadratic_sanity_problem, toy_problem

    for problem in (toy_problem(), quadratic_sanity_problem(6)):
        bound = problem.smoothness.grad_f_bound
        gen = rng(5)
        for beta in (0.0, 0.3, 1.0):
            for _ in range(50):
                x = problem.sample_point(gen)
                gf, gg = problem.eval_grad_f(x), problem.eval_grad_g(x)
                norm_g = float(np.linalg.norm(gg))
                if norm_g**2 <= 1e-24:
                    continue
                lam = dbgd_direction(gf, gg, beta * norm_g**2).lam
                assert lam <= beta + bound / norm_g + 1e-12


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
