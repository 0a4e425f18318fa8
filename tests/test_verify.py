import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgd import (
    BloopOrthogonal,
    ConfigurationError,
    DynamicBarrierMin,
    EvaluationError,
    GradNormSquared,
    LowerLinearization,
    Penalty,
    ProblemSpec,
    SmoothnessProfile,
    SolverConfig,
    finite_diff_check,
    infeasible_stationary_ok,
    inequality_audit,
    local_certificate,
    matrix_factorization_problem,
    quadratic_sanity_problem,
    rate_fit,
    rng,
    row_dot,
    run,
    sample_ball,
    scheduled_step,
    sqrt_lemma_check,
    sqrt_lemma_violations,
    stationarity_report,
    toy_problem,
    unscaled_kkt_ok,
)


class TestFiniteDiff:
    def test_quadratic_is_exact_to_rounding(self):
        problem = quadratic_sanity_problem(5)
        x = rng(0).standard_normal(5)
        assert finite_diff_check(problem, x, h=1e-6) <= 1e-8

    def test_toy_over_box(self):
        problem = toy_problem()
        gen = rng(1)
        worst = 0.0
        for _ in range(100):
            x = problem.sample_point(gen)
            h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            worst = max(worst, finite_diff_check(problem, x, h))
        assert worst <= 1e-5

    def test_matrix_factorization(self):
        problem = matrix_factorization_problem(10, 10, 1.0, seed=0)
        gen = rng(2)
        x = problem.sample_point(gen)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        assert finite_diff_check(problem, x, h) <= 1e-5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(quadratic_sanity_problem(2), np.zeros(2), 0.0)

    def test_rejects_a_point_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"shape \(2,\), problem 'quadratic' takes \(3,\)"):
            finite_diff_check(quadratic_sanity_problem(3), np.zeros(2), 1e-6)

    def test_non_finite_evaluation_raises(self):
        broken = ProblemSpec(
            name="broken",
            dim=1,
            smoothness=SmoothnessProfile(1.0, 1.0),
            f=lambda x: float("nan"),
            g=lambda x: 0.0,
            grad_f=lambda x: np.zeros(1),
            grad_g=lambda x: np.zeros(1),
        )
        with pytest.raises(EvaluationError):
            finite_diff_check(broken, np.zeros(1), 1e-6)


class TestSqrtLemma:
    def test_simple_case(self):
        assert sqrt_lemma_check(1.0, 0.0, 1.0)

    def test_boundary_case(self):
        assert sqrt_lemma_check(0.0, 2.0, 4.0)

    def test_vacuous_when_premise_fails(self):
        assert sqrt_lemma_check(0.0, 0.0, 5.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            sqrt_lemma_check(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            sqrt_lemma_check(1.0, 1.0, -1.0)

    @pytest.mark.parametrize("a, b, x", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
        (-math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
    ])
    def test_rejects_non_finite_inputs(self, a, b, x):
        # sqrt_lemma_check(nan, 1, 1) used to be False while the counter
        # counted the same triple as no violation
        with pytest.raises(ValueError, match="must be finite"):
            sqrt_lemma_check(a, b, x)
        with pytest.raises(ValueError, match="must be finite"):
            sqrt_lemma_violations(np.array([0.0, a]), np.array([0.0, b]), np.array([0.0, x]))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 10**9))
    def test_implication_property(self, seed):
        gen = rng(seed)
        a = gen.uniform(-5.0, 10.0)
        b = gen.uniform(0.0, 5.0)
        disc = b * b + 4.0 * a
        if disc < 0.0:
            return  # premise unsatisfiable
        lo = max(0.0, 0.5 * (b - math.sqrt(disc)))
        hi = 0.5 * (b + math.sqrt(disc))
        u = gen.uniform(lo, hi)
        assert sqrt_lemma_check(a, b, u * u)

    def test_vectorized_counter_agrees_with_scalar(self):
        gen = rng(77)
        a = gen.uniform(-5.0, 10.0, 1000)
        b = gen.uniform(0.0, 5.0, 1000)
        x = gen.uniform(0.0, 20.0, 1000)
        assert sqrt_lemma_violations(a, b, x) == sum(
            0 if sqrt_lemma_check(ai, bi, xi) else 1
            for ai, bi, xi in zip(a, b, x)
        )


AUDIT_SETUP = dict(n=6, box_radius=0.5, eta=0.4, beta=1.0, iterations=1000)


def _audit_trace():
    problem = quadratic_sanity_problem(AUDIT_SETUP["n"], AUDIT_SETUP["box_radius"])
    config = SolverConfig(
        method=GradNormSquared(AUDIT_SETUP["beta"]),
        eta=AUDIT_SETUP["eta"],
        iterations=AUDIT_SETUP["iterations"],
    )
    trace = run(problem, config, 0.1 * np.ones(AUDIT_SETUP["n"]))
    return problem, trace


class TestInequalityAudit:
    def test_valid_constants_have_zero_violations(self):
        problem, trace = _audit_trace()
        report = inequality_audit(trace, problem.smoothness)
        assert report.total_violations == 0

    @pytest.mark.parametrize("field", ["lip_grad_f", "lip_grad_g", "grad_f_bound"])
    def test_halved_constant_is_detected(self, field):
        problem, trace = _audit_trace()
        prof = problem.smoothness
        values = {
            "lip_grad_f": prof.lip_grad_f,
            "lip_grad_g": prof.lip_grad_g,
            "grad_f_bound": prof.grad_f_bound,
        }
        values[field] = values[field] / 2.0
        corrupted = SmoothnessProfile(**values)
        report = inequality_audit(trace, corrupted)
        assert report.total_violations >= 1

    def test_zero_beta_run_still_audits_clean(self):
        problem = quadratic_sanity_problem(6, box_radius=0.5)
        config = SolverConfig(
            method=GradNormSquared(0.0),
            eta=0.4,
            iterations=300,
        )
        trace = run(problem, config, 0.1 * rng(3).standard_normal(6))
        report = inequality_audit(trace, problem.smoothness)
        assert report.total_violations == 0

    def test_mode_mismatch_is_config_error(self):
        # the bounds are those of the grad-norm-squared rule, not of every barrier rule
        problem = quadratic_sanity_problem(3)
        for method in (Penalty(1.0), DynamicBarrierMin(1.0, 0.5, 0.0),
                       LowerLinearization(0.0, 0.1), BloopOrthogonal(0.5)):
            config = SolverConfig(
                method=method, eta=0.1 / (1.0 + 1.0), iterations=5
            )
            trace = run(problem, config, 0.1 * np.ones(3))
            with pytest.raises(ConfigurationError, match=method.label):
                inequality_audit(trace, problem.smoothness)

    def test_missing_gradient_bound_is_capability_error(self):
        problem, trace = _audit_trace()
        profile = SmoothnessProfile(1.0, 1.0, grad_f_bound=None)
        with pytest.raises(ConfigurationError, match="grad_f_bound"):
            inequality_audit(trace, profile)


class TestLocalCertificate:
    def test_quadratic_lower_minimum(self):
        problem = quadratic_sanity_problem(4)
        result = local_certificate(
            problem,
            np.zeros(4),
            eps_f=4.0,  # ||grad_f(0)||^2
            eps_g=0.0,
            delta=0.5,
            radius=0.1,
            samples=500,
            seed=0,
        )
        assert result.passed
        assert result.lower_margin >= 0.0

    def test_negative_control_fails_at_non_stationary_point(self):
        problem = quadratic_sanity_problem(4)
        result = local_certificate(
            problem,
            0.5 * np.ones(4),
            eps_f=0.0,
            eps_g=0.0,
            delta=0.5,
            radius=0.01,
            samples=500,
            seed=0,
        )
        assert not result.passed
        assert min(result.lower_margin, result.upper_margin) < 0.0

    def test_toy_terminal_point_certifies(self):
        problem = toy_problem()
        config = SolverConfig(
            method=GradNormSquared(1.0),
            eta=1e-3,
            iterations=2000,
        )
        trace = run(problem, config, np.array([-3.0, -1.0]))
        result = local_certificate(
            problem,
            trace.final_x,
            eps_f=1e-4,
            eps_g=1e-4,
            delta=0.5,
            radius=1e-3,
            samples=2000,
            seed=7,
        )
        assert result.passed

    def test_parameter_validation(self):
        problem = quadratic_sanity_problem(2)
        with pytest.raises(ValueError):
            local_certificate(problem, np.zeros(2), 1.0, 1.0, 0.5, 0.0, 10)
        with pytest.raises(ValueError):
            local_certificate(problem, np.zeros(2), 1.0, 1.0, 0.5, 1.0, 0)

    @pytest.mark.parametrize("name", ["eps_f", "eps_g", "delta"])
    @pytest.mark.parametrize("value", [math.nan, -0.5])
    def test_rejects_a_nan_or_negative_tolerance(self, name, value):
        # a NaN delta used to pass with lower_margin = inf
        args = dict(eps_f=1e-4, eps_g=1e-4, delta=0.5, radius=1e-3, samples=200)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            local_certificate(toy_problem(), np.array([-math.pi / 20.0, -1.0]), **args)

    @pytest.mark.parametrize("f, g", [
        (lambda x: x[..., 0] ** 2, lambda x: np.where(x[..., 0] > 0.0, np.nan, x[..., 0] ** 2)),
        (lambda x: np.where(x[..., 0] > 0.0, np.inf, 0.0), lambda x: 0.0 * x[..., 0]),
        (lambda x: np.where(x[..., 0] == 0.0, np.nan, 1.0), lambda x: 0.0 * x[..., 0]),
    ], ids=["g-nan-at-samples", "f-inf-at-checked-samples", "f-nan-at-x-hat"])
    def test_a_non_finite_value_raises(self, f, g):
        # the minimum over samples used to skip NaN values and pass
        problem = ProblemSpec(name="holey", dim=1, smoothness=SmoothnessProfile(1.0, 1.0),
                              f=f, g=g, grad_f=np.zeros_like, grad_g=np.zeros_like)
        with pytest.raises(EvaluationError, match="non-finite objective"):
            local_certificate(problem, np.zeros(1), 1e-4, 1e-4, 0.5, 1e-2, 200)

    def test_rejects_a_point_of_another_dimension(self):
        # a 3-vector on the 2-dimensional toy used to pass
        with pytest.raises(ValueError, match=r"shape \(3,\), problem 'toy' takes \(2,\)"):
            local_certificate(toy_problem(), np.zeros(3), 1e-4, 1e-4, 0.1, 1e-3, 5)

    def test_ball_sampler_stays_in_ball_and_is_seeded(self):
        center = np.array([1.0, -2.0, 0.5])
        pts = sample_ball(center, 0.3, 200, rng(5))
        dists = np.linalg.norm(pts - center, axis=1)
        assert np.all(dists <= 0.3 + 1e-12)
        again = sample_ball(center, 0.3, 200, rng(5))
        assert np.array_equal(pts, again)


def _certificate_loop(problem, x_hat, eps_f, eps_g, delta, radius, samples, seed):
    """``local_certificate``'s margins, checked count and verdict, one
    sample at a time: the reference for its batched evaluation."""
    points = sample_ball(x_hat, radius, samples, rng(seed))
    f_hat, g_hat = problem.eval_f(x_hat), problem.eval_g(x_hat)
    sf, sg = math.sqrt(eps_f), math.sqrt(eps_g)
    lower = upper = math.inf
    checked = 0
    for point in points:
        dist = float(np.linalg.norm(point - x_hat))
        g_val = problem.eval_g(point)
        lower = min(lower, g_val - g_hat + (1.0 + delta) * sg * dist)
        if g_val <= g_hat:
            checked += 1
            upper = min(upper, problem.eval_f(point) - f_hat + (1.0 + delta) * sf * dist)
    return lower, upper, checked, lower >= 0.0 and upper >= 0.0


CERTIFIED_PROBLEMS = {
    "toy": toy_problem(),
    "quadratic": quadratic_sanity_problem(3),
    "matfac": matrix_factorization_problem(5, 3, 1.0, seed=0),
}


@pytest.mark.parametrize("samples", [1, 200])
@pytest.mark.parametrize("radius", [1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("name", CERTIFIED_PROBLEMS)
def test_batched_certificate_equals_a_per_sample_loop(name, radius, samples):
    problem = CERTIFIED_PROBLEMS[name]
    points = [np.zeros(problem.dim)] + [problem.sample_point(rng(s)) for s in range(3)]
    for seed, x_hat in enumerate(points):
        args = (problem, x_hat, 1e-3, 1e-2, 0.5, radius, samples, seed)
        got = local_certificate(*args)
        lower, upper, checked, passed = _certificate_loop(*args)
        assert np.float64(got.lower_margin).tobytes() == np.float64(lower).tobytes(), seed
        assert np.float64(got.upper_margin).tobytes() == np.float64(upper).tobytes(), seed
        assert (got.upper_checked, got.passed, got.samples) == (checked, passed, samples), seed


def _finite_diff_loop(problem, x, h):
    """``finite_diff_check``'s worst error, one point at a time: the
    reference for its batched evaluation."""
    worst = 0.0
    for func, grad in ((problem.eval_f, problem.eval_grad_f),
                       (problem.eval_g, problem.eval_grad_g)):
        analytic = grad(x)
        for i in range(problem.dim):
            step = np.zeros(problem.dim)
            step[i] = h
            fd = (func(x + step) - func(x - step)) / (2.0 * h)
            worst = max(worst, abs(fd - analytic[i]) / (1.0 + abs(analytic[i])))
    return worst


@pytest.mark.parametrize("name", [*CERTIFIED_PROBLEMS, "matfac-150"])
def test_batched_finite_differences_equal_a_per_coordinate_loop(name):
    # 150 coordinates take two batched calls per objective and sign
    problem = CERTIFIED_PROBLEMS.get(name) or matrix_factorization_problem(30, 5, 1.0, seed=0)
    for seed in range(4):
        x = problem.sample_point(rng(seed))
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        got, expected = finite_diff_check(problem, x, h), _finite_diff_loop(problem, x, h)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), seed


def test_certificate_with_no_sample_below_the_lower_value():
    # every sample around the lower minimum raises g, so none meets the upper test
    problem = quadratic_sanity_problem(3)
    args = (problem, np.zeros(3), 4.0, 0.0, 0.5, 0.1, 300, 0)
    got = local_certificate(*args)
    assert (got.upper_margin, got.upper_checked) == (math.inf, 0)
    assert (got.lower_margin, got.upper_margin, got.upper_checked, got.passed) == \
        _certificate_loop(*args)


def test_samples_where_g_stays_level_meet_the_upper_test():
    # g(x) <= g(x_hat) admits equality: on a flat lower level every sample counts
    problem = ProblemSpec(name="flat", dim=2, smoothness=SmoothnessProfile(2.0, 1.0),
                          f=lambda x: row_dot(x, x), g=lambda x: 0.0 * x[..., 0],
                          grad_f=lambda x: 2.0 * x, grad_g=np.zeros_like)
    got = local_certificate(problem, np.zeros(2), 0.0, 0.0, 0.5, 0.1, 50)
    assert (got.upper_checked, got.passed) == (50, True)


def scheduled_traces(problem, x0, ps, k_grid):
    """The best-last traces of the scheduled run of every ``(p, K)`` pair, ``p`` outermost."""
    configs = []
    for p in ps:
        for k in k_grid:
            eta, beta = scheduled_step(problem.smoothness, k, p)
            configs.append(SolverConfig(GradNormSquared(beta), eta, k))
    return run(problem, configs, x0, keep="best-last").traces


class TestRateFit:
    def test_theoretical_slopes(self):
        problem = quadratic_sanity_problem(4)
        traces = scheduled_traces(problem, 1.5 * np.ones(4), [1.0, 0.0], [50, 100, 200])
        fit_1, fit_0 = rate_fit([1.0, 0.0], [50, 100, 200], traces)
        assert fit_1.theoretical_slope == pytest.approx(-0.75)
        assert fit_0.theoretical_slope == pytest.approx(-2.0 / 3.0)

    def test_quadratic_decays_fast_enough(self):
        problem = quadratic_sanity_problem(10)
        traces = scheduled_traces(problem, 1.5 * np.ones(10), [0.0], [100, 1000, 10000])
        (fit,) = rate_fit([0.0], [100, 1000, 10000], traces)
        assert fit.passed
        assert all(m > 0.0 for m in fit.min_potentials)

    def test_small_grid_is_rejected(self):
        problem = quadratic_sanity_problem(3)
        traces = scheduled_traces(problem, np.ones(3), [0.0], [100, 1000])
        with pytest.raises(ValueError):
            rate_fit([0.0], [100, 1000], traces)

    def test_repeated_budgets_are_rejected(self):
        # a line through one point repeated has no slope
        problem = quadratic_sanity_problem(3)
        for k_grid in ([100, 100, 100], [100, 1000, 100]):
            traces = scheduled_traces(problem, np.ones(3), [0.0], k_grid)
            with pytest.raises(ValueError, match="3 distinct budgets"):
                rate_fit([0.0], k_grid, traces)

    def test_a_repeated_budget_is_rejected(self):
        # 3 distinct budgets, but the repeat would weigh 100 twice in the fit
        traces = scheduled_traces(toy_problem(), [-3, -1], [0.0], [100, 100, 1000, 3000])
        with pytest.raises(ValueError, match="k_grid repeats 100"):
            rate_fit([0.0], [100, 100, 1000, 3000], traces)

    def test_a_repeated_exponent_is_rejected(self):
        # two identical fits
        traces = scheduled_traces(toy_problem(), [-3, -1], [0.0, 0.0], [100, 1000, 3000])
        with pytest.raises(ValueError, match="ps repeats 0.0"):
            rate_fit([0.0, 0.0], [100, 1000, 3000], traces)

    @pytest.mark.parametrize("count", [0, 3, 5, 7])
    def test_a_trace_count_other_than_one_per_pair_is_rejected(self, count):
        # a fit zips the traces with the pairs, so a missing or extra run
        # would shift every minimum after it
        traces = scheduled_traces(toy_problem(), [-3, -1], [0.0, 1.0], [100, 200, 300])
        with pytest.raises(ValueError, match=f"{count} traces for 2 x 3"):
            rate_fit([0.0, 1.0], [100, 200, 300], (traces * 2)[:count])

    def test_a_fit_reads_each_pair_from_its_own_trace(self):
        # the same traces fit the same minima, in p-major order
        problem = toy_problem()
        traces = scheduled_traces(problem, [-3, -1], [0.0, 1.0], [100, 200, 300])
        fits = rate_fit([0.0, 1.0], [100, 200, 300], traces)
        minima = [float(np.min(trace.potential)) for trace in traces]
        assert [m for fit in fits for m in fit.min_potentials] == minima


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

    def test_rejects_a_point_of_another_dimension(self):
        # the toy's gradients would leave the third entry unwritten
        with pytest.raises(ValueError, match=r"shape \(3,\), problem 'toy' takes \(2,\)"):
            stationarity_report(toy_problem(), [0.1, 0.2, 5.0], lam=1.0)
        with pytest.raises(ValueError, match=r"shape \(2,\), problem 'quadratic' takes \(3,\)"):
            stationarity_report(quadratic_sanity_problem(3), np.zeros(2), lam=1.0)


@pytest.mark.parametrize("method, eta", [
    (GradNormSquared(1.0), 1e-2),
    (Penalty(10.0), 1e-2 / (1.0 + 10.0)),
], ids=["dbgd", "penalty"])
def test_trace_rows_equal_the_report_at_their_iterate(method, eta):
    # stationarity_report takes its split and cosine from the engine's own
    # geometry function, so row k must be the report at x_k, bit for bit.
    # The independent route for the geometry is the reference loop
    # (tests/reference.py).
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
