from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from dbgd import (
    BloopOrthogonal,
    ConfigurationError,
    DivergenceError,
    DynamicBarrierMin,
    GradNormSquared,
    LowerLinearization,
    Penalty,
    SmoothnessProfile,
    SolverConfig,
    best_iterate,
    inequality_audit,
    quadratic_sanity_problem,
    run,
    scheduled_step,
    toy_problem,
)


class TestScheduledStep:
    def test_unit_budget(self):
        eta, beta = scheduled_step(SmoothnessProfile(1.0, 1.0), 1, 2.5)
        assert eta == 0.5 and beta == 1.0

    def test_balanced_exponent(self):
        eta, beta = scheduled_step(SmoothnessProfile(0.5, 0.5), 10**4, 1.0)
        assert eta == pytest.approx(0.1, rel=1e-12)
        assert beta == pytest.approx(0.1, rel=1e-12)

    def test_zero_exponent_keeps_full_barrier_weight(self):
        eta, beta = scheduled_step(SmoothnessProfile(2.0, 1.0), 1000, 0.0)
        assert beta == 1.0
        assert eta == pytest.approx(1.0 / (3.0 * 10.0), rel=1e-12)

    def test_validation(self):
        for budget in (0, 2.5, True):
            with pytest.raises(ValueError, match="iterations must be a positive integer"):
                scheduled_step(SmoothnessProfile(1.0, 1.0), budget, 0.0)
        for p in (-0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="p must be nonnegative and finite"):
                scheduled_step(SmoothnessProfile(1.0, 1.0), 10, p)


class TestRun:
    def test_penalty_zero_is_gradient_descent_on_upper(self):
        problem = quadratic_sanity_problem(4)
        config = SolverConfig(
            method=Penalty(0.0),
            eta=0.5,
            iterations=300,
        )
        trace = run(problem, config, np.zeros(4))
        assert np.allclose(trace.final_x, np.ones(4), atol=1e-12)

    def test_scheduled_run_reaches_frozen_thresholds(self):
        # thresholds fixed from a calibration run of this configuration
        problem = quadratic_sanity_problem(4)
        eta, beta = scheduled_step(problem.smoothness, 10**4, 1.0)
        config = SolverConfig(
            method=GradNormSquared(beta),
            eta=eta,
            iterations=10**4,
        )
        trace = run(problem, config, 1.5 * np.ones(4))
        k = best_iterate(trace)
        assert trace.grad_g_sq[k] <= 1e-3
        assert trace.d_sq[k] <= 1e-2

    def test_toy_run_ends_fully_aligned_or_opposed(self):
        problem = toy_problem()
        config = SolverConfig(
            method=GradNormSquared(1.0),
            eta=1e-2,
            iterations=1000,
        )
        trace = run(problem, config, np.array([-3.0, -1.0]))
        assert len(trace) == 1000
        assert trace.cos_defined[-1]
        assert abs(trace.cos_theta[-1]) >= 0.99

    def test_traces_are_bitwise_deterministic(self):
        problem = quadratic_sanity_problem(5)
        config = SolverConfig(
            method=GradNormSquared(0.5),
            eta=0.3,
            iterations=200,
        )
        x0 = 0.3 * np.ones(5)
        a, b = run(problem, config, x0), run(problem, config, x0)
        for field in ("f", "g", "lam", "d_sq", "potential", "grad_g_sq"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.final_x, b.final_x)

    def test_early_stop_certifies_tolerances(self):
        problem = quadratic_sanity_problem(4)
        config = SolverConfig(
            method=GradNormSquared(1.0),
            eta=0.4,
            iterations=10**4,
            stop_tolerances=(1e-2, 1e-3),
        )
        trace = run(problem, config, 0.1 * np.ones(4))
        assert trace.stopped_early
        assert len(trace) < 10**4
        assert trace.d_sq[-1] <= 1e-2
        assert trace.grad_g_sq[-1] <= 1e-3

    def test_the_stop_tolerances_admit_equality(self):
        # both columns fall strictly from row to row, so tolerances equal to
        # row 20's stop the run there, after 21 rows, and not one row later
        problem, x0 = quadratic_sanity_problem(3), np.array([1.5, -0.5, 2.0])
        free = run(problem, SolverConfig(GradNormSquared(0.5), 0.1, 40), x0)
        assert np.all(np.diff(free.d_sq[:22]) < 0) and np.all(np.diff(free.grad_g_sq[:22]) < 0)
        tol = (float(free.d_sq[20]), float(free.grad_g_sq[20]))
        stopped = run(problem, SolverConfig(GradNormSquared(0.5), 0.1, 40, stop_tolerances=tol), x0)
        assert stopped.stopped_early and len(stopped) == 21

    def test_an_infinite_tolerance_stops_as_a_huge_one_does(self):
        # a run without tolerances holds (-inf, -inf), so an infinite eps_f
        # still asks for the stop test at every iterate
        problem, x0 = toy_problem(), np.array([-3.0, -1.0])
        inf, huge, both = (
            run(problem, SolverConfig(GradNormSquared(1.0), 1e-3, 2000, stop_tolerances=tol), x0)
            for tol in ((np.inf, 1e-3), (1e30, 1e-3), (np.inf, np.inf)))
        assert inf.stopped_early and len(inf) == len(huge) < 2000
        assert inf.table.tobytes() == huge.table.tobytes()
        assert np.array_equal(inf.k, huge.k)
        assert both.stopped_early and len(both) == 1

    def test_descent_inequalities_hold_on_quadratic(self):
        problem = quadratic_sanity_problem(6, box_radius=0.5)
        eta, beta = 0.4, 1.0
        config = SolverConfig(
            method=GradNormSquared(beta),
            eta=eta,
            iterations=500,
        )
        trace = run(problem, config, 0.1 * np.ones(6))
        report = inequality_audit(trace, problem.smoothness)
        assert report.total_violations == 0

    def test_divergence_is_reported_with_iteration(self):
        problem = toy_problem()
        config = SolverConfig(
            method=Penalty(1000.0),
            eta=1e-2,  # deliberately unstable
            iterations=200,
        )
        with pytest.raises(DivergenceError) as err:
            run(problem, config, np.array([-3.0, -1.0]))
        assert err.value.iteration >= 0

    def test_dimension_mismatch_is_config_error(self):
        problem = quadratic_sanity_problem(4)
        config = SolverConfig(
            method=Penalty(0.0), eta=0.1, iterations=10
        )
        with pytest.raises(ConfigurationError):
            run(problem, config, np.zeros(3))
        with pytest.raises(ConfigurationError):
            run(problem, config, np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_large_constant_step_records_warning(self):
        problem = quadratic_sanity_problem(4)
        config = SolverConfig(
            method=GradNormSquared(1.0),
            eta=0.6,  # above 1/(L_f + L_g) = 0.5
            iterations=5,
        )
        trace = run(problem, config, 0.1 * np.ones(4))
        assert any("exceeds" in w for w in trace.config.warnings(problem.smoothness))

    @pytest.mark.parametrize("method", [
        GradNormSquared(0.5),
        DynamicBarrierMin(1.0, 0.25, 0.0),
        LowerLinearization(g_star=0.0, eta=0.1),
        BloopOrthogonal(0.5),
        Penalty(4.0),
    ], ids=lambda method: method.label)
    def test_a_run_steps_at_its_config_eta(self, method):
        # the library scales no step: x_1 = x_0 - eta * d_0 at the config's eta
        problem = quadratic_sanity_problem(2)
        config = SolverConfig(method=method, eta=0.5, iterations=1)
        x0 = np.ones(2)
        trace = run(problem, config, x0)
        assert trace.config.eta == config.eta
        step_sq = float(np.sum((trace.final_x - x0) ** 2))
        assert step_sq == pytest.approx(config.eta**2 * trace.d_sq[0], rel=1e-12)

    def test_potential_labels(self):
        problem = quadratic_sanity_problem(3)
        x0 = 0.2 * np.ones(3)
        pen = run(
            problem,
            SolverConfig(method=Penalty(1.0), eta=0.1 / (1.0 + 1.0), iterations=3),
            x0,
        )
        assert pen.config.method.potential_beta is None
        assert np.allclose(pen.potential, 0.5 * pen.d_sq)
        blp = run(
            problem,
            SolverConfig(method=BloopOrthogonal(0.5), eta=0.1, iterations=3),
            x0,
        )
        assert blp.config.method.potential_beta == 0.5
        expected = 0.5 * blp.d_sq + (0.5 / (1.0 * 0.1)) * blp.grad_g_sq
        assert np.allclose(blp.potential, expected)

    def test_a_rule_counts_only_as_it_states(self):
        # the potential weight is what a rule states about itself, and the
        # step warning is that of the barrier rules: fields named beta and
        # g_star and a dbgd label change nothing about a fixed-multiplier rule
        @dataclass(frozen=True)
        class Fixed(Penalty):
            label: ClassVar[str] = "dbgd:fixed"
            beta: float = 0.5
            g_star: float = 10.0

        problem = quadratic_sanity_problem(3)
        x0 = 0.2 * np.ones(3)
        fixed = run(problem, SolverConfig(Fixed(1.0), 0.6, 3), x0)  # above the bound 0.5
        plain = run(problem, SolverConfig(Penalty(1.0), 0.6, 3), x0)
        assert (fixed.config.method.potential_beta, fixed.config.warnings(problem.smoothness)) == (
            None, [])
        assert fixed.table.tobytes() == plain.table.tobytes()

    def test_potential_is_nonnegative(self):
        problem = toy_problem()
        config = SolverConfig(
            method=GradNormSquared(1.0), eta=1e-3, iterations=500
        )
        trace = run(problem, config, np.array([0.5, 0.5]))
        assert np.all(trace.potential >= 0.0)
        assert len(trace.f) == len(trace.potential) <= 500


class TestBestIterate:
    def _trace_with_potential(self, values):
        problem = quadratic_sanity_problem(2)
        config = SolverConfig(
            method=Penalty(0.0), eta=0.1, iterations=len(values)
        )
        trace = run(problem, config, np.zeros(2))
        trace.potential[:] = values
        return trace

    def test_argmin(self):
        assert best_iterate(self._trace_with_potential([3.0, 1.0, 2.0])) == 1

    def test_tie_breaks_to_smallest_index(self):
        assert best_iterate(self._trace_with_potential([1.0, 1.0])) == 0

    def test_monotone_decreasing_picks_last(self):
        assert best_iterate(self._trace_with_potential([5.0, 4.0, 3.0, 2.0])) == 3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method=Penalty(0.0), eta=0.1, iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(method=Penalty(0.0), eta=0.0, iterations=1)
    with pytest.raises(ValueError, match="eta must be"):  # True would step at 1.0
        SolverConfig(GradNormSquared(0.5), True, 5)
    with pytest.raises(ValueError, match="eta must be"):  # a run would diverge at iteration 0
        SolverConfig(GradNormSquared(0.5), float("inf"), 5)
    for budget in (2.5, 3.0, True):  # a budget a run would fail on with a TypeError
        with pytest.raises(ValueError, match="iterations must be a positive integer"):
            SolverConfig(GradNormSquared(0.5), 1e-3, budget)
    for tolerances in ((1e-3,), (1e-3, 1e-3, 1e-3), 1e-3):
        with pytest.raises(ValueError, match="stop_tolerances must be a pair"):
            SolverConfig(GradNormSquared(0.5), 1e-3, 10, stop_tolerances=tolerances)
    assert SolverConfig(GradNormSquared(0.5), 1e-3, np.int64(10)).iterations == 10
    with pytest.raises(ValueError):
        scheduled_step(SmoothnessProfile(1.0, 1.0), 10, -1.0)
    with pytest.raises(ValueError):
        Penalty(-2.0)
