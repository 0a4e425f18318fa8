import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbgd import (
    DbgdError,
    LowerOptimumError,
    ProblemSpec,
    SmoothnessProfile,
    finite_diff_sweep,
    matrix_factorization_problem,
    quadratic_sanity_problem,
    rng,
    row_dot,
    toy_problem,
)

ALL_PROBLEMS = [
    ("toy", lambda: toy_problem()),
    ("quadratic", lambda: quadratic_sanity_problem(7)),
    ("matfac-l1", lambda: matrix_factorization_problem(6, 3, 1.0, "smooth-l1", seed=3)),
    ("matfac-log", lambda: matrix_factorization_problem(6, 3, 0.5, "log-smooth", seed=3)),
]


class TestToyProblem:
    def test_upper_minimum_on_curve(self):
        p = toy_problem()
        x_star = np.array([-math.pi / 20.0, -1.0])
        assert p.eval_f(x_star) == 0.0
        assert p.eval_g(x_star) == pytest.approx(0.0, abs=1e-30)

    def test_lower_gradient_vanishes_on_curve(self):
        p = toy_problem()
        assert np.array_equal(p.eval_grad_g(np.zeros(2)), np.zeros(2))

    def test_value_at_origin(self):
        # (pi/20)^2 + 1 evaluated with 50-digit arithmetic, rounded to float64
        p = toy_problem()
        assert p.eval_f(np.zeros(2)) == pytest.approx(1.0246740110027235, rel=1e-15)

    def test_zero_exactly_on_sampled_curve_points(self):
        p = toy_problem()
        for x1 in np.linspace(-4.0, 4.0, 101):
            x = np.array([x1, math.sin(10.0 * x1)])
            assert p.eval_g(x) == 0.0

    def test_profile_constants(self):
        p = toy_problem()
        assert p.smoothness.lip_grad_f == 2.0
        assert p.smoothness.lip_total == p.smoothness.lip_grad_f + p.smoothness.lip_grad_g
        assert p.g_star == 0.0


class TestQuadraticSanity:
    def test_gradients_at_origin(self):
        p = quadratic_sanity_problem(5)
        assert np.array_equal(p.eval_grad_g(np.zeros(5)), np.zeros(5))
        assert np.array_equal(p.eval_grad_f(np.zeros(5)), -np.ones(5))

    def test_origin_is_the_unique_lower_solution(self):
        # the lower solution set is {0}; any other point has a positive gap
        p = quadratic_sanity_problem(3)
        gen = rng(0)
        for _ in range(20):
            x = gen.standard_normal(3)
            assert p.eval_g(x) > 0.0 or np.all(x == 0.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            quadratic_sanity_problem(0)
        with pytest.raises(ValueError):
            quadratic_sanity_problem(3, box_radius=0.0)


class TestMatrixFactorization:
    def test_smooth_l1_at_zero(self):
        p = matrix_factorization_problem(4, 2, 1.0, "smooth-l1")
        assert p.eval_f(np.zeros(8)) == pytest.approx(4 * 2 * 1.0, rel=1e-15)

    def test_log_smooth_at_zero(self):
        p = matrix_factorization_problem(4, 2, 0.7, "log-smooth")
        assert p.eval_f(np.zeros(8)) == 0.0

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            matrix_factorization_problem(3, 4, 1.0)
        with pytest.raises(ValueError):
            matrix_factorization_problem(4, 2, 0.0)
        with pytest.raises(ValueError):
            matrix_factorization_problem(4, 2, 1.0, "l2")

    def test_deterministic_per_seed(self):
        a = matrix_factorization_problem(5, 2, 1.0, seed=11)
        b = matrix_factorization_problem(5, 2, 1.0, seed=11)
        gen = rng(4)
        for _ in range(5):
            x = gen.standard_normal(10)
            assert a.eval_g(x) == b.eval_g(x)
            assert np.array_equal(a.eval_grad_g(x), b.eval_grad_g(x))
            assert a.eval_f(x) == b.eval_f(x)

    def test_different_seeds_differ(self):
        a = matrix_factorization_problem(5, 2, 1.0, seed=11)
        b = matrix_factorization_problem(5, 2, 1.0, seed=12)
        x = rng(4).standard_normal(10)
        assert a.eval_g(x) != b.eval_g(x)

    def test_flattening_is_row_major(self):
        # zeroing one row of the factor must zero the matching gradient block
        p = matrix_factorization_problem(3, 2, 1.0, seed=0)
        x = rng(1).standard_normal(6)
        grad = p.eval_grad_f(x)
        assert grad.shape == (6,)
        v = x.reshape(3, 2)
        expect = (v / np.sqrt(v * v + 1.0)).reshape(-1)
        assert np.allclose(grad, expect, rtol=1e-14)

    def test_the_residual_memo_follows_the_values_of_a_point(self):
        # g and grad_g share the residual of their last point; a point
        # changed in place (the same array object) must get a fresh one
        p = matrix_factorization_problem(4, 2, 1.0, seed=5)
        gen = rng(6)
        x = gen.standard_normal(8)

        def fresh(oracle, *args):
            return getattr(matrix_factorization_problem(4, 2, 1.0, seed=5), oracle)(*args)

        for step in range(3):
            assert p.eval_g(x) == p.eval_g(x) == fresh("eval_g", x.copy()), step
            assert p.eval_grad_g(x).tobytes() == fresh("eval_grad_g", x.copy()).tobytes(), step
            x *= 1.5
        batch = np.stack([x, 2.0 * x])
        assert p.eval_g(batch).tobytes() == fresh("eval_g", batch.copy()).tobytes()
        assert p.eval_g(batch[0]) == fresh("eval_g", x.copy())


@pytest.mark.parametrize("name,factory", ALL_PROBLEMS)
def test_gradients_match_finite_differences(name, factory):
    assert finite_diff_sweep(factory(), points=100, seed=0) <= 1e-5


@pytest.mark.parametrize("name,factory", ALL_PROBLEMS + [
    # the benchmark's shapes: matfac.json's problem in both variants, and
    # the one n = 200, r = 20 run of matfac-wide
    ("matfac-10x10-l1", lambda: matrix_factorization_problem(10, 10, 1.0, "smooth-l1")),
    ("matfac-10x10-log", lambda: matrix_factorization_problem(10, 10, 1.0, "log-smooth")),
    ("matfac-200x20", lambda: matrix_factorization_problem(200, 20, 1.0, "smooth-l1")),
])
def test_batched_oracles_equal_single_point_oracles(name, factory):
    # the solver advances runs as rows of one batch; each row's values must
    # be bit for bit those of the point alone, also in a batch of one, the
    # shape a one-run batch hands the oracles, and in a stack of blocks
    # (the solver evaluates f on the iterates of a block at once)
    p = factory()
    gen = rng(11)
    points = np.array([p.sample_point(gen) for _ in range(15)])
    for x in (points[:5], points[:1], points.reshape(3, 5, p.dim)):
        for oracle in ("eval_f", "eval_g", "eval_grad_f", "eval_grad_g"):
            batch = getattr(p, oracle)(x)
            alone = np.array([getattr(p, oracle)(row) for row in x.reshape(-1, p.dim)])
            alone = alone.reshape(x.shape[:-1] + alone.shape[1:])
            assert batch.shape == alone.shape, (oracle, x.shape)
            assert batch.tobytes() == alone.tobytes(), (oracle, x.shape)
    assert isinstance(p.eval_f(points[0]), float) and isinstance(p.eval_g(points[0]), float)


@pytest.mark.parametrize("dim", [1, 2, 10, 100, 4000])
def test_row_dot_is_the_dot_product_of_each_row(dim):
    # bit for bit a[i] @ b[i] for one pair, rows and a stack of blocks of
    # rows, with entries spread over twenty orders of magnitude
    gen = rng(dim)
    for lead in ((), (5,), (3, 4)):
        for _ in range(20):
            shape = (*lead, dim)
            a, b = (gen.standard_normal(shape) * 10.0 ** gen.uniform(-10, 10, shape)
                    for _ in range(2))
            for x, y in ((a, b), (a, a), (a[..., ::-1], b)):
                got = row_dot(x, y)
                assert got.shape == lead
                for i in np.ndindex(*lead):
                    assert np.float64(got[i]).tobytes() == np.float64(x[i] @ y[i]).tobytes(), i


def below_g_star_problem() -> ProblemSpec:
    # g(x) = x - 1 declares g* = 0 but falls below it for x < 1
    return ProblemSpec(
        name="bad",
        dim=1,
        smoothness=SmoothnessProfile(1.0, 1.0),
        f=lambda x: 0.0 * x[..., 0],
        g=lambda x: x[..., 0] - 1.0,
        grad_f=lambda x: np.zeros_like(x),
        grad_g=lambda x: np.ones_like(x),
        g_star=0.0,
    )


def test_eval_g_below_g_star_raises():
    bad = below_g_star_problem()
    with pytest.raises(LowerOptimumError, match="g\\(x\\) = -1.0 fell below") as err:
        bad.eval_g(np.zeros(1))
    assert isinstance(err.value, DbgdError)
    # every row of a batch is checked; the first value below g* is named
    with pytest.raises(LowerOptimumError, match="-0.5 fell below") as err:
        bad.eval_g(np.array([[2.0], [0.5], [0.25]]))
    assert err.value.value == -0.5 and err.value.g_star == 0.0
    assert np.array_equal(bad.eval_g(np.array([[1.0], [3.0]])), [0.0, 2.0])


def test_g_star_check_survives_optimized_mode():
    # ``python -O`` strips asserts; the check must not be one
    script = (
        "import numpy as np\n"
        "from dbgd import LowerOptimumError, ProblemSpec, SmoothnessProfile\n"
        "assert False, 'asserts are live'\n"
    )
    probe = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                           text=True, env=_child_env(), timeout=60)
    assert probe.returncode == 0, probe.stderr  # asserts really are stripped
    script += (
        "import test_problems\n"
        "try:\n"
        "    test_problems.below_g_star_problem().eval_g(np.array([[0.5]]))\n"
        "except LowerOptimumError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "raised: g(x) = -0.5 fell below the declared optimum g* = 0.0" in proc.stdout


def _child_env() -> dict:
    paths = [str(Path(__file__).parent), *(p for p in sys.path if p)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_smoothness_profile_validation():
    with pytest.raises(ValueError):
        SmoothnessProfile(0.0, 1.0)
    with pytest.raises(ValueError):
        SmoothnessProfile(1.0, -1.0)
    with pytest.raises(ValueError):
        SmoothnessProfile(1.0, 1.0, grad_f_bound=0.0)
    assert SmoothnessProfile(1.5, 2.5).lip_total == 4.0


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["lip_grad_f", "lip_grad_g", "grad_f_bound"])
def test_a_smoothness_constant_must_be_finite(field, value):
    constants = {"lip_grad_f": 1.0, "lip_grad_g": 1.0, "grad_f_bound": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be strictly positive and finite"):
        SmoothnessProfile(**constants)


def test_a_subnormal_log_smooth_alpha_is_refused():
    # L_f = 2/alpha overflows to inf
    with pytest.raises(ValueError, match="lip_grad_f must be strictly positive and finite, got inf"):
        matrix_factorization_problem(10, 10, 1e-320, variant="log-smooth")


def test_rng_is_reproducible_across_calls():
    assert np.array_equal(rng(7).standard_normal(4), rng(7).standard_normal(4))
