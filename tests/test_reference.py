"""The batch engine against the textbook loop of ``reference.py``.

A batch draws a problem, methods of every kind in any order, steps,
budgets, stop tolerances, per-row starts and what ``keep`` keeps; every
trace must be its reference run bit for bit, every column included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dbgd import (
    BloopOrthogonal,
    DynamicBarrierMin,
    GradNormSquared,
    LowerLinearization,
    Penalty,
    SolverConfig,
    matrix_factorization_problem,
    quadratic_sanity_problem,
    run,
    toy_problem,
)
from dbgd.solver import COLUMNS
from reference import reference_run

PROBLEMS = {
    "toy": toy_problem(),
    "quadratic": quadratic_sanity_problem(3),
    "matfac": matrix_factorization_problem(4, 2, 1.0, seed=1),
}

#: A rule of each kind, drawn where the runs stay finite; ``g_star`` is
#: drawn above the lower optimum 0 so that the levels clamp at zero.
RULES = {
    "grad-norm-squared": lambda eta: st.builds(GradNormSquared, st.floats(0.0, 1.0)),
    "dynamic-barrier-min": lambda eta: st.builds(
        DynamicBarrierMin, st.floats(1e-3, 10.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
    "lower-linearization": lambda eta: st.builds(
        LowerLinearization, st.floats(0.0, 1.0), st.floats(1.0, 4.0).map(lambda c: c * eta)),
    "bloop": lambda eta: st.builds(BloopOrthogonal, st.floats(0.0, 2.0)),
    "penalty": lambda eta: st.builds(Penalty, st.floats(0.0, 1e3)),
}


@st.composite
def configs(draw, problem):
    """One run: a rule, a step of 0.1-0.75 x 1/(L_f+L_g) (a penalty's
    divided by 1 + lam, as configs scale it), a budget and tolerances."""
    kind = draw(st.sampled_from(sorted(RULES)))
    eta = draw(st.floats(0.1, 0.75)) / problem.smoothness.lip_total
    rule = draw(RULES[kind](eta))
    if isinstance(rule, Penalty):
        eta /= 1.0 + rule.lam
    tolerance = st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1e-1, 1.0])
    tolerances = draw(st.none() | st.tuples(tolerance, tolerance))
    return SolverConfig(rule, eta, draw(st.integers(1, 300)), tolerances)


class Written:
    """A write function that gathers every row it is handed."""

    def __init__(self, budget: int, runs: int):
        self.table = np.full((budget, runs, len(COLUMNS)), np.nan)

    def __call__(self, k0, cell, rows):
        self.table[k0:k0 + len(rows), cell] = rows


def bits(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes()


def assert_rows(trace_column, reference_column, what):
    assert bits(trace_column) == bits(reference_column), what


def assert_reference_runs(problem, runs, x0, keep):
    """Run ``runs`` as one batch and check each trace against its reference run."""
    written = Written(max(config.iterations for config in runs), len(runs))
    batch = run(problem, runs, x0, keep=written if keep == "write" else keep)
    starts = np.broadcast_to(x0, (len(runs), problem.dim))
    for i, (config, trace) in enumerate(zip(runs, batch.traces)):
        ref = reference_run(problem, config, starts[i])
        n = len(ref.rows)
        potentials = [row["potential"] for row in ref.rows]
        best = potentials.index(min(potentials))
        kept = range(n) if keep == "all" else [best, n - 1]
        assert len(trace) == n and list(trace.k) == list(kept), i
        assert bits(trace.final_x) == bits(ref.final_x), i
        assert trace.stopped_early == ref.stopped, i
        assert trace.degenerate_steps == sum(row["degenerate"] for row in ref.rows), i
        assert trace.config is config and config.method.potential_beta == ref.beta, i
        for column in COLUMNS:
            assert_rows(getattr(trace, column), [ref.rows[k][column] for k in kept], (i, column))
        if keep == "write":
            for j, column in enumerate(COLUMNS):
                assert_rows(written.table[:n, i, j], [row[column] for row in ref.rows],
                            (i, column, "written"))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_each_trace_is_its_reference_run_bit_for_bit(data):
    problem = PROBLEMS[data.draw(st.sampled_from(sorted(PROBLEMS)))]
    runs = data.draw(st.lists(configs(problem), min_size=1, max_size=5))
    # one start for every run or one per run; a start of signed zeros is a
    # stationary point of each lower level, where every step degenerates
    start = (hnp.arrays(float, problem.dim, elements=st.floats(-2.0, 2.0))
             | hnp.arrays(float, problem.dim, elements=st.sampled_from([0.0, -0.0])))
    x0 = data.draw(start) if data.draw(st.booleans()) else np.array([data.draw(start) for _ in runs])
    assert_reference_runs(problem, runs, x0, data.draw(st.sampled_from(["all", "best-last", "write"])))


@pytest.mark.parametrize("keep", ["all", "best-last"])
def test_degenerate_steps_from_signed_zeros_are_the_reference_steps(keep):
    # at V = 0 with signed zeros, grad_f of the matfac holds -0.0 where V
    # does and grad_g vanishes, so every degenerate step, bloop's too, must
    # take grad_f + 0 * grad_g, which turns those -0.0 into 0.0
    problem = PROBLEMS["matfac"]
    eta = 0.5 / problem.smoothness.lip_total
    rules = [GradNormSquared(0.5), DynamicBarrierMin(1.0, 0.5, 0.0),
             LowerLinearization(0.0, eta), BloopOrthogonal(0.5), Penalty(1.0)]
    x0 = np.array([0.0, -0.0] * (problem.dim // 2))
    assert_reference_runs(problem, [SolverConfig(rule, eta, 3) for rule in rules], x0, keep)
