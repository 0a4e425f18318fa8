"""The batched engine: every run of a batch is the run it would be alone.

A command advances all its runs (grid cells, initializations, ``(p, K)``
pairs) as one ``(runs, dim)`` array.  These tests pin that doing so
changes no bit of any run, nor does streaming every row in blocks, that
the batch's multipliers and direction are the library's row by row, that
the streamed summary of a best-and-last run equals the one read from
full traces, that memory does not grow with the budget, that the
gradient-geometry columns are computed only for the rows a run keeps,
and that divergence still aborts the batch naming the run and leaves no
output file.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dbgd.cli as cli
import dbgd.solver as solver
from dbgd import (
    BloopOrthogonal,
    DivergenceError,
    DynamicBarrierMin,
    GradNormSquared,
    LowerLinearization,
    Penalty,
    SolverConfig,
    quadratic_sanity_problem,
    row_dot,
    run,
    scheduled_step,
    toy_problem,
)
from dbgd.harness import run_experiment


def scheduled(problem, iterations: int, p: float) -> SolverConfig:
    eta, beta = scheduled_step(problem.smoothness, iterations, p)
    return SolverConfig(GradNormSquared(beta), eta, iterations)


def mixed_configs() -> list[SolverConfig]:
    """All five (kind, rule) methods, an early stop, unequal budgets and
    scheduled steps (for the problem of the tests below)."""
    eta, problem = 0.1, quadratic_sanity_problem(3)
    return [
        SolverConfig(GradNormSquared(0.5), eta, 300),
        SolverConfig(GradNormSquared(0.5), eta, 300, stop_tolerances=(1e-6, 1e-8)),
        SolverConfig(DynamicBarrierMin(1.0, 0.25, 0.0), eta, 300),
        SolverConfig(LowerLinearization(g_star=0.05, eta=0.1), eta, 300),
        SolverConfig(BloopOrthogonal(0.5), eta, 300),
        SolverConfig(Penalty(2.0), eta / (1.0 + 2.0), 300),
        SolverConfig(Penalty(10.0), eta, 300),
        scheduled(problem, 50, 1.0),
        scheduled(problem, 400, 1.0),
        scheduled(problem, 120, 0.0),
    ]


def mixed_starts(count: int) -> np.ndarray:
    return np.array([[0.2, -0.4, 0.3 + 0.05 * i] for i in range(count)])


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def assert_same_run(a, b, what):
    assert bits(a.table) == bits(b.table), what
    assert np.array_equal(a.k, b.k), what
    assert bits(a.final_x) == bits(b.final_x), what
    for name in ("config", "stopped_early", "degenerate_steps"):
        assert getattr(a, name) == getattr(b, name), (what, name)
    assert len(a) == len(b), what


@pytest.mark.parametrize("keep", ["all", "best-last"])
def test_each_run_of_a_batch_equals_its_batch_of_one(keep):
    problem = quadratic_sanity_problem(3)
    configs = mixed_configs()
    starts = mixed_starts(len(configs))
    batch = run(problem, configs, starts, keep=keep)
    assert len(batch.traces) == len(configs)
    alone = [run(problem, c, x0, keep=keep) for c, x0 in zip(configs, starts)]
    for i, (together, single) in enumerate(zip(batch.traces, alone)):
        assert_same_run(together, single, f"config {i}")

    # the batch really exercised an early stop, unequal budgets and rows
    # whose g lies below the rule's g_star (where its level is clamped at 0)
    lengths = [len(trace) for trace in alone]
    assert alone[1].stopped_early and lengths[1] < 300
    assert lengths[7:] == [50, 400, 120]
    assert (alone[3].g < configs[3].method.g_star).any()

    # another order of the same runs changes nothing
    reversed_batch = run(problem, configs[::-1], starts[::-1], keep=keep)
    for i, trace in enumerate(reversed_batch.traces[::-1]):
        assert_same_run(trace, alone[i], f"reversed config {i}")

    assert len(batch) == sum(lengths)
    assert batch.degenerate.sum() == sum(t.degenerate_steps for t in alone)


#: A rule of each method kind, with parameters drawn where they may lie.
RULES = {
    "grad-norm-squared": st.builds(GradNormSquared, st.floats(0.0, 1.0)),
    "dynamic-barrier-min": st.builds(
        DynamicBarrierMin, st.floats(1e-3, 10.0), st.floats(1e-3, 1.0), st.floats(-1.0, 1.0)),
    "lower-linearization": st.builds(
        LowerLinearization, st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)),
    "bloop": st.builds(BloopOrthogonal, st.floats(0.0, 2.0)),
    "penalty": st.builds(Penalty, st.floats(0.0, 1e3)),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_batch_direction_is_the_library_direction_row_by_row(data):
    # method blocks of every kind in any order, at states where some rows'
    # grad_g vanishes or lies below the degeneracy guard and g straddles g_star
    kinds = data.draw(st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=6))
    rules = [data.draw(RULES[kind]) for kind in kinds for _ in range(data.draw(st.integers(1, 3)))]
    n, dim = len(rules), data.draw(st.integers(1, 4))
    value = st.floats(-10.0, 10.0)
    gf = data.draw(hnp.arrays(float, (n, dim), elements=value))
    gg = data.draw(hnp.arrays(float, (n, dim), elements=value))
    gg *= data.draw(hnp.arrays(float, (n, 1), elements=st.sampled_from([1.0, 1e-13, 0.0])))
    g = data.draw(hnp.arrays(float, n, elements=st.floats(-2.0, 2.0)))

    configs = [SolverConfig(rule, 0.1, 1) for rule in rules]
    lam, degenerate = np.empty(n), np.empty(n, dtype=bool)
    gg_sq = row_dot(gg, gg)
    d = solver._direction(solver._groups(configs, np.arange(n)), gf, gg, gg_sq, g, lam, degenerate)
    for i, rule in enumerate(rules):
        ref = solver._library_direction(rule, gf[i], gg[i], g[i])
        assert bits(d[i]) == bits(ref.d), (i, rule)
        assert bits(lam[i]) == bits(np.float64(ref.lam)), (i, rule)
        assert degenerate[i] == ref.degenerate, (i, rule)
        assert isinstance(rule, BloopOrthogonal) or lam[i] >= 0.0, (i, rule)


class BlockLog:
    """A ``keep`` write function: logs each block's first iteration, length
    and runs, and copies its rows into ``table[iteration, run]``."""

    def __init__(self, iterations: int, cells: int):
        self.table = np.full((iterations, cells, len(solver.COLUMNS)), np.nan)
        self.blocks = []

    def __call__(self, k0, cell, rows):
        self.blocks.append((k0, len(rows), cell.tolist()))
        self.table[k0:k0 + len(rows), cell] = rows


def test_block_boundaries_change_no_bit():
    # runs that end just before, at and just after a 256-iteration block,
    # one that stops early in the middle of the second block, and a long
    # one; the first run starts at the lower optimum x0 = 0, where grad_g
    # vanishes and the cosine of its first row is undefined
    problem = quadratic_sanity_problem(3)
    configs = [
        SolverConfig(Penalty(2.0), 0.1 / (1.0 + 2.0), 255),
        SolverConfig(GradNormSquared(0.5), 0.1, 256),
        SolverConfig(BloopOrthogonal(0.5), 0.1, 257),
        SolverConfig(GradNormSquared(0.5), 0.1, 700, stop_tolerances=(1e-14, 1e-16)),
        SolverConfig(DynamicBarrierMin(1.0, 0.25, 0.0), 0.1, 700),
    ]
    starts = mixed_starts(len(configs))
    starts[0] = 0.0
    log = BlockLog(700, len(configs))
    batch = run(problem, configs, starts, keep=log)
    lengths = [len(trace) for trace in batch.traces]
    assert lengths[:3] == [255, 256, 257] and 256 < lengths[3] < 512
    for i, (config, x0) in enumerate(zip(configs, starts)):
        # every row written is the row the run keeps alone; the trace
        # keeps the best and last rows, as it does alone
        alone = run(problem, config, x0, keep="all")
        assert bits(log.table[:lengths[i], i]) == bits(alone.table), f"config {i}"
        assert_same_run(batch.traces[i], run(problem, config, x0, keep="best-last"), f"config {i}")
    cos_defined = log.table[:, :, solver.COLUMNS.index("cos_defined")] != 0.0
    first = cos_defined[:lengths[0], 0]
    assert not first[0] and first[1:].all() and cos_defined[:lengths[1], 1].all()

    # each run's blocks cover its rows in order; a block ends at every
    # retirement and after 256 iterations
    for i, rows in enumerate(lengths):
        spans = [(k0, k0 + size) for k0, size, cell in log.blocks if i in cell]
        assert spans[0][0] == 0 and spans[-1][1] == rows, i
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:])), i
    ends = [k0 + size for k0, size, _ in log.blocks]
    assert ends == [255, 256, 257, lengths[3], lengths[3] + 256, 700]


def test_degenerate_counts_are_read_off_the_rows():
    # runs of up to 400 iterations, some stopping early or retiring in the
    # middle of a block; run 4 starts at the lower optimum x0 = 0, where
    # grad_g vanishes and its first step is degenerate
    problem = quadratic_sanity_problem(3)
    configs = mixed_configs()
    starts = mixed_starts(len(configs))
    starts[4] = 0.0
    full = run(problem, configs, starts, keep="all").traces
    for i, trace in enumerate(full):
        assert trace.degenerate_steps == int(trace.degenerate.sum()), i
    counts = [trace.degenerate_steps for trace in full]
    assert sum(counts) > 0

    log = BlockLog(max(config.iterations for config in configs), len(configs))
    for keep in ("best-last", log):
        kept = run(problem, configs, starts, keep=keep).traces
        assert [trace.degenerate_steps for trace in kept] == counts, keep
    assert any((k0 + size) % 256 for k0, size, _ in log.blocks)


@pytest.mark.parametrize("n,cells,block", [(3000, 1, 14), (40000, 2, 1)])
def test_blocks_hold_at_most_a_megabyte_of_gradients(n, cells, block):
    problem = quadratic_sanity_problem(n)
    budget = 3 * block + 1
    configs = [SolverConfig(GradNormSquared(0.5), 0.1, budget)] * cells
    log = BlockLog(budget, cells)
    run(problem, configs, np.full(n, 0.1), keep=log)
    # 2**20 bytes hold 14 iterations of two float64 gradients and the
    # iterate of 3,000 entries, and less than one of two runs of 40,000
    assert {size for _, size, _ in log.blocks[:-1]} == {block}


def test_best_last_rows_are_the_argmin_and_last_rows_of_the_full_trace():
    problem = quadratic_sanity_problem(3)
    configs = mixed_configs()
    starts = mixed_starts(len(configs))
    full = run(problem, configs, starts).traces
    kept = run(problem, configs, starts, keep="best-last").traces
    for i, (a, b) in enumerate(zip(full, kept)):
        best = int(np.argmin(a.potential))
        expect = np.stack([a.table[best], a.table[-1]])
        assert bits(expect) == bits(b.table), i
        assert list(b.k) == [best, len(a) - 1], i


def test_geometry_columns_are_computed_only_for_kept_rows(monkeypatch):
    calls = []
    decompose = solver.decompose_grad_f

    def counted(*args, **kwargs):
        calls.append(None)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(solver, "decompose_grad_f", counted)
    problem = quadratic_sanity_problem(3)
    starts = mixed_starts(len(mixed_configs()))

    def count(keep, budget):
        calls.clear()
        configs = [replace(config, iterations=budget) for config in mixed_configs()]
        traces = run(problem, configs, starts, keep=keep).traces
        return len(calls), len({len(trace) for trace in traces})

    short, retirements = count("best-last", 200)
    # config 1 stops early, the others retire together at the budget
    assert retirements == 2
    assert count("best-last", 2000) == (short, retirements)
    assert short == 1  # one fill of the best and the last rows of every run
    # every row is kept, its geometry filled once per block of rows: a block
    # ends where config 1 stops, at the budget and after 256 iterations
    stop = len(run(problem, replace(mixed_configs()[1], iterations=2000), starts[1]))
    assert count("all", 200)[0] == retirements
    assert count("all", 2000)[0] == 1 + math.ceil((2000 - stop) / 256)


def test_deferred_geometry_reproduces_an_undefined_cosine(tmp_path):
    # at the toy's bilevel optimum both gradients vanish: every row has an
    # undefined cosine and a zero potential, so the best row is row 0, also
    # when the first run's 300 rows span two blocks of 256 iterations
    optimum = [-np.pi / 20.0, -1.0]
    eta = 1e-3
    configs = [
        SolverConfig(GradNormSquared(1.0), eta, 300),
        SolverConfig(Penalty(10.0), eta / (1.0 + 10.0), 30),
    ]
    full = run(toy_problem(), configs, np.array(optimum)).traces
    kept = run(toy_problem(), configs, np.array(optimum), keep="best-last").traces
    for i, (a, b) in enumerate(zip(full, kept)):
        assert int(np.argmin(a.potential)) == 0, i
        assert bits(np.stack([a.table[0], a.table[-1]])) == bits(b.table), i
        assert list(b.k) == [0, len(a) - 1], i
        assert np.isnan(b.cos_theta).all() and not b.cos_defined.any(), i

    doc = {
        "kind": "experiment",
        "problem": {"name": "toy"},
        "methods": [{"kind": "dbgd", "beta": [0.5, 1.0]}, {"kind": "penalty", "lambda": [1, 10]}],
        "run": {"x0": optimum, "iterations": 300, "step": {"mode": "constant", "eta": 1e-3}},
        "output": {"directory": str(tmp_path / "unused"), "trace": "all"},
    }
    summaries = {}
    for granularity in ("all", "final"):
        doc["output"]["trace"] = granularity
        summaries[granularity] = (run_experiment(doc, tmp_path / granularity) / "summary.csv").read_bytes()
    # 300 rows span two blocks of a streamed trace: the tie goes to row 0
    assert summaries["final"] == summaries["all"]
    assert b",NA," in summaries["all"]


def test_an_unknown_keep_is_rejected_before_any_oracle_call():
    calls = []
    base = quadratic_sanity_problem(3)

    def counted(oracle):
        def call(*args):
            calls.append(None)
            return oracle(*args)
        return call

    problem = replace(base, **{name: counted(getattr(base, name))
                               for name in ("f", "g", "grad_f", "grad_g")})
    config = mixed_configs()[0]
    with pytest.raises(ValueError, match="bestlast"):
        run(problem, config, mixed_starts(1)[0], keep="bestlast")
    assert calls == []
    run(problem, replace(config, iterations=1), mixed_starts(1)[0], keep="best-last")
    assert calls  # the counters see the oracles the engine calls


def test_single_config_runs_as_a_batch_of_one():
    problem = quadratic_sanity_problem(3)
    config = mixed_configs()[0]
    trace = run(problem, config, mixed_starts(1)[0])
    (same,) = run(problem, [config], mixed_starts(1)).traces
    assert_same_run(trace, same, "batch of one")


def test_streamed_summary_equals_summary_of_full_traces(tmp_path):
    doc = {
        "kind": "experiment",
        "problem": {"name": "toy"},
        "methods": [
            {"kind": "dbgd", "beta": [0.5, 1.0]},
            {"kind": "bloop", "beta": 0.5},
            {"kind": "penalty", "lambda": [1, 10, 100, 1000]},
        ],
        "run": {
            "x0": [-3.0, -1.0],
            "iterations": 1000,
            "step": {"mode": "constant", "eta": 0.01},
            "stop_tolerances": [1e-9, 1e-20],
        },
        "output": {"directory": str(tmp_path / "unused"), "trace": "all"},
    }
    summaries = {}
    for granularity in ("all", "final", "none"):
        doc["output"]["trace"] = granularity
        out = run_experiment(doc, output_dir=tmp_path / granularity)
        summaries[granularity] = (out / "summary.csv").read_bytes()
    assert summaries["final"] == summaries["all"]
    assert summaries["none"] == summaries["all"]
    # the best row is not the last one in some cell, so the check has teeth
    rows = [line.split(",") for line in summaries["all"].decode().splitlines()[1:]]
    assert any(int(row[13]) != int(row[2]) - 1 for row in rows)
    # a final-granularity trace CSV is the last row of the full one
    for name in ("dbgd_beta=1", "penalty_lambda=1000"):
        full = (tmp_path / "all" / f"{name}.csv").read_text().splitlines()
        final = (tmp_path / "final" / f"{name}.csv").read_text().splitlines()
        assert final == [full[0], full[-1]]


def _warm_up(doc: dict, out) -> None:
    """Run ``doc`` once untraced, so that the first traced run of a fresh
    process counts no one-time allocations (lazy imports and caches)."""
    run_experiment(doc, output_dir=out, iterations_override=300)


def _traced_peak(doc: dict, iterations: int, out) -> int:
    tracemalloc.start()
    try:
        run_experiment(doc, output_dir=out, iterations_override=iterations)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _small_matfac_grid(tmp_path, trace: str) -> dict:
    return {
        "kind": "experiment",
        "problem": {"name": "matrix-factorization", "n": 6, "r": 3, "alpha": 1.0},
        "methods": [
            {"kind": "dbgd", "beta": [0.5, 1.0]},
            {"kind": "penalty", "lambda": [1, 100]},
        ],
        "run": {
            "x0": {"seed": 1, "scale": 0.1},
            "iterations": 10,
            "step": {"mode": "constant", "eta": 1e-4},
        },
        "output": {"directory": str(tmp_path / "unused"), "trace": trace},
    }


def test_memory_of_final_traces_does_not_grow_with_the_budget(tmp_path):
    doc = _small_matfac_grid(tmp_path, "final")
    # tracemalloc slows the run tenfold, hence budgets of 300 and 2,000; both
    # fill a block of 256 iterations, the most a run buffers
    _warm_up(doc, tmp_path / "warm-up")
    short = _traced_peak(doc, 300, tmp_path / "short")
    long = _traced_peak(doc, 2000, tmp_path / "long")
    # keeping every row would add 1700 rows * 4 runs * 14 columns * 8 B = 762 kB
    assert long <= short + 4096, (short, long)


def test_memory_of_every_row_traces_does_not_grow_with_the_budget(tmp_path):
    # the rows stream to the trace CSVs in blocks of 256 iterations; both
    # budgets fill a block whose iteration numbers are not cached small ints
    doc = _small_matfac_grid(tmp_path, "all")
    _warm_up(doc, tmp_path / "warm-up")
    short = _traced_peak(doc, 600, tmp_path / "short")
    long = _traced_peak(doc, 2000, tmp_path / "long")
    # a table of every row would add 1400 rows * 4 runs * 14 columns * 8 B = 627 kB
    assert long <= short + 4096, (short, long)
    assert len((tmp_path / "long" / "penalty_lambda=100.csv").read_text().splitlines()) == 2001


def _diverging_grid(tmp_path, trace: str, lam: float = 100):
    """Config path of a grid whose ``penalty_lambda={lam}`` cell diverges
    (at iteration 159 for lambda = 100, 312 for 40)."""
    doc = {
        "kind": "experiment",
        "problem": {"name": "quadratic", "n": 3},
        "methods": [
            {"kind": "dbgd", "beta": 1.0},
            {"kind": "penalty", "lambda": [1, lam, 2]},
        ],
        "run": {
            "x0": [0.3, 0.3, 0.3],
            "iterations": 1000,
            "step": {"mode": "constant", "eta": 0.1},
            "penalty_step_scaling": False,
        },
        "output": {"directory": str(tmp_path / "div"), "trace": trace},
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    return path


def test_divergence_in_a_batch_names_the_diverging_cell(tmp_path, capsys):
    assert cli.main(["run", str(_diverging_grid(tmp_path, "none"))]) == 3
    err = capsys.readouterr().err
    assert "divergence" in err and "in cell penalty_lambda=100" in err


@pytest.mark.parametrize("lam", [100, 40])
def test_a_diverging_batch_writes_no_output_file(tmp_path, capsys, lam):
    # lambda = 40 diverges after a first block of 256 rows has been written
    assert cli.main(["run", str(_diverging_grid(tmp_path, "all", lam))]) == 3
    assert f"in cell penalty_lambda={lam}" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "div").iterdir()) == []


def test_a_run_that_ended_never_diverges():
    # lambda = 100 at eta = 0.1 grows by a factor 9 per step and its d_sq
    # overflows after 159 steps: within a budget of 100 it must finish cleanly,
    # however long the rest of its batch runs on
    problem = quadratic_sanity_problem(3)
    unstable = SolverConfig(Penalty(100.0), 0.1, 100)
    stable = SolverConfig(Penalty(1.0), 0.1, 1000)
    batch = run(problem, [unstable, stable], np.full(3, 0.3), keep="best-last")
    assert [len(trace) for trace in batch.traces] == [100, 1000]
    with pytest.raises(DivergenceError) as err:
        run(problem, [stable, replace(unstable, iterations=1000)], np.full(3, 0.3))
    assert err.value.cell == 1


@pytest.mark.parametrize("keep", ["all", "best-last"])
def test_a_run_that_overflows_in_its_last_row_diverges(keep):
    # each run's states stay finite to its budget, but its last row's
    # d_sq and potential overflow; one more iteration overflows f
    runs = [
        (quadratic_sanity_problem(3), np.full(3, 0.3),
         SolverConfig(Penalty(100.0), 0.1, 160)),
        (toy_problem(), np.array([-3.0, -1.0]),
         SolverConfig(Penalty(1000.0), 0.01, 118)),
    ]
    for problem, x0, config in runs:
        with pytest.raises(DivergenceError) as err:
            run(problem, config, x0, keep=keep)
        assert (err.value.iteration, err.value.what) == (config.iterations - 1, "direction")
        shorter = run(problem, replace(config, iterations=config.iterations - 1), x0, keep=keep)
        assert np.isfinite(shorter.table[:, ~np.isin(solver.COLUMNS, ["cos_theta"])]).all()


def test_divergence_names_the_first_non_finite_quantity():
    # a NaN gradient also makes the direction, the next iterate and its
    # objective values NaN; the error names the gradient, computed first
    base = quadratic_sanity_problem(3)

    def grad_f(x):
        return np.where(x[..., :1] < 0.25, np.nan, base.grad_f(x))

    problem = replace(base, grad_f=grad_f)
    configs = [
        SolverConfig(Penalty(1.0), 0.1 / (1.0 + 1.0), 50),
        SolverConfig(GradNormSquared(0.5), 0.1, 50),
    ]
    starts = np.array([[0.9, 0.3, 0.3], [0.3, 0.3, 0.3]])
    with pytest.raises(DivergenceError) as err:
        run(problem, configs, starts)
    assert (err.value.what, err.value.cell) == ("gradient", 1)
    assert err.value.iteration > 0


@pytest.mark.parametrize("lam,iteration", [(48.75, 255), (48.6, 256), (48.5, 257)])
def test_divergence_at_a_block_boundary_names_the_first_non_finite_row(
    tmp_path, capsys, lam, iteration
):
    # blocks hold 256 iterations here, and a penalty run turns non-finite in
    # the last row of the first block, the first row of the second or the
    # row after it; the batch steps on to the end of the block before it
    # aborts, and reports the first non-finite row all the same
    configs = [SolverConfig(GradNormSquared(1.0), 0.1, 1000)]
    configs += [SolverConfig(Penalty(value), 0.1, 1000) for value in (1.0, lam, 2.0)]
    for keep in ("all", "best-last"):
        with pytest.raises(DivergenceError) as err:
            run(quadratic_sanity_problem(3), configs, np.full(3, 0.3), keep=keep)
        assert (err.value.iteration, err.value.what, err.value.cell) == (iteration, "direction", 2)
    assert cli.main(["run", str(_diverging_grid(tmp_path, "all", lam))]) == 3
    err = capsys.readouterr().err
    assert f"non-finite direction in cell penalty_lambda={lam} at iteration {iteration}" in err
    assert sorted(p.name for p in (tmp_path / "div").iterdir()) == []


def _oracles(base, f=None, grad_f=None, grad_g=None):
    """``base`` with ``f``, ``grad_f`` and ``grad_g`` replaced where given;
    each replacement maps ``x`` and the base oracle's value to its own."""
    return replace(base, **{
        name: (lambda x, wrap=wrap, own=getattr(base, name): wrap(x, own(x)))
        for name, wrap in (("f", f), ("grad_f", grad_f), ("grad_g", grad_g)) if wrap
    })


_FIRST = (slice(None), slice(0, 1))  # the first coordinate of each row


@pytest.mark.parametrize("keep", ["all", "best-last"])
@pytest.mark.parametrize("oracles,report", [
    (dict(f=lambda x, v: np.where(x[..., 0] > 0.5, np.inf, v)), (0, "objective value", 1)),
    (dict(f=lambda x, v: np.where(x[..., 0] < 0.25, np.nan, v)), (10, "objective value", 1)),
    (dict(f=lambda x, v: np.where(x[..., 0] > 0.25, 1e308, -1e308)),
     (10, "decrease or potential", 1)),
    (dict(grad_f=lambda x, v: np.where(x[_FIRST] > 0.65, np.nan, v),
          grad_g=lambda x, v: np.where((0.55 < x[_FIRST]) & (x[_FIRST] < 0.65), np.nan, v)),
     (0, "gradient", 1)),
    (dict(grad_g=lambda x, v: np.full_like(v, np.nan)), (0, "gradient", 0)),
], ids=["inf-start", "nan-objective", "overflowing-decrease", "gradient-union",
        "nan-lower-gradient"])
def test_divergence_reports_the_first_iteration_quantity_and_config(keep, oracles, report):
    # the report is the first non-finite iteration, its first non-finite
    # quantity in the order an iteration computes them (gradient, direction,
    # objective value, decrease or potential), and the lowest-index config
    # among the runs non-finite in any array of that quantity: in the
    # gradient-union case run 2 fails in grad_f and run 1 in grad_g, which
    # reports run 1; a NaN grad_g at the start makes the barrier run's level
    # NaN as well, and the error still names the gradient
    problem = _oracles(quadratic_sanity_problem(3), **oracles)
    configs = [
        SolverConfig(Penalty(1.0), 0.05, 300),
        SolverConfig(GradNormSquared(0.5), 0.1, 300),
        SolverConfig(Penalty(10.0), 0.01, 300),
    ]
    starts = np.array([[0.3, 0.3, 0.3], [0.6, 0.3, 0.3], [0.7, 0.3, 0.3]])
    with pytest.raises(DivergenceError) as err:
        run(problem, configs, starts, keep=keep)
    assert (err.value.iteration, err.value.what, err.value.cell) == report
