import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import dbgd
import dbgd.cli as cli
import dbgd.harness as harness
import dbgd.solver as solver
from dbgd import (
    ConfigurationError,
    DivergenceError,
    GradNormSquared,
    Method,
    Penalty,
    SolverConfig,
    quadratic_sanity_problem,
    run,
    scheduled_step,
    toy_problem,
)
from dbgd.harness import (
    CASES_CSV,
    DEFAULT_RULE,
    METHODS,
    SUMMARY_CSV,
    TRACE_CSV,
    Schedule,
    _build_solver_config,
    build_problem,
    classify_terminal,
    expand_methods,
    load_config,
    resolve_x0,
    run_casestudy,
    run_experiment,
    run_rates,
    trace_csv,
    validate_config,
)


# The schema-v1 headers, spelled out: the headers derived from the solver's
# columns must keep writing these.
TRACE_HEADER = (
    "k,f,g,grad_f_sq,grad_g_sq,lambda,d_sq,cos_theta,"
    "f_perp_sq,f_par_sq,delta_f,delta_g,potential,degenerate"
)
SUMMARY_HEADER = (
    "cell,method,rows,stopped_early,final_f,final_g,final_grad_f_sq,"
    "final_grad_g_sq,final_lambda,final_d_sq,final_cos_theta,"
    "final_f_perp_sq,final_f_par_sq,best_k,best_potential,"
    "best_grad_g_sq,best_d_sq"
)
CASES_HEADER = (
    "init,classification,final_lambda,final_grad_f_sq,final_grad_g_sq,"
    "final_cos_theta"
)


def test_csv_headers_are_schema_v1():
    assert TRACE_CSV.header == TRACE_HEADER
    assert SUMMARY_CSV.header == SUMMARY_HEADER
    assert CASES_CSV.header == CASES_HEADER


def bundled(name: str) -> Path:
    import importlib.resources as resources

    return Path(str(resources.files("dbgd") / "configs" / name))


def dbgd_env() -> dict:
    """The environment of a fresh interpreter that imports this ``dbgd``."""
    src = str(Path(dbgd.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this ``dbgd``."""
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=dbgd_env(), timeout=120)


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``dbgd`` in a fresh interpreter, so that its raw standard error shows."""
    return run_python(["-m", "dbgd.cli", *args])


def minimal_experiment(tmp_path, **overrides):
    doc = {
        "kind": "experiment",
        "problem": {"name": "quadratic", "n": 3},
        "methods": [
            {"kind": "dbgd", "rule": "grad-norm-squared", "beta": [0.5, 1.0]},
            {"kind": "penalty", "lambda": 2.0},
        ],
        "run": {
            "x0": [0.2, 0.2, 0.2],
            "iterations": 50,
            "step": {"mode": "constant", "eta": 0.3},
        },
        "output": {"directory": str(tmp_path / "out"), "trace": "all"},
    }
    doc.update(overrides)
    return doc


DROP = object()  #: a ``mutated`` value that deletes the field


def mutated(base: str, path: tuple, value):
    """A bundled config with the field at ``path`` set to ``value``."""
    doc = json.loads(bundled(base).read_text())
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


EXP, RATES, CASE = "matfac.json", "rates-quadratic.json", "casestudy.json"


def scheduled_casestudy(p) -> dict:
    """The bundled case study, its method scheduled at ``p`` and its step dropped."""
    doc = json.loads(bundled(CASE).read_text())
    doc["method"] = {"kind": "dbgd", "rule": "scheduled", "p": p}
    del doc["run"]["step"]
    return doc


# One invalid config per rule, each an exit 2 from `dbgd validate`: the
# change of a bundled config and a word the error message names.
REJECTED_CONFIGS = [pytest.param(*case, id=id_) for id_, case in {
    # unknown and missing keys at every level
    "top-unknown": (EXP, ("plot",), True, "plot"),
    "top-missing": (EXP, ("output",), DROP, "output"),
    "rates-missing": (RATES, ("k_grid",), DROP, "k_grid"),
    "casestudy-missing": (CASE, ("method",), DROP, "method"),
    "problem-unknown": (EXP, ("problem", "size"), 3, "size"),
    "problem-missing-name": (EXP, ("problem", "name"), DROP, "name"),
    "problem-missing-field": (RATES, ("problem", "n"), DROP, "'n'"),
    "method-unknown": (EXP, ("methods", 0, "gamma"), 1.0, "gamma"),
    "method-missing-kind": (EXP, ("methods", 0, "kind"), DROP, "kind"),
    "method-missing-field": (EXP, ("methods", 0, "beta"), DROP, "beta"),
    "casestudy-method-missing-field": (CASE, ("method", "beta"), DROP, "beta"),
    "run-unknown": (EXP, ("run", "stepsize"), 0.1, "stepsize"),
    "run-missing": (EXP, ("run", "iterations"), DROP, "iterations"),
    "casestudy-run-unknown": (CASE, ("run", "stop_tolerances"), [0, 0], "stop_tolerances"),
    "casestudy-run-missing": (CASE, ("run", "initializations"), DROP, "initializations"),
    "step-unknown": (EXP, ("run", "step", "eta0"), 0.1, "eta0"),
    "step-missing-mode": (EXP, ("run", "step", "mode"), DROP, "mode"),
    "step-missing-eta": (EXP, ("run", "step", "eta"), DROP, "eta"),
    "step-mode-scheduled": (EXP, ("run", "step"), {"mode": "scheduled", "p": 1}, "step.mode"),
    "step-constant-p": (EXP, ("run", "step"), {"mode": "constant", "eta": 0.01, "p": 1}, "['p']"),
    # a step is required exactly when some method takes a constant step
    "step-missing": (EXP, ("run", "step"), DROP, "$.run.step: required"),
    "step-of-scheduled-experiment": (EXP, ("methods",), [
        {"kind": "dbgd", "rule": "scheduled", "p": [0, 1]}], "$.run.step: every method"),
    "step-of-scheduled-casestudy": (CASE, ("method",), {
        "kind": "dbgd", "rule": "scheduled", "p": 1}, "$.run.step: every method"),
    "output-unknown": (EXP, ("output", "format"), "csv", "format"),
    "output-missing": (EXP, ("output", "directory"), DROP, "directory"),
    "x0-seed-unknown": (EXP, ("run", "x0", "shift"), 1.0, "x0"),
    "x0-seed-missing": (EXP, ("run", "x0", "seed"), DROP, "x0"),
    "classify-unknown": (CASE, ("classify", "case3_lambda_max"), 1.0, "case3_lambda_max"),
    "rates-output-unknown": (RATES, ("output", "dir"), "out", "dir"),
    "rates-output-missing": (RATES, ("output", "file"), DROP, "file"),
    # wrong types, `true` where a number is expected among them
    "doc-not-object": (EXP, (), [], "object"),
    "problem-not-object": (EXP, ("problem",), "matfac", "problem"),
    "methods-not-list": (EXP, ("methods",), {}, "methods"),
    "iterations-string": (EXP, ("run", "iterations"), "5", "iterations"),
    "iterations-true": (EXP, ("run", "iterations"), True, "iterations"),
    "eta-true": (EXP, ("run", "step", "eta"), True, "eta"),
    "n-true": (EXP, ("problem", "n"), True, "problem.n"),
    "alpha-true": (EXP, ("problem", "alpha"), True, "alpha"),
    "beta-string": (EXP, ("methods", 0, "beta"), "0.5", "beta"),
    "beta-grid-true": (EXP, ("methods", 0, "beta"), [True], "beta"),
    "x0-string": (EXP, ("run", "x0"), "zeros", "x0"),
    "x0-vector-string": (RATES, ("x0", 0), "a", "x0"),
    "scaling-number": (EXP, ("run", "penalty_step_scaling"), 1, "penalty_step_scaling"),
    "directory-number": (EXP, ("output", "directory"), 3, "directory"),
    "file-number": (RATES, ("output", "file"), 3, "file"),
    "p-not-list": (RATES, ("p",), 0.0, "$.p"),
    "threshold-string": (CASE, ("classify", "case1_lambda_max"), "big", "case1_lambda_max"),
    "initialization-number": (CASE, ("run", "initializations", 0), 1.0, "initializations"),
    # bounds
    "iterations-0": (EXP, ("run", "iterations"), 0, "iterations"),
    "casestudy-iterations-0": (CASE, ("run", "iterations"), 0, "iterations"),
    "eta-0": (EXP, ("run", "step", "eta"), 0, "eta"),
    "eta-negative": (CASE, ("run", "step", "eta"), -0.1, "eta"),
    "scheduled-p-negative": (EXP, ("methods", 0), {"kind": "dbgd", "rule": "scheduled", "p": -1},
                             "methods[0]: p must be nonnegative"),
    "rates-p-negative": (RATES, ("p", 0), -1, "$.p"),
    # the degeneracy guard is a package constant, so a run.guard is an unknown field
    "guard-0": (EXP, ("run", "guard"), 0, "unknown fields ['guard']"),
    "casestudy-guard-0": (CASE, ("run", "guard"), 0.0, "unknown fields ['guard']"),
    "slope-tolerance-0": (RATES, ("slope_tolerance",), 0, "slope_tolerance"),
    "noise-std-negative": (EXP, ("problem", "noise_std"), -1, "noise_std"),
    "alpha-0": (EXP, ("problem", "alpha"), 0, "alpha"),
    "n-0": (RATES, ("problem", "n"), 0, "problem.n"),
    "box-radius-0": (RATES, ("problem", "box_radius"), 0, "box_radius"),
    "k-grid-two-budgets": (RATES, ("k_grid",), [100, 1000], "k_grid"),
    "k-grid-repeated": (RATES, ("k_grid",), [100, 1000, 100], "distinct"),
    # a repeated budget counts twice in the fit, a repeated exponent writes two equal fits
    "k-grid-budget-repeated": (RATES, ("k_grid",), [100, 100, 1000, 3000],
                               "$.k_grid: expected 3 or more distinct items, none repeated; "
                               "100 repeats"),
    "p-repeated": (RATES, ("p",), [0.0, 0.0], "$.p: expected 1 or more distinct items, none "
                                              "repeated; 0.0 repeats"),
    "p-repeated-int-and-float": (RATES, ("p",), [1, 0.5, 1.0], "$.p: expected 1 or more "
                                 "distinct items, none repeated; 1.0 repeats"),
    "k-grid-budget-0": (RATES, ("k_grid", 0), 0, "k_grid"),
    # two grid values that format alike under {v:g} name two cells alike
    "cell-name-repeated": (EXP, ("methods", 1), {"kind": "penalty", "lambda": [1, 1.0000001]},
                           "duplicate cell names; 'penalty_lambda=1' repeats"),
    "stop-tolerances-one": (EXP, ("run", "stop_tolerances"), [1e-6], "stop_tolerances"),
    "stop-tolerances-three": (EXP, ("run", "stop_tolerances"), [1e-6, 1e-8, 0], "stop_tolerances"),
    "stop-tolerance-negative": (EXP, ("run", "stop_tolerances"), [-1, 0], "stop_tolerances"),
    "methods-empty": (EXP, ("methods",), [], "methods"),
    "initializations-empty": (CASE, ("run", "initializations"), [], "initializations"),
    "initialization-empty": (CASE, ("run", "initializations", 0), [], "initializations"),
    "casestudy-p-grid": (CASE, (), scheduled_casestudy([0, 1]), "single method without grids"),
    "p-empty": (RATES, ("p",), [], "$.p"),
    "grid-empty": (EXP, ("methods", 1, "lambda"), [], "lambda"),
    "x0-empty": (RATES, ("x0",), [], "x0"),
    # enums
    "problem-name": (EXP, ("problem", "name"), "rosenbrock", "name"),
    "method-kind": (EXP, ("methods", 0, "kind"), "sgd", "kind"),
    "rule": (EXP, ("methods", 0, "rule"), "newton", "rule"),
    "rule-of-penalty": (EXP, ("methods", 1, "rule"), DEFAULT_RULE, "rule"),
    "step-mode": (EXP, ("run", "step", "mode"), "adaptive", "mode"),
    "trace": (EXP, ("output", "trace"), "some", "trace"),
    "variant": (EXP, ("problem", "variant"), "l2", "variant"),
}.items()]


class TestValidation:
    def test_bundled_configs_are_valid(self):
        for name in (
            "toy.json",
            "matfac.json",
            "matfac-log.json",
            "casestudy.json",
            "rates-toy.json",
            "rates-quadratic.json",
        ):
            load_config(bundled(name))

    def test_unknown_top_level_key(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["plot"] = True
        with pytest.raises(ConfigurationError, match="plot"):
            validate_config(doc)

    def test_unknown_nested_key(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["run"]["stepsize"] = 0.1
        with pytest.raises(ConfigurationError, match="stepsize"):
            validate_config(doc)

    def test_empty_method_grid(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["methods"][1]["lambda"] = []
        with pytest.raises(ConfigurationError):
            validate_config(doc)

    def test_problem_specific_fields(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["problem"] = {"name": "toy", "n": 4}
        with pytest.raises(ConfigurationError, match="toy"):
            validate_config(doc)
        doc["problem"] = {"name": "matrix-factorization", "n": 4}
        with pytest.raises(ConfigurationError):
            validate_config(doc)

    def test_method_block_fields(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["methods"][0]["lambda"] = 1.0
        with pytest.raises(ConfigurationError):
            validate_config(doc)
        doc = minimal_experiment(tmp_path)
        del doc["methods"][1]["lambda"]
        with pytest.raises(ConfigurationError, match="lambda"):
            validate_config(doc)

    def test_constant_step_needs_eta(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["run"]["step"] = {"mode": "constant"}
        with pytest.raises(ConfigurationError, match="eta"):
            validate_config(doc)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="line"):
            load_config(bad)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            validate_config({"kind": "benchmark"})

    @pytest.mark.parametrize("base, path, value, word", REJECTED_CONFIGS)
    def test_rejected_configs(self, tmp_path, capsys, base, path, value, word):
        config = tmp_path / "rejected.json"
        config.write_text(json.dumps(mutated(base, path, value)))
        assert cli.main(["validate", str(config)]) == 2
        assert word in capsys.readouterr().err

    def test_round_trip_is_lossless(self, tmp_path):
        doc = json.loads(bundled("toy.json").read_text())
        dumped = json.dumps(doc, sort_keys=True)
        assert json.loads(dumped) == doc
        copy = tmp_path / "copy.json"
        copy.write_text(dumped)
        assert load_config(copy) == load_config(bundled("toy.json"))


class TestExpansion:
    def test_grid_expansion_order_and_names(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        problem = build_problem(doc["problem"])
        cells = expand_methods(doc["methods"], problem)
        assert [name for name, _ in cells] == [
            "dbgd_beta=0.5",
            "dbgd_beta=1",
            "penalty_lambda=2",
        ]

        # One block of every (kind, rule) pair; the first grid field is the
        # outer loop.
        blocks = [
            {"kind": "dbgd", "beta": [0.5, 1.0]},
            {"kind": "dbgd", "rule": "dynamic-barrier-min",
             "alpha": [1.0, 2.0], "beta": [0.25, 0.5]},
            {"kind": "dbgd", "rule": "lower-linearization", "eta": 0.1},
            {"kind": "bloop", "beta": 0.5},
            {"kind": "penalty", "lambda": [2.0, 10.0]},
        ]
        cells = expand_methods(blocks, problem)
        expected = [
            ("dbgd_beta=0.5", "dbgd:grad-norm-squared", "full"),
            ("dbgd_beta=1", "dbgd:grad-norm-squared", "full"),
            ("dbgd-min_alpha=1_beta=0.25", "dbgd:dynamic-barrier-min", "full"),
            ("dbgd-min_alpha=1_beta=0.5", "dbgd:dynamic-barrier-min", "full"),
            ("dbgd-min_alpha=2_beta=0.25", "dbgd:dynamic-barrier-min", "full"),
            ("dbgd-min_alpha=2_beta=0.5", "dbgd:dynamic-barrier-min", "full"),
            ("dbgd-lin_eta=0.1", "dbgd:lower-linearization", "direction-only"),
            ("bloop_beta=0.5", "bloop", "full"),
            ("penalty_lambda=2", "penalty", "direction-only"),
            ("penalty_lambda=10", "penalty", "direction-only"),
        ]
        assert [name for name, _ in cells] == [name for name, _, _ in expected]
        x0 = np.full(3, 0.2)
        for (_, method), (name, label, potential_kind) in zip(cells, expected):
            config = SolverConfig(method=method, eta=0.1, iterations=2)
            trace = run(problem, config, x0)
            beta = trace.config.method.potential_beta
            assert (trace.config.method.label, "direction-only" if beta is None else "full") == (
                label, potential_kind), name

    def test_the_methods_table_builds_every_kind_of_the_method_union(self):
        # a schedule resolves to a grad-norm-squared rule for its budget
        kinds = typing.get_args(Method)
        problem = build_problem({"name": "toy"})
        built = [entry.build(0.0, *(0.5 for _ in entry.fields)) for entry in METHODS.values()]
        assert {type(method) for method in built} == {*kinds, Schedule}
        resolved = [_build_solver_config({"iterations": 10}, method, problem).method
                    for method in built if isinstance(method, Schedule)]
        assert [type(method) for method in resolved] == [GradNormSquared]

    def test_a_schedule_takes_a_finite_nonnegative_p(self):
        for p in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="p must be nonnegative and finite"):
                Schedule(p)

    def test_g_star_rules_reject_matfac(self):
        problem = build_problem(
            {"name": "matrix-factorization", "n": 4, "r": 2, "alpha": 1.0}
        )
        with pytest.raises(ConfigurationError, match="g\\*"):
            expand_methods(
                [{"kind": "dbgd", "rule": "dynamic-barrier-min", "alpha": 1.0, "beta": 0.5}],
                problem,
            )

    def test_x0_from_seed_block(self):
        a = resolve_x0({"seed": 3, "scale": 0.1}, 5, "$.run.x0")
        b = resolve_x0({"seed": 3, "scale": 0.1}, 5, "$.run.x0")
        assert np.array_equal(a, b)
        assert a.shape == (5,)
        with pytest.raises(ConfigurationError, match=r"\$\.run\.x0: expected 3 entries"):
            resolve_x0([1.0, 2.0], 3, "$.run.x0")


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        out = run_experiment(doc)
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "dbgd_beta=0.5.csv",
            "dbgd_beta=1.csv",
            "penalty_lambda=2.csv",
            "summary.csv",
        ]
        trace_lines = (out / "dbgd_beta=1.csv").read_text().splitlines()
        assert trace_lines[0] == TRACE_HEADER
        assert len(trace_lines) == 51
        summary_lines = (out / "summary.csv").read_text().splitlines()
        assert summary_lines[0] == SUMMARY_HEADER
        assert len(summary_lines) == 4

    def test_final_granularity(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["output"]["trace"] = "final"
        out = run_experiment(doc)
        lines = (out / "penalty_lambda=2.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("49,")

    def test_none_granularity_writes_only_summary(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["output"]["trace"] = "none"
        out = run_experiment(doc)
        assert [p.name for p in out.iterdir()] == ["summary.csv"]

    def test_iterations_override(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        out = run_experiment(doc, iterations_override=7)
        lines = (out / "dbgd_beta=1.csv").read_text().splitlines()
        assert len(lines) == 8

    def test_every_row_trace_fills_the_geometry_once_per_block(self, tmp_path, monkeypatch):
        # toy.json: 5 cells of 1,000 iterations, in 4 blocks of at most 256,
        # and one more fill of the kept best and last rows after the last block
        calls = []
        decompose = solver.decompose_grad_f

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(solver, "decompose_grad_f", counted)
        run_experiment(bundled("toy.json"), output_dir=tmp_path / "toy")
        assert len(calls) == 5

    def test_undefined_cosine_serializes_as_na(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        doc["run"]["x0"] = [0.0, 0.0, 0.0]  # lower gradient vanishes at the start
        out = run_experiment(doc)
        first_row = (out / "dbgd_beta=1.csv").read_text().splitlines()[1].split(",")
        assert first_row[TRACE_HEADER.split(",").index("cos_theta")] == "NA"
        assert first_row[-1] == "1"  # degenerate flag

    def test_rerun_is_byte_identical(self, tmp_path):
        doc = minimal_experiment(tmp_path)
        out1 = run_experiment(doc, output_dir=tmp_path / "r1")
        out2 = run_experiment(doc, output_dir=tmp_path / "r2")
        for p in sorted(out1.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()


class TestKindDispatch:
    def test_runners_reject_wrong_kind(self, tmp_path):
        experiment = minimal_experiment(tmp_path)
        with pytest.raises(ConfigurationError, match="rates"):
            run_rates(experiment)
        with pytest.raises(ConfigurationError, match="casestudy"):
            run_casestudy(experiment)
        rates = json.loads(bundled("rates-toy.json").read_text())
        with pytest.raises(ConfigurationError, match="experiment"):
            run_experiment(rates)


class TestRunRates:
    def test_report_contents(self, tmp_path):
        doc = {
            "kind": "rates",
            "problem": {"name": "quadratic", "n": 4},
            "x0": [1.5, 1.5, 1.5, 1.5],
            "p": [0.0],
            "k_grid": [50, 100, 200],
            "output": {"file": str(tmp_path / "rates.json")},
        }
        path = run_rates(doc)
        report = json.loads(path.read_text())
        assert len(report["fits"]) == 1
        fit = report["fits"][0]
        assert fit["theoretical_slope"] == pytest.approx(-2.0 / 3.0)
        assert len(fit["min_potentials"]) == 3

    def test_a_run_is_named_by_the_p_and_budget_of_the_config(self):
        # p-major, each value as the config writes it: a JSON 1 prints p=1
        doc = mutated(RATES, ("p",), [1, 0.5])
        _, problem, _, runs = harness.prepare_config(doc)
        pairs = [(p, k) for p in (1, 0.5) for k in doc["k_grid"]]
        assert [name for name, _ in runs] == [f"p={p} K={k}" for p, k in pairs]
        for (_, config), (p, k) in zip(runs, pairs):
            eta, beta = scheduled_step(problem.smoothness, k, p)
            assert config == SolverConfig(GradNormSquared(beta), eta, k)

    def test_divergence_names_the_p_and_budget_of_its_run(self, tmp_path, monkeypatch):
        # from the lower optimum every run first steps along -grad_f = (1, 1),
        # each by its own step; only p = 1 at K = 100 (eta = 0.158, run 3 of
        # the p-major batch) crosses x_0 = 0.12, where f turns NaN
        def build(n):
            base = quadratic_sanity_problem(n)
            return dataclasses.replace(
                base, f=lambda x: np.where(x[..., 0] > 0.12, np.nan, base.f(x)))

        entry = harness.PROBLEMS["quadratic"]
        monkeypatch.setitem(harness.PROBLEMS, "quadratic", entry._replace(build=build))
        doc = {"kind": "rates", "problem": {"name": "quadratic", "n": 2}, "x0": [0.0, 0.0],
               "p": [0.0, 1.0], "k_grid": [100, 1000, 10000],
               "output": {"file": str(tmp_path / "rates.json")}}
        with pytest.raises(DivergenceError) as err:
            run_rates(doc)
        assert (err.value.iteration, err.value.cell) == (0, 3)
        assert str(err.value) == "non-finite objective value in run p=1.0 K=100 at iteration 0"
        assert not (tmp_path / "rates.json").exists()

    def test_a_start_at_a_stationary_point_leaves_no_slope(self, tmp_path, capsys):
        # at the toy's joint stationary point every run keeps the potential 0
        doc = mutated("rates-toy.json", ("x0",), [-math.pi / 20.0, -1.0])
        doc["k_grid"] = [10, 20, 40]
        doc["output"]["file"] = str(tmp_path / "rates.json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["rates", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: rates: minimal potential 0.0 at K = 10 is not positive; "
            "cannot fit a log-log slope\n")
        assert not (tmp_path / "rates.json").exists()


class TestRunCasestudy:
    def test_bundled_casestudy_finds_both_cases(self, tmp_path):
        out = run_casestudy(bundled("casestudy.json"), output_dir=tmp_path / "cs")
        header, *rows = (out / "cases.csv").read_text().splitlines()
        assert header == CASES_HEADER
        assert (out / "init0.csv").read_text().splitlines()[0] == TRACE_HEADER
        labels = [row.split(",")[1] for row in rows]
        assert "case1" in labels and "case2" in labels

    @staticmethod
    def _diverging_casestudy(tmp_path) -> Path:
        doc = json.loads(bundled("casestudy.json").read_text())
        # init0 is the bilevel optimum, where both gradients vanish; the
        # others overflow at this step size
        doc["run"]["initializations"] = [[-math.pi / 20.0, -1.0], [-3.0, -1.0], [0.2, 0.5]]
        doc["run"]["step"]["eta"] = 100.0
        doc["run"]["iterations"] = 500
        doc["output"]["directory"] = str(tmp_path / "div")
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        return path

    def test_divergence_names_the_initialization(self, tmp_path, capsys):
        path = self._diverging_casestudy(tmp_path)
        assert cli.main(["casestudy", str(path)]) == 3
        assert "in initialization init1 at iteration" in capsys.readouterr().err

    def test_divergence_shows_the_step_warning_and_no_numpy_warnings(self, tmp_path):
        proc = run_cli(["casestudy", str(self._diverging_casestudy(tmp_path))])
        assert proc.returncode == 3
        warning = proc.stderr.index("warning: init1: constant step 100.0 exceeds 1/(L_f+L_g)")
        assert warning < proc.stderr.index("divergence: ")
        assert "RuntimeWarning" not in proc.stderr

    def test_single_init_at_exact_optimum_is_case1(self, tmp_path):
        import math

        doc = json.loads(bundled("casestudy.json").read_text())
        doc["run"]["initializations"] = [[-math.pi / 20.0, -1.0]]
        doc["run"]["iterations"] = 10
        doc["output"]["directory"] = str(tmp_path / "opt")
        out = run_casestudy(doc)
        rows = (out / "cases.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[1] == "case1"

    def test_impossible_thresholds_warn(self, tmp_path, capsys):
        doc = json.loads(bundled("casestudy.json").read_text())
        doc["classify"] = {
            "case1_lambda_max": -1.0,
            "case1_grad_f_sq_max": -1.0,
            "case2_cos_theta_max": -2.0,
            "case2_lambda_min": 1e12,
        }
        doc["run"]["iterations"] = 50
        doc["output"]["directory"] = str(tmp_path / "cs2")
        out = run_casestudy(doc)
        rows = (out / "cases.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "unclassified" for row in rows)
        assert "thresholds" in capsys.readouterr().err


def test_classify_thresholds_admit_equality():
    # at thresholds equal to the last row's own lam, grad_f_sq and cosine,
    # each signature holds; case 2's lambda bound is strict
    trace = run(toy_problem(), SolverConfig(GradNormSquared(1.0), 0.01, 50), np.array([-3.0, -1.0]))
    lam, gf_sq, cos = (float(column[-1]) for column in (trace.lam, trace.grad_f_sq, trace.cos_theta))
    never = {"case1_lambda_max": -1.0, "case1_grad_f_sq_max": -1.0,
             "case2_cos_theta_max": -2.0, "case2_lambda_min": math.inf}
    case1 = {**never, "case1_lambda_max": lam, "case1_grad_f_sq_max": gf_sq}
    case2 = {**never, "case2_cos_theta_max": cos, "case2_lambda_min": -1.0}
    assert classify_terminal(trace, case1) == "case1"
    assert classify_terminal(trace, case2) == "case2"
    assert classify_terminal(trace, {**case2, "case2_lambda_min": lam}) == "unclassified"


class TestScheduledResolution:
    """A scheduled cell runs as the constant step and grad-norm-squared
    beta that ``scheduled_step`` gives for the budget of the run."""

    @staticmethod
    def library_trace(problem, iterations, p, x0):
        eta, beta = scheduled_step(problem.smoothness, iterations, p)
        return run(problem, SolverConfig(GradNormSquared(beta), eta, iterations), np.array(x0))

    @staticmethod
    def scheduled_toy(tmp_path, iterations, p=1.0):
        doc = minimal_experiment(tmp_path, problem={"name": "toy"},
                                 methods=[{"kind": "dbgd", "rule": "scheduled", "p": p}])
        doc["run"] = {"x0": [-3.0, -1.0], "iterations": iterations}
        path = tmp_path / "scheduled.json"
        path.write_text(json.dumps(doc))
        return doc, path

    def test_casestudy_traces_equal_library_runs(self, tmp_path):
        doc = scheduled_casestudy(1.0)
        doc["output"] = {"directory": str(tmp_path / "cs"), "trace": "all"}
        out = run_casestudy(doc)
        problem = build_problem(doc["problem"])
        for i, x0 in enumerate(doc["run"]["initializations"]):
            trace = self.library_trace(problem, doc["run"]["iterations"], 1.0, x0)
            same = (out / f"init{i}.csv").read_text() == trace_csv(trace.table, trace.k)
            assert same, f"init{i}.csv"  # no 2,000-line diff

    def test_the_iterations_override_resolves_the_schedule(self, tmp_path):
        doc, path = self.scheduled_toy(tmp_path, 50)
        assert cli.main(["run", str(path), "--iterations", "7"]) == 0
        problem = build_problem(doc["problem"])
        assert scheduled_step(problem.smoothness, 7, 1.0) != scheduled_step(
            problem.smoothness, 50, 1.0)
        trace = self.library_trace(problem, 7, 1.0, doc["run"]["x0"])
        csv = (tmp_path / "out" / "dbgd-sched_p=1.csv").read_text()
        assert csv == trace_csv(trace.table, trace.k)

    @pytest.mark.parametrize("override", [None, 7])
    def test_each_cell_of_a_p_grid_runs_at_its_schedule(self, tmp_path, monkeypatch, override):
        batches = []

        def recorded(*args, **kwargs):
            batches.append(run(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(harness, "run", recorded)
        grid = [0.0, 0.5, 1.0]
        doc, path = self.scheduled_toy(tmp_path, 50, grid)
        flags = [] if override is None else ["--iterations", str(override)]
        assert cli.main(["run", str(path), *flags]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in summary] == [
            "dbgd-sched_p=0", "dbgd-sched_p=0.5", "dbgd-sched_p=1"]
        problem = build_problem(doc["problem"])
        (batch,) = batches
        for trace, p in zip(batch.traces, grid, strict=True):
            eta, beta = scheduled_step(problem.smoothness, override or 50, p)
            assert (trace.config.eta, trace.config.method.beta, len(trace)) == (
                eta, beta, override or 50), p

    def test_a_mixed_grid_runs_each_block_as_it_runs_alone(self, tmp_path):
        doc, _ = self.scheduled_toy(tmp_path, 300, [0.0, 1.0])
        doc["methods"].append({"kind": "penalty", "lambda": 10})
        doc["run"]["step"] = {"mode": "constant", "eta": 0.01}
        mixed = run_experiment(doc, output_dir=tmp_path / "mixed")
        alone = [
            run_experiment({**doc, "methods": doc["methods"][:1],
                            "run": {k: v for k, v in doc["run"].items() if k != "step"}},
                           output_dir=tmp_path / "scheduled"),
            run_experiment({**doc, "methods": doc["methods"][1:]}, output_dir=tmp_path / "penalty"),
        ]
        names = ["dbgd-sched_p=0.csv", "dbgd-sched_p=1.csv", "penalty_lambda=10.csv"]
        assert sorted(p.name for p in mixed.iterdir()) == [*names, "summary.csv"]
        for name in names:
            single = alone[name.startswith("penalty")] / name
            assert (mixed / name).read_bytes() == single.read_bytes(), name

    @pytest.mark.parametrize("iterations", [1, 2, 2000])
    def test_a_scheduled_run_never_warns_of_its_step(self, tmp_path, capsys, iterations):
        # the toy's 1/(L_f+L_g) is below its bundled constant step, which warns
        doc, path = self.scheduled_toy(tmp_path, iterations)
        assert cli.main(["run", str(path)]) == 0
        assert "warning" not in capsys.readouterr().err
        problem = build_problem(doc["problem"])
        trace = self.library_trace(problem, iterations, 1.0, doc["run"]["x0"])
        assert trace.config.warnings(problem.smoothness) == []
        if iterations == 1:
            assert trace.config.eta == 1.0 / problem.smoothness.lip_total


class TestPenaltyStepScaling:
    """A penalty cell runs at ``eta / (1 + lambda)``, or at ``eta`` when the
    config sets ``penalty_step_scaling`` to false."""

    @pytest.mark.parametrize("scaling", [True, None, False], ids=["true", "absent", "false"])
    def test_each_cell_equals_a_library_run_at_its_step(self, tmp_path, scaling):
        doc = minimal_experiment(tmp_path, methods=[{"kind": "penalty", "lambda": [1, 10]}])
        doc["run"]["step"]["eta"] = 0.1
        if scaling is not None:
            doc["run"]["penalty_step_scaling"] = scaling
        out = run_experiment(doc)
        problem = build_problem(doc["problem"])
        for lam in (1.0, 10.0):
            eta = 0.1 if scaling is False else 0.1 / (1.0 + lam)
            config = SolverConfig(Penalty(lam), eta, doc["run"]["iterations"])
            trace = run(problem, config, np.array(doc["run"]["x0"]))
            csv = (out / f"penalty_lambda={lam:g}.csv").read_text()
            assert csv == trace_csv(trace.table, trace.k), lam


BUNDLED_CONFIGS = sorted(path.name for path in bundled(".").glob("*.json"))


class TestCli:
    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_every_bundled_config_validates_and_gradchecks(self, capsys, name):
        doc = json.loads(bundled(name).read_text())
        assert cli.main(["validate", str(bundled(name))]) == 0
        assert f"valid {doc['kind']} config" in capsys.readouterr().out
        assert cli.main(["gradcheck", str(bundled(name)), "--points", "5"]) == 0
        assert capsys.readouterr().out.endswith("over 5 points (ok)\n")

    def test_gradcheck_audits_the_problem_a_config_names(self, tmp_path, capsys):
        config = tmp_path / "matfac.json"
        config.write_text(json.dumps(mutated(EXP, ("problem",), {
            "name": "matrix-factorization", "n": 4, "r": 2, "alpha": 1.0,
            "variant": "log-smooth"})))
        assert cli.main(["gradcheck", str(config), "--points", "3"]) == 0
        assert capsys.readouterr().out.startswith("matfac-log-smooth: ")

    def test_gradcheck_of_an_unknown_problem_field_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps(mutated("toy.json", ("problem", "alpha"), 3)))
        assert cli.main(["gradcheck", str(config)]) == 2
        captured = capsys.readouterr()
        assert ("config error: config field $.problem: unknown fields ['alpha'] "
                "for problem 'toy'") in captured.err
        assert captured.out == ""

    def test_gradcheck_of_a_problem_name_is_a_config_error(self):
        proc = run_cli(["gradcheck", "toy"])
        assert proc.returncode == 2
        assert proc.stderr == "config error: config file not found: toy\n"

    def test_an_iterations_override_below_1_is_a_config_error(self, tmp_path, capsys):
        argv = ["run", str(bundled("toy.json")), "--output", str(tmp_path), "--iterations", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: iterations override must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("base, path, value, message", [
        # beta/(L_g eta) overflows: once an exit-3 divergence at iteration 0
        ("toy.json", ("run", "step", "eta"), 1e-320,
         "run: dbgd_beta=1: the potential weight beta/(L_g eta) is not finite at eta = 1e-320"),
        ("casestudy.json", ("run", "step", "eta"), 1e-320,
         "run: init0: the potential weight beta/(L_g eta) is not finite at eta = 1e-320"),
        # L_f = 2/alpha overflows: once a non-finite objective at iteration 0
        ("matfac-log.json", ("problem", "alpha"), 1e-320,
         "problem: lip_grad_f must be strictly positive and finite, got inf"),
    ], ids=["toy-subnormal-step", "casestudy-subnormal-step", "matfac-log-subnormal-alpha"])
    def test_a_constant_that_overflows_is_a_config_error(self, tmp_path, capsys, base, path,
                                                          value, message):
        doc = mutated(base, path, value)
        doc["output"]["directory"] = str(tmp_path / "out")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        command = "casestudy" if doc["kind"] == "casestudy" else "run"
        for argv in (["validate", str(config)], [command, str(config)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "experiment"}))
        assert cli.main(["validate", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (None, "Is a directory"),
        (b'{"kind": "\xe9"}', "can't decode byte 0xe9"),
        (b'{"kind": "experiment", "n": 1' + b"0" * 4300 + b"}", "Exceeds the limit (4300 digits)"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
    ], ids=["directory", "not-utf-8", "integer-of-4301-digits", "nested-100000-deep"])
    def test_a_config_file_that_cannot_be_read_is_a_config_error(
        self, tmp_path, capsys, content, reason
    ):
        config = tmp_path / "config.json"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        assert cli.main(["validate", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {config}: cannot read the config: ")
        assert reason in captured.err and captured.out == ""

    @pytest.mark.parametrize("change, where", [
        ({"problem": {"name": "toy"}, "methods": [{"kind": "dbgd", "beta": 1.5}],
          "run": {"x0": [-3.0, -1.0], "iterations": 5,
                  "step": {"mode": "constant", "eta": 0.01}}}, "methods[0]"),
        ({"problem": {"name": "matrix-factorization", "n": 3, "r": 5, "alpha": 1.0}},
         "problem"),
        ({"methods": [{"kind": "penalty", "lambda": -1}]}, "methods[0]"),
        ({"methods": [{"kind": "penalty", "lambda": 1e300}],  # eta / (1 + lambda) is 0
          "run": {"x0": [0.2, 0.2, 0.2], "iterations": 5,
                  "step": {"mode": "constant", "eta": 1e-30}}}, "run"),
    ], ids=["dbgd-beta-above-1", "matfac-rank-above-n", "penalty-negative-lambda",
            "penalty-step-underflow"])
    def test_out_of_range_values_are_config_errors(self, tmp_path, capsys, change, where):
        path = tmp_path / "range.json"
        path.write_text(json.dumps(minimal_experiment(tmp_path, **change)))
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 2
            assert f"config error: {where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("base, path, value, where", [
        (EXP, ("run", "iterations"), 5.0, "$.run.iterations"),
        (EXP, ("run", "x0", "seed"), 1.0, "$.run.x0.seed"),
        (EXP, ("problem", "n"), 3.0, "$.problem.n"),
        (EXP, ("problem", "seed"), 0.0, "$.problem.seed"),
        (RATES, ("k_grid", 0), 100.0, "$.k_grid[0]"),
        (EXP, ("run", "guard"), math.nan, "$.run"),
        (EXP, ("run", "stop_tolerances"), [math.nan, math.nan], "$.run.stop_tolerances[0]"),
        (EXP, ("run", "step", "eta"), math.inf, "$.run.step.eta"),
        (RATES, ("slope_tolerance",), math.inf, "$.slope_tolerance"),
        (RATES, ("slope_tolerance",), math.nan, "$.slope_tolerance"),
        (EXP, ("kind",), [], "$.kind"),
        (EXP, ("run", "x0", "seed"), -1, "$.run.x0.seed"),
        (RATES, ("x0",), {"seed": -3}, "$.x0.seed"),
        # integers beyond the largest float
        ("toy.json", ("run", "step", "eta"), 10**400, "$.run.step.eta"),
        ("toy.json", ("methods", 1, "lambda", 0), 10**400, "$.methods[1].lambda[0]"),
        ("toy.json", ("run", "x0", 0), -10**400, "$.run.x0[0]"),
        ("rates-toy.json", ("p", 1), 10**400, "$.p[1]"),
        ("rates-toy.json", ("slope_tolerance",), 10**400, "$.slope_tolerance"),
        ("rates-toy.json", ("k_grid", 2), 10**400, "$.k_grid[2]"),
    ], ids=["iterations-5.0", "x0-seed-1.0", "n-3.0", "problem-seed-0.0", "k-grid-100.0",
            "guard-nan", "stop-tolerances-nan", "eta-infinity", "slope-tolerance-infinity",
            "slope-tolerance-nan", "kind-list", "x0-seed-negative", "rates-x0-seed-negative",
            "eta-1e400", "lambda-1e400", "x0-minus-1e400", "rates-p-1e400",
            "slope-tolerance-1e400", "k-grid-1e400"])
    def test_non_integers_non_finite_numbers_and_odd_kinds_are_config_errors(
        self, tmp_path, capsys, base, path, value, where
    ):
        # json.loads reads the NaN and Infinity that json.dumps writes; an
        # exception escaping cli.main would be a traceback with exit 1
        doc = mutated(base, path, value)
        rates = base.startswith("rates")
        doc["output"] = {"file": str(tmp_path / "rates.json")} if rates else {
            "directory": str(tmp_path / "out"), "trace": "none"}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        for command in ("validate", "rates" if rates else "run"):
            assert cli.main([command, str(config)]) == 2, command
            assert f"config error: config field {where}: " in capsys.readouterr().err, command
        assert not (tmp_path / "out").exists() and not (tmp_path / "rates.json").exists()

    @pytest.mark.parametrize("base, path, value, command, where", [
        ("toy.json", ("run", "x0"), [1, 2, 3], "run", "$.run.x0"),
        (CASE, ("run", "initializations", 1), [0.1], "casestudy", "$.run.initializations[1]"),
        ("rates-toy.json", ("x0",), [1.0], "rates", "$.x0"),
    ], ids=["experiment", "casestudy", "rates"])
    def test_validate_rejects_the_start_point_its_runner_rejects(
        self, tmp_path, capsys, base, path, value, command, where
    ):
        doc = mutated(base, path, value)
        doc["output"] = {"file": str(tmp_path / "rates.json")} if command == "rates" else {
            "directory": str(tmp_path / "out"), "trace": "all"}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        errors = []
        for cmd in ("validate", command):
            assert cli.main([cmd, str(config)]) == 2, cmd
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"config error: config field {where}: expected 2 entries")
        assert not (tmp_path / "out").exists() and not (tmp_path / "rates.json").exists()

    def test_the_cli_does_not_import_jsonschema(self):
        proc = run_python(["-c", "import sys, dbgd.cli; print('jsonschema' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_gradcheck_of_no_point_is_a_config_error(self, capsys, points):
        assert cli.main(["gradcheck", str(bundled("toy.json")), "--points", points]) == 2
        captured = capsys.readouterr()
        assert "config error: --points must be at least 1" in captured.err
        assert "ok" not in captured.out

    def test_gradcheck_of_a_negative_seed_is_a_config_error(self, capsys):
        assert cli.main(["gradcheck", str(bundled("toy.json")), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "config error: --seed must be nonnegative, got -1" in captured.err
        assert "ok" not in captured.out

    def test_gridded_casestudy_is_rejected_by_validate_and_casestudy(self, tmp_path, capsys):
        doc = json.loads(bundled("casestudy.json").read_text())
        doc["method"]["beta"] = [0.5, 1.0]
        doc["output"]["directory"] = str(tmp_path / "cs")
        path = tmp_path / "gridded.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "casestudy"):
            assert cli.main([command, str(path)]) == 2, command
            assert "single method without grids" in capsys.readouterr().err, command
        assert not (tmp_path / "cs").exists()

    def test_a_run_guard_is_an_unknown_field(self, tmp_path, capsys):
        # the degeneracy guard is one package constant, not a run setting
        for base, command in ((EXP, "run"), (CASE, "casestudy")):
            doc = mutated(base, ("run", "guard"), 1e-24)
            doc["output"]["directory"] = str(tmp_path / "out")
            path = tmp_path / "guard.json"
            path.write_text(json.dumps(doc))
            for argv in (["validate", str(path)], [command, str(path)]):
                assert cli.main(argv) == 2, argv
                assert "$.run: unknown fields ['guard']" in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = {
            "kind": "experiment",
            "problem": {"name": "toy"},
            "methods": [{"kind": "penalty", "lambda": 1000.0}],
            "run": {
                "x0": [-3.0, -1.0],
                "iterations": 300,
                "step": {"mode": "constant", "eta": 0.01},
                "penalty_step_scaling": False,
            },
            "output": {"directory": str(tmp_path / "div"), "trace": "none"},
        }
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "divergence" in err and "penalty_lambda=1000" in err

    def test_rates_from_a_stationary_point_is_a_config_error(self, tmp_path):
        # every potential is 0 at the bilevel optimum, so no slope can be fitted
        doc = json.loads(bundled("rates-toy.json").read_text())
        doc["x0"] = [-0.15707963267948966, -1.0]
        doc["k_grid"] = [100, 200, 400]
        doc["output"]["file"] = str(tmp_path / "rates.json")
        path = tmp_path / "stationary.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["rates", str(path)])
        assert proc.returncode == 2
        assert "config error: rates: minimal potential 0.0 at K = 100 is not positive" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "rates.json").exists()

    def test_sigterm_removes_the_streamed_trace_csvs(self, tmp_path):
        # a trace-all run streams each cell's CSV block by block; SIGTERM
        # ends the command as an exception does, which removes them
        out = tmp_path / "out"
        argv = ["-m", "dbgd.cli", "run", str(bundled("toy.json")), "--iterations", "100000000",
                "--output", str(out)]
        proc = subprocess.Popen([sys.executable, *argv], env=dbgd_env(),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not any(out.glob("*.csv")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert sorted(p.name for p in out.iterdir()) == []

    def test_a_command_restores_the_sigterm_handler(self, tmp_path, capsys):
        # only a command turns SIGTERM into an exit; its caller's handler is back after it
        before = signal.getsignal(signal.SIGTERM)
        assert cli.main(["validate", str(bundled("toy.json"))]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_rates_divergence_names_its_run(self, tmp_path, capsys):
        # dbgd run and casestudy name the diverging cell or initialization;
        # rates names its (p, K) pair, here the first of the batch
        doc = json.loads(bundled("rates-toy.json").read_text())
        doc["x0"] = [1e200, 1.0]
        doc["output"]["file"] = str(tmp_path / "rates.json")
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["rates", str(path)]) == 3
        assert capsys.readouterr().err == (
            "divergence: non-finite objective value in run p=0.0 K=100 at iteration 0\n"
        )
        assert not (tmp_path / "rates.json").exists()

    def test_rates_of_repeated_budgets_is_a_config_error(self, tmp_path):
        # a slope fitted through one budget repeated would pass for a rate
        doc = mutated(RATES, ("k_grid",), [100, 100, 100])
        doc["output"]["file"] = str(tmp_path / "rates.json")
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "rates"):
            proc = run_cli([command, str(path)])
            assert proc.returncode == 2, command
            assert ("config error: config field $.k_grid: expected 3 or more distinct items"
                    in proc.stderr), command
            assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, command
        assert not (tmp_path / "rates.json").exists()

    @pytest.mark.parametrize("command, flag, output, taken, trace", [
        ("run", False, "taken", "taken", None),
        ("run", True, "taken", "taken", None),
        ("casestudy", False, "taken", "taken", None),
        ("rates", False, "taken.json", "taken.json", None),
        ("rates", True, "taken.json", "taken.json", None),
        ("run", False, "out", "out/penalty_lambda=1000.csv", "all"),
        ("run", False, "out", "out/penalty_lambda=1000.csv", "final"),
        ("run", False, "out", "out/summary.csv", None),
        ("casestudy", False, "out", "out/cases.csv", None),
        ("rates", False, "taken/rates.json", "taken", None),
    ], ids=["run-directory-is-a-file", "run-output-flag-is-a-file",
            "casestudy-directory-is-a-file", "rates-file-is-a-directory",
            "rates-output-flag-is-a-directory", "run-trace-csv-is-a-directory",
            "run-final-trace-csv-is-a-directory", "run-summary-is-a-directory",
            "casestudy-cases-is-a-directory", "rates-parent-is-a-file"])
    def test_an_output_path_of_the_wrong_type_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, command, flag, output, taken, trace
    ):
        # a directory where a file goes (a `taken` with a suffix), or a file
        # where a directory goes; every output path is checked before the
        # first run, so nothing is written
        output, taken = tmp_path / output, tmp_path / taken
        if taken.suffix:
            taken.mkdir(parents=True)
            noun = f"output file {taken} is a directory"
        else:
            taken.write_text("keep me\n")
            noun = f"output directory {taken} is not a directory"
        base, key = {"run": (EXP, "directory"), "casestudy": (CASE, "directory"),
                     "rates": (RATES, "file")}[command]
        doc = mutated(base, ("output", key), str(tmp_path / "fine" if flag else output))
        if trace is not None:
            doc["output"]["trace"] = trace
        if base == EXP:
            doc["run"]["iterations"] = 5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        args = [command, str(path), *(["--output", str(output)] if flag else [])]
        if taken == output.parent:
            # in-process, so that a parent checked only after the runs shows
            def run(*_, **__):
                raise AssertionError("a run started before the output path was checked")

            monkeypatch.setattr(harness, "run", run)
            assert cli.main(args) == 2
            stderr = capsys.readouterr().err
        else:
            proc = run_cli(args)
            assert proc.returncode == 2
            stderr = proc.stderr
        assert f"config error: {noun}" in stderr
        assert "Traceback" not in stderr
        written = {p for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {path} | ({taken} if taken.is_file() else set())
        assert taken.is_dir() if taken.suffix else taken.read_text() == "keep me\n"

    def test_run_warnings_go_to_stderr_named_by_cell(self, tmp_path, capsys):
        # eta = 1e-2 exceeds 1/(L_f+L_g) = 8.2e-4 on the toy problem; the
        # warning applies to barrier cells only
        assert cli.main(["run", str(bundled("toy.json")), "--output", str(tmp_path / "toy")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: dbgd_beta=1: constant step 0.01 exceeds 1/(L_f+L_g)")

    @pytest.mark.parametrize("step", [0.1, 0.6])  # 1/(L_f+L_g) = 0.5 on the quadratic
    @pytest.mark.parametrize("block, warns", [
        ({"kind": "dbgd", "beta": 0.5}, True),
        ({"kind": "dbgd", "rule": "dynamic-barrier-min", "alpha": 1, "beta": 0.25}, True),
        ({"kind": "dbgd", "rule": "lower-linearization", "eta": 0.1}, True),
        ({"kind": "bloop", "beta": 0.5}, False),
        ({"kind": "penalty", "lambda": 0.1}, False),  # its scaled step 0.6/1.1 > 0.5
    ])
    def test_a_run_warns_what_its_config_warns(self, tmp_path, capsys, block, warns, step):
        doc = {
            "kind": "experiment",
            "problem": {"name": "quadratic", "n": 3},
            "methods": [block],
            "run": {"x0": [0.2, 0.2, 0.2], "iterations": 3,
                    "step": {"mode": "constant", "eta": step}},
            "output": {"directory": str(tmp_path / "out"), "trace": "none"},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        _, problem, x0, ((name, config),) = harness.prepare_config(doc, "experiment")
        expected = config.warnings(problem.smoothness)
        assert bool(expected) == (warns and step > 0.5)
        assert run(problem, config, x0).config is config
        assert cli.main(["run", str(path)]) == 0
        printed = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("warning: ")]
        assert printed == [f"warning: {name}: {warning}" for warning in expected]

    def test_run_with_output_override(self, tmp_path, capsys):
        doc = minimal_experiment(tmp_path)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code = cli.main(
            ["run", str(path), "--output", str(tmp_path / "cli-out"), "--iterations", "5"]
        )
        assert code == 0
        assert (tmp_path / "cli-out" / "summary.csv").exists()


def test_trace_csv_floats_round_trip(tmp_path):
    # 17 significant digits must reproduce the exact float64 values
    doc = minimal_experiment(tmp_path)
    out = run_experiment(doc)
    from dbgd import GradNormSquared, SolverConfig
    from dbgd import run as solver_run

    problem = build_problem(doc["problem"])
    config = SolverConfig(
        method=GradNormSquared(1.0),
        eta=0.3,
        iterations=50,
    )
    trace = solver_run(problem, config, np.array(doc["run"]["x0"]))
    lines = (out / "dbgd_beta=1.csv").read_text().splitlines()[1:]
    for k, line in enumerate(lines):
        parts = line.split(",")
        assert float(parts[1]) == trace.f[k]
        assert float(parts[5]) == trace.lam[k]
        assert float(parts[12]) == trace.potential[k]
