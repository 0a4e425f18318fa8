"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria with stated runtime limits assert them.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dbgd import (
    GradNormSquared,
    SmoothnessProfile,
    SolverConfig,
    dbgd_direction,
    finite_diff_sweep,
    inequality_audit,
    matrix_factorization_problem,
    qp_oracle_direction,
    quadratic_sanity_problem,
    rng,
    run,
    sqrt_lemma_check,
    sqrt_lemma_violations,
    toy_problem,
)
from dbgd.harness import run_casestudy, run_experiment, run_rates
from dbgd.verify import infeasible_stationary_ok, unscaled_kkt_ok


def bundled(name: str) -> Path:
    import importlib.resources as resources

    return Path(str(resources.files("dbgd") / "configs" / name))


def read_summary(directory: Path) -> dict[str, dict[str, str]]:
    with open(directory / "summary.csv", newline="") as fh:
        return {row["cell"]: row for row in csv.DictReader(fh)}


def test_criterion_01_direction_oracle_equivalence():
    start = time.perf_counter()
    gen = rng(20240501)
    worst = 0.0
    for i in range(1000):
        n = (2, 10, 100)[i % 3]
        gf = gen.standard_normal(n)
        gg = gen.standard_normal(n)
        while np.linalg.norm(gg) < 1e-3:
            gg = gen.standard_normal(n)
        phi = abs(gen.standard_normal()) * float(gg @ gg)
        closed = dbgd_direction(gf, gg, phi)
        oracle = qp_oracle_direction(gf, gg, phi, tol=1e-10)
        err = float(np.linalg.norm(closed.d - oracle.d)) / (
            1.0 + float(np.linalg.norm(gf))
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    print(f"ACCEPTANCE 01 direction-oracle equivalence: PASS "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_gradient_correctness():
    start = time.perf_counter()
    problems = [
        toy_problem(),
        quadratic_sanity_problem(7),
        matrix_factorization_problem(10, 10, 1.0, "smooth-l1", seed=0),
        matrix_factorization_problem(10, 10, 1.0, "log-smooth", seed=0),
    ]
    worst = 0.0
    for problem in problems:
        err = finite_diff_sweep(problem, points=100, seed=0)
        assert err <= 1e-5, f"{problem.name}: finite-difference error {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 02 gradient correctness: PASS "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_lemma_audits():
    start = time.perf_counter()
    eta, beta = 0.4, 1.0
    problem = quadratic_sanity_problem(6, box_radius=0.5)
    config = SolverConfig(
        method=GradNormSquared(beta),
        eta=eta,
        iterations=1000,
    )
    trace = run(problem, config, 0.1 * np.ones(6))

    clean = inequality_audit(trace, problem.smoothness)
    assert clean.violations["upper_descent"] == 0
    assert clean.violations["lower_descent"] == 0
    assert clean.violations["multiplier_bound"] == 0
    assert clean.violations["potential_bound"] == 0
    assert clean.total_violations == 0

    prof = problem.smoothness
    corrupted_totals = {}
    for field in ("lip_grad_f", "lip_grad_g", "grad_f_bound"):
        values = {
            "lip_grad_f": prof.lip_grad_f,
            "lip_grad_g": prof.lip_grad_g,
            "grad_f_bound": prof.grad_f_bound,
        }
        values[field] = values[field] / 2.0
        report = inequality_audit(trace, SmoothnessProfile(**values))
        corrupted_totals[field] = report.total_violations
        assert report.total_violations >= 1, f"halved {field} went undetected"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 03 lemma audits: PASS "
          f"(clean 0 violations; negative controls {corrupted_totals}, {elapsed:.2f}s)")


def test_criterion_04_sqrt_lemma_property():
    start = time.perf_counter()
    gen = rng(20240502)
    total = 0
    violations = 0
    while total < 10**6:
        m = 10**6
        a = gen.uniform(-5.0, 10.0, m)
        b = gen.uniform(0.0, 5.0, m)
        disc = b * b + 4.0 * a
        keep = disc >= 0.0
        a, b, disc = a[keep], b[keep], disc[keep]
        lo = np.maximum(0.0, 0.5 * (b - np.sqrt(disc)))
        hi = 0.5 * (b + np.sqrt(disc))
        u = lo + gen.random(a.shape[0]) * (hi - lo)
        x = u * u
        premise = x <= a + b * u
        a, b, x = a[premise], b[premise], x[premise]
        violations += sqrt_lemma_violations(a, b, x)
        total += x.shape[0]
        # spot-check the scalar operation against the vectorized path
        for j in range(0, x.shape[0], max(1, x.shape[0] // 1000)):
            assert sqrt_lemma_check(float(a[j]), float(b[j]), float(x[j]))
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 04 sqrt-lemma property: PASS "
          f"({total} premise samples, 0 violations, {elapsed:.2f}s)")


def test_criterion_05_rate_slopes(tmp_path):
    start = time.perf_counter()
    results = []
    for name in ("rates-quadratic.json", "rates-toy.json"):
        report_path = run_rates(bundled(name), output_file=tmp_path / name)
        report = json.loads(report_path.read_text())
        for fit in report["fits"]:
            results.append((name, fit["p"], fit["fitted_slope"], fit["theoretical_slope"]))
            assert fit["passed"], (
                f"{name} p={fit['p']}: slope {fit['fitted_slope']:.3f} "
                f"exceeds {fit['theoretical_slope']:.3f} + 0.3"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    lines = "; ".join(f"{n} p={p:g}: {s:.2f} <= {t:.2f}+0.3" for n, p, s, t in results)
    print(f"ACCEPTANCE 05 rate slopes: PASS ({lines}, {elapsed:.2f}s)")


def certified_rows(directory: Path) -> dict[str, dict[str, str]]:
    """Each cell's trace row at its certified (minimal-potential) index.

    The guarantee is for the best iterate, not the last one, so the
    residuals are read at ``best_k`` of ``summary.csv`` from the cell's
    full trace CSV.
    """
    certified = {}
    for name, row in read_summary(directory).items():
        k = int(row["best_k"])
        with open(directory / f"{name}.csv", newline="") as fh:
            trace = {r["k"]: r for r in csv.DictReader(fh)}
        certified[name] = trace[str(k)]
        assert certified[name]["grad_g_sq"] == row["best_grad_g_sq"], name
    return certified


def toy_reproduction_failures(
    rows: dict[str, dict[str, str]], dbgd_cell: str
) -> list[str]:
    """Clauses of criterion 06 that fail on the certified rows ``rows``.

    The barrier cell must be jointly stationary with aligned gradients
    (``|cos_theta| >= 0.99``), reach a smaller lower-level residual than
    every fixed multiplier, and a smaller joint residual
    ``max(f_perp_sq, grad_g_sq)``; every fixed-multiplier cell must have
    stalled off the lower-level solution set where its combined gradient
    balances, ``grad_g_sq ~= grad_f_sq / lam^2`` (within 10%).
    """
    penalty_rows = {n: r for n, r in rows.items() if n.startswith("penalty")}
    assert len(penalty_rows) == 4

    failures = []
    d_row = rows[dbgd_cell]
    d_gg = float(d_row["grad_g_sq"])
    d_joint = max(float(d_row["f_perp_sq"]), d_gg)
    d_cos = float(d_row["cos_theta"]) if d_row["cos_theta"] != "NA" else np.nan
    if not abs(d_cos) >= 0.99:
        failures.append(f"dbgd |cos_theta| = {abs(d_cos):.4f} < 0.99")
    for name, row in penalty_rows.items():
        p_gg = float(row["grad_g_sq"])
        p_joint = max(float(row["f_perp_sq"]), p_gg)
        if not d_gg < p_gg:
            failures.append(f"dbgd grad_g_sq {d_gg:.3e} not < {name} {p_gg:.3e}")
        if not d_joint < p_joint:
            failures.append(
                f"dbgd joint residual {d_joint:.3e} not < {name} {p_joint:.3e}"
            )
        stall = float(row["grad_f_sq"]) / float(row["lambda"]) ** 2
        if not p_gg == pytest.approx(stall, rel=0.1):
            failures.append(
                f"{name} grad_g_sq {p_gg:.3e} not within 10% of "
                f"grad_f_sq/lam^2 {stall:.3e}"
            )
    return failures


def test_criterion_06_toy_reproduction(tmp_path):
    start = time.perf_counter()
    out = run_experiment(bundled("toy.json"), output_dir=tmp_path / "toy")
    rows = certified_rows(out)

    table = [
        f"  {name}: best_k={row['k']} "
        f"grad_g_sq={row['grad_g_sq']} f_perp_sq={row['f_perp_sq']} "
        f"cos_theta={row['cos_theta']}"
        for name, row in rows.items()
    ]
    print("ACCEPTANCE 06 toy reproduction: measured certified-row values")
    print("\n".join(table))

    failures = toy_reproduction_failures(rows, "dbgd_beta=1")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert not failures, (
        "toy-reproduction ordering failed (see README, 'Toy reproduction "
        "(criterion 06)'):\n" + "\n".join(failures)
    )
    print(f"ACCEPTANCE 06 toy reproduction: PASS ({elapsed:.2f}s)")


def _assert_rejected(failures: list[str]) -> None:
    # both barrier clauses must fail against every multiplier that does
    # reach a smaller lower-level residual than the control
    for lam in (10, 100, 1000):
        name = f"penalty_lambda={lam}"
        for clause in ("dbgd grad_g_sq", "dbgd joint residual"):
            assert any(
                f.startswith(clause) and f" {name} " in f for f in failures
            ), (clause, name, failures)


def test_criterion_06_rejects_barrier_off(tmp_path):
    # negative control: with beta = 0 the barrier no longer drives g down,
    # and the run stalls off the lower-level solution set
    doc = json.loads(bundled("toy.json").read_text())
    doc["methods"][0]["beta"] = 0.0
    out = run_experiment(doc, output_dir=tmp_path / "toy")
    failures = toy_reproduction_failures(certified_rows(out), "dbgd_beta=0")
    _assert_rejected(failures)


def test_criterion_06_rejects_fixed_multiplier_direction(tmp_path, monkeypatch):
    # negative control: the barrier cell secretly takes the lambda = 1
    # penalty direction, through the one home of the dbgd multiplier that
    # the solver and dbgd_direction share
    monkeypatch.setattr(
        "dbgd.direction.halfspace_multiplier",
        lambda fg, gg_sq, phi: (np.ones_like(fg), np.zeros_like(fg, dtype=bool)),
    )
    out = run_experiment(bundled("toy.json"), output_dir=tmp_path / "toy")
    failures = toy_reproduction_failures(certified_rows(out), "dbgd_beta=1")
    _assert_rejected(failures)


@pytest.mark.parametrize("config_name", ["matfac.json", "matfac-log.json"])
def test_criterion_07_matrix_factorization_pareto(config_name, tmp_path):
    start = time.perf_counter()
    out = run_experiment(bundled(config_name), output_dir=tmp_path / "matfac")
    summary = read_summary(out)
    dbgd_rows = {n: r for n, r in summary.items() if n.startswith("dbgd")}
    penalty_rows = {n: r for n, r in summary.items() if n.startswith("penalty")}
    assert len(dbgd_rows) == 10 and len(penalty_rows) == 10

    dominated = []
    for b_name, b_row in dbgd_rows.items():
        b_gg = float(b_row["final_grad_g_sq"])
        b_fp = float(b_row["final_f_perp_sq"])
        for p_name, p_row in penalty_rows.items():
            if (
                float(p_row["final_grad_g_sq"]) < b_gg
                and float(p_row["final_f_perp_sq"]) < b_fp
            ):
                dominated.append((b_name, p_name))
    elapsed = time.perf_counter() - start
    assert not dominated, f"dominated cells: {dominated}"
    assert elapsed < 600.0
    print(f"ACCEPTANCE 07 matrix-factorization Pareto ({config_name}): PASS "
          f"({elapsed:.1f}s)")


def test_criterion_08_case_study(tmp_path):
    start = time.perf_counter()
    out = run_casestudy(bundled("casestudy.json"), output_dir=tmp_path / "cs")
    with open(out / "cases.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = [row["classification"] for row in rows]
    case1 = [r for r in rows if r["classification"] == "case1"]
    case2 = [r for r in rows if r["classification"] == "case2"]
    assert case1, f"no terminal point matched the small-multiplier signature: {labels}"
    assert case2, f"no terminal point matched the opposed-gradient signature: {labels}"
    for row in case1:
        assert float(row["final_lambda"]) <= 0.1
        assert float(row["final_grad_f_sq"]) <= 1e-2
    for row in case2:
        assert float(row["final_cos_theta"]) <= -0.99
        assert float(row["final_lambda"]) > 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 08 case study: PASS (labels {labels}, {elapsed:.2f}s)")


def test_criterion_09_kkt_dichotomy():
    start = time.perf_counter()
    cells = 0
    for eps_d in (1e-3, 1e-2, 0.1, 1.0):
        for eps_p in (1e-3, 1e-2, 0.1, 1.0):
            gaps = (
                0.0, 1e-6, 0.5 * eps_p, 0.99 * eps_p, 0.999 * eps_p,
                eps_p, 2.0 * eps_p, 10.0,
            )
            for g_gap in gaps:
                for d_norm in (0.0, 0.25 * eps_d, 0.5 * eps_d, eps_d):
                    for gg_norm in (0.0, 0.25 * eps_d, 0.5 * eps_d, eps_d):
                        # the pair (d_norm^2, gg_norm^2) <= (eps_d^2, eps_d^2)
                        assert infeasible_stationary_ok(
                            g_gap, gg_norm, eps_p, eps_d
                        ) or unscaled_kkt_ok(g_gap, d_norm, eps_p, eps_d)
                        cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 09 KKT dichotomy: PASS ({cells} cells, {elapsed:.2f}s)")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    out1 = run_experiment(bundled("toy.json"), output_dir=tmp_path / "first")
    out2 = run_experiment(bundled("toy.json"), output_dir=tmp_path / "second")
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) == 6  # 5 traces + summary
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 10 determinism: PASS ({len(names1)} files byte-identical, "
          f"{elapsed:.2f}s)")
