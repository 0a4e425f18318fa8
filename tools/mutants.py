"""Measure what the two gates guard: run tier-1 and the digests on source mutants.

Usage: ``python3 tools/mutants.py``

Unpacks ``HEAD`` with ``git archive`` into a temporary directory, as
``tools/bench_pairs.py`` does, and applies the mutants of ``MUTANTS`` one
at a time, restoring the file after each.  For each it runs tier-1 with
``-x``; a mutant that tier-1 fails is ``killed``.  For one that passes it runs ``tools/output_digests.py`` of
the mutated tree and compares its printout and exit status with those of
the unmutated tree: a difference is ``caught``, none is ``survived``.  It
prints one verdict line per mutant, with what the mutant breaks and, for
a mutant the list marks equivalent, why no gate can see it.

Each mutant replaces its old text, which must occur exactly once in its
file; the tool refuses to run, and names the mutants at fault, when one
does not.  Tier-1 runs without the test of this list, which reads the
sources a mutant changes by design.  Uses the standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import unpack  # noqa: E402


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    breaks: str
    #: Why no gate can see the mutant, if none can.
    equivalent: str = ""


SOLVER, DIRECTION = "src/dbgd/solver.py", "src/dbgd/direction.py"
HARNESS, PROBLEMS, VERIFY = "src/dbgd/harness.py", "src/dbgd/problems.py", "src/dbgd/verify.py"

MUTANTS = (
    Mutant(SOLVER, "g[:-1] - g[1:]", "g[1:] - g[:-1]", "the sign of delta_g (criterion 03)"),
    Mutant(SOLVER, "rows[:, :, _POTENTIAL] = 0.5 *", "rows[:, :, _POTENTIAL] = 1.0 *",
           "the potential's 0.5 (test_potential_labels)"),
    Mutant(SOLVER, "beta / (lip_g * config.eta)", "beta / lip_g",
           "the potential's 1/eta (test_potential_labels)"),
    Mutant(SOLVER, "self.best_k[cell[better]] = k0 + first",
           "self.best_k[cell[better]] = k0 + first + 1", "best_k, one row late (criterion 06)"),
    Mutant(SOLVER, "cos, row_dot(perp, perp), row_dot(par, par), defined",
           "cos, row_dot(par, par), row_dot(perp, perp), defined",
           "f_par_sq and f_perp_sq swapped (criterion 06)"),
    Mutant(HARNESS, "eta = eta / (1.0 + method.lam)", "eta = eta",
           "the penalty step's 1/(1 + lambda) scaling (criterion 06)"),
    Mutant(PROBLEMS, "shift = np.array([math.pi / 20.0, 1.0])",
           "shift = np.array([math.pi / 21.0, 1.0])", "the toy's upper minimizer (criterion 08)"),
    Mutant(HARNESS, '"%.17g"', '"%.16g"',
           "round-tripping floats in the CSVs (test_trace_csv_floats_round_trip)"),
    Mutant(DIRECTION, "lam = np.maximum((phi - fg) / _safe(gg_sq, degenerate), 0.0)",
           "lam = (phi - fg) / _safe(gg_sq, degenerate)",
           "the dbgd multiplier's clip at 0 (criterion 01)"),
    Mutant(SOLVER, "k ** (1.0 / (3.0 + p))", "k ** (1.0 / (2.0 + p))",
           "the schedule's step exponent"),
    Mutant(VERIFY, "theoretical_slope=-(2.0 + p) / (3.0 + p)",
           "theoretical_slope=-(1.0 + p) / (3.0 + p)", "the theoretical rate slope"),
    Mutant(DIRECTION, "beta - fg / _safe(gg_sq, degenerate)",
           "beta + fg / _safe(gg_sq, degenerate)", "the sign of bloop's multiplier"),
    Mutant(DIRECTION, "return self.beta * gg_sq", "return 0.5 * self.beta * gg_sq",
           "the grad-norm-squared barrier level"),
    Mutant(DIRECTION, "np.maximum((g - self.g_star) / self.eta, 0.0)",
           "np.maximum(g - self.g_star, 0.0)", "the lower-linearization level's 1/eta"),
    Mutant(SOLVER, "np.where(defined, np.minimum(1.0, np.maximum(-1.0, cos)), np.nan)",
           "np.where(defined, cos, np.nan)",
           "the cosine's clamp to [-1, 1] (one ulp of cos_theta)"),
    Mutant(PROBLEMS, "out *= 4.0", "out *= 4.000001", "matfac's grad_g, by 2.5e-7 relative"),
    Mutant(SOLVER, "stopped = (d_sq <= eps_f)", "stopped = (d_sq < eps_f)",
           "a stop tolerance met with equality (test_the_stop_tolerances_admit_equality)"),
    Mutant(DIRECTION, "degenerate = gg_sq <= DEFAULT_GUARD\n    lam = np.maximum",
           "degenerate = gg_sq < DEFAULT_GUARD\n    lam = np.maximum",
           "the halfspace guard at its own value (test_the_guard_holds_at_its_own_value)"),
    Mutant(HARNESS, 'cos <= thresholds["case2_cos_theta_max"]',
           'cos < thresholds["case2_cos_theta_max"]',
           "case 2 at its threshold (test_classify_thresholds_admit_equality)"),
    Mutant(SOLVER, "_cross_check(k, cell, groups, gf, gg, g_now, d, lam, degenerate)\n",
           "pass\n", "the engine's check against the library's direction functions",
           equivalent="the check raises only on a difference that no correct engine makes; "
                      "ROADMAP item 1 deletes it"),
    # Each iteration writes four columns of its row in place.
    Mutant(SOLVER, "gg_sq = row[:, _GRAD_G_SQ] = row_dot(gg, gg)",
           "gg_sq = row[:, _D_SQ] = row_dot(gg, gg)", "grad_g_sq written into the d_sq column"),
    Mutant(SOLVER, "lam, degenerate = row[:, _LAM],", "lam, degenerate = row[:, _COS],",
           "lam written into the cos_theta column"),
    Mutant(SOLVER, "row[:, _DEGENERATE]\n", "row[:, _COS_DEFINED]\n",
           "the degenerate flag written into the cos_defined column"),
    Mutant(SOLVER, "d_sq = row[:, _D_SQ] = row_dot(d, d)",
           "d_sq = row[:, _GRAD_G_SQ] = row_dot(d, d)", "d_sq written into the grad_g_sq column"),
    # The certificates at a candidate point.
    Mutant(VERIFY, "checked = g_val <= g_hat", "checked = g_val < g_hat",
           "the upper test skips the samples where g stays level"),
    Mutant(VERIFY, "sf, sg = math.sqrt(eps_f), math.sqrt(eps_g)",
           "sf, sg = math.sqrt(eps_f), math.sqrt(eps_f)", "the lower margin's sqrt(eps_g)"),
    Mutant(VERIFY, "halfspace_multiplier(row_dot(gf, gg), gg_sq, 0.0)",
           "halfspace_multiplier(row_dot(gf, gg), gg_sq, 1.0)",
           "the level 0 of stationarity_report's optimal multiplier"),
    # What a rule or an oracle refuses.
    Mutant(DIRECTION, "if not (phi >= 0.0):", "if phi < 0.0:",
           "the dual-bisection oracle's refusal of a NaN level"),
    Mutant(DIRECTION, "if rule.g_star is None:", "if False:",
           "the g*-based rules' refusal of g_star=None"),
    Mutant(VERIFY, "isinstance(method, GradNormSquared)",
           "isinstance(method, GradNormSquared.__base__)",
           "inequality_audit's rule test, widened to every barrier rule"),
    # The rates runs, built where every command's runs are built.
    Mutant(HARNESS, 'f"p={p} K={k}"', 'f"p={p} K={p}"', "a rates run named by its p as its budget"),
    Mutant(HARNESS, '{"iterations": k}, Schedule(p))', '{"iterations": k}, Schedule(doc["p"][0]))',
           "every rates run built from the first p"),
    Mutant(PROBLEMS, "0.0 < value < math.inf", "0.0 < value",
           "SmoothnessProfile's refusal of an infinite constant"),
    Mutant(HARNESS, "if beta is not None and not (scale > 0.0 and math.isfinite(beta / scale)):",
           "if False:", "the refusal of a run whose potential weight is not finite"),
)


def mutated(tree: Path, mutant: Mutant) -> str:
    """The mutant's file in ``tree`` with its old text replaced by its new
    text; raises ``ValueError`` unless the old text occurs exactly once."""
    text = (tree / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: the old text occurs {count} times, not once: "
                         f"{mutant.old!r}")
    return text.replace(mutant.old, mutant.new)


def run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    # no bytecode: a mutated file restored within the same second keeps its
    # size and mtime, so a cached module could outlive its mutant
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)


def tier1(tree: Path) -> bool:
    """Whether tier-1 passes in ``tree``."""
    return run(tree, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--ignore=tests/test_mutants.py").returncode == 0


def digests(tree: Path, out: Path) -> tuple[int, str]:
    """The digest tool's exit status and printout for ``tree``, written under ``out``."""
    done = run(tree, "tools/output_digests.py", str(out))
    return done.returncode, done.stdout


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        unpack("HEAD", tree)
        texts, refused = [], []
        for i, mutant in enumerate(MUTANTS, start=1):
            try:
                texts.append(mutated(tree, mutant))
            except ValueError as exc:
                refused.append(f"refused {i}: {exc}")
        if refused:
            print("\n".join(refused), file=sys.stderr)
            return 2
        baseline = digests(tree, Path(tmp) / "baseline")
        for i, (mutant, text) in enumerate(zip(MUTANTS, texts), start=1):
            path = tree / mutant.file
            original = path.read_text()
            path.write_text(text)
            try:
                if not tier1(tree):
                    verdict = "killed"
                elif digests(tree, Path(tmp) / f"mutant-{i}") != baseline:
                    verdict = "caught"
                else:
                    verdict = "survived"
            finally:
                path.write_text(original)
            note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            print(f"{verdict:8} {i:2} {mutant.file}: {mutant.breaks}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
