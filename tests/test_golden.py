"""Golden values: the bundled configs' summaries, case table and rates
reports at a small budget, rerun in process and compared with the files
under ``tests/golden``.

Text and integer fields must match exactly, and floats to a relative
``1e-12``, so that another host's BLAS does not fail the matrix
factorization rows (on the host that wrote them they match bit for bit).
A relative tolerance cannot see a one-ulp change, so the rerun rows are
also checked for invariants of the geometry columns.  The digest tool
(``tools/output_digests.py``) stays the byte gate.

A change that moves an output regenerates the directory with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why, so that the
change shows in the diff of ``tests/golden``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dbgd.harness import build_problem, load_config, run_casestudy, run_experiment, run_rates

GOLDEN = Path(__file__).resolve().parent / "golden"
ITERATIONS = 300
K_GRID = [50, 100, 300]
EXPERIMENTS = ("toy", "matfac", "matfac-log")
#: The compared files, relative to ``GOLDEN``.
FILES = (*(f"{name}/summary.csv" for name in EXPERIMENTS), "casestudy/cases.csv",
         "rates-toy.json", "rates-quadratic.json")
RELATIVE = 1e-12


def config(name: str) -> dict:
    return load_config(resources.files("dbgd") / "configs" / f"{name}.json")


def write_outputs(out: Path) -> None:
    """Run the bundled configs at the golden budget, writing ``FILES`` (and
    the configs' trace CSVs) under ``out``: the experiments and the case
    study at ``ITERATIONS``, the rates configs at ``K_GRID``."""
    for name in EXPERIMENTS:
        run_experiment(config(name), out / name, ITERATIONS)
    doc = config("casestudy")
    doc["run"]["iterations"] = ITERATIONS
    run_casestudy(doc, out / "casestudy")
    for name in ("rates-toy", "rates-quadratic"):
        doc = config(name)
        doc["k_grid"] = K_GRID
        run_rates(doc, out / f"{name}.json")


@pytest.fixture(scope="module")
def rerun(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    write_outputs(out)
    return out


def same_value(mine, theirs) -> bool:
    """Whether a rerun value matches its golden value: to ``RELATIVE`` where
    either is a float and both are numbers, else exactly, type included
    (text, booleans, and integers such as ``rows`` and ``best_k``)."""
    kinds = {type(mine), type(theirs)}
    if float in kinds and kinds <= {int, float}:
        if not (math.isfinite(mine) and math.isfinite(theirs)):
            return mine == theirs or (math.isnan(mine) and math.isnan(theirs))
        return abs(mine - theirs) <= RELATIVE * max(abs(mine), abs(theirs))
    return type(mine) is type(theirs) and mine == theirs


def csv_value(field: str):
    """A CSV field as an ``int``, else a ``float``, else its text (``NA``)."""
    for kind in (int, float):
        try:
            return kind(field)
        except ValueError:
            pass
    return field


def differences(mine, theirs, where: str = "") -> list[str]:
    """Where a parsed file (see :func:`read`) departs from its golden one."""
    if isinstance(theirs, dict) and isinstance(mine, dict):
        if mine.keys() != theirs.keys():
            return [f"{where}: keys {sorted(mine)} != {sorted(theirs)}"]
        return [d for key in theirs for d in differences(mine[key], theirs[key], f"{where}.{key}")]
    if isinstance(theirs, list) and isinstance(mine, list):
        if len(mine) != len(theirs):
            return [f"{where}: {len(mine)} items != {len(theirs)}"]
        return [d for i, (a, b) in enumerate(zip(mine, theirs))
                for d in differences(a, b, f"{where}[{i}]")]
    return [] if same_value(mine, theirs) else [f"{where}: {mine!r} != {theirs!r}"]


def read(path: Path):
    """A golden file parsed: a JSON document, or a CSV file's rows as
    dictionaries of parsed fields, keyed by the header's names."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [{name: csv_value(field) for name, field in row.items()}
            for row in csv.DictReader(path.read_text().splitlines())]


def defined_cosine(row: dict) -> bool:
    """Whether a row's final cosine lies in [-1, 1] or is undefined (``NA``)."""
    cos = row["final_cos_theta"]
    return cos == "NA" or -1.0 <= cos <= 1.0


@pytest.mark.parametrize("name", FILES)
def test_outputs_match_the_golden_files(rerun, name):
    first_line = [(path / name).read_text().partition("\n")[0] for path in (rerun, GOLDEN)]
    assert first_line[0] == first_line[1]  # a CSV header's column order, which read() drops
    assert differences(read(rerun / name), read(GOLDEN / name)) == []


def test_the_rerun_rows_keep_the_geometry_invariants(rerun):
    # f_par_sq + f_perp_sq is grad_f_sq up to rounding: each of the three
    # sums of dim squares carries a relative error of at most about dim
    # units in the last place, and the cancellation in f_perp adds as much
    # again, so 8 * dim ulps of grad_f_sq bounds the gap (it is at most 5
    # ulps on these rows)
    rows = 0
    for name in EXPERIMENTS:
        dim = build_problem(config(name)["problem"]).dim
        for row in read(rerun / name / "summary.csv"):
            gf_sq = row["final_grad_f_sq"]
            gap = abs(row["final_f_par_sq"] + row["final_f_perp_sq"] - gf_sq)
            assert gap <= 8 * dim * np.spacing(gf_sq), (name, row["cell"])
            assert defined_cosine(row), (name, row["cell"])
            if row["method"].startswith("dbgd"):
                assert row["final_lambda"] >= 0.0, (name, row["cell"])
            rows += 1
    for row in read(rerun / "casestudy" / "cases.csv"):  # one dbgd method
        assert defined_cosine(row) and row["final_lambda"] >= 0.0, row
        rows += 1
    assert rows == 5 + 20 + 20 + 3


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        for name in FILES:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
    print(f"wrote {len(FILES)} files under {GOLDEN}", file=sys.stderr)
