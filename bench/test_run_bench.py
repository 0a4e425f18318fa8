"""Smoke tests of the benchmark itself: ``python3 -m pytest bench -q``.

Each workload runs with ``--smoke`` (tiny budgets), traced and untraced,
and must report every metric ``BENCHMARK.json`` names, with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_default_seed_reproduces_bundled_configs_up_to_budgets():
    sys.path.insert(0, str(BENCH))
    import run_bench

    for workload in ("matfac-grid", "toy-suite"):
        for step in run_bench.build_steps(workload, run_bench.DEFAULT_SEED, False, []):
            bundled = json.loads((run_bench.CONFIGS / f"{step.name}.json").read_text())
            config = json.loads(json.dumps(step.config))
            if step.command == "rates":
                config["k_grid"] = bundled["k_grid"]
            else:
                config["run"]["iterations"] = bundled["run"]["iterations"]
            assert config == bundled, step.name
    other = run_bench.build_steps("matfac-grid", 7, False, [])[0].config
    assert other["problem"]["seed"] == 7 and other["run"]["x0"]["seed"] == 8


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
