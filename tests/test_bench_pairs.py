"""The verdicts of ``tools/bench_pairs.py`` on hand-made pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEED = {"name": "iters_per_s", "better": "higher", "bound": 0.25}
TIME = {"name": "wall_s", "better": "lower", "bound": 0.25}
#: Median 100, quartiles 99.25 and 100.75.
PARENT = [100.0, 98.0, 102.0, 99.0, 101.0, 100.0, 97.0, 103.0, 100.0, 100.0]


def pairs(name, parent, change):
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("metric,change,expected", [
    # worse by 26% of the parent's median, beyond the 25% bound
    (SPEED, [v * 0.74 for v in PARENT], "regressed"),
    (TIME, [v * 1.26 for v in PARENT], "regressed"),
    # worse by 24%: within the bound
    (SPEED, [v * 0.76 for v in PARENT], "no regression"),
    (TIME, [v * 1.24 for v in PARENT], "no regression"),
    # better in every pair by 3, beyond the parent's quartile spread of 1.5
    (SPEED, [v + 3.0 for v in PARENT], "gain"),
    (TIME, [v - 3.0 for v in PARENT], "gain"),
    # better in every pair, but by less than the spread
    (SPEED, [v + 1.0 for v in PARENT], "no regression"),
    # better by 3 in 8 of 10 pairs only
    (SPEED, [v + 3.0 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]], "no regression"),
    # better by 3 in 9 of 10 pairs
    (SPEED, [v + 3.0 for v in PARENT[:9]] + [v - 1.0 for v in PARENT[9:]], "gain"),
])
def test_summarize_gives_each_verdict(metric, change, expected):
    summary = bench_pairs.summarize(pairs(metric["name"], PARENT, change), [metric])
    assert summary[metric["name"]]["verdict"] == expected


def test_an_unchanged_fraction_is_no_regression():
    ok = {"name": "ok_frac", "better": "higher", "bound": 0.01}
    entry = bench_pairs.summarize(pairs("ok_frac", [1.0] * 5, [1.0] * 5), [ok])["ok_frac"]
    assert (entry["verdict"], entry["change_won"]) == ("no regression", 0)
