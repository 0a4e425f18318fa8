"""Benchmark a parent commit against the checkout in alternating pairs.

Usage: ``python3 tools/bench_pairs.py PARENT_REF OUTPUT [--pairs N]``

Unpacks ``PARENT_REF`` with ``git archive`` into a temporary directory and
runs ``bench/run_bench.py --workload NAME`` of each tree, the parent's and
the checkout's, from that tree's root, ``N`` times (default 10) for each
workload of ``BENCHMARK.json``, at the benchmark's own run length.  Within
a workload the sides alternate: the parent runs first in the odd pairs and
the checkout in the even ones.  The checkout must be a clean commit: the
tool refuses to start when a tracked file differs from ``HEAD``, and stops
when a run of the checkout reports another commit or a modified tree, so
that every number belongs to the SHA it is recorded under.  It also stops
at the first run that exits non-zero, reports ``"correct": false`` or
fails an operation, naming its side, workload and pair, so that no
speed-up is recorded for wrong outputs.  ``OUTPUT`` (by
convention ``BENCH_<n>.json``, after the change it measures) receives the
environment, both SHAs, every run's end-to-end metrics and operation
counts, and per workload and metric each side's median and quartiles,
the number of pairs the checkout won, where "won" follows the ``better``
direction of ``BENCHMARK.json``, and a verdict, which it also prints:

* ``regressed``: the checkout's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
  parent's median;
* ``gain``: the checkout won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's quartile spread;
* ``no regression`` otherwise.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(ref: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def dirty() -> bool:
    """Whether a tracked file of the checkout differs from ``HEAD``."""
    return bool(git("status", "--porcelain", "--untracked-files=no"))


def bench_once(tree: Path, workload: str, label: str) -> dict:
    """One ``run_bench.py`` run of ``tree``: its metrics, operation counts and
    the environment its report line names.  Raises, naming the run by
    ``label``, unless it exited 0 with correct outputs and no failed
    operation."""
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{label}: run_bench.py in {tree} failed ({done.returncode}):\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"]:
        raise RuntimeError(f"{label}: run_bench.py in {tree} reported correct = "
                           f"{summary['correct']}, {summary['failed']} of "
                           f"{summary['attempted']} operations failed:\n{done.stderr}")
    # "# WORKLOAD seed=N trace=T {environment}"
    host = next(line for line in lines if line.startswith("# "))
    return {
        "environment": json.loads(host.split(" ", 4)[4]),
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], won: int, better: str,
            bound: float) -> str:
    """``regressed``, ``gain`` or ``no regression``; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p_median = statistics.median(parent)
    improvement = sign * (statistics.median(change) - p_median)
    if improvement < -bound * abs(p_median):
        return "regressed"
    q1, _, q3 = quartiles(parent)
    if 10 * won >= 9 * len(parent) and improvement > q3 - q1:
        return "gain"
    return "no regression"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (``name``, ``better``,
    ``bound``): each side's median and quartiles, the pairs the change won
    and the verdict."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            **{side: {"median": statistics.median(v), "quartiles": quartiles(v)}
               for side, v in sides.items()},
            "change_over_parent": (statistics.median(sides["change"])
                                   / statistics.median(sides["parent"])
                                   if statistics.median(sides["parent"]) else None),
            "change_won": won,
            "pairs": len(pairs),
            "verdict": verdict(sides["parent"], sides["change"], won, better, metric["bound"]),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("output", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if dirty():
        parser.error("tracked files differ from HEAD; commit them or run from a clean clone")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha = git("rev-parse", "HEAD")
    result = {
        "command": spec["command"] + ["--workload", "NAME"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "parent": {"ref": args.parent_ref, "sha": git("rev-parse", args.parent_ref)},
        "change": {"sha": sha},
        "pairs_per_workload": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        unpack(args.parent_ref, trees["parent"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench_once(trees[side], workload,
                                            f"{side} {workload} pair {i + 1}/{args.pairs}")
                    if side == "change" and (pair[side]["environment"]["git_sha"] != sha
                                             or pair[side]["environment"]["git_dirty"]):
                        raise RuntimeError(f"the checkout left {sha} or was modified during "
                                           f"the runs: {pair[side]['environment']}")
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"iters_per_s {pair[side]['metrics']['iters_per_s']:.6g}", flush=True)
                pairs.append(pair)
            summary = summarize(pairs, spec["end_to_end"])
            result["workloads"][workload] = {"pairs": pairs, "summary": summary}
            for name, entry in summary.items():
                print(f"{workload} {name}: {entry['verdict']} (median {entry['parent']['median']:.6g}"
                      f" -> {entry['change']['median']:.6g}, won {entry['change_won']}"
                      f" of {entry['pairs']})", flush=True)
    args.output.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
