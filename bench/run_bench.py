"""Benchmark of the ``dbgd`` CLI workflows: end-to-end and per-layer metrics.

Usage::

    python3 bench/run_bench.py --workload {matfac-grid,matfac-wide,toy-suite}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each repeat runs the workload's CLI invocations (``dbgd run``, ``dbgd
casestudy``, ``dbgd rates``) in one fresh single-threaded interpreter started
by ``bench/workload.py``; repeats follow each other until ``--seconds`` have
passed.  Outputs go to a temporary directory inside the checkout
(``.bench_tmp/``), are digested and checked, and are deleted.

With ``--trace 0`` the run reports the end-to-end metrics: medians over
repeats, with times scaled to a nominal host speed by a reference loop timed
around every repeat.  With ``--trace 1`` it alternates untraced and traced
repeats and reports the per-layer metrics of the traced ones, plus the
tracing overhead.
``--smoke`` shrinks every budget so the benchmark's own tests run in seconds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "dbgd" / "configs"
WORKER = Path(__file__).resolve().parent / "workload.py"

DEFAULT_SEED = 0  # reproduces the bundled configs
DEADLINE_S = 170.0  # every run must exit within 180 s
WORKLOADS = ("matfac-grid", "matfac-wide", "toy-suite")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

ORACLES = ("eval_f", "eval_g", "eval_grad_f", "eval_grad_g")
DIRECTIONS = ("barrier_value", "dbgd_direction", "penalty_direction")
SETUP_CALLS = ("validate_config", "build_problem", "expand_methods")

PER_LAYER = {
    **{f"problems.{o}.{k}": u for o in ORACLES
       for k, u in (("calls", "count"), ("us", "us"), ("us_p99", "us"))},
    "problems.busy_share": "fraction",
    "problems.gflops_computed": "GFLOP/s",
    **{f"direction.{d}.{k}": u for d in DIRECTIONS
       for k, u in (("calls", "count"), ("us", "us"))},
    "direction.degenerate_frac": "fraction",
    "metrics.decompose_grad_f.calls": "count",
    "metrics.decompose_grad_f.us": "us",
    "solver.run.calls": "count",
    "solver.iters": "count",
    "solver.self_us_per_iter": "us",
    "solver.trace_bytes": "B",
    "verify.rate_fit.calls": "count",
    "verify.rate_fit.self_s": "s",
    **{f"harness.{c}.ms": "ms" for c in SETUP_CALLS},
    "harness.trace_csv.rows": "count",
    "harness.trace_csv.us_per_row": "us",
    "harness.bytes_written": "B",
    "harness.self_s": "s",
    "harness.cells_ok_frac": "fraction",
    "cli.import_s": "s",
    "trace.overhead_frac": "fraction",
}

TRACE_COLUMNS = 14  # columns of a computed trace row, 8 bytes each

#: Host-speed reference: a fixed pure-Python loop timed before and after every
#: repeat.  Times of a repeat are scaled by REFERENCE_NOMINAL_S / (the mean of
#: its two bracketing loop times), i.e. reported at the speed of a host on which
#: the loop takes REFERENCE_NOMINAL_S (its typical time on a shared 2-core VM
#: with Python 3.11).  On that VM the loop's speed drifted by tens of percent
#: over tens of seconds, and by up to 2x over an hour.
REFERENCE_LOOPS = 1_000_000
REFERENCE_NOMINAL_S = 0.14

_SOLVE_SPANS = (
    [f"problems.{o}" for o in ORACLES]
    + ["direction.barrier_value", "direction.dbgd_direction",
       "metrics.decompose_grad_f", "solver.run"]
    + [f"harness.{c}" for c in SETUP_CALLS]
    + ["harness.trace_csv"]
)
#: Spans that must record calls on each workload in a traced run.
EXERCISED = {
    "matfac-grid": _SOLVE_SPANS + ["direction.penalty_direction"],
    "matfac-wide": _SOLVE_SPANS,
    "toy-suite": _SOLVE_SPANS + ["direction.penalty_direction", "verify.rate_fit"],
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Step:
    """One CLI invocation of a workload: ``dbgd <command> <config> --output ...``."""

    command: str  # run | casestudy | rates
    name: str
    config: dict

    @property
    def output(self) -> str:
        return f"{self.name}.json" if self.command == "rates" else self.name

    def operations(self) -> int:
        """Cells, initializations or rate budgets the invocation attempts."""
        if self.command == "rates":
            return len(self.config["p"]) * len(self.config["k_grid"])
        if self.command == "casestudy":
            return len(self.config["run"]["initializations"])
        cells = 0
        for block in self.config["methods"]:
            grid = 1
            for key, value in block.items():
                if key not in ("kind", "rule") and isinstance(value, list):
                    grid *= len(value)
            cells += grid
        return cells


# ---------------------------------------------------------------- workloads


def _bundled(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _perturbed(vector: list, gen: random.Random | None) -> list:
    """Seeded perturbation of a literal start point; the default seed keeps it."""
    if gen is None:
        return vector
    return [v + 0.05 * gen.gauss(0.0, 1.0) for v in vector]


def wide_problem(seed: int) -> dict:
    return dict(_bundled("matfac.json")["problem"], n=200, r=20, seed=seed)


def build_steps(workload: str, seed: int, smoke: bool, lip_totals: list[float]) -> list[Step]:
    """The workload's CLI invocations; the same seed gives the same inputs."""
    if workload == "matfac-grid":
        doc = _bundled("matfac.json")
        doc["problem"]["seed"] = seed
        doc["run"]["x0"]["seed"] = seed + 1
        doc["run"]["iterations"] = 20 if smoke else 2000
        return [Step("run", "matfac", doc)]
    if workload == "matfac-wide":
        doc = _bundled("matfac.json")
        doc["problem"] = wide_problem(seed)
        doc["methods"] = [{"kind": "dbgd", "rule": "grad-norm-squared", "beta": 0.5}]
        doc["run"]["x0"]["seed"] = seed + 1
        doc["run"]["step"] = {"mode": "constant", "eta": 1.0 / lip_totals[0]}
        doc["run"]["iterations"] = 10 if smoke else 5000
        return [Step("run", "matfac-wide", doc)]
    gen = random.Random(seed) if seed != DEFAULT_SEED else None
    toy = _bundled("toy.json")
    toy["run"]["x0"] = _perturbed(toy["run"]["x0"], gen)
    toy["run"]["iterations"] = 20 if smoke else 5000
    case = _bundled("casestudy.json")
    case["run"]["initializations"] = [_perturbed(x, gen) for x in case["run"]["initializations"]]
    case["run"]["iterations"] = 20 if smoke else 2000
    steps = [Step("run", "toy", toy), Step("casestudy", "casestudy", case)]
    for name in ("rates-toy", "rates-quadratic"):
        doc = _bundled(f"{name}.json")
        doc["x0"] = _perturbed(doc["x0"], gen)
        doc["k_grid"] = [10, 20, 40] if smoke else [100, 1000, 3000]
        steps.append(Step("rates", name, doc))
    return steps


def matmul_flops(steps: list[Step]) -> tuple[int, int]:
    """Matrix-product flops of one ``g`` and one ``grad_g`` call of a matfac problem."""
    for step in steps:
        problem = step.config["problem"]
        if problem["name"] == "matrix-factorization":
            n, r = problem["n"], problem["r"]
            return 2 * n * n * r, 4 * n * n * r
    return 0, 0


# ------------------------------------------------------------ output checks


def _finite_row(row: dict, skip: tuple[str, ...]) -> bool:
    """Every numeric field is finite; ``NA`` marks an undefined cosine."""
    try:
        return all(v == "NA" or math.isfinite(float(v)) for k, v in row.items() if k not in skip)
    except (TypeError, ValueError):
        return False


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_step(step: Step, out: Path) -> tuple[int, int]:
    """Return (operations whose outputs check out, cell-iterations they ran)."""
    ok = iters = 0
    if step.command == "rates":
        if not out.exists():
            return 0, 0
        report = json.loads(out.read_text())
        for fit in report["fits"]:
            if fit["k_values"] != step.config["k_grid"]:
                continue
            for k, pot in zip(fit["k_values"], fit["min_potentials"]):
                if math.isfinite(pot) and pot > 0.0:
                    ok += 1
                    iters += k
        return ok, iters
    budget = step.config["run"]["iterations"]
    if step.command == "casestudy":
        for row in _read_csv(out / "cases.csv"):
            trace = _read_csv(out / f"init{row['init']}.csv")
            iters += len(trace)
            ok += (_finite_row(row, ("init", "classification")) and len(trace) == budget
                   and trace[-1]["lambda"] == row["final_lambda"])
        return ok, iters
    granularity = step.config["output"].get("trace", "all")
    for row in _read_csv(out / "summary.csv"):
        rows = int(row["rows"])
        iters += rows
        good = rows == budget and _finite_row(row, ("cell", "method"))
        if granularity != "none":
            trace = _read_csv(out / f"{row['cell']}.csv")
            good = (good and len(trace) == (rows if granularity == "all" else 1)
                    and trace[-1]["f"] == row["final_f"] and trace[-1]["g"] == row["final_g"])
        ok += good
    return ok, iters


def digest(directory: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every output file, and the bytes written."""
    digests, size = {}, 0
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(directory))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def pareto_problems(summary: list[dict]) -> list[str]:
    """Criterion 07: no penalty cell beats a dbgd cell on both residuals."""
    dbgd = [r for r in summary if r["cell"].startswith("dbgd")]
    penalty = [r for r in summary if r["cell"].startswith("penalty")]
    return [
        f"criterion 07: {p['cell']} dominates {b['cell']}"
        for b in dbgd for p in penalty
        if float(p["final_grad_g_sq"]) < float(b["final_grad_g_sq"])
        and float(p["final_f_perp_sq"]) < float(b["final_f_perp_sq"])
    ]


def toy_criteria(steps: list[Step], rep_dir: Path) -> list[str]:
    """Criteria 05 (rate slopes) and 08 (case study) on one repeat's outputs."""
    problems = []
    for step in steps:
        out = rep_dir / step.output
        if step.command == "rates":
            for fit in json.loads(out.read_text())["fits"]:
                if not fit["passed"]:
                    problems.append(f"criterion 05: {step.name} p={fit['p']} slope "
                                    f"{fit['fitted_slope']:.3f} too shallow")
        elif step.command == "casestudy":
            rows = _read_csv(out / "cases.csv")
            case1 = [r for r in rows if r["classification"] == "case1"]
            case2 = [r for r in rows if r["classification"] == "case2"]
            if not case1 or not case2:
                problems.append("criterion 08: case study lacks a case1 or a case2 endpoint")
            if any(float(r["final_lambda"]) > 0.1 or float(r["final_grad_f_sq"]) > 1e-2
                   for r in case1):
                problems.append("criterion 08: case1 endpoint outside its thresholds")
            if any(float(r["final_cos_theta"]) > -0.99 or float(r["final_lambda"]) <= 10.0
                   for r in case2):
                problems.append("criterion 08: case2 endpoint outside its thresholds")
    return problems


# ---------------------------------------------------------------- processes


def reference_time() -> float:
    """Seconds the host currently takes for the reference loop (no ``dbgd`` code)."""
    t0 = time.perf_counter()
    x, acc = 0.1, 0.0
    for _ in range(REFERENCE_LOOPS):
        x = (x * 1.0000001 + 0.5) % 1.7
        acc += x * x
    return time.perf_counter() - t0


def child_env() -> dict:
    """One process, one BLAS thread, no grid thread pool, this checkout's ``src``.

    Bytecode is never cached, so every repeat compiles ``dbgd`` as part of its
    import and the run writes nothing next to the sources.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("DBGD_WORKERS", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(job: dict, tmp: Path, deadline: float) -> dict:
    """Run one ``workload.py`` job to completion and return its result."""
    job_path, result_path = tmp / "job.json", tmp / "result.json"
    job_path.write_text(json.dumps(dict(job, result=str(result_path))))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(job_path)], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a workload process ran past the deadline") from exc
    t_exit = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result.update(t_spawn=t_spawn, t_exit=t_exit, stderr=proc.stderr)
    return result


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


# ------------------------------------------------------------------ metrics


def _span(spans: dict, name: str) -> dict:
    return spans.get(name, {"calls": 0, "total_ns": 0, "child_ns": 0, "p50_ns": 0.0, "p99_ns": 0.0})


def layer_metrics(result: dict, rep: dict, flops: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced repeat."""
    spans, counts = result["spans"], result["counts"]
    m = {}
    busy = 0
    for o in ORACLES:
        s = _span(spans, f"problems.{o}")
        m[f"problems.{o}.calls"] = s["calls"]
        m[f"problems.{o}.us"] = s["p50_ns"] / 1e3
        m[f"problems.{o}.us_p99"] = s["p99_ns"] / 1e3
        busy += s["total_ns"]
    run = _span(spans, "solver.run")
    flop_count = (flops[0] * _span(spans, "problems.eval_g")["calls"]
                  + flops[1] * _span(spans, "problems.eval_grad_g")["calls"])
    m["problems.busy_share"] = busy / run["total_ns"] if run["total_ns"] else 0.0
    m["problems.gflops_computed"] = flop_count / busy if busy else 0.0  # flop/ns
    for d in DIRECTIONS:
        s = _span(spans, f"direction.{d}")
        m[f"direction.{d}.calls"] = s["calls"]
        m[f"direction.{d}.us"] = s["p50_ns"] / 1e3
    iters = counts.get("solver.iters", 0)
    m["direction.degenerate_frac"] = counts.get("direction.degenerate_steps", 0) / iters if iters else 0.0
    s = _span(spans, "metrics.decompose_grad_f")
    m["metrics.decompose_grad_f.calls"] = s["calls"]
    m["metrics.decompose_grad_f.us"] = s["p50_ns"] / 1e3
    m["solver.run.calls"] = run["calls"]
    m["solver.iters"] = iters
    m["solver.self_us_per_iter"] = (run["total_ns"] - run["child_ns"]) / iters / 1e3 if iters else 0.0
    m["solver.trace_bytes"] = iters * TRACE_COLUMNS * 8
    s = _span(spans, "verify.rate_fit")
    m["verify.rate_fit.calls"] = s["calls"]
    m["verify.rate_fit.self_s"] = (s["total_ns"] - s["child_ns"]) / 1e9
    for c in SETUP_CALLS:
        m[f"harness.{c}.ms"] = _span(spans, f"harness.{c}")["total_ns"] / 1e6
    rows = counts.get("harness.trace_csv.rows", 0)
    m["harness.trace_csv.rows"] = rows
    m["harness.trace_csv.us_per_row"] = _span(spans, "harness.trace_csv")["total_ns"] / rows / 1e3 if rows else 0.0
    m["harness.bytes_written"] = rep["bytes"]
    m["harness.self_s"] = sum(s["total_ns"] - s["child_ns"] for n, s in spans.items()
                              if n.startswith("harness.")) / 1e9
    m["harness.cells_ok_frac"] = rep["ok"] / rep["attempted"]
    m["cli.import_s"] = result["import_s"]
    return m


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


# --------------------------------------------------------------------- run


def run_repeat(index: int, steps: list[Step], tmp: Path, deadline: float, traced: bool,
               inspect=None) -> tuple[dict, dict, dict]:
    """Run one repeat; return its child result, timings with accounting, and digests.

    ``inspect(rep_dir)`` may look at the outputs before they are deleted.
    """
    rep_dir = tmp / f"rep{index}"
    rep_dir.mkdir()
    argv = [[s.command, str(tmp / f"{s.name}.config.json"), "--output", str(rep_dir / s.output)]
            for s in steps]
    result = run_child({"trace": traced, "steps": argv}, tmp, deadline)
    if "t_first_run" not in result:
        raise BenchError(f"no solver run started; workload stderr:\n{result['stderr'][-2000:]}")
    ok = iters = 0
    for step in steps:
        step_ok, step_iters = check_step(step, rep_dir / step.output)
        ok += step_ok
        iters += step_iters
    digests, size = digest(rep_dir)
    problems = inspect(rep_dir) if inspect is not None else []
    shutil.rmtree(rep_dir)
    setup = result["t_first_run"] - result["t_spawn"]
    wall = result["t_exit"] - result["t_spawn"]
    rep = {"setup_s": setup, "wall_s": wall, "iters_per_s": iters / (wall - setup),
           "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
           "ok": ok, "attempted": sum(s.operations() for s in steps), "bytes": size,
           "problems": problems}
    return result, rep, digests


def bench(args: argparse.Namespace, tmp: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    wide = [wide_problem(args.seed)] if args.workload == "matfac-wide" else []
    prep = run_child({"lip_total_of": wide}, tmp, deadline)
    if not Path(prep["dbgd_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported dbgd from {prep['dbgd_file']}, not from {SRC}")
    steps = build_steps(args.workload, args.seed, args.smoke, prep["lip_totals"])
    for step in steps:
        (tmp / f"{step.name}.config.json").write_text(json.dumps(step.config))
    flops = matmul_flops(steps)
    criteria = not args.smoke and args.seed == DEFAULT_SEED
    inspect = partial(toy_criteria, steps) if criteria and args.workload == "toy-suite" else None

    problems: list[str] = []
    first_digests = None
    untraced, traced = [], []  # (repeat record, per-layer metrics or None)
    t0 = time.monotonic()
    ref_before = reference_time()
    ref_times = [ref_before]
    while True:
        index = len(untraced) + len(traced)
        is_traced = bool(args.trace) and index % 2 == 1
        result, rep, digests = run_repeat(index, steps, tmp, deadline, is_traced,
                                          inspect if first_digests is None else None)
        ref_after = reference_time()
        ref_times.append(ref_after)
        rep["speed"] = REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        raw_wall = rep["raw_wall_s"] = rep["wall_s"]
        for key in ("setup_s", "wall_s"):
            rep[key] *= rep["speed"]
        rep["iters_per_s"] /= rep["speed"]
        problems += rep["problems"]
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            problems.append(f"repeat {index} ({'traced' if is_traced else 'untraced'}) wrote "
                            "output files that differ from repeat 0")
        if is_traced:
            missing = [n for n in EXERCISED[args.workload] if _span(result["spans"], n)["calls"] == 0]
            if missing:
                raise BenchError(f"traced run: no calls recorded for {missing} on {args.workload}")
            traced.append((rep, layer_metrics(result, rep, flops)))
        else:
            untraced.append((rep, None))
        now = time.monotonic()
        if (traced or not args.trace) and (now - t0 >= args.seconds or now + raw_wall > deadline):
            break

    if criteria and args.workload == "matfac-grid":  # criterion 07 holds at the bundled budget
        out = tmp / "criterion07"
        run_child({"trace": False, "steps": [["run", str(CONFIGS / "matfac.json"), "--output", str(out)]]},
                  tmp, deadline)
        problems += pareto_problems(_read_csv(out / "summary.csv"))

    reps = [rep for rep, _ in untraced + traced]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = attempted - sum(rep["ok"] for rep in reps)
    plain = [rep for rep, _ in untraced]
    if args.trace:
        layers = [m for _, m in traced]
        metrics = {name: median_of(layers, name) for name in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            median_of([rep for rep, _ in traced], "wall_s") / median_of(plain, "wall_s") - 1.0
        )
        units = PER_LAYER
    else:
        metrics = {name: median_of(plain, name) for name in END_TO_END if name != "ok_frac"}
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    env = {
        "python": sys.version.split()[0],
        **prep["environment"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **git_state(),
        "reference_s": ref_times,
        "measured_wall_s": [round(rep["raw_wall_s"], 4) for rep, _ in untraced + traced],
    }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return summary, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the benchmark's tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running repeat,
    # and the temporary directory is removed below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dbgd" / "__init__.py").exists() or not CONFIGS.is_dir():
        print(f"error: no dbgd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        summary, env = bench(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env, sort_keys=True))
    for name, entry in summary["metrics"].items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{'failed_frac':34s} {summary['failed'] / summary['attempted']:>14.6g} fraction "
          f"({summary['failed']} of {summary['attempted']} operations)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
