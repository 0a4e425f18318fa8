"""One repeat of a benchmark workload, run in a fresh interpreter.

Usage: ``python3 bench/workload.py JOB.json``

``run_bench.py`` writes the job file and starts this script once per repeat,
so every repeat pays the import cost a CLI user pays and its peak resident
memory belongs to that repeat alone.  The job names the ``dbgd`` CLI
invocations to run in order, whether to trace them, and where to write the
result.  The result holds the import time, the monotonic time of the first
solver run (``time.monotonic`` is system-wide on Linux, so the parent can
subtract its own spawn time), the peak RSS and, when traced, per-span
statistics.  Outcomes are judged from the output files, not exit codes.

Tracing patches each name where its caller looks it up: the solver calls
``dbgd.solver.dbgd_direction`` (not ``dbgd.direction.dbgd_direction``), the
solver calls ``ProblemSpec.eval_*`` through the class, and the harness calls
``run``, ``rate_fit`` and ``trace_csv`` through its own module namespace.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path


class Tracer:
    """In-memory spans around calls into the ``dbgd`` modules.

    For each span name it keeps the call count, the summed duration, the
    part of that duration covered by nested spans, and every duration, so
    a span's self time is its duration minus its children.
    """

    def __init__(self):
        self._open: list[int] = []  # child time of each open span, innermost last
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, name, fn, on_result=None):
        stat = self.spans.setdefault(name, [0, 0, 0, array("q")])
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
                stat[3].append(dt)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict:
        import numpy as np

        out = {}
        for name, (calls, total, child, samples) in self.spans.items():
            durations = np.frombuffer(samples, dtype=np.int64) if calls else None
            out[name] = {
                "calls": calls,
                "total_ns": total,
                "child_ns": child,
                "p50_ns": float(np.percentile(durations, 50)) if calls else 0.0,
                "p99_ns": float(np.percentile(durations, 99)) if calls else 0.0,
            }
        return out


def _instrument(tracer: Tracer | None, marks: dict) -> None:
    """Patch the call sites; always record the first solver run (end of set-up)."""
    import dbgd.cli as cli
    import dbgd.harness as harness
    import dbgd.solver as solver
    import dbgd.verify as verify
    from dbgd.problems import ProblemSpec

    run = solver.run
    if tracer is not None:
        for name in ("eval_f", "eval_g", "eval_grad_f", "eval_grad_g"):
            setattr(ProblemSpec, name, tracer.wrap(f"problems.{name}", getattr(ProblemSpec, name)))
        for name in ("barrier_value", "dbgd_direction", "penalty_direction"):
            setattr(solver, name, tracer.wrap(f"direction.{name}", getattr(solver, name)))
        solver.decompose_grad_f = tracer.wrap("metrics.decompose_grad_f", solver.decompose_grad_f)

        def count_run(trace):
            tracer.count("solver.iters", len(trace))
            tracer.count("direction.degenerate_steps", int(trace.degenerate.sum()))

        def count_rows(text):
            tracer.count("harness.trace_csv.rows", text.count("\n") - 1)

        run = tracer.wrap("solver.run", run, on_result=count_run)
        harness.rate_fit = tracer.wrap("verify.rate_fit", harness.rate_fit)
        for name in ("validate_config", "build_problem", "expand_methods"):
            setattr(harness, name, tracer.wrap(f"harness.{name}", getattr(harness, name)))
        harness.trace_csv = tracer.wrap("harness.trace_csv", harness.trace_csv, on_result=count_rows)
        for name in ("run_experiment", "run_rates", "run_casestudy"):
            setattr(cli, name, tracer.wrap(f"harness.{name}", getattr(cli, name)))

    inner = run

    def first_run_marked(*args, **kwargs):
        marks.setdefault("t_first_run", time.monotonic())
        return inner(*args, **kwargs)

    harness.run = first_run_marked
    verify.run = first_run_marked


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _lip_totals(problem_blocks: list[dict]) -> list[float]:
    from dbgd.harness import build_problem

    return [build_problem(block).smoothness.lip_total for block in problem_blocks]


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.monotonic()
    import dbgd.cli as cli

    result = {"import_s": time.monotonic() - t0}
    if "steps" not in job:  # preparation: environment and derived inputs
        result["environment"] = _environment()
        result["dbgd_file"] = cli.__file__
        result["lip_totals"] = _lip_totals(job.get("lip_total_of", []))
    else:
        marks: dict = {}
        tracer = Tracer() if job["trace"] else None
        _instrument(tracer, marks)
        for argv in job["steps"]:
            try:
                cli.main(argv)
            except Exception:  # one failed invocation must not hide the others
                traceback.print_exc()
        result.update(marks)
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["counts"] = tracer.counts
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
