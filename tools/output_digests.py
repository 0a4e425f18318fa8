"""Run every bundled config into one directory and print a digest per file.

Usage: ``python3 tools/output_digests.py DIR``

Runs ``dbgd run`` on ``toy.json``, ``matfac.json``, ``matfac-log.json``
and ``matfac.json --iterations 100000``, ``dbgd casestudy`` on
``casestudy.json`` and ``dbgd rates`` on both rates configs, each into
its own subdirectory of ``DIR``, with the ``dbgd`` package of the
checkout this script sits in. It also writes thirteen configs of its own
under ``DIR/configs`` and runs them: ``toy.json`` with no trace CSV
(``trace: none``), the bundled case study with final rows only (``trace:
final``), one cell of every method kind on a 3-dimensional quadratic
(``g* = 0``) with every trace row, once from a seeded start and once
from the lower optimum ``x0 = 0`` (where ``grad_g`` vanishes, so that a
degenerate bloop row and an undefined cosine of every kind are written),
the seeded quadratic cells again with ``penalty_step_scaling: false``,
seven seeded quadratic cells with every trace row whose method blocks
interleave the kinds (penalty, bloop, dbgd, lower-linearization,
penalty, dynamic-barrier-min, dbgd), a
``p`` grid of the scheduled dbgd rule on the toy with final rows only
(once at its own budget and once at ``--iterations 500``, so that the
schedule resolves for the overridden budget), the bundled case study
under the scheduled rule with every trace row, a toy grid with stop
tolerances (its cells stop at unequal iterations) once with every trace
row and once with final rows only, and
``matfac.json`` and ``matfac-log.json`` with every trace row at 700
iterations (a budget that is not a multiple of 256, on 20 cells of
dimension 100, for each upper objective), and a quadratic
grid with every trace row whose ``penalty_lambda=40`` cell diverges at
iteration 312, after a first block of 256 rows was streamed (exit
status 3, no file left in its output directory), so that every method
the harness can build, the scheduled and the constant step of every
config kind that has them, the scaled and the unscaled penalty step,
runs that end early or late under every trace granularity, method
blocks whose kinds come in any order, and a divergence report are
covered. What each command prints to standard error (its warnings, and
the ``divergence:`` line) goes to ``DIR/<output name>.stderr``. It then
prints one ``sha256 relative/path`` line per file under ``DIR``, and one
``empty relative/path/`` line per empty directory, sorted by path, so
that two checkouts write byte-identical outputs, warnings and reports
exactly when ``diff`` of their printouts is empty. A command that exits
with another status than its ``RUNS`` entry expects (0 unless stated)
stops the script with that status, or 1 where it was 0. It writes
nothing outside ``DIR``; the commands' other messages (``wrote ...``) go
to standard error.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dbgd import cli  # noqa: E402

CONFIGS = ROOT / "src" / "dbgd" / "configs"

#: (output name, dbgd arguments before the output flag[, expected exit status])
RUNS = (
    ("toy", ["run", "toy.json"]),
    ("matfac", ["run", "matfac.json"]),
    ("matfac-log", ["run", "matfac-log.json"]),
    ("matfac-1e5", ["run", "matfac.json", "--iterations", "100000"]),
    ("casestudy", ["casestudy", "casestudy.json"]),
    ("rates-toy.json", ["rates", "rates-toy.json"]),
    ("rates-quadratic.json", ["rates", "rates-quadratic.json"]),
    ("toy-none", ["run", "toy-none.json"]),
    ("casestudy-final", ["casestudy", "casestudy-final.json"]),
    ("kinds", ["run", "kinds.json"]),
    ("optimum", ["run", "optimum.json"]),
    ("kinds-unscaled", ["run", "kinds-unscaled.json"]),
    ("interleaved", ["run", "interleaved.json"]),
    ("scheduled", ["run", "scheduled.json"]),
    ("scheduled-500", ["run", "scheduled.json", "--iterations", "500"]),
    ("scheduled-casestudy", ["casestudy", "scheduled-casestudy.json"]),
    ("stopping", ["run", "stopping.json"]),
    ("stopping-final", ["run", "stopping-final.json"]),
    ("matfac-all-700", ["run", "matfac-all.json", "--iterations", "700"]),
    ("matfac-log-all-700", ["run", "matfac-log-all.json", "--iterations", "700"]),
    ("diverging", ["run", "diverging.json"], 3),
)

_CASESTUDY = json.loads((CONFIGS / "casestudy.json").read_text())
_TOY = json.loads((CONFIGS / "toy.json").read_text())
_MATFAC = json.loads((CONFIGS / "matfac.json").read_text())
_MATFAC_LOG = json.loads((CONFIGS / "matfac-log.json").read_text())

#: A toy grid with stop tolerances: its cells stop at unequal iterations.
_STOPPING = {
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
}

#: One cell of every method kind on a 3-dimensional quadratic (``g* = 0``).
_KINDS = {
    "kind": "experiment",
    "problem": {"name": "quadratic", "n": 3},
    "methods": [
        {"kind": "dbgd", "beta": 0.5},
        {"kind": "dbgd", "rule": "dynamic-barrier-min", "alpha": 0.5, "beta": 0.5},
        {"kind": "dbgd", "rule": "lower-linearization", "eta": 0.1},
        {"kind": "bloop", "beta": 0.5},
        {"kind": "penalty", "lambda": 10},
    ],
    "run": {"x0": {"seed": 2}, "iterations": 300, "step": {"mode": "constant", "eta": 0.1}},
}

#: The kinds of ``_KINDS`` in method blocks that interleave them out of
#: the order of the ``Method`` union, each with its own parameters.
_INTERLEAVED = {
    **_KINDS,
    "methods": [
        {"kind": "penalty", "lambda": 10},
        {"kind": "bloop", "beta": 0.25},
        {"kind": "dbgd", "beta": 0.5},
        {"kind": "dbgd", "rule": "lower-linearization", "eta": 0.2},
        {"kind": "penalty", "lambda": 2},
        {"kind": "dbgd", "rule": "dynamic-barrier-min", "alpha": 1, "beta": 0.25},
        {"kind": "dbgd", "beta": 1.0},
    ],
}

#: Configs this script writes, by file name.
GENERATED = {
    "toy-none.json": {**_TOY, "output": {"directory": "toy-none", "trace": "none"}},
    "casestudy-final.json": {
        **_CASESTUDY, "output": {"directory": "casestudy-final", "trace": "final"},
    },
    "kinds.json": {**_KINDS, "output": {"directory": "kinds", "trace": "all"}},
    "optimum.json": {
        **_KINDS,
        "run": {**_KINDS["run"], "x0": [0.0, 0.0, 0.0]},
        "output": {"directory": "optimum", "trace": "all"},
    },
    "kinds-unscaled.json": {
        **_KINDS,
        "run": {**_KINDS["run"], "penalty_step_scaling": False},
        "output": {"directory": "kinds-unscaled", "trace": "all"},
    },
    "interleaved.json": {
        **_INTERLEAVED, "output": {"directory": "interleaved", "trace": "all"},
    },
    "scheduled.json": {
        "kind": "experiment",
        "problem": {"name": "toy"},
        "methods": [{"kind": "dbgd", "rule": "scheduled", "p": [0.0, 1.0]}],
        "run": {"x0": [-3.0, -1.0], "iterations": 2000},
        "output": {"directory": "scheduled", "trace": "final"},
    },
    "scheduled-casestudy.json": {
        **_CASESTUDY,
        "method": {"kind": "dbgd", "rule": "scheduled", "p": 1.0},
        "run": {key: value for key, value in _CASESTUDY["run"].items() if key != "step"},
        "output": {"directory": "scheduled-casestudy", "trace": "all"},
    },
    "stopping.json": {**_STOPPING, "output": {"directory": "stopping", "trace": "all"}},
    "stopping-final.json": {
        **_STOPPING, "output": {"directory": "stopping-final", "trace": "final"},
    },
    "matfac-all.json": {**_MATFAC, "output": {"directory": "matfac-all", "trace": "all"}},
    "matfac-log-all.json": {
        **_MATFAC_LOG, "output": {"directory": "matfac-log-all", "trace": "all"},
    },
    "diverging.json": {
        "kind": "experiment",
        "problem": {"name": "quadratic", "n": 3},
        "methods": [{"kind": "dbgd", "beta": 1.0}, {"kind": "penalty", "lambda": [1, 40, 2]}],
        "run": {
            "x0": [0.3, 0.3, 0.3],
            "iterations": 1000,
            "step": {"mode": "constant", "eta": 0.1},
            "penalty_step_scaling": False,
        },
        "output": {"directory": "diverging", "trace": "all"},
    },
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    generated = out / "configs"
    generated.mkdir(parents=True, exist_ok=True)
    for config, doc in GENERATED.items():
        (generated / config).write_text(json.dumps(doc, indent=2) + "\n")
    for name, (command, config, *rest), *expected in RUNS:
        path = generated / config if config in GENERATED else CONFIGS / config
        messages = StringIO()
        with redirect_stdout(sys.stderr), redirect_stderr(messages):
            status = cli.main([command, str(path), *rest, "--output", str(out / name)])
        (out / f"{name}.stderr").write_text(messages.getvalue())
        if status != (expected[0] if expected else 0):
            print(messages.getvalue(), end="", file=sys.stderr)
            print(f"dbgd {command} {config} exited {status}", file=sys.stderr)
            return status or 1
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
        elif not any(path.iterdir()):
            print(f"empty  {path.relative_to(out)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
