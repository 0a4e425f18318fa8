"""Experiment harness: JSON configs, grid execution, CSV traces.

A config is a single JSON object whose ``kind`` selects the workflow:

* ``experiment``: run every (method, parameter) grid cell of a problem,
  writing one trace CSV per cell plus a ``summary.csv`` with final- and
  best-iterate metrics per cell;
* ``rates``: fit the decay of the minimal potential across iteration
  budgets and write a JSON report;
* ``casestudy``: run one method from several initializations and
  classify each terminal point by its stationarity signature.

Each command runs all its independent runs (grid cells, initializations,
``(p, K)`` pairs) as one solver batch.  When a config asks for every trace
row (``output.trace: all``), the solver hands the rows to a write function
in blocks of iterations, which appends each block to its run's CSV;
otherwise only each run's best and last rows are kept.  Either way memory
does not grow with the budget.

The problems and methods a config can name are declared once, in the
``PROBLEMS`` and ``METHODS`` tables; the config checks and the grid
expansion are derived from them.  Unknown keys anywhere in a config
are errors, not warnings.  Reruns with identical configs and seeds produce
byte-identical output files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional

import numpy as np

from .direction import (
    BloopOrthogonal,
    DynamicBarrierMin,
    GradNormSquared,
    LowerLinearization,
    Method,
    Penalty,
)
from .errors import ConfigurationError, DivergenceError
from .problems import (
    ProblemSpec,
    matrix_factorization_problem,
    quadratic_sanity_problem,
    rng,
    toy_problem,
)
from .solver import (
    COLUMNS,
    SolverConfig,
    TraceRecord,
    _check_exponent,
    run,
    scheduled_step,
)
from .verify import SLOPE_TOLERANCE, rate_fit

#: Columns written as integers or as text; every other column is a float.
_INTEGER_COLUMNS = {"k", "degenerate", "rows", "stopped_early", "init"}
_TEXT_COLUMNS = {"cell", "method", "classification"}


class CsvSchema:
    """A CSV file's columns, its header and the rendering of its rows.

    A column is named by a trace column (``COLUMNS``, or ``k``), maybe
    prefixed ``final_`` (the last row) or ``best_`` (the minimal-potential
    row), or by a field of its own.  ``lam`` is written ``lambda``.  Floats
    carry 17 significant digits (a lossless round trip), an undefined
    cosine is written ``NA``, and flags are written ``0`` / ``1``.
    """

    def __init__(self, *columns: str):
        names, formats, na_formats = [], [], []
        for column in columns:
            prefix = next((p for p in ("final_", "best_") if column.startswith(p)), "")
            base = column[len(prefix):]
            names.append(prefix + ("lambda" if base == "lam" else base))
            fmt = "%d" if base in _INTEGER_COLUMNS else "%s" if base in _TEXT_COLUMNS else "%.17g"
            formats.append(fmt)
            na_formats.append("%.0sNA" if base == "cos_theta" else fmt)
        self.header = ",".join(names)
        #: Row template by whether the cosine is defined (``True`` or 1.0);
        #: ``%.0s`` writes the undefined cosine's NaN as nothing.
        self.templates = {True: ",".join(formats), False: ",".join(na_formats)}

    def row(self, values, cos_defined) -> str:
        """One CSV line (without its newline) of ``values``, in column order."""
        return self.templates[bool(cos_defined)] % tuple(values)

    def text(self, rows: Iterable[str], header: bool = True) -> str:
        """CSV text of rendered ``rows``, after the header when ``header``."""
        return "\n".join([self.header, *rows] if header else rows) + "\n"


#: Trace columns of ``summary.csv`` read at the last and at the minimal-potential row.
_SUMMARY_FINAL = COLUMNS[:COLUMNS.index("delta_f")]
_SUMMARY_BEST = ("k", "potential", "grad_g_sq", "d_sq")
#: Trace columns of ``cases.csv``, read at the last row.
_CASES_FINAL = ("lam", "grad_f_sq", "grad_g_sq", "cos_theta")

_COS_DEFINED = COLUMNS.index("cos_defined")
#: One row per kept trace row: ``k``, then every column but ``cos_defined``.
TRACE_CSV = CsvSchema("k", *(name for name in COLUMNS if name != "cos_defined"))
#: One row per experiment cell.
SUMMARY_CSV = CsvSchema(
    "cell", "method", "rows", "stopped_early",
    *("final_" + name for name in _SUMMARY_FINAL), *("best_" + name for name in _SUMMARY_BEST),
)
#: One row per case-study initialization.
CASES_CSV = CsvSchema("init", "classification", *("final_" + name for name in _CASES_FINAL))

#: A config check: ``check(value, where)`` raises a ConfigurationError naming
#: the field path ``where`` (such as ``$.run.step.eta``) if ``value`` is bad.
Check = Callable[[Any, str], None]

_NOUNS = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean"}


def _error(where: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"config field {where}: {message}")


class Leaf(NamedTuple):
    """A scalar config field: a JSON value of ``type``, maybe one of
    ``choices`` and at least (``strict``: above) ``low``.

    ``int`` takes JSON integers only and ``float`` every finite JSON
    number; no number type takes ``true`` or ``false``, nor an integer
    beyond the largest float.
    """

    type: type
    choices: Optional[tuple] = None
    low: Optional[float] = None
    strict: bool = False

    def __call__(self, value: Any, where: str) -> None:
        if isinstance(value, bool) or self.type is bool:
            ok = isinstance(value, bool) and self.type is bool
        elif self.type is float:
            ok = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
        else:
            ok = isinstance(value, self.type)
        if not ok:
            raise _error(where, f"expected {_NOUNS[self.type]}, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise _error(where, f"an integer beyond the largest float ({sys.float_info.max:g})")
        if self.choices is not None and value not in self.choices:
            raise _error(where, f"{value!r} is not one of {list(self.choices)}")
        if self.low is not None and (value <= self.low if self.strict else value < self.low):
            raise _error(where, f"{value!r} must be {'>' if self.strict else '>='} {self.low}")


class Object(NamedTuple):
    """A JSON object of the ``required`` and ``optional`` fields, each
    mapped to the check of its value; ``name`` labels its key errors."""

    required: dict[str, Check]
    optional: dict[str, Check] = {}
    name: str = ""

    def __call__(self, value: Any, where: str) -> None:
        if not isinstance(value, dict):
            raise _error(where, "expected an object")
        of = f" for {self.name}" if self.name else ""
        checks = {**self.required, **self.optional}
        unknown = value.keys() - checks.keys()
        if unknown:
            raise _error(where, f"unknown fields {sorted(unknown)}{of}")
        missing = [key for key in self.required if key not in value]
        if missing:
            raise _error(where, f"missing required fields {missing}{of}")
        for key, item in value.items():
            checks[key](item, f"{where}.{key}")


class Array(NamedTuple):
    """A JSON array of ``length`` or more (``exact``: exactly ``length``)
    values, each checked by ``item``; ``distinct``: no value repeated."""

    item: Check
    length: int = 1
    exact: bool = False
    distinct: bool = False

    def __call__(self, value: Any, where: str) -> None:
        if not isinstance(value, list):
            raise _error(where, "expected a list")
        if len(value) < self.length or self.exact and len(value) != self.length:
            raise _error(where, f"expected {self.length}{'' if self.exact else ' or more'} items")
        for i, item in enumerate(value):
            self.item(item, f"{where}[{i}]")
        if self.distinct and len(set(value)) < len(value):
            repeated = next(item for i, item in enumerate(value) if item in value[:i])
            raise _error(where, f"expected {self.length} or more distinct items, none "
                                f"repeated; {repeated!r} repeats")


def _tag(block: Any, where: str, key: str, leaf: Leaf) -> Any:
    """Check the field ``key`` of object ``block`` with ``leaf``; returns its value."""
    if not isinstance(block, dict):
        raise _error(where, "expected an object")
    if key not in block:
        raise _error(where, f"missing required field {key!r}")
    leaf(block[key], f"{where}.{key}")
    return block[key]


def _tagged(key: str, variants: dict[str, Object]) -> Check:
    """A check of an object whose field ``key`` names the one of
    ``variants`` that checks its other fields."""
    tag = Leaf(str, tuple(variants))
    objs = {name: obj._replace(required={key: tag, **obj.required})
            for name, obj in variants.items()}
    return lambda block, where: objs[_tag(block, where, key, tag)](block, where)


_NUMBER = Leaf(float)
_NONNEGATIVE = Leaf(float, low=0)
_POSITIVE = Leaf(float, low=0, strict=True)
_POSITIVE_INT = Leaf(int, low=1)
_STRING = Leaf(str)
_VECTOR = Array(_NUMBER)


def _vector_or(check: Check) -> Check:
    """A check taking a non-empty list of numbers, or what ``check`` takes."""
    return lambda value, where: (_VECTOR if isinstance(value, list) else check)(value, where)


_NUMBER_OR_GRID = _vector_or(_NUMBER)
_X0 = _vector_or(Object({"seed": Leaf(int, low=0)}, {"scale": _NUMBER}))


class ProblemEntry(NamedTuple):
    """A config-buildable problem: its constructor and its config fields.

    Field names are the constructor's keyword arguments and map to the
    :class:`Leaf` checks of their values; an optional field left out of a
    config takes the constructor's default.
    """

    build: Callable[..., ProblemSpec]
    required: dict[str, Leaf]
    optional: dict[str, Leaf] = {}


#: Every problem a config can name.
PROBLEMS = {
    "toy": ProblemEntry(toy_problem, {}),
    "quadratic": ProblemEntry(
        quadratic_sanity_problem, {"n": _POSITIVE_INT}, {"box_radius": _POSITIVE}
    ),
    "matrix-factorization": ProblemEntry(
        matrix_factorization_problem,
        {"n": _POSITIVE_INT, "r": _POSITIVE_INT, "alpha": _POSITIVE},
        {
            "variant": Leaf(str, ("smooth-l1", "log-smooth")),
            "noise_std": _NONNEGATIVE,
            "seed": Leaf(int),
        },
    ),
}
_PROBLEM = _tagged("name", {
    name: Object(entry.required, entry.optional, f"problem {name!r}")
    for name, entry in PROBLEMS.items()
})


@dataclasses.dataclass(frozen=True)
class Schedule:
    """The dbgd rule ``scheduled``: grad-norm-squared, with the ``beta`` and
    constant step :func:`scheduled_step` gives at ``p >= 0`` for the run's budget."""

    p: float

    def __post_init__(self):
        _check_exponent(self.p)


class MethodEntry(NamedTuple):
    """A config-buildable method.

    A block yields one grid cell per combination of its ``fields`` (first
    field outermost), named ``{prefix}_{field}={value:g}_...`` and built by
    ``build(g_star, *values)``.
    """

    prefix: str
    fields: tuple[str, ...]
    build: Callable[..., Method | Schedule]


#: Rule of a dbgd block that names none.
DEFAULT_RULE = "grad-norm-squared"

#: Every method a config can name, keyed by ``(kind, rule)``.
METHODS = {
    ("dbgd", DEFAULT_RULE): MethodEntry(
        "dbgd", ("beta",), lambda g_star, beta: GradNormSquared(beta)
    ),
    ("dbgd", "dynamic-barrier-min"): MethodEntry(
        "dbgd-min",
        ("alpha", "beta"),
        lambda g_star, alpha, beta: DynamicBarrierMin(alpha, beta, g_star),
    ),
    ("dbgd", "lower-linearization"): MethodEntry(
        "dbgd-lin", ("eta",), lambda g_star, eta: LowerLinearization(g_star, eta)
    ),
    ("dbgd", "scheduled"): MethodEntry("dbgd-sched", ("p",), lambda g_star, p: Schedule(p)),
    ("penalty", None): MethodEntry("penalty", ("lambda",), lambda g_star, lam: Penalty(lam)),
    ("bloop", None): MethodEntry("bloop", ("beta",), lambda g_star, beta: BloopOrthogonal(beta)),
}

_METHOD_KIND = Leaf(str, tuple(dict.fromkeys(kind for kind, _ in METHODS)))
_METHOD_RULE = Leaf(str, tuple(rule for _, rule in METHODS if rule is not None))


def _method_key(block: dict) -> tuple[str, Optional[str]]:
    kind = block["kind"]
    return kind, block.get("rule", DEFAULT_RULE if kind == "dbgd" else None)


def _method_entry(block: Any, where: str) -> MethodEntry:
    """The ``METHODS`` entry of a method block, after checking the block against it."""
    _tag(block, where, "kind", _METHOD_KIND)
    if "rule" in block:
        _METHOD_RULE(block["rule"], f"{where}.rule")
    kind, rule = _method_key(block)
    entry = METHODS.get((kind, rule))
    if entry is None:
        raise _error(where, f"kind {kind!r} has no rule {rule!r}")
    fields = dict.fromkeys(entry.fields, _NUMBER_OR_GRID)
    optional = {} if rule is None else {"rule": _METHOD_RULE}
    Object({"kind": _METHOD_KIND, **fields}, optional)(block, where)
    return entry


_STEP = _tagged("mode", {"constant": Object({"eta": _POSITIVE}, name="constant step mode")})

DEFAULT_CLASSIFY = {
    "case1_lambda_max": 0.1,
    "case1_grad_f_sq_max": 1e-2,
    "case2_cos_theta_max": -0.99,
    "case2_lambda_min": 10.0,
}

_OUTPUT = Object({"directory": _STRING}, {"trace": Leaf(str, ("all", "final", "none"))})

#: The check of a config document, by its kind.
_CONFIG = _tagged("kind", {
    "experiment": Object({
        "problem": _PROBLEM,
        "methods": Array(_method_entry),
        "run": Object({"x0": _X0, "iterations": _POSITIVE_INT}, {
            "step": _STEP,
            "penalty_step_scaling": Leaf(bool),
            "stop_tolerances": Array(_NONNEGATIVE, 2, exact=True),
        }),
        "output": _OUTPUT,
    }),
    "rates": Object({
        "problem": _PROBLEM,
        "x0": _X0,
        "p": Array(_NONNEGATIVE, distinct=True),
        "k_grid": Array(_POSITIVE_INT, 3, distinct=True),
        "output": Object({"file": _STRING}),
    }, {"slope_tolerance": _POSITIVE}),
    "casestudy": Object({
        "problem": _PROBLEM,
        "method": _method_entry,
        "run": Object({"initializations": Array(_VECTOR), "iterations": _POSITIVE_INT},
                      {"step": _STEP}),
        "output": _OUTPUT,
    }, {"classify": Object({}, dict.fromkeys(DEFAULT_CLASSIFY, _NUMBER))}),
})


def load_config(path: str | Path) -> dict:
    """Parse and validate a config file; returns the raw document."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, bytes that are not UTF-8, an integer of over 4,300
        # digits or arrays nested too deep
        raise ConfigurationError(f"{path}: cannot read the config: {exc}") from exc
    validate_config(doc)
    return doc


def validate_config(doc: Any) -> str:
    """Validate a parsed config document, in one pass; returns its kind.

    Checks every field against ``_CONFIG`` and the ``PROBLEMS``/``METHODS``
    entries; the value ranges only a constructor knows are checked by
    :func:`prepare_config`.
    """
    _CONFIG(doc, "$")
    if "run" in doc:
        constant = any(_method_key(block)[1] != "scheduled" for block in _method_blocks(doc))
        if constant != ("step" in doc["run"]):
            raise _error("$.run.step", "required by the methods without a schedule" if constant
                         else "every method is scheduled, so a step does nothing")
    return doc["kind"]


def prepare_config(
    doc: dict | str | Path, kind: Optional[str] = None, iterations: Optional[int] = None
) -> tuple[dict, ProblemSpec, np.ndarray, list[tuple[str, SolverConfig]]]:
    """Load and validate a config and resolve everything it runs.

    ``doc`` is a parsed document or a config file path; ``kind``, when
    given, is the config kind the caller runs; ``iterations`` replaces the
    budget before any step is resolved.  Returns the document, the problem,
    the start point (a row per case-study initialization) and the named run
    configs (for ``rates``, the scheduled run ``p={p} K={k}`` of each pair,
    ``p`` outermost).  Every rejected value, including one a constructor or
    :func:`_build_solver_config` rejects, raises :class:`ConfigurationError`.
    """
    if not isinstance(doc, dict):
        doc = load_config(doc)
    else:
        validate_config(doc)
    if kind is not None and doc["kind"] != kind:
        raise ConfigurationError(f"expected a {kind!r} config, got {doc['kind']!r}")
    problem = build_problem(doc["problem"])
    if doc["kind"] == "rates":
        x0 = resolve_x0(doc["x0"], problem.dim, "$.x0")
        blocks = [(f"p={p} K={k}", {"iterations": k}, Schedule(p))
                  for p in doc["p"] for k in doc["k_grid"]]
    else:
        cells = expand_methods(_method_blocks(doc), problem)
        run_block = dict(doc["run"])
        if iterations is not None:
            if iterations < 1:
                raise ConfigurationError("iterations override must be >= 1")
            run_block["iterations"] = iterations
        if doc["kind"] == "casestudy":
            if len(cells) != 1:
                raise ConfigurationError("case studies take a single method without grids")
            inits = run_block["initializations"]
            x0 = np.array([resolve_x0(init, problem.dim, f"$.run.initializations[{i}]")
                           for i, init in enumerate(inits)])
            cells = [(f"init{i}", cells[0][1]) for i in range(len(inits))]
        else:
            x0 = resolve_x0(run_block["x0"], problem.dim, "$.run.x0")
        blocks = [(name, run_block, method) for name, method in cells]
    runs = []
    for name, block, method in blocks:
        try:
            runs.append((name, _build_solver_config(block, method, problem)))
        except ValueError as exc:  # a step that underflows to 0, or a weight that overflows
            raise ConfigurationError(f"run: {name}: {exc}") from exc
    return doc, problem, x0, runs


def _method_blocks(doc: dict) -> list[dict]:
    return doc["methods"] if "methods" in doc else [doc["method"]]


def build_problem(block: dict) -> ProblemSpec:
    """Construct the problem instance named by a config block.

    A value the constructor rejects is a :class:`ConfigurationError`.
    """
    params = {key: value for key, value in block.items() if key != "name"}
    try:
        return PROBLEMS[block["name"]].build(**params)
    except ValueError as exc:
        raise ConfigurationError(f"problem: {exc}") from exc


def resolve_x0(spec: Any, dim: int, where: str) -> np.ndarray:
    """Materialize the start point of the config field ``where`` for dimension ``dim``."""
    if isinstance(spec, dict):
        gen = rng(spec["seed"])
        return spec.get("scale", 1.0) * gen.standard_normal(dim)
    if len(spec) != dim:
        raise _error(where, f"expected {dim} entries (the problem dimension), got {len(spec)}")
    return np.asarray(spec, dtype=float)


def _grid_values(value: Any) -> list[float]:
    if isinstance(value, list):
        return [float(v) for v in value]
    return [float(value)]


def expand_methods(
    blocks: list[dict], problem: ProblemSpec
) -> list[tuple[str, Method | Schedule]]:
    """Expand method blocks into named grid cells, preserving order.

    A value a method constructor rejects is a :class:`ConfigurationError`
    naming its block.
    """
    cells: list[tuple[str, Method | Schedule]] = []
    for i, block in enumerate(blocks):
        where = f"methods[{i}]"
        entry = _method_entry(block, where)
        grids = [_grid_values(block[field]) for field in entry.fields]
        for values in itertools.product(*grids):
            name = "_".join(
                [entry.prefix] + [f"{field}={v:g}" for field, v in zip(entry.fields, values)]
            )
            try:
                cells.append((name, entry.build(problem.g_star, *values)))
            except ValueError as exc:
                raise ConfigurationError(f"{where}: {exc}") from exc
    names = [name for name, _ in cells]
    if len(set(names)) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ConfigurationError(f"method grids produce duplicate cell names; {repeated!r} repeats")
    return cells


def _build_solver_config(
    run_block: dict, method: Method | Schedule, problem: ProblemSpec
) -> SolverConfig:
    """The config of one run; a :class:`Schedule` resolves to its ``eta`` and
    its grad-norm-squared ``beta`` for the block's budget, and a penalty step
    is ``eta / (1 + lambda)`` unless ``penalty_step_scaling`` is false.  A
    potential weight ``beta/(L_g eta)`` that is not finite is a ``ValueError``."""
    if isinstance(method, Schedule):
        eta, beta = scheduled_step(problem.smoothness, run_block["iterations"], method.p)
        method = GradNormSquared(beta)
    else:
        eta = run_block["step"]["eta"]
    if isinstance(method, Penalty) and run_block.get("penalty_step_scaling", True):
        eta = eta / (1.0 + method.lam)
    stop = run_block.get("stop_tolerances")
    config = SolverConfig(
        method=method,
        eta=eta,
        iterations=run_block["iterations"],
        stop_tolerances=tuple(stop) if stop is not None else None,
    )
    config.potential_weight(problem.smoothness)
    return config


def trace_csv(table: np.ndarray, k: np.ndarray, header: bool = True) -> str:
    """Render trace rows (``table`` as in :class:`TraceRecord`, ``k`` their
    iterations) as CSV text, after the header when ``header``."""
    templates = TRACE_CSV.templates  # the row loop is the hot path of trace output
    lines = []
    for ki, row in zip(k.tolist(), table.tolist()):
        cos_defined = row.pop(_COS_DEFINED)
        lines.append(templates[cos_defined] % (ki, *row))
    return TRACE_CSV.text(lines, header=header)


class _TraceWriter:
    """The solver's write function under ``trace: all``: appends each block
    of rows to its run's trace CSV at ``paths[i]``."""

    def __init__(self, paths: list[Path]):
        self.paths = paths
        self.opened: list[Path] = []

    def __call__(self, k0: int, cell: np.ndarray, rows: np.ndarray) -> None:
        ks = np.arange(k0, k0 + len(rows))
        for j, i in enumerate(cell.tolist()):
            if k0 == 0:  # listed before it exists, so that discard misses no file
                self.opened.append(self.paths[i])
            with open(self.paths[i], "a" if k0 else "w") as fh:
                fh.write(trace_csv(rows[:, j], ks, header=k0 == 0))

    def discard(self) -> None:
        """Remove the files written so far."""
        for path in self.opened:
            path.unlink(missing_ok=True)


def _output_directory(path: str | Path) -> Path:
    """Create the directory ``path`` and its parents; one of them naming a
    file is a :class:`ConfigurationError`."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(f"output directory {path} is not a directory") from exc
    return path


def _output_file(path: Path) -> Path:
    """``path``, where a file is to be written; a directory there is a
    :class:`ConfigurationError`."""
    if path.is_dir():
        raise ConfigurationError(f"output file {path} is a directory")
    return path


def _values(trace: TraceRecord, row: int, columns: tuple[str, ...]) -> list:
    """The trace ``columns`` (``k`` or names of ``COLUMNS``) of kept row ``row``."""
    return [trace.k[row] if name == "k" else trace.table[row, COLUMNS.index(name)]
            for name in columns]


def _summary_row(name: str, trace: TraceRecord) -> str:
    best = int(np.argmin(trace.potential))
    return SUMMARY_CSV.row(
        [name, trace.config.method.label, len(trace), trace.stopped_early,
         *_values(trace, -1, _SUMMARY_FINAL), *_values(trace, best, _SUMMARY_BEST)],
        trace.cos_defined[-1],
    )


def _run_named(
    problem: ProblemSpec, runs: list[tuple[str, SolverConfig]], x0: np.ndarray, noun: str,
    writer: Optional[_TraceWriter] = None,
) -> tuple[TraceRecord, ...]:
    """Run a config's named runs as one batch; returns their traces, which
    keep each run's best and last rows (``writer``, if given, gets every row).
    Run warnings go to standard error before the batch runs.  A failed batch
    discards what ``writer`` wrote; a divergence names the first diverging
    run, as ``{noun} {name}``."""
    for name, config in runs:
        for warning in config.warnings(problem.smoothness):
            print(f"warning: {name}: {warning}", file=sys.stderr)
    try:
        return run(problem, [config for _, config in runs], x0,
                   keep="best-last" if writer is None else writer).traces
    except BaseException as exc:
        if writer is not None:
            writer.discard()
        if isinstance(exc, DivergenceError):
            raise DivergenceError(
                exc.iteration, f"{exc.what} in {noun} {runs[exc.cell][0]}", exc.cell
            ) from exc
        raise


def _run_and_write(
    doc: dict, output_dir: Optional[str | Path], problem: ProblemSpec,
    runs: list[tuple[str, SolverConfig]], x0: np.ndarray, noun: str, table: str,
) -> tuple[Path, tuple[TraceRecord, ...]]:
    """Run a config's named runs by :func:`_run_named` and write each run's trace CSV.

    Returns the path of the file ``table`` in the output directory
    (``output_dir``, else the config's), which the caller writes, and the
    traces.  Every output path is checked before the batch runs.
    """
    granularity = doc["output"].get("trace", "all")
    out = _output_directory(output_dir if output_dir is not None else doc["output"]["directory"])
    paths = [_output_file(out / f"{name}.csv") for name, _ in runs if granularity != "none"]
    table_path = _output_file(out / table)
    writer = _TraceWriter(paths) if granularity == "all" else None
    traces = _run_named(problem, runs, x0, noun, writer)
    if granularity == "final":
        for path, trace in zip(paths, traces):
            path.write_text(trace_csv(trace.table[-1:], trace.k[-1:]))
    return table_path, traces


def run_experiment(
    doc: dict | str | Path,
    output_dir: Optional[str | Path] = None,
    iterations_override: Optional[int] = None,
) -> Path:
    """Execute every grid cell of an experiment config, as one batch.

    Writes one trace CSV per cell (unless trace granularity is ``none``)
    and a ``summary.csv``; returns the output directory.  ``output_dir``
    and ``iterations_override`` replace the config's values when given
    (the latter is how the full-scale budget is enabled from the CLI).
    """
    doc, problem, x0, runs = prepare_config(doc, "experiment", iterations_override)
    table, traces = _run_and_write(doc, output_dir, problem, runs, x0, "cell", "summary.csv")
    rows = [_summary_row(name, trace) for (name, _), trace in zip(runs, traces)]
    table.write_text(SUMMARY_CSV.text(rows))
    return table.parent


def run_rates(
    doc: dict | str | Path, output_file: Optional[str | Path] = None
) -> Path:
    """Fit minimal-potential decay slopes for every configured exponent.

    Runs the ``(p, K)`` runs by :func:`_run_named`, writing no trace file.  A
    run whose minimal potential is not positive (one that starts at a
    stationary point) leaves no slope to fit: a :class:`ConfigurationError`,
    as is an output file that names a directory or a parent that names a
    file (both checked before the runs).
    """
    doc, problem, x0, runs = prepare_config(doc, "rates")
    path = Path(output_file if output_file is not None else doc["output"]["file"])
    _output_directory(path.parent)
    _output_file(path)
    traces = _run_named(problem, runs, x0, "run")
    tolerance = doc.get("slope_tolerance", SLOPE_TOLERANCE)
    try:
        fits = rate_fit(doc["p"], doc["k_grid"], traces, tolerance)
    except ValueError as exc:
        raise ConfigurationError(f"rates: {exc}") from exc
    entries = [{**dataclasses.asdict(fit), "p": p, "passed": fit.passed}
               for p, fit in zip(doc["p"], fits)]
    report = {"problem": doc["problem"], "x0": doc["x0"], "fits": entries}
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def classify_terminal(trace: TraceRecord, thresholds: dict) -> str:
    """Label a terminal point by its stationarity signature.

    ``case1``: the multiplier stayed small and the upper gradient nearly
    vanished (both objectives near-stationary).  ``case2``: the gradients
    ended in near-complete opposition with a large multiplier.  Anything
    else is ``unclassified``.
    """
    lam = float(trace.lam[-1])
    gf_sq = float(trace.grad_f_sq[-1])
    cos = float(trace.cos_theta[-1])  # NaN where undefined, which no threshold admits
    if lam <= thresholds["case1_lambda_max"] and gf_sq <= thresholds["case1_grad_f_sq_max"]:
        return "case1"
    if cos <= thresholds["case2_cos_theta_max"] and lam > thresholds["case2_lambda_min"]:
        return "case2"
    return "unclassified"


def run_casestudy(
    doc: dict | str | Path, output_dir: Optional[str | Path] = None
) -> Path:
    """Run one method from several initializations, as one batch, and
    classify endpoints."""
    doc, problem, x0, runs = prepare_config(doc, "casestudy")
    thresholds = {**DEFAULT_CLASSIFY, **doc.get("classify", {})}
    table, traces = _run_and_write(doc, output_dir, problem, runs, x0, "initialization",
                                   "cases.csv")
    labels = [classify_terminal(trace, thresholds) for trace in traces]
    if all(label == "unclassified" for label in labels):
        print(
            "warning: no initialization matched either terminal signature; "
            "check the classification thresholds",
            file=sys.stderr,
        )
    rows = [
        CASES_CSV.row([i, label, *_values(trace, -1, _CASES_FINAL)], trace.cos_defined[-1])
        for i, (label, trace) in enumerate(zip(labels, traces))
    ]
    table.write_text(CASES_CSV.text(rows))
    return table.parent
