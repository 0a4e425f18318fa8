"""Discrete-time iteration with per-iteration trace rows.

Runs ``x_{k+1} = x_k - eta_k * d_k`` where the direction comes from the
dynamic-barrier projection, the orthogonal projection, or a fixed-penalty
combination, and records per-iteration diagnostics: objective values,
gradient norms, the multiplier, the parallel/orthogonal decomposition of
the upper gradient, and the potential
``0.5 ||d_k||^2 + (beta / (L_g eta)) ||grad_g(x_k)||^2`` whose minimizer
over the trace is the certified near-stationary iterate.

Each iteration computes what the next one needs: the gradients, their
Gram entries ``grad_g . grad_g`` and ``grad_f . grad_g``, each row's
multiplier from its rule, one direction for the whole batch, the step,
``g`` at the next iterate (the level rules read it), and ``d_sq``, which
it writes into its row with ``grad_g . grad_g``, the multiplier and its
degeneracy flag; it buffers the gradients and the iterate.  A block's end
evaluates ``f`` at its iterates in one call (no step reads ``f``),
computes the decreases and the potential, checks that every row is
finite, counts degenerate steps, and keeps each run's best and last row.
Rows leave the solver one way, a write function (the caller's, or under
``keep="all"`` the engine's own, into a table), which gets every row of a
block with its gradient-geometry columns filled; otherwise the engine
fills them for each run's best and last rows, once, after the last block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

import numpy as np

from .direction import (
    DEFAULT_GUARD,
    BloopOrthogonal,
    DirectionResult,
    Method,
    Penalty,
    _Barrier,
    barrier_value,
    bloop_direction,
    dbgd_direction,
    decompose_grad_f,
    penalty_direction,
)
from .errors import ConfigurationError, DivergenceError
from .problems import ProblemSpec, SmoothnessProfile, row_dot

__all__ = [
    "COLUMNS", "BatchTrace", "SolverConfig", "TraceRecord", "best_iterate", "run",
    "scheduled_step",
]

Array = np.ndarray


def _check_budget(iterations) -> None:
    """Reject a budget that is not a positive integer (a ``bool`` is not one)."""
    if (isinstance(iterations, bool) or not isinstance(iterations, (int, np.integer))
            or iterations < 1):
        raise ValueError(f"iterations must be a positive integer, got {iterations!r}")


def _check_exponent(p) -> None:
    """Reject a schedule exponent that is not a finite nonnegative number."""
    if not (0.0 <= p < np.inf):
        raise ValueError(f"p must be nonnegative and finite, got {p!r}")


def scheduled_step(
    profile: SmoothnessProfile, iterations: int, p: float
) -> tuple[float, float]:
    """Resolve the scheduled step size and barrier weight for a budget.

    Returns ``(eta, beta)`` with ``eta = 1/(L * K^(1/(3+p)))`` and
    ``beta = K^(-p/(3+p))`` for the budget ``K = iterations``, where ``L``
    is the summed gradient Lipschitz constant; a scheduled run is the
    grad-norm-squared rule with this ``beta`` and constant step ``eta``.
    Larger ``p >= 0`` trades lower-level accuracy for upper-level accuracy.
    """
    _check_budget(iterations)
    _check_exponent(p)
    k = float(iterations)
    eta = 1.0 / (profile.lip_total * k ** (1.0 / (3.0 + p)))
    beta = k ** (-p / (3.0 + p))
    return eta, beta


@dataclass(frozen=True)
class SolverConfig:
    """Method, step size, budget and stop rule of one run."""

    method: Method
    eta: float
    iterations: int
    stop_tolerances: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if isinstance(self.eta, bool) or not (0.0 < self.eta < np.inf):
            raise ValueError(f"eta must be a strictly positive finite number, got {self.eta!r}")
        _check_budget(self.iterations)
        if self.stop_tolerances is not None:
            try:
                ef, eg = self.stop_tolerances
            except (TypeError, ValueError):
                raise ValueError(
                    f"stop_tolerances must be a pair (eps_f, eps_g), got {self.stop_tolerances!r}"
                ) from None
            if not (ef >= 0.0 and eg >= 0.0):
                raise ValueError("stop tolerances must be nonnegative")

    def warnings(self, profile: SmoothnessProfile) -> list[str]:
        """Warnings of this run on a problem with ``profile``: a dbgd rule's
        step above ``1/(L_f+L_g)``, where its descent guarantees end."""
        if isinstance(self.method, _Barrier) and self.eta > 1.0 / profile.lip_total:
            return [
                f"constant step {self.eta} exceeds 1/(L_f+L_g) = {1.0 / profile.lip_total}; "
                "descent guarantees may fail"
            ]
        return []


#: Columns of a trace row, in the order of ``TraceRecord.table``: that of
#: the trace CSV (``harness.TRACE_CSV``, which is derived from this list)
#: without ``k``, then ``cos_defined``.  The two flags are stored as 0.0 / 1.0.
COLUMNS = (
    "f", "g", "grad_f_sq", "grad_g_sq", "lam", "d_sq", "cos_theta", "f_perp_sq",
    "f_par_sq", "delta_f", "delta_g", "potential", "degenerate", "cos_defined",
)
(_F, _G, _GRAD_F_SQ, _GRAD_G_SQ, _LAM, _D_SQ, _COS, _F_PERP_SQ, _F_PAR_SQ,
 _DELTA_F, _DELTA_G, _POTENTIAL, _DEGENERATE, _COS_DEFINED) = range(len(COLUMNS))


def _column(name: str, flag: bool = False) -> property:
    i = COLUMNS.index(name)
    if flag:
        return property(lambda self: self.table[:, i] != 0.0, doc=f"``{name}`` flag of each kept row.")
    return property(lambda self: self.table[:, i], doc=f"``{name}`` of each kept row.")


@dataclass
class TraceRecord:
    """Per-iteration diagnostics of one run.

    ``config`` is the :class:`SolverConfig` the run took.  Row ``k``
    describes iterate ``x_k`` and the step taken from it; ``delta_f`` /
    ``delta_g`` are the objective decreases ``f(x_k) - f(x_{k+1})`` and
    likewise for ``g``.  ``potential`` is ``0.5 d_sq + (beta/(L_g eta))
    grad_g_sq``, with ``beta`` the rule's ``potential_beta``, and
    ``0.5 d_sq`` for a rule whose ``potential_beta`` is ``None``.
    ``cos_theta`` is NaN where a gradient vanished; see ``cos_defined``.
    The geometry columns ``grad_f_sq``, ``cos_theta``, ``f_perp_sq``,
    ``f_par_sq`` and ``cos_defined`` are computed for kept rows only.

    ``table`` holds the kept rows, one column per name in ``COLUMNS``,
    each also an attribute (``trace.d_sq``); ``k`` holds their iteration
    indices: every row under ``keep="all"``, and otherwise the
    minimal-potential row (the earliest on ties) followed by the last row.
    ``len(trace)`` counts the rows the run recorded, kept or not, and
    ``degenerate_steps`` the degenerate rows among them.
    """

    table: Array
    k: Array
    config: SolverConfig
    final_x: Array
    stopped_early: bool
    degenerate_steps: int

    f = _column("f")
    g = _column("g")
    grad_f_sq = _column("grad_f_sq")
    grad_g_sq = _column("grad_g_sq")
    lam = _column("lam")
    d_sq = _column("d_sq")
    cos_theta = _column("cos_theta")
    f_perp_sq = _column("f_perp_sq")
    f_par_sq = _column("f_par_sq")
    delta_f = _column("delta_f")
    delta_g = _column("delta_g")
    potential = _column("potential")
    degenerate = _column("degenerate", flag=True)
    cos_defined = _column("cos_defined", flag=True)

    def __len__(self) -> int:
        return int(self.k[-1]) + 1 if len(self.k) else 0


@dataclass(frozen=True)
class BatchTrace:
    """The traces of one batch run, in the order of its configs."""

    traces: tuple[TraceRecord, ...]

    def __len__(self) -> int:
        """Rows recorded over all runs of the batch."""
        return sum(len(trace) for trace in self.traces)

    @property
    def degenerate(self) -> Array:
        """Degenerate steps of each run."""
        return np.array([trace.degenerate_steps for trace in self.traces])


def _stacked(rules: list[Method]) -> Method:
    """One method whose fields hold the values of ``rules``, row by row."""
    first = rules[0]
    return type(first)(**{
        f.name: np.array([getattr(rule, f.name) for rule in rules]) for f in fields(first)
    })


def _groups(configs: list[SolverConfig], cell: Array) -> list[tuple[slice, Method]]:
    """The slice of each run of consecutive same-kind rows, with its
    stacked rule; each takes one multiplier call per iteration."""
    groups, start = [], 0
    for _, members in itertools.groupby(cell.tolist(), key=lambda i: type(configs[i].method)):
        rules = [configs[i].method for i in members]
        groups.append((slice(start, start + len(rules)), _stacked(rules)))
        start += len(rules)
    return groups


def _direction(groups: list[tuple[slice, Method]], gf: Array, gg: Array, gg_sq: Array,
               g_now: Array, lam: Array, degenerate: Array) -> Array:
    """The direction ``gf + lam * gg`` of every row of a batch; fills each
    row's ``lam`` and ``degenerate`` from its rule and the Gram entries."""
    fg = row_dot(gf, gg)
    for rows, rule in groups:
        lam[rows], degenerate[rows] = rule.multiplier(fg[rows], gg_sq[rows], g_now[rows])
    return gf + lam[:, None] * gg


def _library_direction(rule: Method, gf: Array, gg: Array, g_now: Array) -> DirectionResult:
    """The direction of one group by the library's direction functions."""
    if isinstance(rule, Penalty):
        return penalty_direction(gf, gg, rule.lam)
    if isinstance(rule, BloopOrthogonal):
        return bloop_direction(gf, gg, rule.beta)
    return dbgd_direction(gf, gg, barrier_value(rule, g_now, gg))


def _geometry(gf: Array, gg: Array, gg_sq):
    """``(grad_f_sq, cos_theta, f_perp_sq, f_par_sq, cos_defined)`` of rows
    of any leading shape from their gradients and ``gg_sq = ||gg||^2``, for
    the engine and ``stationarity_report``."""
    gf_sq = row_dot(gf, gf)
    par, perp = decompose_grad_f(gf, gg)
    defined = (gf_sq > DEFAULT_GUARD) & (gg_sq > DEFAULT_GUARD)
    cos = row_dot(gf, gg) / np.sqrt(np.where(defined, gf_sq * gg_sq, 1.0))
    cos = np.where(defined, np.minimum(1.0, np.maximum(-1.0, cos)), np.nan)
    return gf_sq, cos, row_dot(perp, perp), row_dot(par, par), defined


def _fill_geometry(rows: Array, gf: Array, gg: Array) -> None:
    """Fill the geometry columns of ``rows[..., column]`` from the rows' gradients."""
    (rows[..., _GRAD_F_SQ], rows[..., _COS], rows[..., _F_PERP_SQ], rows[..., _F_PAR_SQ],
     rows[..., _COS_DEFINED]) = _geometry(gf, gg, rows[..., _GRAD_G_SQ])


class _BestLast:
    """Each run's first minimal-potential row ``table[0]`` and its last row
    ``table[1]``, with their gradients ``gf``, ``gg`` if ``gradients``."""

    def __init__(self, cells: int, dim: int, gradients: bool):
        self.table = np.full((2, cells, len(COLUMNS)), np.inf)
        self.gf, self.gg = np.empty((2, 2, cells, dim)) if gradients else (None, None)
        self.best_k = np.zeros(cells, dtype=int)

    def block(self, k0: int, cell: Array, rows: Array, *gradients: Array) -> None:
        first = rows[:, :, _POTENTIAL].argmin(axis=0)
        runs = np.arange(len(cell))
        better = rows[first, runs, _POTENTIAL] < self.table[0, cell, _POTENTIAL]
        first, runs = first[better], runs[better]
        for mine, theirs in zip((self.table, self.gf, self.gg), (rows, *gradients)):
            mine[0, cell[better]] = theirs[first, runs]
            mine[1, cell] = theirs[-1]
        self.best_k[cell[better]] = k0 + first


#: Bytes of the gradients and iterates a batch buffers, in blocks of at
#: most ``_BLOCK_ITERATIONS`` iterations, before the block's rows are kept
#: or written.
_BLOCK_BYTES = 1 << 20
_BLOCK_ITERATIONS = 256


def _same_bits(mine: Array, theirs) -> bool:
    theirs = np.broadcast_to(np.asarray(theirs, dtype=mine.dtype), mine.shape)
    return mine.tobytes() == np.ascontiguousarray(theirs).tobytes()


def _cross_check(k: int, cell: Array, groups: list[tuple[slice, Method]], gf: Array, gg: Array,
                 g_now: Array, d: Array, lam: Array, degenerate: Array) -> None:
    """Raise unless each group's ``d``, ``lam`` and ``degenerate`` are bit for
    bit those of the library's direction functions (:func:`dbgd_direction`
    with :func:`barrier_value`, :func:`bloop_direction` and
    :func:`penalty_direction`)."""
    for rows, rule in groups:
        ref = _library_direction(rule, gf[rows], gg[rows], g_now[rows])
        if not (_same_bits(d[rows], ref.d) and _same_bits(lam[rows], ref.lam)
                and _same_bits(degenerate[rows], ref.degenerate)):
            raise RuntimeError(
                f"the batch direction of {rule.label} runs {cell[rows].tolist()} at iteration "
                f"{k} differs from the library's"
            )


def _check_finite(k0: int, cell: Array, quantities) -> None:
    """Raise :class:`DivergenceError` unless every array of ``quantities``,
    ``(what, arrays)`` pairs in the order an iteration computes them, is
    finite.  Each array holds ``[iteration, run, ...]`` from iteration
    ``k0`` on.  The error names the first non-finite iteration, at it the
    first non-finite quantity, and the lowest-index config among the runs
    non-finite in any array of that quantity."""
    if all(np.isfinite(a).all() for _, arrays in quantities for a in arrays):
        return
    # [quantity, iteration, run]: the run is non-finite in an array of the quantity
    bad = np.array([sum(~np.isfinite(a).reshape(*a.shape[:2], -1).all(axis=2) for a in arrays)
                    for _, arrays in quantities], dtype=bool)
    j = int(bad.any(axis=(0, 2)).argmax())
    q = int(bad[:, j].any(axis=1).argmax())
    raise DivergenceError(k0 + j, quantities[q][0], int(cell[bad[q, j]].min()))


def run(problem: ProblemSpec, config, x0: Array, keep: Union[str, Callable] = "all"):
    """Execute the iteration and return the trace of each run.

    ``config`` is one :class:`SolverConfig`, which runs as a batch of one
    and returns its :class:`TraceRecord`, or a sequence of them, which run
    as one batch and return a :class:`BatchTrace`.  ``x0`` is one start
    point for every run, or one row per run.  ``keep`` says what each
    trace keeps: ``"all"``, every row, in memory; ``"best-last"``, the
    minimal-potential and last rows, so that memory does not grow with the
    budget; or a function ``write(k0, cell, rows)``, called with every
    row, while each trace keeps its best and last rows.  ``"all"`` is the
    engine's own such function, into a table.  ``write`` takes blocks of up
    to 256 iterations: ``rows[iteration, run, column]``, all columns
    filled, holds iterations ``k0, k0 + 1, ...`` of the runs ``cell``
    (indices of ``config``), and is reused after the call.  A run's blocks
    come in iteration order, and a block holds no row after the run ended.

    A batch advances all its runs as one ``(runs, dim)`` array, each run
    with its own method, step, budget and stop state; a run's trace is bit
    for bit the one it gets alone.  Each run takes its full budget unless
    ``stop_tolerances = (eps_f, eps_g)`` is set, in which case it stops at
    the first iterate with ``d_sq <= eps_f`` and ``grad_g_sq <= eps_g``.
    A run that stops leaves the batch.  Every quantity that decides a run
    (``f``, ``g``, the gradients, ``lam``, ``d_sq``, ``grad_g_sq``, the
    decreases and the potential) is finite or the batch aborts with
    :class:`DivergenceError` naming the first non-finite iteration, its
    first non-finite quantity and, in ``cell``, the lowest index of a run
    non-finite in it.  The check runs once per block, so a diverging run
    steps on non-finite values until its block ends (at most 255 more
    iterations) before the batch aborts; an oracle that raises on
    non-finite input raises its own error from those steps instead.

    The batch forms one direction ``grad_f + lam * grad_g`` from each row's
    multiplier.  On the first iteration of a batch and after each run that
    leaves it, each group of same-kind runs has its direction and
    multiplier checked bit for bit against the library's direction
    functions, and a difference raises ``RuntimeError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned
        if isinstance(config, SolverConfig):
            return _run_batch(problem, [config], x0, keep).traces[0]
        return _run_batch(problem, list(config), x0, keep)


def _run_batch(
    problem: ProblemSpec, configs: list[SolverConfig], x0: Array, keep: Union[str, Callable]
) -> BatchTrace:
    if not configs:
        raise ValueError("a batch needs at least one config")
    cells, dim = len(configs), problem.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((dim,), (cells, dim)):
        raise ConfigurationError(f"x0 has shape {x0.shape}, problem dimension is {dim}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("x0 must be finite")
    budget_max = max(config.iterations for config in configs)
    if keep == "all":
        table = np.empty((budget_max, cells, len(COLUMNS)))

        def write(k0: int, cell: Array, rows: Array) -> None:
            table[k0:k0 + len(rows), cell] = rows
    elif keep == "best-last" or callable(keep):
        write = None if keep == "best-last" else keep
    else:
        raise ValueError(f"unknown keep {keep!r}")
    best_last = _BestLast(cells, dim, gradients=write is None)
    # two gradients and the iterate, 8-byte floats, per run and iteration
    block = max(1, min(_BLOCK_ITERATIONS, budget_max, _BLOCK_BYTES // (24 * cells * dim)))

    # Active row j runs configs[cell[j]].
    cell = np.arange(cells)
    betas = [config.method.potential_beta for config in configs]
    lip_g = problem.smoothness.lip_grad_g
    per_row = {
        "eta": np.array([config.eta for config in configs])[:, None],
        "pot_coef": np.array([0.0 if beta is None else beta / (lip_g * config.eta)
                              for beta, config in zip(betas, configs)]),
        "budget": np.array([config.iterations for config in configs]),
        "tolerance": np.array([config.stop_tolerances or (-np.inf, -np.inf) for config in configs]),
    }
    x = np.broadcast_to(x0, (cells, dim))[cell]
    f_now = problem.eval_f(x)
    g_now = problem.eval_g(x)
    _check_finite(0, cell, [("objective value", (f_now[None], g_now[None]))])

    out = {
        "rows": np.zeros(cells, dtype=int),
        "stopped": np.zeros(cells, dtype=bool),
        "final_x": np.empty((cells, dim)),
        "degenerate": np.zeros(cells, dtype=int),
    }

    def flush(b: int) -> None:
        """End a block of ``b`` iterations: evaluate ``f`` at its iterates,
        fill its rows, check them, count them, then keep each run's best
        and last, and write them."""
        k0, rows, gf, gg = k - b, block_rows[:b], block_gf[:b], block_gg[:b]
        f, g = block_f[:b + 1], block_g[:b + 1]
        f[1:] = problem.eval_f(block_x[:b])
        rows[:, :, _F], rows[:, :, _G] = f[:-1], g[:-1]
        rows[:, :, _DELTA_F], rows[:, :, _DELTA_G] = f[:-1] - f[1:], g[:-1] - g[1:]
        rows[:, :, _POTENTIAL] = 0.5 * rows[:, :, _D_SQ] + pot_coef * rows[:, :, _GRAD_G_SQ]
        _check_finite(k0, cell, (
            ("gradient", (gf, rows[:, :, _GRAD_G_SQ])),
            ("direction", (rows[:, :, _D_SQ], rows[:, :, _LAM])),
            ("objective value", (f[1:], g[1:])),
            ("decrease or potential", (rows[:, :, _DELTA_F:_DEGENERATE],)),
        ))
        out["degenerate"][cell] += (rows[:, :, _DEGENERATE] != 0.0).sum(axis=0)
        if write is None:
            best_last.block(k0, cell, rows, gf, gg)
        else:
            _fill_geometry(rows, gf, gg)
            best_last.block(k0, cell, rows)
            write(k0, cell, rows)
        block_f[0], block_g[0] = f[-1], g[-1]

    k = 0
    while cell.size:
        n = cell.size
        groups = _groups(configs, cell)
        eta, pot_coef = per_row["eta"], per_row["pot_coef"]
        budget = per_row["budget"]
        eps_f, eps_g = per_row["tolerance"].T
        horizon = int(budget.min())
        stopping = bool((eps_f > -np.inf).any())  # -inf: the run has no tolerance
        # One row per iteration of the block, and the iterate each step
        # reached; f and g hold one more, the values at the iterate the
        # block started from.
        block_rows = np.empty((block, n, len(COLUMNS)))
        block_gf, block_gg, block_x = np.empty((3, block, n, dim))
        block_f, block_g = np.empty((2, block + 1, n))
        block_f[0], block_g[0] = f_now, g_now
        buffered, check = 0, True
        while True:
            row = block_rows[buffered]
            gf = block_gf[buffered] = problem.eval_grad_f(x)
            gg = block_gg[buffered] = problem.eval_grad_g(x)
            gg_sq = row[:, _GRAD_G_SQ] = row_dot(gg, gg)
            lam, degenerate = row[:, _LAM], row[:, _DEGENERATE]
            d = _direction(groups, gf, gg, gg_sq, g_now, lam, degenerate)
            if check:  # the first iteration of each segment
                _cross_check(k, cell, groups, gf, gg, g_now, d, lam, degenerate)
                check = False
            x = np.subtract(x, eta * d, out=block_x[buffered])
            g_now = block_g[buffered + 1] = problem.eval_g(x)
            d_sq = row[:, _D_SQ] = row_dot(d, d)
            buffered += 1
            k += 1
            if buffered == block:
                flush(buffered)
                buffered = 0
            if k == horizon or stopping:
                stopped = (d_sq <= eps_f) & (gg_sq <= eps_g)
                done = stopped | (budget == k)
                if done.any():
                    break

        # Retire the runs that ended; the others go on in a smaller batch.
        if buffered:
            flush(buffered)
        ended = cell[done]
        out["rows"][ended] = k
        out["stopped"][ended] = stopped[done]
        out["final_x"][ended] = x[done]
        go_on = ~done
        cell, x, f_now, g_now = cell[go_on], x[go_on], block_f[0, go_on], g_now[go_on]
        per_row = {name: value[go_on] for name, value in per_row.items()}

    if write is None:
        _fill_geometry(best_last.table, best_last.gf, best_last.gg)
    traces = []
    for i, (config, rows) in enumerate(zip(configs, out["rows"].tolist())):
        traces.append(TraceRecord(
            table=table[:rows, i] if keep == "all" else best_last.table[:, i],
            k=np.arange(rows) if keep == "all" else np.array([best_last.best_k[i], rows - 1]),
            config=config,
            final_x=out["final_x"][i],
            stopped_early=bool(out["stopped"][i]),
            degenerate_steps=int(out["degenerate"][i]),
        ))
    return BatchTrace(tuple(traces))


def best_iterate(trace: TraceRecord) -> int:
    """Iteration index of the minimal-potential row; ties resolve to the smallest index."""
    if trace.table.shape[0] == 0:
        raise ValueError("trace is empty")
    return int(trace.k[np.argmin(trace.potential)])
