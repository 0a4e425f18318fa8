"""Discrete-time iteration with full trace recording.

Runs ``x_{k+1} = x_k - eta_k * d_k`` where the direction comes from the
dynamic-barrier projection, the orthogonal projection, or a fixed-penalty
combination, and records per-iteration diagnostics: objective values,
gradient norms, the multiplier, the parallel/orthogonal decomposition of
the upper gradient, and the potential
``0.5 ||d_k||^2 + (beta / (L_g eta)) ||grad_g(x_k)||^2`` whose minimizer
over the trace is the certified near-stationary iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

import numpy as np

from .direction import (
    DEFAULT_GUARD,
    BarrierRule,
    BloopOrthogonal,
    GradNormSquared,
    barrier_value,
    bloop_direction,
    dbgd_direction,
    penalty_direction,
)
from .errors import ConfigurationError, DivergenceError
from .metrics import decompose_grad_f
from .problems import ProblemSpec, SmoothnessProfile

Array = np.ndarray


@dataclass(frozen=True)
class Dbgd:
    """Dynamic-barrier method with the given barrier rule."""

    rule: BarrierRule

    @property
    def label(self) -> str:
        """Trace label of the barrier rule."""
        return self.rule.label


@dataclass(frozen=True)
class Penalty:
    """Fixed-multiplier method: direction ``grad_f + lam * grad_g``."""

    label: ClassVar[str] = "penalty"
    lam: float

    def __post_init__(self):
        if not (self.lam >= 0.0):
            raise ValueError("penalty multiplier must be nonnegative")


Method = Union[Dbgd, Penalty]


@dataclass(frozen=True)
class ConstantStep:
    eta: float

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ValueError("eta must be strictly positive")


@dataclass(frozen=True)
class ScheduledStep:
    """Budget-balanced step/barrier schedule with exponent ``p >= 0``.

    Resolves to ``eta = 1 / (L * K^(1/(3+p)))`` and
    ``beta = K^(-p/(3+p))`` for an iteration budget ``K``, where ``L`` is
    the summed gradient Lipschitz constant.  Larger ``p`` trades lower-level
    accuracy for upper-level accuracy.
    """

    p: float

    def __post_init__(self):
        if not (self.p >= 0.0):
            raise ValueError("p must be nonnegative")


StepMode = Union[ConstantStep, ScheduledStep]


def scheduled_step(
    profile: SmoothnessProfile, iterations: int, p: float
) -> tuple[float, float]:
    """Resolve the scheduled step size and barrier weight for a budget.

    Returns ``(eta, beta)`` with ``eta = 1/(L * K^(1/(3+p)))`` and
    ``beta = K^(-p/(3+p))``.
    """
    if iterations < 1:
        raise ValueError("iterations must be a positive integer")
    if not (p >= 0.0):
        raise ValueError("p must be nonnegative")
    k = float(iterations)
    eta = 1.0 / (profile.lip_total * k ** (1.0 / (3.0 + p)))
    beta = k ** (-p / (3.0 + p))
    return eta, beta


@dataclass(frozen=True)
class SolverConfig:
    """Method, step mode, budget, and recording options for one run."""

    method: Method
    step: StepMode
    iterations: int
    guard: float = DEFAULT_GUARD
    scale_penalty_step: bool = True
    record_iterates: str = "final"
    stop_tolerances: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be a positive integer")
        if not (self.guard > 0.0):
            raise ValueError("guard must be strictly positive")
        if self.record_iterates not in ("none", "final", "all"):
            raise ValueError(f"unknown record_iterates {self.record_iterates!r}")
        if self.stop_tolerances is not None:
            ef, eg = self.stop_tolerances
            if not (ef >= 0.0 and eg >= 0.0):
                raise ValueError("stop tolerances must be nonnegative")


@dataclass
class TraceRecord:
    """Per-iteration diagnostics of one run.

    Row ``k`` describes iterate ``x_k`` and the step taken from it;
    ``delta_f`` / ``delta_g`` are the objective decreases
    ``f(x_k) - f(x_{k+1})`` and likewise for ``g``.  ``potential`` is
    ``0.5 d_sq + (beta/(L_g eta)) grad_g_sq`` for barrier runs
    (``potential_kind == "full"``) and ``0.5 d_sq`` for runs without a
    barrier weight (``potential_kind == "direction-only"``).
    ``cos_theta`` is NaN where a gradient vanished; see ``cos_defined``.
    ``clamp_count`` is the number of rows whose ``g_star``-based barrier
    level was clamped at zero because ``g`` lay below ``g_star``.
    """

    f: Array
    g: Array
    grad_f_sq: Array
    grad_g_sq: Array
    lam: Array
    d_sq: Array
    delta_f: Array
    delta_g: Array
    cos_theta: Array
    cos_defined: Array
    f_perp_sq: Array
    f_par_sq: Array
    potential: Array
    degenerate: Array
    eta: float
    beta: Optional[float]
    potential_kind: str
    method_label: str
    step_label: str
    x0: Array
    final_x: Array
    iterates: Optional[Array]
    stopped_early: bool
    clamp_count: int
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.f.shape[0]


def run(problem: ProblemSpec, config: SolverConfig, x0: Array) -> TraceRecord:
    """Execute the iteration and return the complete trace.

    Runs the full budget unless ``stop_tolerances = (eps_f, eps_g)`` is
    set, in which case the run stops at the first iterate with
    ``d_sq <= eps_f`` and ``grad_g_sq <= eps_g``.  Every recorded quantity
    is finite or the run aborts with :class:`DivergenceError` naming the
    iteration.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ConfigurationError(
            f"x0 has shape {x0.shape}, problem dimension is {problem.dim}"
        )
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("x0 must be finite")

    label = config.method.label
    rule = getattr(config.method, "rule", None)
    penalty_lam = getattr(config.method, "lam", None)
    profile = problem.smoothness
    run_warnings: list[str] = []

    if isinstance(config.step, ScheduledStep):
        if not isinstance(rule, GradNormSquared):
            raise ConfigurationError(
                "the scheduled step mode applies to the dynamic-barrier method "
                "with the grad-norm-squared rule only"
            )
        eta, sched_beta = scheduled_step(profile, config.iterations, config.step.p)
        rule = GradNormSquared(sched_beta)
        step_label = "scheduled"
    else:
        eta = config.step.eta
        step_label = "constant"
        if label.startswith("dbgd") and eta > 1.0 / profile.lip_total:
            run_warnings.append(
                f"constant step {eta} exceeds 1/(L_f+L_g) = {1.0 / profile.lip_total}; "
                "descent guarantees may fail"
            )

    if penalty_lam is not None and config.scale_penalty_step:
        eta_eff = eta / (1.0 + penalty_lam)
    else:
        eta_eff = eta

    beta: Optional[float] = getattr(rule, "beta", None)
    if beta is not None:
        potential_kind = "full"
        pot_coef = beta / (profile.lip_grad_g * eta_eff)
    else:
        potential_kind = "direction-only"
        pot_coef = 0.0

    k_max = config.iterations
    cols = {
        name: np.empty(k_max)
        for name in (
            "f", "g", "grad_f_sq", "grad_g_sq", "lam", "d_sq",
            "delta_f", "delta_g", "cos_theta", "f_perp_sq", "f_par_sq",
            "potential",
        )
    }
    cos_defined = np.empty(k_max, dtype=bool)
    degenerate = np.empty(k_max, dtype=bool)
    iterates = np.empty((k_max, problem.dim)) if config.record_iterates == "all" else None

    x = x0.copy()
    f_now = problem.eval_f(x)
    g_now = problem.eval_g(x)
    if not (np.isfinite(f_now) and np.isfinite(g_now)):
        raise DivergenceError(0, "objective value")

    stopped_early = False
    rows = 0
    for k in range(k_max):
        gf = problem.eval_grad_f(x)
        gg = problem.eval_grad_g(x)
        if not (np.all(np.isfinite(gf)) and np.all(np.isfinite(gg))):
            raise DivergenceError(k, "gradient")

        if penalty_lam is not None:
            res = penalty_direction(gf, gg, penalty_lam)
        elif isinstance(rule, BloopOrthogonal):
            res = bloop_direction(gf, gg, rule.beta, config.guard)
        else:
            phi = barrier_value(rule, g_now, gg)
            res = dbgd_direction(gf, gg, phi, config.guard)
        if not (np.all(np.isfinite(res.d)) and np.isfinite(res.lam)):
            raise DivergenceError(k, "direction")

        x_next = x - eta_eff * res.d
        f_next = problem.eval_f(x_next)
        g_next = problem.eval_g(x_next)
        if not (np.isfinite(f_next) and np.isfinite(g_next)):
            raise DivergenceError(k, "objective value")

        gf_sq = float(gf @ gf)
        gg_sq = float(gg @ gg)
        d_sq = float(res.d @ res.d)
        par, perp = decompose_grad_f(gf, gg, config.guard)
        defined = gf_sq > config.guard and gg_sq > config.guard
        if defined:
            cos = float(gf @ gg) / np.sqrt(gf_sq * gg_sq)
            cos = min(1.0, max(-1.0, cos))
        else:
            cos = np.nan

        cols["f"][k] = f_now
        cols["g"][k] = g_now
        cols["grad_f_sq"][k] = gf_sq
        cols["grad_g_sq"][k] = gg_sq
        cols["lam"][k] = res.lam
        cols["d_sq"][k] = d_sq
        cols["delta_f"][k] = f_now - f_next
        cols["delta_g"][k] = g_now - g_next
        cols["cos_theta"][k] = cos
        cols["f_perp_sq"][k] = float(perp @ perp)
        cols["f_par_sq"][k] = float(par @ par)
        cols["potential"][k] = 0.5 * d_sq + pot_coef * gg_sq
        cos_defined[k] = defined
        degenerate[k] = res.degenerate
        if iterates is not None:
            iterates[k] = x
        rows = k + 1

        x, f_now, g_now = x_next, f_next, g_next
        if config.stop_tolerances is not None:
            eps_f, eps_g = config.stop_tolerances
            if d_sq <= eps_f and gg_sq <= eps_g:
                stopped_early = True
                break

    g_star = getattr(rule, "g_star", None)
    clamps = 0 if g_star is None else int(np.count_nonzero(cols["g"][:rows] < g_star))
    return TraceRecord(
        f=cols["f"][:rows],
        g=cols["g"][:rows],
        grad_f_sq=cols["grad_f_sq"][:rows],
        grad_g_sq=cols["grad_g_sq"][:rows],
        lam=cols["lam"][:rows],
        d_sq=cols["d_sq"][:rows],
        delta_f=cols["delta_f"][:rows],
        delta_g=cols["delta_g"][:rows],
        cos_theta=cols["cos_theta"][:rows],
        cos_defined=cos_defined[:rows],
        f_perp_sq=cols["f_perp_sq"][:rows],
        f_par_sq=cols["f_par_sq"][:rows],
        potential=cols["potential"][:rows],
        degenerate=degenerate[:rows],
        eta=eta_eff,
        beta=beta,
        potential_kind=potential_kind,
        method_label=label,
        step_label=step_label,
        x0=x0,
        final_x=x,
        iterates=iterates[:rows] if iterates is not None else None,
        stopped_early=stopped_early,
        clamp_count=clamps,
        warnings=run_warnings,
    )


def best_iterate(trace: TraceRecord) -> int:
    """Index of the minimal-potential row; ties resolve to the smallest index."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    return int(np.argmin(trace.potential))
