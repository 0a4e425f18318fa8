"""Certificates at candidate points, independent oracles and property monitors.

A candidate ``x`` is judged by its first-order residuals: the pair
``(||grad_f + lam * grad_g||^2, ||grad_g||^2)`` for a nonnegative
multiplier ``lam`` with the split of the upper gradient along the lower
one, and the relaxed KKT conditions of the reformulation
``min f s.t. g <= g*`` in an unscaled and an infeasible-stationary
variant.

The rest checks an implemented quantity against a route that does not
share code with it: analytic gradients against central differences, the
closed-form projection against descent inequalities evaluated on
recorded traces, candidate points against sampled local-improvement
certificates, and the traces of scheduled runs against the expected
decay of the minimal potential across budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .direction import GradNormSquared, halfspace_multiplier
from .errors import ConfigurationError, EvaluationError
from .problems import ProblemSpec, SmoothnessProfile, rng, row_dot
from .solver import TraceRecord, _geometry

__all__ = [
    "AuditReport", "CertificateResult", "RateFit", "StationarityReport", "finite_diff_check",
    "finite_diff_sweep", "inequality_audit", "infeasible_stationary_ok", "local_certificate",
    "rate_fit", "sample_ball", "sqrt_lemma_check", "sqrt_lemma_violations", "stationarity_report",
    "unscaled_kkt_ok",
]

Array = np.ndarray


def _point(problem: ProblemSpec, x) -> Array:
    """``x`` as a point of ``problem``; another shape is a ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x has shape {x.shape}, problem {problem.name!r} takes ({problem.dim},)")
    return x


#: Coordinates per batched call of :func:`finite_diff_check`: every bundled
#: problem (at most 100 coordinates) takes one call per objective and sign,
#: while a wide problem's batch stays bounded (one matrix-factorization
#: point holds an ``n x n`` residual).
_FD_POINTS = 128


def finite_diff_check(problem: ProblemSpec, x: Array, h: float) -> float:
    """Worst mismatch between analytic and central-difference gradients.

    Compares both objectives coordinate by coordinate and returns the
    maximum of ``|fd_i - grad_i| / (1 + |grad_i|)``.  Each objective is
    evaluated at the points ``x +- h e_i`` in batched calls of up to
    ``_FD_POINTS`` coordinates each, each row of which is its point's
    single-point value.
    """
    if not (h > 0.0):
        raise ValueError("h must be strictly positive")
    x = _point(problem, x)
    worst = 0.0
    for func, grad in ((problem.eval_f, problem.eval_grad_f),
                       (problem.eval_g, problem.eval_grad_g)):
        analytic = grad(x)
        if not np.all(np.isfinite(analytic)):
            raise EvaluationError(f"non-finite gradient at x = {x!r}")
        for i in range(0, problem.dim, _FD_POINTS):
            steps = h * np.eye(min(_FD_POINTS, problem.dim - i), problem.dim, i)
            hi = func(x + steps)
            lo = func(x - steps)
            if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
                raise EvaluationError(f"non-finite objective near x = {x!r}")
            fd = (hi - lo) / (2.0 * h)
            part = analytic[i:i + _FD_POINTS]
            worst = max(worst, float(np.max(np.abs(fd - part) / (1.0 + np.abs(part)))))
    return worst


def finite_diff_sweep(problem: ProblemSpec, points: int = 100, seed: int = 0) -> float:
    """Worst finite-difference error over seeded sample points.

    Each point uses the problem's own sampler and the step
    ``h = 1e-6 * (1 + ||x||)``.  An audit of no point is refused.
    """
    if points < 1:
        raise ValueError(f"points must be a positive integer, got {points}")
    gen = rng(seed)
    worst = 0.0
    for _ in range(points):
        x = problem.sample_point(gen)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        worst = max(worst, finite_diff_check(problem, x, h))
    return worst


_SQRT_SLACK = 1e-12
#: Slack of the descent-inequality audit, relative to the audited side.
_AUDIT_SLACK = 1e-8


def sqrt_lemma_check(a: float, b: float, x: float) -> bool:
    """Check the implication ``x <= a + b*sqrt(x)  =>  x <= 2a + b^2``: the
    one-triple case of :func:`sqrt_lemma_violations`."""
    return sqrt_lemma_violations(a, b, x) == 0


def sqrt_lemma_violations(a: Array, b: Array, x: Array) -> int:
    """Count of the triples of finite ``a`` and finite nonnegative ``b``, ``x``
    where ``x <= a + b*sqrt(x)  =>  x <= 2a + b^2`` fails; the conclusion
    carries a tiny relative slack so exact-boundary cases survive rounding.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    if not (np.isfinite(a).all() and all(((0.0 <= v) & (v < np.inf)).all() for v in (b, x))):
        raise ValueError("a must be finite, and b and x finite and nonnegative")
    premise = x <= a + b * np.sqrt(x)
    bound = 2.0 * a + b * b
    bad = x > bound + _SQRT_SLACK * (1.0 + np.abs(bound))
    return int(np.count_nonzero(premise & bad))


@dataclass(frozen=True)
class AuditReport:
    """Per-iteration outcomes of the descent-inequality monitors.

    Boolean arrays are True where the inequality held (within slack):

    * ``upper_descent``:    ``(1 - eta*L_f/2) d_sq <= delta_f/eta + lam*beta*grad_g_sq``
    * ``lower_descent``:    ``beta*grad_g_sq <= delta_g/eta + (L_g/2)*eta*d_sq``
    * ``multiplier_bound``: ``lam <= beta + G_f/||grad_g||``
    * ``direction_bound``:  ``d_sq <= 4(delta_f+beta*delta_g)/eta + 2*delta_g/(L_g eta^2) + 2 beta G_f^2 L_g eta``
    * ``potential_bound``:  ``d_sq/2 + beta*grad_g_sq/(L_g eta) <= 4(delta_f+beta*delta_g)/eta + 3*delta_g/(L_g eta^2) + 2 beta G_f^2 L_g eta``
    """

    upper_descent: Array
    lower_descent: Array
    multiplier_bound: Array
    direction_bound: Array
    potential_bound: Array

    @property
    def violations(self) -> dict[str, int]:
        return {f.name: int(np.count_nonzero(~getattr(self, f.name))) for f in fields(self)}

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def inequality_audit(trace: TraceRecord, profile: SmoothnessProfile) -> AuditReport:
    """Audit a dynamic-barrier trace against its descent bounds.

    Valid only for the grad-norm-squared rule; the bounds take the run's own
    step size and barrier weight (``trace.config.eta``,
    ``trace.config.method.beta``), and the profile constants must hold over
    the recorded trajectory for the outcome to be meaningful.
    All slacks (``_AUDIT_SLACK``, 1e-8) are relative to the magnitude of
    the audited side (the multiplier bound uses a fixed ``1e-12``).
    """
    method = trace.config.method
    if not isinstance(method, GradNormSquared):
        raise ConfigurationError(
            f"inequality audit needs a dynamic-barrier grad-norm-squared trace, "
            f"got {method.label!r}"
        )
    if profile.grad_f_bound is None:
        raise ConfigurationError(
            "inequality audit needs a smoothness profile with grad_f_bound, got None"
        )

    lf, lg, gf_bound = profile.lip_grad_f, profile.lip_grad_g, profile.grad_f_bound
    eta, beta = trace.config.eta, method.beta
    d_sq, gg_sq = trace.d_sq, trace.grad_g_sq
    lam, df, dg = trace.lam, trace.delta_f, trace.delta_g

    lhs = (1.0 - eta * lf / 2.0) * d_sq
    upper = lhs <= df / eta + lam * beta * gg_sq + _AUDIT_SLACK * (1.0 + d_sq)

    lhs = beta * gg_sq
    lower = lhs <= dg / eta + 0.5 * lg * eta * d_sq + _AUDIT_SLACK * (1.0 + np.abs(lhs))

    with np.errstate(divide="ignore"):
        mult_rhs = beta + gf_bound / np.sqrt(gg_sq)
    mult = lam <= mult_rhs + 1e-12

    rhs = 4.0 * (df + beta * dg) / eta + 2.0 * dg / (lg * eta**2) \
        + 2.0 * beta * gf_bound**2 * lg * eta
    direction = d_sq <= rhs + _AUDIT_SLACK * (1.0 + d_sq)

    lhs = 0.5 * d_sq + beta * gg_sq / (lg * eta)
    rhs = 4.0 * (df + beta * dg) / eta + 3.0 * dg / (lg * eta**2) \
        + 2.0 * beta * gf_bound**2 * lg * eta
    potential = lhs <= rhs + _AUDIT_SLACK * (1.0 + lhs)

    return AuditReport(
        upper_descent=upper,
        lower_descent=lower,
        multiplier_bound=mult,
        direction_bound=direction,
        potential_bound=potential,
    )


@dataclass(frozen=True)
class StationarityReport:
    """First-order residuals at a candidate point.

    ``lam`` is the multiplier used for ``d_sq = ||grad_f + lam grad_g||^2``;
    ``lambda_source`` records whether it was supplied by the caller
    (``"given"``, typically the solver's multiplier at that iterate) or
    chosen to minimize the residual (``"optimal"``).  ``cos_theta`` is NaN
    with ``cos_defined = False`` when either gradient vanished.
    ``primal_gap`` is ``g(x) - g*`` when the lower optimum is known.
    """

    grad_g_sq: float
    lam: float
    d_sq: float
    f_par_sq: float
    f_perp_sq: float
    cos_theta: float
    cos_defined: bool
    primal_gap: Optional[float]
    lambda_source: str


def stationarity_report(
    problem: ProblemSpec, x: Array, lam: Optional[float] = None
) -> StationarityReport:
    """Evaluate all first-order residuals at ``x`` from fresh gradients.

    Pass ``lam=None`` to use the residual-minimizing multiplier (the dbgd
    multiplier at level 0) instead of a caller-supplied one; the report
    labels which was used.  The split and the cosine are the engine's.
    """
    x = _point(problem, x)
    gf = problem.eval_grad_f(x)
    gg = problem.eval_grad_g(x)
    if not (np.all(np.isfinite(gf)) and np.all(np.isfinite(gg))):
        raise EvaluationError(f"non-finite gradient at x = {x!r}")
    gg_sq = row_dot(gg, gg)
    _, cos, perp_sq, par_sq, defined = _geometry(gf, gg, gg_sq)

    if lam is None:
        lam_val = float(halfspace_multiplier(row_dot(gf, gg), gg_sq, 0.0)[0])
        source = "optimal"
    else:
        if not (lam >= 0.0):
            raise ValueError("lam must be nonnegative")
        lam_val = float(lam)
        source = "given"

    d = gf + lam_val * gg
    gap = problem.eval_g(x) - problem.g_star if problem.has_g_star else None
    return StationarityReport(
        grad_g_sq=float(gg_sq),
        lam=lam_val,
        d_sq=float(d @ d),
        f_par_sq=float(par_sq),
        f_perp_sq=float(perp_sq),
        cos_theta=float(cos),
        cos_defined=bool(defined),
        primal_gap=gap,
        lambda_source=source,
    )


def unscaled_kkt_ok(g_gap: float, d_norm: float, eps_p: float, eps_d: float) -> bool:
    """Unscaled conditions: dual residual within ``eps_d`` independently of
    the multiplier."""
    return g_gap <= eps_p and d_norm <= eps_d


def infeasible_stationary_ok(
    g_gap: float, grad_g_norm: float, eps_p: float, eps_d: float
) -> bool:
    """Infeasible stationarity: the gap stays at least ``0.99 eps_p`` while
    the constraint gradient is within ``eps_d``."""
    return g_gap >= 0.99 * eps_p and grad_g_norm <= eps_d


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a sampled local-improvement certificate.

    Margins are the minimum over samples of the certified inequality's
    slack; a negative margin is a violation.  ``upper_checked`` counts the
    samples that did not increase the lower objective (only those are
    subject to the upper condition); the upper margin is ``inf`` when none
    qualified.
    """

    passed: bool
    lower_margin: float
    upper_margin: float
    upper_checked: int
    samples: int


def sample_ball(
    center: Array, radius: float, samples: int, gen: np.random.Generator
) -> Array:
    """Uniform samples from the closed ball around ``center``.

    Normalized Gaussian directions scaled by ``radius * u^(1/n)`` with
    uniform ``u``, the standard volume-uniform construction.
    """
    n = center.shape[0]
    z = gen.standard_normal((samples, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    scale = radius * gen.random(samples) ** (1.0 / n)
    return center + scale[:, None] * z


def local_certificate(
    problem: ProblemSpec,
    x_hat: Array,
    eps_f: float,
    eps_g: float,
    delta: float,
    radius: float,
    samples: int,
    seed: int = 0,
) -> CertificateResult:
    """Sampled check that no markedly better point exists near ``x_hat``.

    Draws uniform points in the ball of the given radius and verifies

    * ``g(x) >= g(x_hat) - (1+delta) sqrt(eps_g) ||x - x_hat||`` for all
      samples, and
    * ``f(x) >= f(x_hat) - (1+delta) sqrt(eps_f) ||x - x_hat||`` for the
      samples with ``g(x) <= g(x_hat)``.

    ``eps_f``, ``eps_g`` and ``delta`` must be nonnegative, and ``f`` and
    ``g`` finite where evaluated (an :class:`EvaluationError` otherwise).
    """
    if not (radius > 0.0):
        raise ValueError("radius must be strictly positive")
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    for name, value in (("eps_f", eps_f), ("eps_g", eps_g), ("delta", delta)):
        if not (value >= 0.0):
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
    x_hat = _point(problem, x_hat)
    points = sample_ball(x_hat, radius, samples, rng(seed))
    diff = points - x_hat
    dist = np.sqrt(row_dot(diff, diff))

    f_hat = problem.eval_f(x_hat)
    g_hat = problem.eval_g(x_hat)
    g_val = problem.eval_g(points)
    checked = g_val <= g_hat
    f_val = problem.eval_f(points[checked])
    if not all(np.isfinite(v).all() for v in (f_hat, g_hat, g_val, f_val)):
        raise EvaluationError(f"non-finite objective near x_hat = {x_hat!r}")

    sf, sg = math.sqrt(eps_f), math.sqrt(eps_g)
    lower_margin = float(np.min(g_val - g_hat + (1.0 + delta) * sg * dist))
    upper_margin = float(np.min(f_val - f_hat + (1.0 + delta) * sf * dist[checked],
                                initial=math.inf))
    return CertificateResult(
        passed=lower_margin >= 0.0 and upper_margin >= 0.0,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        upper_checked=int(np.count_nonzero(checked)),
        samples=samples,
    )


#: The default of :func:`rate_fit`'s ``slope_tolerance``, and of a rates
#: config's.
SLOPE_TOLERANCE = 0.3


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the minimal potential against the iteration budget.

    The scheduled method guarantees decay at least as fast as
    ``K^(-(2+p)/(3+p))``; the fit passes when the empirical slope is at
    most the theoretical one plus the tolerance (faster decay is fine).
    """

    k_values: tuple[int, ...]
    min_potentials: tuple[float, ...]
    fitted_slope: float
    theoretical_slope: float
    slope_tolerance: float

    @property
    def passed(self) -> bool:
        return self.fitted_slope <= self.theoretical_slope + self.slope_tolerance


def rate_fit(
    ps: list[float], k_grid: list[int], traces: Sequence[TraceRecord],
    slope_tolerance: float = SLOPE_TOLERANCE,
) -> list[RateFit]:
    """Fit the decay slope of the minimal potential across budgets.

    ``traces`` holds one scheduled run per ``(p, K)`` pair, ``p`` outermost
    (``p`` of ``ps``, ``K`` of ``k_grid``); returns one fit per exponent of
    ``ps``, in order.  A line through fewer than 3 distinct budgets fits
    nothing, so ``k_grid`` must hold at least 3, and neither ``k_grid`` nor
    ``ps`` may repeat a value.
    """
    if len(set(k_grid)) < 3:
        raise ValueError("k_grid must contain at least 3 distinct budgets")
    for name, values in (("k_grid", k_grid), ("ps", ps)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} repeats {repeated[0]!r}")
    if len(traces) != len(ps) * len(k_grid):
        raise ValueError(f"got {len(traces)} traces for {len(ps)} x {len(k_grid)} (p, K) pairs")
    traces = iter(traces)
    fits = []
    for p in ps:
        minima = []
        for k in k_grid:
            best = float(np.min(next(traces).potential))
            if not (best > 0.0):
                raise ValueError(
                    f"minimal potential {best} at K = {k} is not positive; "
                    "cannot fit a log-log slope"
                )
            minima.append(best)
        slope = float(np.polyfit(np.log(np.asarray(k_grid, dtype=float)),
                                 np.log(np.asarray(minima)), 1)[0])
        fits.append(RateFit(
            k_values=tuple(int(k) for k in k_grid),
            min_potentials=tuple(minima),
            fitted_slope=slope,
            theoretical_slope=-(2.0 + p) / (3.0 + p),
            slope_tolerance=slope_tolerance,
        ))
    return fits
