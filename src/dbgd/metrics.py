"""Stationarity certificates at a candidate point.

A candidate ``x`` is judged through two families of residuals:

* the pair ``(||grad_f + lam * grad_g||^2, ||grad_g||^2)`` for a
  nonnegative multiplier ``lam``, together with the decomposition of the
  upper gradient into components parallel and orthogonal to the lower
  gradient;
* relaxed KKT conditions of the constrained reformulation
  ``min f s.t. g <= g*`` (scaled, unscaled, and infeasible-stationary
  variants) and of the gradient-based reformulation
  ``min f s.t. grad_g = 0``, whose residual is a Hessian-vector least
  squares problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .direction import DEFAULT_GUARD, lambda_closed_form
from .errors import CapabilityError, EvaluationError
from .problems import ProblemSpec, row_dot

Array = np.ndarray


def decompose_grad_f(grad_f: Array, grad_g: Array) -> tuple[Array, Array]:
    """Split ``grad_f`` into components parallel and orthogonal to ``grad_g``.

    Works row-wise on batches.  Where ``||grad_g||^2 <= DEFAULT_GUARD`` the
    parallel component is zero and the orthogonal component is all of
    ``grad_f``.
    """
    gg = row_dot(grad_g, grad_g)
    degenerate = gg <= DEFAULT_GUARD
    coef = np.where(degenerate, 0.0, row_dot(grad_f, grad_g) / np.where(degenerate, 1.0, gg))
    par = coef[..., None] * grad_g
    return par, grad_f - par


def optimal_multiplier(grad_f: Array, grad_g: Array) -> float:
    """Nonnegative multiplier minimizing ``||grad_f + lam * grad_g||``: the
    halfspace projection's multiplier at level 0."""
    return float(lambda_closed_form(grad_f, grad_g, 0.0)[0])


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

    Pass ``lam=None`` to use the residual-minimizing multiplier instead of
    a caller-supplied one; the report labels which was used.
    """
    x = np.asarray(x, dtype=float)
    gf = problem.eval_grad_f(x)
    gg = problem.eval_grad_g(x)
    if not (np.all(np.isfinite(gf)) and np.all(np.isfinite(gg))):
        raise EvaluationError(f"non-finite gradient at x = {x!r}")

    if lam is None:
        lam_val = optimal_multiplier(gf, gg)
        source = "optimal"
    else:
        if not (lam >= 0.0):
            raise ValueError("lam must be nonnegative")
        lam_val = float(lam)
        source = "given"

    d = gf + lam_val * gg
    par, perp = decompose_grad_f(gf, gg)
    gf_sq = float(gf @ gf)
    gg_sq = float(gg @ gg)
    defined = gf_sq > DEFAULT_GUARD and gg_sq > DEFAULT_GUARD
    if defined:
        cos = float(gf @ gg) / np.sqrt(gf_sq * gg_sq)
        cos = min(1.0, max(-1.0, cos))
    else:
        cos = np.nan

    gap = problem.eval_g(x) - problem.g_star if problem.has_g_star else None
    return StationarityReport(
        grad_g_sq=gg_sq,
        lam=lam_val,
        d_sq=float(d @ d),
        f_par_sq=float(par @ par),
        f_perp_sq=float(perp @ perp),
        cos_theta=cos,
        cos_defined=defined,
        primal_gap=gap,
        lambda_source=source,
    )


def scaled_kkt_ok(
    g_gap: float, d_norm: float, lam: float, eps_p: float, eps_d: float
) -> bool:
    """Scaled conditions: primal gap within ``eps_p`` and dual residual
    within ``eps_d * (1 + lam)``."""
    return lam >= 0.0 and g_gap <= eps_p and d_norm <= eps_d * (1.0 + lam)


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
class KKTReport:
    """Relaxed KKT residuals at a candidate point.

    ``grad_reform_eps_p`` is ``min_w ||grad_f + hess_g w||^2``, the primal
    residual of the gradient-based reformulation; ``grad_reform_eps_d`` is
    ``||grad_g||^2``; ``w_norm`` is the norm of the minimizing auxiliary
    vector.
    """

    eps_p: float
    eps_d: float
    scaled_ok: bool
    unscaled_ok: bool
    infeasible_stationary_ok: bool
    grad_reform_eps_p: float
    grad_reform_eps_d: float
    w_norm: float


def hessian_least_squares(
    problem: ProblemSpec,
    x: Array,
    ls_tol: float = 1e-10,
) -> tuple[Array, float]:
    """Minimize ``||grad_f(x) + hess_g(x) w||^2`` over ``w``.

    Conjugate gradient on the normal equations, using only Hessian-vector
    products.  Iterates until the residual gradient norm falls below
    ``ls_tol * (1 + initial norm)``, for at most ``10 * dim + 50``
    iterations.  Returns ``(w, minimal squared residual)``.
    """
    x = np.asarray(x, dtype=float)
    if not problem.has_hvp:
        raise CapabilityError("hvp_g")
    b = problem.eval_grad_f(x)

    def normal_op(v: Array) -> Array:
        return problem.eval_hvp_g(x, problem.eval_hvp_g(x, v))

    rhs = -problem.eval_hvp_g(x, b)
    w = np.zeros_like(b)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    tol = ls_tol * (1.0 + np.sqrt(float(rhs @ rhs)))
    for _ in range(10 * problem.dim + 50):
        if np.sqrt(rs) <= tol:
            break
        ap = normal_op(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            break  # numerically null direction; current w is optimal on the explored subspace
        step = rs / denom
        w = w + step * p
        r = r - step * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    residual = b + problem.eval_hvp_g(x, w)
    return w, float(residual @ residual)


def kkt_report(
    problem: ProblemSpec,
    x: Array,
    lam: float,
    eps_p: float,
    eps_d: float,
    ls_tol: float = 1e-10,
) -> KKTReport:
    """Evaluate every relaxed KKT condition at ``x``.

    Requires a declared lower optimum (for the primal gap) and a
    Hessian-vector product (for the gradient-based reformulation
    residual); a missing capability raises :class:`CapabilityError` naming
    the field.
    """
    if not problem.has_g_star:
        raise CapabilityError("g_star")
    if not problem.has_hvp:
        raise CapabilityError("hvp_g")
    if not (lam >= 0.0):
        raise ValueError("lam must be nonnegative")

    x = np.asarray(x, dtype=float)
    gf = problem.eval_grad_f(x)
    gg = problem.eval_grad_g(x)
    if not (np.all(np.isfinite(gf)) and np.all(np.isfinite(gg))):
        raise EvaluationError(f"non-finite gradient at x = {x!r}")
    g_gap = problem.eval_g(x) - problem.g_star
    d_norm = float(np.linalg.norm(gf + lam * gg))
    gg_norm = float(np.linalg.norm(gg))

    w, reform_eps_p = hessian_least_squares(problem, x, ls_tol)
    return KKTReport(
        eps_p=eps_p,
        eps_d=eps_d,
        scaled_ok=scaled_kkt_ok(g_gap, d_norm, lam, eps_p, eps_d),
        unscaled_ok=unscaled_kkt_ok(g_gap, d_norm, eps_p, eps_d),
        infeasible_stationary_ok=infeasible_stationary_ok(g_gap, gg_norm, eps_p, eps_d),
        grad_reform_eps_p=reform_eps_p,
        grad_reform_eps_d=gg_norm**2,
        w_norm=float(np.linalg.norm(w)),
    )
