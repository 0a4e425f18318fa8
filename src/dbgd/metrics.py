"""Stationarity certificates at a candidate point.

A candidate ``x`` is judged through two families of residuals:

* the pair ``(||grad_f + lam * grad_g||^2, ||grad_g||^2)`` for a
  nonnegative multiplier ``lam``, together with the decomposition of the
  upper gradient into components parallel and orthogonal to the lower
  gradient;
* relaxed KKT conditions of the constrained reformulation
  ``min f s.t. g <= g*``, in an unscaled and an infeasible-stationary
  variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .direction import DEFAULT_GUARD, lambda_closed_form
from .errors import EvaluationError
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
