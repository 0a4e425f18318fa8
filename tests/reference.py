"""A textbook loop of one run: the batch engine's independent route.

``reference_run`` steps one point ``x_{k+1} = x_k - eta d_k`` with the
problem's oracles, writes each method's multiplier out in Python floats
from the fields of its rule, and evaluates ``f`` and ``g`` at the next
point.  It calls no function of ``dbgd.direction`` or ``dbgd.solver``:
the multipliers, the potential, the stop rule and the gradient-geometry
columns are written here from their definitions, so that the engine
(blocks, kind groups, retirement, what ``keep`` keeps) can be checked
against it row by row.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dbgd import (
    DEFAULT_GUARD,
    BloopOrthogonal,
    DynamicBarrierMin,
    GradNormSquared,
    LowerLinearization,
    Penalty,
)


@dataclass
class Reference:
    """Every row of a run, one dict of columns per iteration, and how it ended."""

    rows: list
    final_x: np.ndarray
    stopped: bool
    beta: Optional[float]


def potential_beta(rule) -> Optional[float]:
    """The ``beta`` of the potential's barrier weight ``beta / (L_g eta)``,
    or ``None`` where the potential is that of the direction alone."""
    if isinstance(rule, (GradNormSquared, DynamicBarrierMin, BloopOrthogonal)):
        return rule.beta
    return None


def multiplier(rule, fg: float, gg_sq: float, g: float) -> tuple[float, bool]:
    """``lam`` of ``d = grad_f + lam grad_g`` and whether the step degenerated."""
    if isinstance(rule, Penalty):
        return rule.lam, False
    if gg_sq <= DEFAULT_GUARD:
        return 0.0, True
    if isinstance(rule, BloopOrthogonal):  # grad_g . d = beta ||grad_g||^2
        return rule.beta - fg / gg_sq, False
    if isinstance(rule, GradNormSquared):  # the barrier level phi
        phi = rule.beta * gg_sq
    elif isinstance(rule, DynamicBarrierMin):
        phi = max(min(rule.alpha * (g - rule.g_star), rule.beta * gg_sq), 0.0)
    else:
        assert isinstance(rule, LowerLinearization)
        phi = max((g - rule.g_star) / rule.eta, 0.0)
    return max((phi - fg) / gg_sq, 0.0), False  # the halfspace grad_g . d >= phi


def geometry(gf: np.ndarray, gg: np.ndarray, gg_sq: float, fg: float) -> dict:
    """The split of ``grad_f`` along ``grad_g`` and the cosine between them."""
    gf_sq = float(gf @ gf)
    par = (0.0 if gg_sq <= DEFAULT_GUARD else fg / gg_sq) * gg
    perp = gf - par
    defined = gf_sq > DEFAULT_GUARD and gg_sq > DEFAULT_GUARD
    cos = min(1.0, max(-1.0, fg / math.sqrt(gf_sq * gg_sq))) if defined else math.nan
    return {"grad_f_sq": gf_sq, "cos_theta": cos, "f_perp_sq": float(perp @ perp),
            "f_par_sq": float(par @ par), "cos_defined": defined}


def reference_run(problem, config, x0) -> Reference:
    """Run ``config`` (a ``SolverConfig``) on ``problem`` from ``x0``."""
    rule, eta, tol = config.method, config.eta, config.stop_tolerances
    beta = potential_beta(rule)
    x = np.array(x0, dtype=float)
    f, g = problem.eval_f(x), problem.eval_g(x)
    rows, stopped = [], False
    while len(rows) < config.iterations and not stopped:
        gf, gg = problem.eval_grad_f(x), problem.eval_grad_g(x)
        gg_sq, fg = float(gg @ gg), float(gf @ gg)
        lam, degenerate = multiplier(rule, fg, gg_sq, g)
        d = gf + lam * gg
        x = x - eta * d
        f_next, g_next = problem.eval_f(x), problem.eval_g(x)
        d_sq = float(d @ d)
        potential = 0.5 * d_sq
        if beta is not None:
            potential += beta / (problem.smoothness.lip_grad_g * eta) * gg_sq
        rows.append({"f": f, "g": g, "grad_g_sq": gg_sq, "lam": lam, "d_sq": d_sq,
                     "delta_f": f - f_next, "delta_g": g - g_next, "potential": potential,
                     "degenerate": degenerate, **geometry(gf, gg, gg_sq, fg)})
        f, g = f_next, g_next
        # the first iterate with d_sq <= eps_f and grad_g_sq <= eps_g ends the run
        stopped = tol is not None and d_sq <= tol[0] and gg_sq <= tol[1]
    return Reference(rows, x, stopped, beta)
