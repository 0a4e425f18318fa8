"""Per-iteration direction subproblems.

The core subproblem projects the upper gradient onto a halfspace of
directions that retain a prescribed inner product with the lower
gradient:

    minimize ||grad_f - d||^2   subject to   grad_g . d >= phi,

where ``phi >= 0`` is a barrier level computed from the current iterate.
Its solution is ``d = grad_f + lam * grad_g`` with a closed-form
multiplier.  This module provides the methods, each the rule that picks
the multiplier (the barrier rules and the fixed penalty), the closed-form
solution, the split of the upper gradient into components parallel and
orthogonal to the lower gradient, the orthogonal-projection
(equality-constrained) variant, the fixed-multiplier penalty direction,
and an independent dual-bisection solver used as a correctness oracle
for the closed form.

All operations are pure functions of their arguments and work row-wise:
gradients are one vector ``(dim,)`` or a batch ``(rows, dim)``, and each
per-row quantity (levels, multipliers, rule parameters) is a scalar or
one value per row.  A rule whose fields hold one value per row
drives a batch of runs of that rule at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Union

import numpy as np

from .errors import InfeasibleSubproblemError
from .problems import row_dot

__all__ = [
    "DEFAULT_GUARD", "BarrierRule", "BloopOrthogonal", "DirectionResult", "DynamicBarrierMin",
    "GradNormSquared", "LowerLinearization", "Method", "Penalty", "barrier_value",
    "bloop_direction", "dbgd_direction", "decompose_grad_f", "penalty_direction",
    "qp_oracle_direction",
]

Array = np.ndarray

#: The degeneracy guard on ||grad_g||^2, one rounding-level constant for
#: the whole package (the directions, the gradient decomposition and the
#: cosine).  At or below it the halfspace constraint is treated as vacuous
#: (the barrier level is ~0 there as well), the projection degenerates to
#: the identity and the cosine is undefined.
DEFAULT_GUARD = 1e-24


class _Rule:
    """What a method states about itself for the solver.

    Each rule's ``multiplier(fg, gg_sq, g)`` returns ``(lam, degenerate)``
    of each row from ``fg = grad_f . grad_g``, ``gg_sq = ||grad_g||^2`` and
    the lower value ``g``.  The defaults below are those of a rule without
    a barrier.
    """

    #: The ``beta`` of the potential's barrier weight ``beta / (L_g eta)``,
    #: or ``None`` for a potential of the direction alone.
    potential_beta = None


class _Barrier(_Rule):
    """A dbgd rule: the halfspace projection at the barrier level
    ``level(g, gg_sq)`` of each row."""

    def multiplier(self, fg, gg_sq, g):
        return halfspace_multiplier(fg, gg_sq, self.level(g, gg_sq))


def _check_g_star(rule: _Barrier) -> None:
    """Reject a ``g*``-based rule built without the lower optimum."""
    if rule.g_star is None:
        raise ValueError(f"{rule.label} needs a problem with known g*, got g_star=None")


@dataclass(frozen=True)
class GradNormSquared(_Barrier):
    """Barrier level ``beta * ||grad_g||^2`` with ``0 <= beta <= 1``."""

    label: ClassVar[str] = "dbgd:grad-norm-squared"
    beta: float

    def __post_init__(self):
        beta = np.asarray(self.beta)
        if not np.all((0.0 <= beta) & (beta <= 1.0)):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    potential_beta = property(lambda self: self.beta)

    def level(self, g, gg_sq):
        return self.beta * gg_sq


@dataclass(frozen=True)
class DynamicBarrierMin(_Barrier):
    """Barrier level ``min(alpha * (g - g_star), beta * ||grad_g||^2)``."""

    label: ClassVar[str] = "dbgd:dynamic-barrier-min"
    alpha: float
    beta: float
    g_star: float

    def __post_init__(self):
        _check_g_star(self)
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise ValueError("alpha must be strictly positive")
        if not np.all(np.asarray(self.beta) > 0.0):
            raise ValueError("beta must be strictly positive")

    potential_beta = property(lambda self: self.beta)

    def level(self, g, gg_sq):
        return np.maximum(np.minimum(self.alpha * (g - self.g_star), self.beta * gg_sq), 0.0)


@dataclass(frozen=True)
class LowerLinearization(_Barrier):
    """Barrier level ``(g - g_star) / eta``.

    With ``eta`` equal to the step size this reproduces the projection
    onto a linearization of the lower level around the iterate, the
    classical rule for convex lower objectives.  Its potential is that of
    the direction alone.
    """

    label: ClassVar[str] = "dbgd:lower-linearization"
    g_star: float
    eta: float

    def __post_init__(self):
        _check_g_star(self)
        if not np.all(np.asarray(self.eta) > 0.0):
            raise ValueError("eta must be strictly positive")

    def level(self, g, gg_sq):
        return np.maximum((g - self.g_star) / self.eta, 0.0)


@dataclass(frozen=True)
class BloopOrthogonal(_Rule):
    """Equality-constrained rule: ``beta * grad_g`` plus the component of
    ``grad_f`` orthogonal to ``grad_g``.  Carries no scalar barrier level;
    see :func:`bloop_direction`.
    """

    label: ClassVar[str] = "bloop"
    beta: float

    def __post_init__(self):
        if not np.all(np.asarray(self.beta) >= 0.0):
            raise ValueError("beta must be nonnegative")

    potential_beta = property(lambda self: self.beta)

    def multiplier(self, fg, gg_sq, g):
        return orthogonal_multiplier(fg, gg_sq, self.beta)


#: Each rule's ``label`` names it in the ``method`` column of ``summary.csv``.
BarrierRule = Union[GradNormSquared, DynamicBarrierMin, LowerLinearization, BloopOrthogonal]


@dataclass(frozen=True)
class Penalty(_Rule):
    """Fixed-multiplier method: direction ``grad_f + lam * grad_g``."""

    label: ClassVar[str] = "penalty"
    lam: float

    def __post_init__(self):
        if not np.all(np.asarray(self.lam) >= 0.0):
            raise ValueError("penalty multiplier must be nonnegative")

    def multiplier(self, fg, gg_sq, g):
        return self.lam, False


#: A method is the rule that picks its multiplier.
Method = Union[BarrierRule, Penalty]


def _per_row(value):
    """A per-row value shaped to broadcast against ``(rows, dim)`` vectors."""
    return np.asarray(value)[..., None]


def _safe(gg: Array, degenerate: Array) -> Array:
    """``gg`` with the degenerate rows replaced by 1, to divide by."""
    return np.where(degenerate, 1.0, gg)


def barrier_value(rule: BarrierRule, g_val, grad_g: Array):
    """Barrier level of each row's iterate.

    Always nonnegative: levels computed from a declared ``g_star`` are
    clamped at zero when ``g_val`` falls below ``g_star``, which indicates
    a bad ``g_star``.
    """
    if isinstance(rule, BloopOrthogonal):
        raise ValueError("the orthogonal-projection rule has no scalar barrier level")
    if not isinstance(rule, _Barrier):
        raise TypeError(f"unknown barrier rule {rule!r}")
    return rule.level(g_val, row_dot(grad_g, grad_g))


@dataclass(frozen=True)
class DirectionResult:
    """Direction subproblem output.

    ``lam`` is the constraint multiplier; it is nonnegative except for
    results of :func:`bloop_direction`, whose equality constraint yields a
    signed multiplier.  ``degenerate`` is set when ``||grad_g||^2`` fell at
    or below ``DEFAULT_GUARD`` and the projection degenerated to the identity.
    For a batch, ``d`` has one row per input row, and ``lam`` and
    ``degenerate`` are per-row arrays or a scalar shared by every row.
    """

    d: Array
    lam: Any
    degenerate: Any


def halfspace_multiplier(fg, gg_sq, phi):
    """Multiplier of the halfspace projection from the Gram entries
    ``fg = grad_f . grad_g`` and ``gg_sq = ||grad_g||^2`` of each row.

    Returns ``(max((phi - fg) / gg_sq, 0), False)``, or ``(0, True)`` where
    ``gg_sq <= DEFAULT_GUARD``: the closed form and one home of the dbgd
    multiplier, for :func:`dbgd_direction`, the solver and ``stationarity_report``.
    """
    degenerate = gg_sq <= DEFAULT_GUARD
    lam = np.maximum((phi - fg) / _safe(gg_sq, degenerate), 0.0)
    return np.where(degenerate, 0.0, lam)[()], degenerate


def dbgd_direction(grad_f: Array, grad_g: Array, phi) -> DirectionResult:
    """Euclidean projection of ``grad_f`` onto ``{d : grad_g . d >= phi}``, ``phi >= 0``.

    A NaN level is not rejected: it propagates to ``lam`` and ``d``, so
    that a non-finite gradient reaches the solver's finiteness check.
    """
    if np.any(np.asarray(phi) < 0.0):
        raise ValueError(f"phi must be nonnegative, got {phi}")
    lam, degenerate = halfspace_multiplier(row_dot(grad_f, grad_g), row_dot(grad_g, grad_g), phi)
    return DirectionResult(d=grad_f + _per_row(lam) * grad_g, lam=lam, degenerate=degenerate)


def decompose_grad_f(grad_f: Array, grad_g: Array) -> tuple[Array, Array]:
    """Split ``grad_f`` into components parallel and orthogonal to ``grad_g``.

    Works row-wise on batches.  Where ``||grad_g||^2 <= DEFAULT_GUARD`` the
    parallel component is zero and the orthogonal component is all of
    ``grad_f``.
    """
    gg = row_dot(grad_g, grad_g)
    degenerate = gg <= DEFAULT_GUARD
    coef = np.where(degenerate, 0.0, row_dot(grad_f, grad_g) / _safe(gg, degenerate))
    par = coef[..., None] * grad_g
    return par, grad_f - par


def orthogonal_multiplier(fg, gg_sq, beta):
    """Signed multiplier ``beta - fg / gg_sq`` of the orthogonal projection
    from the Gram entries of each row, with its degeneracy flag; ``0`` where
    ``gg_sq <= DEFAULT_GUARD``.  The one home of the bloop multiplier, for
    :func:`bloop_direction` and the solver.
    """
    degenerate = gg_sq <= DEFAULT_GUARD
    return np.where(degenerate, 0.0, beta - fg / _safe(gg_sq, degenerate))[()], degenerate


def bloop_direction(grad_f: Array, grad_g: Array, beta) -> DirectionResult:
    """Orthogonal-projection direction.

    ``d = beta * grad_g + [grad_f - (grad_f.grad_g / ||grad_g||^2) grad_g]``,
    the solution of the projection subproblem with the equality constraint
    ``grad_g . d = beta * ||grad_g||^2``.  The stored multiplier is the
    signed equality multiplier ``beta - grad_f.grad_g / ||grad_g||^2`` and
    may be negative, unlike the multiplier of :func:`dbgd_direction`.
    At or below ``DEFAULT_GUARD`` the multiplier is 0, so the direction is
    ``grad_f + 0 * grad_g``, as for every rule.
    """
    lam, degenerate = orthogonal_multiplier(row_dot(grad_f, grad_g), row_dot(grad_g, grad_g), beta)
    return DirectionResult(d=grad_f + _per_row(lam) * grad_g, lam=lam, degenerate=degenerate)


def penalty_direction(grad_f: Array, grad_g: Array, lam) -> DirectionResult:
    """Fixed-multiplier direction ``grad_f + lam * grad_g``.

    No constraint is enforced; ``lam >= 0`` is held for the whole run.
    """
    if not np.all(np.asarray(lam) >= 0.0):
        raise ValueError(f"penalty multiplier must be nonnegative, got {lam}")
    return DirectionResult(d=grad_f + _per_row(lam) * grad_g, lam=lam, degenerate=False)


def qp_oracle_direction(
    grad_f: Array, grad_g: Array, phi: float, tol: float = 1e-10
) -> DirectionResult:
    """Independent solver for the halfspace projection, for cross-checks.

    Maximizes the one-dimensional dual by bisection on the complementarity
    residual ``grad_g . (grad_f + lam * grad_g) - phi`` (increasing in
    ``lam``), doubling the upper bracket until the constraint is
    satisfied.  Deliberately avoids the closed form so it can certify it;
    agreement is within ``tol`` in the direction norm.  A NaN level is
    rejected, as a negative one is.
    """
    if not (phi >= 0.0):
        raise ValueError(f"phi must be nonnegative, got {phi}")
    gg = float(grad_g @ grad_g)
    if gg == 0.0:
        if phi > 0.0:
            raise InfeasibleSubproblemError(
                "grad_g = 0 with a positive barrier level: empty feasible set"
            )
        return DirectionResult(d=np.array(grad_f, dtype=float), lam=0.0, degenerate=False)

    fg = float(grad_f @ grad_g)

    def residual(lam: float) -> float:
        return fg + lam * gg - phi

    if residual(0.0) >= 0.0:
        # Constraint inactive at the unconstrained optimum.
        return DirectionResult(d=np.array(grad_f, dtype=float), lam=0.0, degenerate=False)

    hi = 1.0
    while residual(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    norm_g = np.sqrt(gg)
    # Bisect until the multiplier bracket maps to a direction error <= tol.
    for _ in range(20000):
        if (hi - lo) * norm_g <= tol:
            break
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return DirectionResult(d=grad_f + lam * grad_g, lam=lam, degenerate=False)
