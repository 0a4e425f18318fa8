"""Simple bilevel problem instances.

A problem couples an upper objective ``f`` with a lower objective ``g``
over a shared variable ``x`` in R^n; the feasible set of the bilevel
problem is the set of global minimizers of ``g``.  Instances bundle value
and gradient evaluators, an optional known lower optimum ``g*``, and
smoothness constants consumed by step-size schedules and inequality
monitors.

Matrix-valued problems store their variable flattened in row-major order,
so every solver sees a plain vector interface.  Every oracle takes a
single point of shape ``(dim,)`` or a batch of independent points of shape
``(..., dim)``; each row's result is bit for bit the one it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import LowerOptimumError

__all__ = [
    "ProblemSpec", "SmoothnessProfile", "matrix_factorization_problem", "quadratic_sanity_problem",
    "rng", "row_dot", "toy_problem",
]

Array = np.ndarray


def row_dot(a: Array, b: Array) -> Array:
    """Dot products of matching rows of ``(..., dim)`` arrays.

    Bit for bit equal to ``a[i] @ b[i]`` for every row (``einsum`` is
    not); a pair of 1-D vectors gives a scalar.
    """
    return np.vecdot(a, b)


def _as_value(value):
    """A float for one point, the array of row values for a batch."""
    return value if np.ndim(value) else float(value)


def rng(seed: int) -> np.random.Generator:
    """Seeded generator used everywhere randomness is needed.

    Backed by PCG64, a documented 64-bit algorithm that is fixed across
    platforms and numpy releases, so equal seeds reproduce bit-identical
    streams.  All built-in problems, experiment configs, and samplers draw
    from generators created here.
    """
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SmoothnessProfile:
    """Gradient-smoothness constants for a problem.

    ``lip_grad_f`` and ``lip_grad_g`` are Lipschitz constants of the
    gradients of ``f`` and ``g``; ``grad_f_bound`` bounds ``||grad f||``
    (``None`` when no useful bound is declared).  Each constant given must
    be strictly positive and finite.  For nonconvex instances the constants
    are valid on a declared region rather than globally; the region is
    documented by each problem constructor.
    """

    lip_grad_f: float
    lip_grad_g: float
    grad_f_bound: Optional[float] = None

    def __post_init__(self):
        for name in ("lip_grad_f", "lip_grad_g", "grad_f_bound"):
            value = getattr(self, name)
            if not (value is None and name == "grad_f_bound" or 0.0 < value < math.inf):
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")

    @property
    def lip_total(self) -> float:
        """Sum of the two gradient Lipschitz constants."""
        return self.lip_grad_f + self.lip_grad_g


@dataclass(frozen=True)
class ProblemSpec:
    """A simple bilevel instance.

    Evaluators must be re-entrant, and each result must depend on its
    inputs only; an evaluator may keep a memo of its last input (the
    matrix-factorization ``g`` and ``grad_g`` share the residual of their
    last point, which pays where the solver evaluates ``g(x_{k+1})`` right
    before ``grad_g(x_{k+1})``: after each step of a large batch).  A
    constructed instance is immutable and safe to
    share across concurrent runs.

    Parameters
    ----------
    name : str
        Short identifier used in traces and CLI output.
    dim : int
        Dimension of the flattened variable.
    smoothness : SmoothnessProfile
        Constants used by schedules and monitors.
    f, g : callable
        Upper / lower objective: ``x -> float`` for ``x`` of shape
        ``(dim,)``, one value per row for a batch ``(..., dim)``.
    grad_f, grad_g : callable
        Analytic gradients, ``x -> ndarray`` of the shape of ``x``.
    g_star : float, optional
        Known minimum value of ``g``.  When present, every ``eval_g`` call
        checks ``g(x) >= g_star`` on every row and raises
        :class:`LowerOptimumError` naming the first value below it.
    sample : callable, optional
        ``generator -> ndarray`` drawing a representative test point;
        defaults to a standard normal vector.  Used by gradient audits.
    """

    name: str
    dim: int
    smoothness: SmoothnessProfile
    f: Callable[[Array], float]
    g: Callable[[Array], float]
    grad_f: Callable[[Array], Array]
    grad_g: Callable[[Array], Array]
    g_star: Optional[float] = None
    sample: Optional[Callable[[np.random.Generator], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    @property
    def has_g_star(self) -> bool:
        return self.g_star is not None

    def eval_f(self, x: Array):
        return _as_value(self.f(x))

    def eval_g(self, x: Array):
        value = self.g(x)
        if self.g_star is not None:
            below = np.asarray(value) < self.g_star
            if below.any():
                raise LowerOptimumError(np.asarray(value)[below].flat[0], self.g_star)
        return _as_value(value)

    def eval_grad_f(self, x: Array) -> Array:
        return np.asarray(self.grad_f(x), dtype=float)

    def eval_grad_g(self, x: Array) -> Array:
        return np.asarray(self.grad_g(x), dtype=float)

    def sample_point(self, gen: np.random.Generator) -> Array:
        if self.sample is not None:
            return np.asarray(self.sample(gen), dtype=float)
        return gen.standard_normal(self.dim)


def toy_problem() -> ProblemSpec:
    """Two-dimensional nonconvex instance with a sinusoidal lower curve.

    Upper objective ``(x1 + pi/20)^2 + (x2 + 1)^2``; lower objective
    ``(x2 - sin(10 x1))^2``, whose minimizers form the curve
    ``x2 = sin(10 x1)`` with optimum value 0.  The point
    ``(-pi/20, -1)`` lies on the curve and also minimizes the upper
    objective.

    The smoothness constants are valid on the box ``[-4, 4]^2``:
    ``L_f = 2`` exactly, ``L_g = 1220`` from an infinity-norm bound on the
    lower Hessian (``|x2 - sin(10 x1)| <= 5`` on the box), and the
    gradient bound is attained at the corner ``(4, 4)``.
    """

    shift = np.array([math.pi / 20.0, 1.0])

    def f(x: Array) -> Array:
        # products, not ``** 2``, which goes through libm pow for a numpy scalar
        y = x + shift
        a, b = y[..., 0], y[..., 1]
        return a * a + b * b

    def grad_f(x: Array) -> Array:
        return 2.0 * (x + shift)

    def g(x: Array) -> Array:
        e = x[..., 1] - np.sin(10.0 * x[..., 0])
        return e * e

    def grad_g(x: Array) -> Array:
        t = 10.0 * x[..., 0]
        c = np.cos(t)
        e = x[..., 1] - np.sin(t)
        out = np.empty(x.shape)
        out[..., 0] = -20.0 * c * e
        out[..., 1] = 2.0 * e
        return out

    def sample(gen: np.random.Generator) -> Array:
        return gen.uniform(-4.0, 4.0, size=2)

    profile = SmoothnessProfile(
        lip_grad_f=2.0,
        lip_grad_g=1220.0,
        grad_f_bound=2.0 * math.hypot(4.0 + math.pi / 20.0, 5.0),
    )
    return ProblemSpec(
        name="toy",
        dim=2,
        smoothness=profile,
        f=f,
        g=g,
        grad_f=grad_f,
        grad_g=grad_g,
        g_star=0.0,
        sample=sample,
    )


def quadratic_sanity_problem(n: int, box_radius: float = 2.0) -> ProblemSpec:
    """Convex instance with a known closed-form solution, for oracle tests.

    ``f(x) = 0.5 ||x - 1||^2`` and ``g(x) = 0.5 ||x||^2``; the lower
    solution set is the singleton ``{0}``, which is therefore also the
    unique bilevel solution.  Both Hessians are the identity, so the
    smoothness descent inequalities hold with equality and
    ``L_f = L_g = 1`` are exact.  The gradient bound is taken over the box
    ``|x_i| <= box_radius`` (attained at ``-box_radius * ones``).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not (box_radius > 0.0):
        raise ValueError("box_radius must be strictly positive")

    ones = np.ones(n)

    def f(x: Array) -> Array:
        diff = x - ones
        return 0.5 * row_dot(diff, diff)

    def g(x: Array) -> Array:
        return 0.5 * row_dot(x, x)

    def grad_f(x: Array) -> Array:
        return x - ones

    def grad_g(x: Array) -> Array:
        return np.array(x, dtype=float, copy=True)

    def sample(gen: np.random.Generator) -> Array:
        return gen.uniform(-box_radius, box_radius, size=n)

    profile = SmoothnessProfile(
        lip_grad_f=1.0,
        lip_grad_g=1.0,
        grad_f_bound=(1.0 + box_radius) * math.sqrt(n),
    )
    return ProblemSpec(
        name="quadratic",
        dim=n,
        smoothness=profile,
        f=f,
        g=g,
        grad_f=grad_f,
        grad_g=grad_g,
        g_star=0.0,
        sample=sample,
    )


def matrix_factorization_problem(
    n: int,
    r: int,
    alpha: float,
    variant: str = "smooth-l1",
    noise_std: float = 0.1,
    seed: int = 0,
) -> ProblemSpec:
    """Symmetric low-rank reconstruction with a sparsity-promoting upper level.

    A ground-truth factor ``U*`` with seeded standard-normal entries forms
    the target ``M = U* U*^T + eps I`` where ``eps`` is a single normal
    draw with standard deviation ``noise_std``.  The lower objective is
    the reconstruction loss ``g(V) = ||M - V V^T||_F^2``; the upper
    objective is a smooth sparsity surrogate over the entries of the
    factor:

    * ``smooth-l1``:   ``sum_ij sqrt(U_ij^2 + alpha)``
    * ``log-smooth``:  ``sum_ij log(1 + U_ij^2 / alpha)``

    Variables are ``n x r`` matrices stored flattened in row-major order.
    The lower optimum is not declared (``g_star is None``).  The upper
    smoothness constants are global (``L_f = 1/sqrt(alpha)`` respectively
    ``2/alpha``; the gradient bound follows from the entrywise bounds);
    the lower constant is a bound on the reconstruction Hessian over the
    Frobenius ball of radius ``2 * max(1, ||U*||_F)``.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if r > n:
        raise ValueError(f"rank r = {r} exceeds dimension n = {n}")
    if not (alpha > 0.0):
        raise ValueError("alpha must be strictly positive")
    if variant not in ("smooth-l1", "log-smooth"):
        raise ValueError(f"unknown variant {variant!r}")

    gen = rng(seed)
    u_star = gen.standard_normal((n, r))
    eps = noise_std * gen.standard_normal()
    m = u_star @ u_star.T + eps * np.eye(n)
    m = 0.5 * (m + m.T)  # enforce exact symmetry of the BLAS product

    # The oracles work in place: at n = 200, r = 20 the out-of-place forms
    # spent most of their time allocating the (n, n) temporaries.
    if variant == "smooth-l1":

        def f(x: Array) -> Array:
            t = x * x
            t += alpha
            return np.sqrt(t, out=t).sum(axis=-1)

        def grad_f(x: Array) -> Array:
            t = x * x
            t += alpha
            return np.divide(x, np.sqrt(t, out=t), out=t)

        lip_f = 1.0 / math.sqrt(alpha)
        bound_f = math.sqrt(n * r)
    else:

        def f(x: Array) -> Array:
            t = x * x
            t /= alpha
            return np.log1p(t, out=t).sum(axis=-1)

        def grad_f(x: Array) -> Array:
            t = x * x
            t += alpha
            return np.divide(2.0 * x, t, out=t)

        lip_f = 2.0 / alpha
        bound_f = math.sqrt(n * r / alpha)

    def factor(x: Array) -> Array:
        return x.reshape(*x.shape[:-1], n, r)

    # The solver asks for g(x_next), then for grad_g at the same point in
    # the next iteration: the residual of the last point is kept, keyed on
    # the point's type, shape and bytes (not its identity, since an array
    # can change in place).  Callers only read it.
    memo = [(None, None)]

    def residual(x: Array) -> Array:
        key = (x.dtype.str, x.shape, x.tobytes())
        last, res = memo[0]
        if key != last:
            v = factor(x)
            res = v @ v.swapaxes(-1, -2)
            res -= m
            memo[0] = (key, res)
        return res

    def g(x: Array) -> Array:
        # np.square: the bits of res * res (each entry's square, rounded once), in less time
        return np.square(residual(x)).reshape(*x.shape[:-1], n * n).sum(axis=-1)

    def grad_g(x: Array) -> Array:
        out = residual(x) @ factor(x)
        out *= 4.0
        return out.reshape(x.shape)

    def sample(gen: np.random.Generator) -> Array:
        return 0.3 * gen.standard_normal(n * r)

    radius = 2.0 * max(1.0, float(np.linalg.norm(u_star)))
    lip_g = 4.0 * (3.0 * radius**2 + float(np.linalg.norm(m, 2)))

    return ProblemSpec(
        name=f"matfac-{variant}",
        dim=n * r,
        smoothness=SmoothnessProfile(
            lip_grad_f=lip_f, lip_grad_g=lip_g, grad_f_bound=bound_f
        ),
        f=f,
        g=g,
        grad_f=grad_f,
        grad_g=grad_g,
        g_star=None,
        sample=sample,
    )
