"""Integral pseudospectral solver for singular second-order boundary problems.

Solves   y'' + (a2/x) y' + f(x, y) = 0   on (0, b]
with     y'(0) = a1   and   beta*y(b) + gamma*y'(b) = delta,

where f(x, y) = p(x)*y - g(x) in the linear case.  The unknown is the vector
Phi of second-derivative values at the shifted Gauss-Radau nodes; y' and y are
recovered through the first- and second-order integration matrices, which
turns the singular differential problem into a dense algebraic system with no
differentiation matrices involved.

Both boundary branches are one system F(z) = 0 with Jacobian J(z), where

    F(z) = H Phi + f(x, y(z)) + a1*a2/x,   H = I + a2 * Q1 / x.

For beta != 0 (Robin) the right-endpoint condition eliminates y(0): z = Phi
and y = xbar + Theta Phi.  For beta = 0 (Neumann) y(0) is an extra unknown:
z = (Phi, y0), y = a1*x + Q2 Phi + y0, and F gains the border row
Q1[0] Phi = delta/gamma - a1.  A linear problem is solved by one exact Newton
step from z = 0; a nonlinear one by one damped Newton run from z = 0.  Newton
stops when the residual or the step falls to _NEWTON_TOL.  If the line search
stalls first, z counts as converged only when max|F(z)| is at the rounding
level of evaluating F (4 eps times the largest row of |H||Phi| + |f| +
|a1*a2/x|, plus the border row on the Neumann branch) and the Newton step is
below sqrt(eps)*max|z|; otherwise NonlinearSolveError is raised.  An exactly
singular J (p = 0 on the Neumann branch leaves y(0) free) gets the
minimum-norm least-squares step and kappa_inf = inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisConfig, NodeSet
from .quadrature import IntegrationOperators, build_operators, interpolate

__all__ = [
    "ProblemSpec",
    "SolverResult",
    "NonlinearSolveError",
    "solve",
    "solve_problem",
]

#: Newton stopping: max-norm step or residual at/below this level.
_NEWTON_TOL = 1e-13
_NEWTON_MAXITER = 200
_ARMIJO_HALVINGS = 30
_FD_STEP = 1e-7
#: A stalled line search converged if max|F| <= _FLOOR_FACTOR * eps * (largest
#: row of |terms| of F) and max|step| <= _STEP_RTOL * max|z|.
_FLOOR_FACTOR = 4.0
_STEP_RTOL = math.sqrt(np.finfo(float).eps)


class NonlinearSolveError(RuntimeError):
    """Raised when the damped Newton iteration fails to converge."""


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary-value problem data for y'' + (a2/x) y' + f(x, y) = 0.

    Boundary conditions are y'(0) = alpha1 and beta*y(b) + gamma*y'(b) = delta.
    Linear problems supply p and g with f(x, y) = p(x)*y - g(x); nonlinear
    problems supply f(x, y) and optionally its partial derivative dfdy.
    The scalar data, and p and g at the nodes, must be finite.
    """

    kind: str
    alpha1: float
    alpha2: float
    beta: float
    gamma: float
    delta: float
    b: float = 1.0
    p: Callable | None = None
    g: Callable | None = None
    f: Callable | None = None
    dfdy: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "nonlinear"):
            raise ValueError(f"kind must be 'linear' or 'nonlinear', got {self.kind!r}")
        for name in ("alpha1", "alpha2", "beta", "gamma", "delta", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.b <= 0:
            raise ValueError(f"interval length must be positive, got {self.b}")
        if self.beta == 0 and self.gamma == 0:
            raise ValueError("beta and gamma cannot both vanish")
        if self.kind == "linear" and (self.p is None or self.g is None):
            raise ValueError("linear problems require both p and g")
        if self.kind == "nonlinear" and self.f is None:
            raise ValueError("nonlinear problems require f")


@dataclass(frozen=True)
class SolverResult:
    """Solution data at the collocation nodes plus solver diagnostics.

    ``phi`` holds the computed y'' values at the nodes; ``kappa_inf`` is set
    for linear solves only and ``newton_iters``/``step_norms`` for nonlinear
    ones.  ``evaluate`` interpolates y off the nodes (exactly y0 at x = 0).
    """

    spec: ProblemSpec
    nodeset: NodeSet
    phi: np.ndarray
    y_nodes: np.ndarray
    y0: float
    yprime_nodes: np.ndarray
    residual_nodes: np.ndarray
    kappa_inf: float | None = None
    newton_iters: int | None = None
    step_norms: tuple[float, ...] | None = None

    def __post_init__(self):
        for arr in (self.phi, self.y_nodes, self.yprime_nodes, self.residual_nodes):
            arr.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.nodeset.nodes

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the approximate solution at arbitrary points of [0, b].

        x = 0 returns the recovered y(0).  Every other point gets the
        barycentric interpolant of the node values, which is a node's value
        at that node (y at b included).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.where(x == 0.0, self.y0, interpolate(self.nodeset, self.y_nodes, x))


def _condition_inf(a: np.ndarray) -> float:
    """Infinity-norm condition number, +inf for a singular matrix."""
    try:
        return float(
            np.linalg.norm(a, np.inf) * np.linalg.norm(np.linalg.inv(a), np.inf)
        )
    except np.linalg.LinAlgError:
        return math.inf


def _linear_step(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct solve; minimum-norm least squares only for an exactly singular a."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, rhs, rcond=None)[0]


def _dfdy_or_fd(spec: ProblemSpec) -> Callable:
    """Analytic df/dy when supplied, else a central finite difference in y."""
    if spec.dfdy is not None:
        return spec.dfdy

    def fd(x, y):
        h = _FD_STEP * np.maximum(1.0, np.abs(y))
        return (spec.f(x, y + h) - spec.f(x, y - h)) / (2.0 * h)

    return fd


def _damped_newton(residual_fn, jacobian_fn, scale_fn, z0: np.ndarray):
    """Newton iteration with Armijo backtracking on the max-norm residual.

    ``scale_fn(z)`` is the largest row sum of the magnitudes of the terms of
    F(z); it sets the rounding floor that ends a stalled line search.
    """
    z = np.asarray(z0, dtype=float).copy()
    steps: list[float] = []
    fval = residual_fn(z)
    fnorm = float(np.max(np.abs(fval)))
    if not np.isfinite(fnorm):
        raise NonlinearSolveError("residual not finite at the initial guess")
    for it in range(1, _NEWTON_MAXITER + 1):
        if fnorm <= _NEWTON_TOL:
            return z, it - 1, steps
        step = _linear_step(jacobian_fn(z), -fval)
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS + 1):
            # A trial step may overflow f; the isfinite test rejects it.
            with np.errstate(over="ignore", invalid="ignore"):
                trial = z + t * step
                f_trial = residual_fn(trial)
                f_trial_norm = float(np.max(np.abs(f_trial)))
            if np.isfinite(f_trial_norm) and f_trial_norm <= (1.0 - 1e-4 * t) * fnorm:
                break
            t *= 0.5
        else:
            floor = _FLOOR_FACTOR * np.finfo(float).eps * scale_fn(z)
            if fnorm <= floor and np.max(np.abs(step)) <= _STEP_RTOL * np.max(np.abs(z)):
                return z, it - 1, steps
            raise NonlinearSolveError(
                f"line search stalled at iteration {it} "
                f"(residual {fnorm:.3e}, rounding floor {floor:.3e})"
            )
        z, fval, fnorm = trial, f_trial, f_trial_norm
        steps.append(float(np.max(np.abs(t * step))))
        if steps[-1] <= _NEWTON_TOL or fnorm <= _NEWTON_TOL:
            return z, it, steps
    raise NonlinearSolveError(
        f"no convergence within {_NEWTON_MAXITER} iterations (residual {fnorm:.3e})"
    )


def solve(spec: ProblemSpec, ops: IntegrationOperators) -> SolverResult:
    """Solve F(z) = 0 on either boundary branch (see the module docstring)."""
    x, q1, q2 = ops.nodes, ops.q1_shifted, ops.q2_shifted
    m = x.size
    if m < 2:  # the one-node rule collocates at b alone and returns a wrong y0
        raise ValueError(f"n must be at least 1, got {m - 1}")
    robin = spec.beta != 0
    h = np.eye(m) + spec.alpha2 * (q1 / x[:, None])
    sing = spec.alpha1 * spec.alpha2 / x
    if spec.kind == "linear":
        pvals = np.broadcast_to(np.asarray(spec.p(x), dtype=float), x.shape)
        gvals = np.broadcast_to(np.asarray(spec.g(x), dtype=float), x.shape)
        for name, vals in (("p", pvals), ("g", gvals)):
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name}(x) is not finite at every node")

        def f(_, y):
            return pvals * y - gvals

        def dfdy(_, y):
            return pvals
    else:
        f, dfdy = spec.f, _dfdy_or_fd(spec)

    if robin:  # z = Phi
        xbar = (spec.delta - spec.gamma * spec.alpha1) / spec.beta + spec.alpha1 * (x - spec.b)
        theta = q2 - (q2[0] + (spec.gamma / spec.beta) * q1[0])[None, :]

        def y_map(z):
            return xbar + theta @ z
    else:  # z = (Phi, y0)
        theta = q2
        border = spec.delta / spec.gamma - spec.alpha1

        def y_map(z):
            return z[m] + spec.alpha1 * x + q2 @ z[:m]

    def residual(z):
        fz = h @ z[:m] + f(x, y_map(z)) + sing
        return fz if robin else np.append(fz, q1[0] @ z[:m] - border)

    def jacobian(z):
        # H + f_y * dy/dPhi formed in place; Neumann borders it with the
        # column dF/dy0 = f_y and the row of the right-end condition.
        fy = dfdy(x, y_map(z))
        jac = np.zeros((z.size, z.size))
        np.multiply(fy[:, None], theta, out=jac[:m, :m])
        jac[:m, :m] += h
        if not robin:
            jac[:m, m] = fy
            jac[m, :m] = q1[0]
        return jac

    def scale(z):
        rows = np.abs(h) @ np.abs(z[:m]) + np.abs(f(x, y_map(z))) + np.abs(sing)
        if not robin:
            rows = np.append(rows, np.abs(q1[0]) @ np.abs(z[:m]) + abs(border))
        return float(np.max(rows))

    z0 = np.zeros(m if robin else m + 1)
    if spec.kind == "linear":
        jac = jacobian(z0)
        z = z0 + _linear_step(jac, -residual(z0))
        diag = {"kappa_inf": _condition_inf(jac)}
    else:
        z, iters, steps = _damped_newton(residual, jacobian, scale, z0)
        diag = {"newton_iters": iters, "step_norms": tuple(steps)}

    phi = z[:m]
    if robin:
        # y(0) from the right-end condition with y(b) = y0 + a1*b + Q2[0] Phi.
        y0 = (
            (spec.delta - spec.gamma * (spec.alpha1 + q1[0] @ phi)) / spec.beta
            - spec.alpha1 * spec.b
            - q2[0] @ phi
        )
    else:
        y0 = z[m]
    return SolverResult(
        spec=spec,
        nodeset=ops.shifted,
        phi=phi,
        y_nodes=y_map(z),
        y0=float(y0),
        yprime_nodes=spec.alpha1 + q1 @ phi,
        residual_nodes=residual(z)[:m],
        **diag,
    )


def solve_problem(spec: ProblemSpec, n: int, alpha: float) -> SolverResult:
    """Build operators for (n, alpha) on [0, b] and solve."""
    return solve(spec, build_operators(BasisConfig(alpha, n), spec.b))
