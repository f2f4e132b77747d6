"""Integral pseudospectral solver for singular second-order boundary problems.

Solves   y'' + (a2/x) y' + f(x, y) = 0   on (0, b]
with     y'(0) = a1   and   beta*y(b) + gamma*y'(b) = delta,

where f(x, y) = p(x)*y - g(x) in the linear case.  The unknown is the vector
Phi of second-derivative values at the shifted Gauss-Radau nodes; y' and y are
recovered through the first- and second-order integration matrices, which
turns the singular differential problem into a dense algebraic system with no
differentiation matrices involved.

Every problem is one system F(z) = 0 with Jacobian J(z) in the unknowns
z = (Phi, y0), where y0 = y(0) and

    y = y0 + a1*x + Q2 Phi,   y' = a1 + Q1 Phi,
    F(z) = (H Phi + f(x, y) + a1*a2/x,  beta*y(b) + gamma*y'(b) - delta),
    H = I + a2 * Q1 / x,

with y(b) = y0 + a1*b + Q2[0] Phi and y'(b) = a1 + Q1[0] Phi, since the first
node is b.  The border row is linear in z, so J is H + f_y * Q2 bordered by
the column f_y and the row (beta*Q2[0] + gamma*Q1[0], beta); the
pure-derivative condition (beta = 0) is the same rows with beta = 0.  A
linear problem is solved by one exact Newton step from z = 0; a nonlinear one
by one damped Newton run.  Below n = 256 that run starts from Phi = 0 and the
y0 that meets the border row there, (delta - (beta*b + gamma)*a1)/beta, or
y0 = 0 when beta = 0.  From n = 8 * _COARSE_N = 256 on it is grid sequenced
(nested iteration; Kelley, Solving Nonlinear Equations with Newton's Method,
SIAM 2003, ch. 1-2): the same problem is first solved at degree _COARSE_N = 32,
and the fine run starts from the coarse Phi interpolated to the fine nodes and
the coarse y0.  If the coarse run fails numerically (NonlinearSolveError, or
an ArithmeticError such as a domain error of f), the fine run takes the start
used below n = 256; SolverResult.seed_degree records which start was taken.
Newton stops when the residual or the step falls to _NEWTON_TOL.  If the line
search stalls first, z counts as converged only when max|F(z)| is at the
rounding level of evaluating F (4 eps times the largest row of
|H||Phi| + |f| + |a1*a2/x|, or of the border row's terms) and the Newton step
is below sqrt(eps)*max|z|; otherwise NonlinearSolveError is raised, as it is
when f_y is not finite at an iterate.  Each residual evaluation returns F and
the y it was formed from; the Jacobian is built from that y, and the result
reports the y and F of the accepted iterate, so y is formed once per iterate.
One error state covers a whole Newton run (f and f_y) and the evaluation of p
and g: a value that overflows to inf or NaN becomes the typed error of the
finiteness test that sees it, never a RuntimeWarning.  The linear step and kappa_inf share one
LU factorization: J is solved against [-F(0) | I], whose first column is the
step and whose rest is J^-1 (inversion by solves against the identity; Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec.
14.3).  An exactly singular linear J (p = 0 with beta = 0 leaves y(0) free)
raises numpy.linalg.LinAlgError.  Inside Newton an exactly singular J gets
the minimum-norm least-squares step, and the residual test judges where it
leads: a start with f_y = 0 everywhere and beta = 0 needs that step.
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
#: A stalled line search converged if max|F| <= _FLOOR_FACTOR * eps * (largest
#: row of |terms| of F) and max|step| <= _STEP_RTOL * max|z|.
_FLOOR_FACTOR = 4.0
_STEP_RTOL = math.sqrt(np.finfo(float).eps)
#: A nonlinear solve at n >= 8 * _COARSE_N starts Newton from the solution at
#: this degree; below that a coarse build and solve cost about what they save.
_COARSE_N = 32


class NonlinearSolveError(RuntimeError):
    """Raised when the damped Newton iteration cannot start or fails to converge."""


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary-value problem data for y'' + (a2/x) y' + f(x, y) = 0.

    Boundary conditions are y'(0) = alpha1 and beta*y(b) + gamma*y'(b) = delta.
    Linear problems supply p and g with f(x, y) = p(x)*y - g(x); nonlinear
    problems supply f(x, y) and its partial derivative dfdy = f_y, which
    Newton's Jacobian uses; ``solve`` raises NonlinearSolveError without it.
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

    ``phi`` holds the computed y'' values at the nodes; ``kappa_inf`` is set,
    finite, for linear solves only (a singular J raises) and
    ``newton_iters``/``step_norms`` for nonlinear ones.  These count the
    Newton run at this degree only; ``seed_degree`` is the degree whose
    solution started it (None for the start Phi = 0 with the y0 that meets
    the border row, see the module docstring).
    ``evaluate`` interpolates y off the nodes (exactly y0 at x = 0).
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
    seed_degree: int | None = None

    def __post_init__(self):
        for arr in (self.phi, self.y_nodes, self.yprime_nodes, self.residual_nodes):
            arr.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.nodeset.nodes

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the approximate solution at points of [0, b], of any shape.

        x = 0 returns the recovered y(0).  Every other point gets the
        barycentric interpolant of the node values, which is a node's value
        at that node (y at b included).  A point that is not finite or lies
        outside [0, b] raises ValueError.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~((x >= 0.0) & (x <= self.spec.b))  # NaN fails both comparisons
        if outside.any():
            bad = float(x[outside][0])
            raise ValueError(f"points must lie in [0, {self.spec.b!r}], got {bad!r}")
        return np.where(x == 0.0, self.y0, interpolate(self.nodeset, self.y_nodes, x))


def _linear_step(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct solve; minimum-norm least squares only for an exactly singular a."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, rhs, rcond=None)[0]


def _step_and_condition(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """The step a^-1 rhs and the infinity-norm condition number of a, from one
    factorization; an exactly singular a raises numpy.linalg.LinAlgError."""
    block = np.zeros((rhs.size, rhs.size + 1))
    block[:, 0] = rhs
    np.fill_diagonal(block[:, 1:], 1.0)
    sol = np.linalg.solve(a, block)
    kappa = np.abs(a).sum(axis=1).max() * np.abs(sol[:, 1:]).sum(axis=1).max()
    return sol[:, 0].copy(), float(kappa)


def _damped_newton(residual_fn, jacobian_fn, scale_fn, z0: np.ndarray):
    """Newton iteration with Armijo backtracking on the max-norm residual.

    ``residual_fn(z)`` returns F(z) and the node values y it was formed from;
    ``jacobian_fn(y)`` builds J at that iterate, and ``scale_fn(z, y)`` is the
    largest row sum of the magnitudes of the terms of F(z), which sets the
    rounding floor that ends a stalled line search.  The whole run is one
    error state: f and f_y may overflow at the start or at a trial step, and
    the finiteness tests turn that into a rejected trial or a
    NonlinearSolveError.  Returns z, F(z) and y of the accepted iterate, the
    iteration count and the step norms.
    """
    z = np.asarray(z0, dtype=float).copy()
    steps: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        fval, y = residual_fn(z)
        fnorm = float(np.abs(fval).max())
        if not math.isfinite(fnorm):
            raise NonlinearSolveError("residual not finite at the initial guess")
        for it in range(1, _NEWTON_MAXITER + 1):
            if fnorm <= _NEWTON_TOL:
                return z, fval, y, it - 1, steps
            step = _linear_step(jacobian_fn(y), -fval)
            t = 1.0
            for _ in range(_ARMIJO_HALVINGS + 1):
                taken = step if t == 1.0 else t * step
                trial = z + taken
                f_trial, y_trial = residual_fn(trial)
                f_trial_norm = float(np.abs(f_trial).max())
                if math.isfinite(f_trial_norm) and f_trial_norm <= (1.0 - 1e-4 * t) * fnorm:
                    break
                t *= 0.5
            else:
                floor = _FLOOR_FACTOR * np.finfo(float).eps * scale_fn(z, y)
                if fnorm <= floor and np.abs(step).max() <= _STEP_RTOL * np.abs(z).max():
                    return z, fval, y, it - 1, steps
                raise NonlinearSolveError(
                    f"line search stalled at iteration {it} "
                    f"(residual {fnorm:.3e}, rounding floor {floor:.3e})"
                )
            z, fval, y, fnorm = trial, f_trial, y_trial, f_trial_norm
            steps.append(float(np.abs(taken).max()))
            if steps[-1] <= _NEWTON_TOL or fnorm <= _NEWTON_TOL:
                return z, fval, y, it, steps
    raise NonlinearSolveError(
        f"no convergence within {_NEWTON_MAXITER} iterations (residual {fnorm:.3e})"
    )


def _newton_start(spec: ProblemSpec, ops: IntegrationOperators):
    """(seed degree, z0): from n = 8 * _COARSE_N on, the degree-_COARSE_N
    solution on the nodes of ``ops``; below that, or if it fails, (None,
    (0, y0*)) with y0* the y(0) that meets the border row at Phi = 0."""
    m = ops.nodes.size
    if m - 1 >= 8 * _COARSE_N:
        coarse_ops = build_operators(BasisConfig(ops.shifted.alpha, _COARSE_N), spec.b)
        try:
            coarse = solve(spec, coarse_ops)
        except (NonlinearSolveError, ArithmeticError):
            pass
        else:
            return _COARSE_N, np.append(interpolate(coarse.nodeset, coarse.phi, ops.nodes),
                                        coarse.y0)
    z0 = np.zeros(m + 1)
    if spec.beta != 0:
        z0[m] = (spec.delta - (spec.beta * spec.b + spec.gamma) * spec.alpha1) / spec.beta
    return None, z0


def _check_degree(n: int) -> None:
    if n < 1:  # the one-node rule collocates at b alone and returns a wrong y0
        raise ValueError(f"n must be at least 1, got {n}")


def solve(spec: ProblemSpec, ops: IntegrationOperators) -> SolverResult:
    """Solve F(z) = 0 for z = (Phi, y0) (see the module docstring)."""
    x, q1 = ops.nodes, ops.q1_shifted
    m = x.size
    _check_degree(m - 1)
    h = np.divide(q1, x[:, None])  # H = I + a2 * Q1 / x in this one buffer
    h *= spec.alpha2
    h.reshape(-1)[:: m + 1] += 1.0
    sing = spec.alpha1 * spec.alpha2 / x
    a1x = spec.alpha1 * x
    if spec.kind == "linear":
        with np.errstate(over="ignore", invalid="ignore"):  # the isfinite test rejects overflow
            pvals = np.broadcast_to(np.asarray(spec.p(x), dtype=float), x.shape)
            gvals = np.broadcast_to(np.asarray(spec.g(x), dtype=float), x.shape)
        for name, vals in (("p", pvals), ("g", gvals)):
            if not np.isfinite(vals).all():
                raise ValueError(f"{name}(x) is not finite at every node")

        def f(_, y):
            return pvals * y - gvals

        def dfdy(_, y):
            return pvals
    elif spec.dfdy is None:  # there is no difference-quotient fallback
        raise NonlinearSolveError("nonlinear problems require dfdy = f_y for the Jacobian")
    else:
        f, dfdy = spec.f, spec.dfdy

    q2 = ops.q2_shifted
    # The border row beta*y(b) + gamma*y'(b) - delta = top Phi + beta*y0 + border.
    beta = spec.beta
    top = beta * q2[0] + spec.gamma * q1[0]
    border = beta * spec.alpha1 * spec.b + spec.gamma * spec.alpha1 - spec.delta

    def residual(z):
        # F(z) and the y = y0 + a1*x + Q2 Phi it was formed from.
        phi = z[:m]
        y = z[m] + a1x + q2 @ phi
        fz = np.empty(m + 1)
        rows = fz[:m]
        np.matmul(h, phi, out=rows)
        rows += f(x, y)
        rows += sing
        fz[m] = top @ phi + beta * z[m] + border
        return fz, y

    jac = np.empty((m + 1, m + 1))
    jac[m, :m] = top
    jac[m, m] = beta

    def jacobian(y):
        # [[H + f_y * Q2, f_y], border row], overwriting the one J of this solve.
        fy = dfdy(x, y)
        finite = np.isfinite(fy)
        if not finite.all():
            raise NonlinearSolveError(f"f_y not finite at x = {float(x[~finite][0]):.17g}")
        np.multiply(fy[:, None], q2, out=jac[:m, :m])
        jac[:m, :m] += h
        jac[:m, m] = fy
        return jac

    def scale(z, y):
        rows = np.abs(h) @ np.abs(z[:m]) + np.abs(f(x, y)) + np.abs(sing)
        last = np.abs(top) @ np.abs(z[:m]) + abs(beta * z[m]) + abs(border)
        return float(max(rows.max(), last))

    if spec.kind == "linear":
        fz, y = residual(np.zeros(m + 1))
        z, kappa = _step_and_condition(jacobian(y), -fz)
        fz, y = residual(z)
        diag = {"kappa_inf": kappa}
    else:
        seed_degree, z0 = _newton_start(spec, ops)
        z, fz, y, iters, steps = _damped_newton(residual, jacobian, scale, z0)
        diag = {"newton_iters": iters, "step_norms": tuple(steps), "seed_degree": seed_degree}

    phi = z[:m]
    return SolverResult(
        spec=spec,
        nodeset=ops.shifted,
        phi=phi,
        y_nodes=y,
        y0=float(z[m]),
        yprime_nodes=spec.alpha1 + q1 @ phi,
        residual_nodes=fz[:m],
        **diag,
    )


def solve_problem(spec: ProblemSpec, n: int, alpha: float) -> SolverResult:
    """Build operators for (n, alpha) on [0, b] and solve."""
    _check_degree(n)
    return solve(spec, build_operators(BasisConfig(alpha, n), spec.b))
