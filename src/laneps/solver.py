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
node is b.  The IntegrationOperators do not depend on b: each solve maps
their standard nodes onto [0, b] by x = (b/2)(x^ + 1), where Q1 and Q2 are
the matrices; the result keeps the standard barycentric weights.  The
border row is linear in z, so J is H + f_y * Q2 bordered by the column f_y and
the row (beta*Q2[0] + gamma*Q1[0], beta); the pure-derivative condition
(beta = 0) is the same rows with beta = 0.  Each solve builds one
_BorderedSystem, the one place that forms H, Q2, |H| and J, each only where
it is read; its methods give F, the Newton steps and the rounding floor of
F.  A linear problem is solved by one exact Newton step from z = 0; a
nonlinear one by one damped Newton run.  Below n = 256 that run starts from
Phi = 0 and the y0 that meets the border row there,
(delta - (beta*b + gamma)*a1)/beta, or y0 = 0 when beta = 0.
From n = 8 * _COARSE_N = 256 on it is grid sequenced (nested iteration;
Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003, ch.
1-2): the same problem is first solved at degree _COARSE_N = 32, and the
fine run starts from the coarse Phi interpolated to the fine nodes and
the coarse y0.  If the coarse run fails numerically (NonlinearSolveError, or
an ArithmeticError such as a domain error of f), the fine run takes the start
used below n = 256; SolverResult.seed_degree records which start was taken.
The fine run at n >= 256, the Krylov run, takes each Newton step from
matrix-free GMRES on J v, with no J formed, to an inexact-Newton forcing
term; a step that GMRES misses within _GMRES_MAXITER iterations takes the LU
step on the dense J.  Every other Newton step, and the linear step, is LU.
Newton stops when the residual or the step falls to _NEWTON_TOL, or at the
rounding floor of F by the rule of _damped_newton; a line search that stalls
raises NonlinearSolveError, as does an f_y that is not finite at an iterate.
Each residual returns F with the y it was formed from, at which the Newton
step is taken, so y is formed once per iterate.
One error state covers the whole solve (the operators, p and g, f and f_y):
a value that overflows to inf or NaN becomes the typed error of the
finiteness test that sees it, never a RuntimeWarning; a linear step that is
not finite raises ValueError, and a kappa_inf beyond the double range is
reported as inf.  The linear step and kappa_inf share one
LU factorization: J is solved against [-F(0) | I], whose first column is the
step and whose rest is J^-1 (inversion by solves against the identity; Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec.
14.3).  An exactly singular linear J (p = 0 with beta = 0 leaves y(0) free)
raises numpy.linalg.LinAlgError.  Inside Newton an exactly singular J gets the
minimum-norm least-squares step, and the residual test judges where it
leads: a start with f_y = 0 everywhere and beta = 0 needs that step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisConfig
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
#: The rounding floor of F and the roundoff-sized step of _damped_newton.
_FLOOR_FACTOR = 4.0
_STEP_RTOL = math.sqrt(np.finfo(float).eps)
#: A nonlinear solve at n >= _FINE_N = 8 * _COARSE_N starts Newton from the
#: solution at _COARSE_N and takes its steps from GMRES; below that a coarse
#: build and solve cost about what they save, and a Krylov step loses to LU.
_COARSE_N = 32
_FINE_N = 8 * _COARSE_N
#: GMRES iterations per Newton step before the step falls back to LU.
_GMRES_MAXITER = 40


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

    ``nodes`` are the collocation nodes on [0, b] and ``bary`` the memo's
    barycentric weights of the standard nodes, which serve them too.
    ``phi`` holds the computed y'' values at the nodes; ``kappa_inf`` is set
    for linear solves only (a singular J raises), and is inf when it exceeds
    the double range; ``newton_iters``/``step_norms`` are set for nonlinear
    ones.  These count the Newton run at this degree only; ``seed_degree``
    is the degree whose solution started it (None for the start Phi = 0
    with the y0 that meets the border row, see the module docstring).
    ``evaluate`` interpolates y off the nodes (exactly y0 at x = 0).
    """

    spec: ProblemSpec
    nodes: np.ndarray
    bary: np.ndarray
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
        for arr in (self.nodes, self.phi, self.y_nodes, self.yprime_nodes, self.residual_nodes):
            arr.setflags(write=False)

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
        return np.where(x == 0.0, self.y0, interpolate(self.nodes, self.bary, self.y_nodes, x))


def _gmres(matvec, rhs: np.ndarray, rtol: float, basis: np.ndarray) -> np.ndarray | None:
    """Unrestarted GMRES from 0 for A x = rhs (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986), with CGS2 Arnoldi and Givens rotations.

    ``matvec(v, out)`` writes A v into ``out``; ``basis`` is a (cap + 1,
    rhs.size) workspace for the Krylov basis.  Returns x with
    ||rhs - A x||_2 <= rtol ||rhs||_2, or None if cap iterations do not reach
    that or the Arnoldi process breaks down on a singular A.
    """
    rnorm = math.sqrt(rhs @ rhs)
    if not math.isfinite(rnorm):
        return None
    np.divide(rhs, rnorm, out=basis[0])
    g = [rnorm]  # the rotated right-hand side rnorm * e_1
    cols: list[list[float]] = []  # the columns of the rotated Hessenberg R
    rotations: list[tuple[float, float]] = []
    for k in range(basis.shape[0] - 1):
        w, v = basis[k + 1], basis[: k + 1]
        matvec(basis[k], w)
        h = v @ w
        w -= h @ v
        again = v @ w  # classical Gram-Schmidt twice is as stable as modified
        w -= again @ v
        h += again
        below = math.sqrt(w @ w)
        col = h.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[k], below)
        if not (math.isfinite(diag) and diag > 0.0):
            return None
        c, s = col[k] / diag, below / diag
        rotations.append((c, s))
        col[k] = diag
        cols.append(col)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= rtol * rnorm:
            y = [0.0] * (k + 1)  # back substitution R y = g
            for i in range(k, -1, -1):
                y[i] = (g[i] - sum(cols[j][i] * y[j] for j in range(i + 1, k + 1))) / cols[i][i]
            return np.asarray(y) @ v
        w /= below
    return None


class _BorderedSystem:
    """The system F(z) = 0 of one solve on the nodes of ``ops`` mapped onto
    [0, b], with its Jacobian J, Newton steps and rounding floor.

    ``fine`` (n >= _FINE_N) is the one degree rule.  Below it every residual
    reads H and Q2, so set-up forms them, from one buffer of (b/2) Q1, with
    the one buffer of J, whose pages are touched only for an LU step.  From
    it on the residual and J v take H Phi and Q2 Phi from ``_q1_products``,
    |H| is written straight from Q1 into one buffer, and H and Q2 are formed
    only for J: once by the linear step, which drops them before LAPACK, and
    by a Krylov run only if a step falls back to LU.  Set-up raises for p or
    g not finite at a node, and for a nonlinear spec without f_y.
    """

    def __init__(self, spec: ProblemSpec, ops: IntegrationOperators):
        self.spec, self.standard, self.q1 = spec, ops.standard, ops.q1
        self.half_b = half_b = spec.b / 2.0
        self.x = x = half_b * (ops.standard.nodes + 1.0)  # the nodes on [0, b]
        self.m = m = x.size
        _check_degree(m - 1)
        self.fine = m - 1 >= _FINE_N
        if not self.fine:  # every residual reads H and Q2; a plain call is cheaper at small n
            self.matrices = self._form_matrices()
        # The border row beta*y(b) + gamma*y'(b) - delta = top Phi + beta*y0 + border,
        # from row 0 of (b/2) Q1 and of Q2 = (x_i - x_k) (b/2) Q1 at every degree.
        self.beta = beta = spec.beta
        q1_top = half_b * ops.q1[0]
        self.top = beta * ((x[0] - x) * q1_top) + spec.gamma * q1_top
        self.border = beta * spec.alpha1 * spec.b + spec.gamma * spec.alpha1 - spec.delta
        self.sing, self.a1x = spec.alpha1 * spec.alpha2 / x, spec.alpha1 * x
        if spec.kind == "linear":
            self.p = pvals = np.broadcast_to(np.asarray(spec.p(x), dtype=float), x.shape)
            gvals = np.broadcast_to(np.asarray(spec.g(x), dtype=float), x.shape)
            for name, vals in (("p", pvals), ("g", gvals)):
                if not np.isfinite(vals).all():
                    raise ValueError(f"{name}(x) is not finite at every node")
            self.f = lambda _, y: pvals * y - gvals
        elif spec.dfdy is None:  # there is no difference-quotient fallback
            raise NonlinearSolveError("nonlinear problems require dfdy = f_y for the Jacobian")
        else:
            self.f, self.dfdy = spec.f, spec.dfdy

    def _h_in_place(self, buf):
        """Turn (b/2) Q1 in ``buf`` into H = I + a2 * Q1 / x."""
        buf /= self.x[:, None]
        buf *= self.spec.alpha2
        buf.reshape(-1)[:: self.m + 1] += 1.0
        return buf

    @functools.cached_property
    def matrices(self):
        """H, Q2 and J's buffer from n = _FINE_N on, formed for the first J."""
        return self._form_matrices()

    def _form_matrices(self):
        """(H, Q2, the one buffer of J) on [0, b]: Q2 is (x_i - x_k) times
        (b/2) Q1, and that (b/2) Q1 then becomes H in place.  The pages of
        J's buffer are touched only when J is formed."""
        h = self.half_b * self.q1
        q2 = np.subtract.outer(self.x, self.x)
        q2 *= h
        return self._h_in_place(h), q2, np.empty((self.m + 1, self.m + 1))

    def _q1_products(self, phi):
        """(b/2) Q1 Phi and Q2 Phi = x (b/2) Q1 Phi - (b/2) Q1 (x Phi), from one
        product of the standard Q1 with the two columns (Phi, x Phi)."""
        x = self.x
        q1phi, q1xphi = (self.q1 @ np.stack((phi, x * phi), axis=1)).T * self.half_b
        return q1phi, x * q1phi - q1xphi

    def residual(self, z):
        """F(z) and the y = y0 + a1*x + Q2 Phi it was formed from, by the
        degree rule of the class."""
        m = self.m
        phi = z[:m]
        fz = np.empty(m + 1)
        rows = fz[:m]
        if self.fine:
            q1phi, q2phi = self._q1_products(phi)
            y = z[m] + self.a1x + q2phi
            np.multiply(self.spec.alpha2 / self.x, q1phi, out=rows)
            rows += phi  # H Phi
        else:
            h, q2, _ = self.matrices
            y = z[m] + self.a1x + q2 @ phi
            np.matmul(h, phi, out=rows)
        rows += self.f(self.x, y)
        rows += self.sing
        fz[m] = self.top @ phi + self.beta * z[m] + self.border
        return fz, y

    def finite_fy(self, y):
        fy = self.dfdy(self.x, y)
        finite = np.isfinite(fy)
        if not finite.all():
            raise NonlinearSolveError(f"f_y not finite at x = {float(self.x[~finite][0]):.17g}")
        return fy

    def jacobian(self, fy):
        """[[H + f_y * Q2, f_y], border row], overwriting the one J of this solve."""
        m = self.m
        h, q2, jac = self.matrices
        np.multiply(fy[:, None], q2, out=jac[:m, :m])
        jac[:m, :m] += h
        jac[:m, m] = fy
        jac[m, :m] = self.top
        jac[m, m] = self.beta
        return jac

    def lu_step(self, fz, fy, _fnorm=None):
        """-J^-1 F by LU; the minimum-norm least-squares step only for an
        exactly singular J."""
        jac = self.jacobian(fy)
        try:
            return np.linalg.solve(jac, -fz)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(jac, -fz, rcond=None)[0]

    @functools.cached_property
    def krylov_basis(self):
        return np.empty((_GMRES_MAXITER + 1, self.m + 1))  # one workspace for the run

    def krylov_step(self, fz, fy, fnorm):
        """-J^-1 F from matrix-free GMRES on J v = (H v_Phi + f_y (Q2 v_Phi +
        v_y0), top v_Phi + beta v_y0), solved to the inexact-Newton forcing
        term (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996); a step
        GMRES misses within its cap takes LU.  J v adds its terms in the
        order below: another grouping rounds differently and moves which
        runs reach the rounding floor."""
        m, top, beta, a2x = self.m, self.top, self.beta, self.spec.alpha2 / self.x

        def jvp(v, out):
            phi, rows = v[:m], out[:m]
            q1phi, q2phi = self._q1_products(phi)
            np.add(q2phi, v[m], out=rows)
            rows *= fy
            rows += phi
            rows += a2x * q1phi  # H v_Phi = v_Phi + a2 Q1 v_Phi / x
            out[m] = top @ phi + beta * v[m]

        eta = min(0.1, max(1e-10, 0.1 * _NEWTON_TOL / fnorm))
        step = _gmres(jvp, -fz, eta, self.krylov_basis)
        return self.lu_step(fz, fy) if step is None else step

    @functools.cached_property
    def abs_h(self):
        """|H|; from n = _FINE_N on it is written from Q1 into one buffer, with no H."""
        if not self.fine:
            return np.abs(self.matrices[0])  # formed by the first residual
        abs_h = self._h_in_place(self.half_b * self.q1)
        return np.abs(abs_h, out=abs_h)

    def scale(self, z, y):
        """The largest row sum of the magnitudes of the terms of F(z), which
        sets its rounding floor."""
        size = np.abs(z[:self.m])
        rows = self.abs_h @ size + np.abs(self.f(self.x, y)) + np.abs(self.sing)
        last = np.abs(self.top) @ size + abs(self.beta * z[self.m]) + abs(self.border)
        return float(max(rows.max(), last))

    def linear_step(self):
        """The exact Newton step from z = 0 of a linear problem and the
        infinity-norm condition number of J, from one factorization; an
        exactly singular J raises numpy.linalg.LinAlgError and a step that is
        not finite ValueError.  The condition number overflows to inf beyond
        the double range, in the caller's error state.

        The last row of J, the border row, holds Q2 on [0, b], of size b^2,
        against entries near 1 in H.  Where its largest entry exceeds every
        entry of the other rows, partial pivoting would take it early and
        spread its right-hand side over Phi.  That row of J and of [-F(0) | I]
        is then scaled in place by a power of two to below 1, the size of H's
        identity part; this rounds nothing and changes no solution.  For y = 1
        on b in {1e10, 1e50, 1e100, 1e154} and nine n from 8 to 512, y comes
        back exact, where unscaled it was up to 228 ulps off.
        """
        a, rhs = self.jacobian(self.p), -self.residual(np.zeros(self.m + 1))[0]
        if self.fine:
            del self.matrices  # H and Q2 go before LAPACK; no later residual reads them
        size = np.abs(a)
        norm, rest, border = size.sum(axis=1).max(), size[:-1].max(), size[-1].max()
        del size  # before the solve's copies, which set the peak
        block = np.zeros((rhs.size, rhs.size + 1))
        block[:, 0] = rhs
        np.fill_diagonal(block[:, 1:], 1.0)
        if rest < border < math.inf:
            exponent = -math.frexp(border)[1]
            np.ldexp(a[-1], exponent, out=a[-1])
            np.ldexp(block[-1], exponent, out=block[-1])
        sol = np.linalg.solve(a, block)
        if not np.isfinite(sol[:, 0]).all():
            raise ValueError("the linear step is not finite: the bordered system overflows")
        inverse = sol[:, 1:]
        kappa = norm * np.abs(inverse, out=inverse).sum(axis=1).max()
        return sol[:, 0].copy(), float(kappa)

    def newton_start(self):
        """(seed degree, z0): from n = _FINE_N on, the degree-_COARSE_N
        solution on these nodes; below that, or if it fails, (None, (0, y0*))
        with y0* the y(0) that meets the border row at Phi = 0."""
        m, spec = self.m, self.spec
        if self.fine:
            coarse_ops = build_operators(BasisConfig(self.standard.alpha, _COARSE_N))
            try:
                coarse = solve(spec, coarse_ops)
            except (NonlinearSolveError, ArithmeticError):
                pass
            else:
                return _COARSE_N, np.append(
                    interpolate(coarse.nodes, coarse.bary, coarse.phi, self.x), coarse.y0)
        z0 = np.zeros(m + 1)
        if spec.beta != 0:
            z0[m] = (spec.delta - (spec.beta * spec.b + spec.gamma) * spec.alpha1) / spec.beta
        return None, z0


def _damped_newton(system: _BorderedSystem, step_fn, z: np.ndarray):
    """Newton iteration on ``system`` with Armijo backtracking on the max-norm
    residual.

    ``step_fn(F, f_y, max|F|)`` returns the Newton step -J^-1 F at the y of F.
    The rounding floor of F(z) is _FLOOR_FACTOR * eps * system.scale(z, y).
    A full step below _STEP_RTOL * max|z| (sqrt(eps)*max|z|) ends the run at
    the rounding floor: when it is accepted and the new iterate's max|F| is
    within that iterate's floor, or when it is rejected and max|F(z)| is
    within z's floor.  Without the first exit a run below the floor but above
    _NEWTON_TOL takes roundoff-sized steps for as long as each lowers max|F| a
    little, as many as rounding decides.  A rejected step that does not end
    the run is halved by the line search, which raises NonlinearSolveError if
    it stalls.  In the caller's error state f and f_y may overflow at the
    start or at a trial step, and the finiteness tests turn that into a
    rejected trial or a NonlinearSolveError.  Returns z, F(z) and y of the
    accepted iterate, the iteration count and the step norms.
    """
    steps: list[float] = []
    fval, y = system.residual(z)
    fnorm = float(np.abs(fval).max())
    if not math.isfinite(fnorm):
        raise NonlinearSolveError("residual not finite at the initial guess")

    def at_floor(z, y, fnorm, step_norm):
        # the full step taken or rejected at z is roundoff-sized, and F(z) is
        # at its rounding floor: the run ends at z
        return (step_norm <= _STEP_RTOL * np.abs(z).max()
                and fnorm <= _FLOOR_FACTOR * np.finfo(float).eps * system.scale(z, y))

    for it in range(1, _NEWTON_MAXITER + 1):
        if fnorm <= _NEWTON_TOL:
            return z, fval, y, it - 1, steps
        step = step_fn(fval, system.finite_fy(y), fnorm)
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS + 1):
            taken = step if t == 1.0 else t * step
            trial = z + taken
            f_trial, y_trial = system.residual(trial)
            f_trial_norm = float(np.abs(f_trial).max())
            if math.isfinite(f_trial_norm) and f_trial_norm <= (1.0 - 1e-4 * t) * fnorm:
                break
            if t == 1.0 and at_floor(z, y, fnorm, np.abs(step).max()):
                return z, fval, y, it - 1, steps
            t *= 0.5
        else:
            floor = _FLOOR_FACTOR * np.finfo(float).eps * system.scale(z, y)
            raise NonlinearSolveError(f"line search stalled at iteration {it} (residual "
                                      f"{fnorm:.3e}, rounding floor {floor:.3e})")
        z, fval, y, fnorm = trial, f_trial, y_trial, f_trial_norm
        steps.append(float(np.abs(taken).max()))
        if (steps[-1] <= _NEWTON_TOL or fnorm <= _NEWTON_TOL
                or t == 1.0 and at_floor(z, y, fnorm, steps[-1])):
            return z, fval, y, it, steps
    raise NonlinearSolveError(f"no convergence within {_NEWTON_MAXITER} iterations "
                              f"(residual {fnorm:.3e})")


def _check_degree(n: int) -> None:
    if n < 1:  # the one-node rule collocates at b alone and returns a wrong y0
        raise ValueError(f"n must be at least 1, got {n}")


@np.errstate(over="ignore", invalid="ignore")  # the finiteness tests reject overflow
def solve(spec: ProblemSpec, ops: IntegrationOperators) -> SolverResult:
    """Solve F(z) = 0 for z = (Phi, y0) on the nodes of ``ops`` mapped onto [0, b]."""
    system = _BorderedSystem(spec, ops)
    if spec.kind == "linear":
        z, kappa = system.linear_step()
        fz, y = system.residual(z)
        diag = {"kappa_inf": kappa}
    else:
        seed_degree, z0 = system.newton_start()
        step = system.krylov_step if system.fine else system.lu_step
        z, fz, y, iters, steps = _damped_newton(system, step, z0)
        diag = {"newton_iters": iters, "step_norms": tuple(steps), "seed_degree": seed_degree}

    phi = z[:-1]
    return SolverResult(spec=spec, nodes=system.x, bary=system.standard.bary, phi=phi,
                        y_nodes=y, y0=float(z[-1]), residual_nodes=fz[:-1],
                        yprime_nodes=spec.alpha1 + system.half_b * (system.q1 @ phi), **diag)


def solve_problem(spec: ProblemSpec, n: int, alpha: float) -> SolverResult:
    """Build operators for (n, alpha) and solve on [0, b]."""
    _check_degree(n)
    return solve(spec, build_operators(BasisConfig(alpha, n)))
