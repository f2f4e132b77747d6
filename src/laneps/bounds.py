"""Computable a priori error and residual bounds for the integral method.

Every bound shares the prefactor

    C(a, n, b) = 2^(-2n-1) b^(n+1) Gamma(n+2a+1) Gamma(a+1)
                 / (Gamma(n+2) Gamma(n+a+1) Gamma(2a+1)) * sup|q_n|,

where q_n = G_{n+1} - G_n is the node polynomial; its sup over [0, b] equals
the sup over [-1, 1] by the affine change of variables.  The sups of the
solution derivatives entering each bound are caller-supplied constants
(closed forms for the registry problems).  Only the explicit, fully
constructive inequalities are evaluated; asymptotic forms whose constants are
merely existential are not computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundInputs",
    "q_sup_norm",
    "prefactor",
    "bound_q1_error",
    "bound_q2_error",
    "bound_solution_error",
    "bound_derivative_error",
    "bound_residual",
]


@dataclass(frozen=True)
class BoundInputs:
    """Degree, basis parameter, interval length and derivative sup-norms.

    ``a`` is the sup of the (n+1)-th derivative of the integrand (single-sup
    bounds); ``a0``/``a1`` are the paired sups entering the two-term bounds
    (orders n and n+1 for quadrature, n+2 and n+3 for solution errors);
    ``lambda_lip`` is a Lipschitz constant of f in y and ``m_sup`` the sup of
    |p| for linear problems.
    """

    n: int
    alpha: float
    b: float
    a: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    lambda_lip: float = 0.0
    m_sup: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "b", "a", "a0", "a1", "lambda_lip", "m_sup"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > -0.5:
            raise ValueError(f"basis parameter must exceed -1/2, got {self.alpha}")
        if self.n < 0 or self.b <= 0:
            raise ValueError("need n >= 0 and b > 0")
        for name in ("a", "a0", "a1", "lambda_lip", "m_sup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def q_sup_norm(alpha: float, n: int) -> float:
    """Sup of |G_{n+1} - G_n| on [-1, 1]: exactly 2 for a >= 0 (endpoint x=-1).

    For -1/2 < a < 0 the closed forms below bound the interior maximum
    through the extreme values of the two parities; they are upper bounds,
    exact in the limit of large n.
    """
    if alpha >= 0:
        return 2.0
    if n % 2 == 0:
        return math.exp(
            math.lgamma(alpha + 0.5)
            + math.lgamma((n + 1) / 2)
            - 0.5 * math.log(math.pi)
            - math.lgamma(alpha + (n + 1) / 2)
        ) * (1.0 + math.sqrt((n + 1) / (2 * alpha + n + 1)))
    return math.exp(
        math.lgamma(alpha + 0.5)
        + math.lgamma(n / 2)
        - math.log(2)
        - 0.5 * math.log(math.pi)
        - math.lgamma(n / 2 + alpha + 1)
    ) * (math.sqrt(n * (2 * alpha + n)) + n)


def prefactor(alpha: float, n: int, b: float) -> float:
    """Common constant multiplying every explicit bound."""
    log_c = (
        -(2 * n + 1) * math.log(2)
        + (n + 1) * math.log(b)
        + math.lgamma(n + 2 * alpha + 1)
        + math.lgamma(alpha + 1)
        - math.lgamma(n + 2)
        - math.lgamma(n + alpha + 1)
        - math.lgamma(2 * alpha + 1)
    )
    return math.exp(log_c) * q_sup_norm(alpha, n)


def _as_points(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def bound_q1_error(inputs: BoundInputs, x) -> np.ndarray:
    """Truncation-error bound for the first-order quadrature at abscissa x.

    ``inputs.a`` bounds the (n+1)-th derivative of the integrand on [0, b].
    """
    return prefactor(inputs.alpha, inputs.n, inputs.b) * inputs.a * _as_points(x)


def bound_q2_error(inputs: BoundInputs, x) -> np.ndarray:
    """Truncation-error bound for the second-order quadrature at abscissa x.

    ``inputs.a0``/``a1`` bound the n-th and (n+1)-th integrand derivatives.
    """
    c = prefactor(inputs.alpha, inputs.n, inputs.b)
    return c * _as_points(x) * (inputs.a0 * (inputs.n + 1) + inputs.b * inputs.a1)


def bound_solution_error(inputs: BoundInputs, x, beta: float, gamma: float) -> np.ndarray:
    """Node-error bound for the solved y when the right BC involves y(b).

    ``inputs.a0``/``a1`` bound the (n+2)-th and (n+3)-th solution derivatives.
    """
    if beta == 0:
        raise ValueError("solution-error bound requires beta != 0")
    c = prefactor(inputs.alpha, inputs.n, inputs.b)
    x = _as_points(x)
    ratio = abs(gamma / beta)
    return c * (
        inputs.a1 * inputs.b * (x + ratio + inputs.b)
        + inputs.a0 * (inputs.n + 1) * (x + inputs.b)
    )


def bound_derivative_error(inputs: BoundInputs, x) -> np.ndarray:
    """Node-error bound for y' when the right BC fixes y'(b) (beta = 0).

    The derivative is exact at both endpoints by construction, so the bound
    vanishes identically at x = b; elsewhere ``inputs.a`` bounds the (n+3)-th
    solution derivative.
    """
    x = _as_points(x)
    c = prefactor(inputs.alpha, inputs.n, inputs.b)
    return np.where(x == inputs.b, 0.0, c * inputs.a * x)


def bound_residual(
    inputs: BoundInputs,
    x,
    mode: str,
    alpha2: float,
    beta: float,
    gamma: float,
) -> np.ndarray:
    """Bound on the collocated residual when the right BC involves y(b).

    ``mode`` selects the growth constant: "nonlinear" uses the Lipschitz
    constant of f in y, "linear" the sup of |p|.  ``inputs.a0``/``a1`` bound
    the (n+2)-th and (n+3)-th solution derivatives.
    """
    if mode == "nonlinear":
        growth = inputs.lambda_lip
    elif mode == "linear":
        growth = inputs.m_sup
    else:
        raise ValueError(f"mode must be 'nonlinear' or 'linear', got {mode!r}")
    if beta == 0:
        raise ValueError("residual bound requires beta != 0")
    c = prefactor(inputs.alpha, inputs.n, inputs.b)
    x = _as_points(x)
    ratio = abs(gamma / beta)
    return c * (
        inputs.a1 * (inputs.b * growth * (x + ratio + inputs.b) + abs(alpha2))
        + inputs.a0 * growth * (inputs.n + 1) * (x + inputs.b)
    )
