"""Gegenbauer polynomial basis, Gauss-Radau nodes and Christoffel weights.

The basis is the Gegenbauer family standardized so that G_n(1) = 1 for every
degree, generated by the three-term recurrence

    (n + 2a) G_{n+1}(x) = 2 (n + a) x G_n(x) - n G_{n-1}(x),   G_0 = 1, G_1 = x,

orthogonal on [-1, 1] against the weight (1 - x^2)^(a - 1/2) for a > -1/2.
a = 0 gives the Chebyshev polynomials of the first kind and a = 1/2 the
Legendre polynomials.  Collocation uses the right-endpoint Gauss-Radau points:
x = 1 together with the n roots of q_n = G_{n+1} - G_n, computed as Golub–Welsch
eigenvalues of the Jacobi matrix, one Newton polish.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisConfig",
    "NodeSet",
    "RootFindingError",
    "eval_gegenbauer",
    "node_polynomial",
    "normalization",
    "gauss_radau_nodes",
    "christoffel_weights",
    "standard_nodeset",
    "shift_nodeset",
]


class RootFindingError(RuntimeError):
    """Raised when the computed Gauss-Radau nodes are not strictly descending in (-1, 1]."""


def _check_alpha(alpha: float) -> None:
    if not (alpha > -0.5 and math.isfinite(alpha)):
        raise ValueError(f"Gegenbauer parameter must be finite and exceed -1/2, got {alpha}")


@dataclass(frozen=True)
class BasisConfig:
    """Basis family parameter and truncation degree."""

    alpha: float
    n: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative, got {self.n}")


@dataclass(frozen=True)
class NodeSet:
    """Collocation nodes with quadrature weights on a fixed interval.

    nodes are strictly descending, starting at the right endpoint of
    ``interval``.  ``weights`` are the Gauss-Radau Christoffel weights against
    the Gegenbauer weight function; ``lambdas`` are the squared norms of
    G_0 .. G_n against the same weight.  ``bary`` are the barycentric
    interpolation weights 1/q_n'(x_k) of the standard nodes: the nodes are the
    n+1 roots of q_n, and an affine map scales every weight by one factor,
    which cancels in the barycentric formula.
    """

    alpha: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray
    bary: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.lambdas, self.bary):
            arr.setflags(write=False)


def eval_gegenbauer(alpha: float, m: int, x) -> np.ndarray:
    """Evaluate G_0 .. G_m at x; returns shape (m+1,) + shape(x)."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    out = np.empty((m + 1,) + x.shape)
    out[0] = 1.0
    if m >= 1:
        out[1] = x
    for k in range(1, m):
        out[k + 1] = (2 * (k + alpha) * x * out[k] - k * out[k - 1]) / (k + 2 * alpha)
    return out


def node_polynomial(alpha: float, n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate q_n = G_{n+1} - G_n and its derivative from the table of G_0 .. G_{n+1}."""
    g = eval_gegenbauer(alpha, n + 1, x)
    return g[n + 1] - g[n], _node_derivative(alpha, g)


def _node_derivative(alpha: float, g: np.ndarray) -> np.ndarray:
    """q_n' at x = g[1] by the differentiated recurrence over the table G_0 .. G_{n+1}."""
    x = g[1]
    d_prev, d = np.zeros_like(x), np.ones_like(x)
    for k in range(1, len(g) - 1):
        d_prev, d = d, (2 * (k + alpha) * (g[k] + x * d) - k * d_prev) / (k + 2 * alpha)
    return d - d_prev


def normalization(alpha: float, n: int) -> float:
    """Squared weighted L2 norm of G_n on [-1, 1].

    For n >= 1 this is 2^(2a-1) n! Gamma(a+1/2)^2 / ((n+a) Gamma(n+2a)); the
    n = 0 value is computed from the equivalent form
    2^(2a) Gamma(a+1/2)^2 / Gamma(2a+1), which stays well-defined for a < 0
    and reduces to pi at a = 0 (returned exactly).
    """
    _check_alpha(alpha)
    if n == 0:
        if alpha == 0.0:
            return math.pi
        return math.exp(
            2 * alpha * math.log(2) + 2 * math.lgamma(alpha + 0.5) - math.lgamma(2 * alpha + 1)
        )
    return math.exp(
        (2 * alpha - 1) * math.log(2)
        + math.lgamma(n + 1)
        + 2 * math.lgamma(alpha + 0.5)
        - math.log(n + alpha)
        - math.lgamma(n + 2 * alpha)
    )


def gauss_radau_nodes(cfg: BasisConfig) -> np.ndarray:
    """Right-endpoint Gauss-Radau abscissas: 1 and the roots of q_n, descending.

    The interior roots are the Gauss nodes of the Jacobi weight
    (1 - x)^(a + 1/2) (1 + x)^(a - 1/2): Golub–Welsch eigenvalues of the Jacobi
    matrix, one Newton polish on q_n (Golub & Welsch, Math. Comp. 23, 1969).
    """
    alpha, n = cfg.alpha, cfg.n
    if n == 0:
        return np.array([1.0])
    a, b = alpha + 0.5, alpha - 0.5
    k = np.arange(1, n)
    s = 2 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)  # k = 0 term, cancelled so alpha = 0 is not 0/0
    diag[1:] = (b * b - a * a) / (s * (s + 2))
    off = np.sqrt(4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1)))
    jacobi = np.diag(diag)
    jacobi[k, k - 1] = off  # eigvalsh reads only the lower triangle
    x = np.linalg.eigvalsh(jacobi)[::-1]
    q, qd = node_polynomial(alpha, n, x)
    nodes = np.concatenate(([1.0], x - q / qd))
    if not (np.all(np.diff(nodes) < 0) and nodes[-1] > -1.0):
        raise RootFindingError("computed nodes are not strictly descending in (-1, 1]")
    return nodes


def christoffel_weights(cfg: BasisConfig, nodes: np.ndarray, g_n: np.ndarray) -> np.ndarray:
    """Gauss-Radau quadrature weights against the Gegenbauer weight function.

    ``g_n`` holds G_n at the nodes.  The rule integrates polynomials of
    degree <= 2n exactly; the fixed endpoint's weight carries the extra
    factor a + 1/2.
    """
    alpha, n = cfg.alpha, cfg.n
    scale = math.exp(
        (2 * alpha - 1) * math.log(2)
        + 2 * math.lgamma(alpha + 0.5)
        + math.lgamma(n + 1)
        - math.log(n + alpha + 0.5)
        - math.lgamma(n + 2 * alpha + 1)
    )
    weights = scale * (1.0 + nodes) / g_n**2
    weights[0] *= alpha + 0.5
    return weights


def standard_nodeset(cfg: BasisConfig) -> NodeSet:
    """Nodes, weights, basis norms and barycentric weights on [-1, 1]."""
    nodes = gauss_radau_nodes(cfg)
    g = eval_gegenbauer(cfg.alpha, cfg.n + 1, nodes)
    weights = christoffel_weights(cfg, nodes, g[cfg.n])
    lambdas = np.array([normalization(cfg.alpha, j) for j in range(cfg.n + 1)])
    bary = 1.0 / _node_derivative(cfg.alpha, g)
    return NodeSet(cfg.alpha, cfg.n, nodes, weights, lambdas, bary, (-1.0, 1.0))


def shift_nodeset(nodeset: NodeSet, b: float) -> NodeSet:
    """Map a standard nodeset onto [0, b]: x -> (b/2)(x+1), scales by (b/2)^(2a).

    Both the weights and the basis norms pick up the same (b/2)^(2a) factor.
    The barycentric weights pass through unchanged: their scale cancels.
    """
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if b <= 0:
        raise ValueError(f"interval length must be positive, got {b}")
    if nodeset.interval != (-1.0, 1.0):
        raise ValueError("can only shift a standard [-1, 1] nodeset")
    factor = (b / 2.0) ** (2.0 * nodeset.alpha)
    return NodeSet(
        nodeset.alpha,
        nodeset.n,
        (b / 2.0) * (nodeset.nodes + 1.0),
        factor * nodeset.weights,
        factor * nodeset.lambdas,
        nodeset.bary,
        (0.0, b),
    )
