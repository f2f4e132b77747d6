"""Gegenbauer polynomial basis, Gauss-Radau nodes and Christoffel weights.

The basis is the Gegenbauer family standardized so that G_n(1) = 1 for every
degree, generated by the three-term recurrence

    (n + 2a) G_{n+1}(x) = 2 (n + a) x G_n(x) - n G_{n-1}(x),   G_0 = 1, G_1 = x,

orthogonal on [-1, 1] against the weight (1 - x^2)^(a - 1/2) for a > -1/2.
a = 0 gives the Chebyshev polynomials of the first kind and a = 1/2 the
Legendre polynomials.  Collocation uses the right-endpoint Gauss-Radau points:
x = 1 together with the n roots of q_n = G_{n+1} - G_n, computed as Golub–Welsch
eigenvalues of the Jacobi matrix, one Newton polish.  One private pass of the
recurrence yields the values G_0 .. G_m and their derivatives together, and
every evaluation goes through it.  A standard basis makes two passes: one at
the Golub–Welsch nodes for the polish (``node_polynomial``), and one at the
polished nodes (``node_table``), whose table of G_0 .. G_{n+1} the
Christoffel weights and Q1 read and whose q_n' gives the barycentric weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisConfig",
    "NodeSet",
    "RootFindingError",
    "node_polynomial",
    "normalization",
    "gauss_radau_nodes",
    "node_table",
    "christoffel_weights",
    "standard_nodeset",
    "shift_nodeset",
]


class RootFindingError(RuntimeError):
    """Raised when the computed Gauss-Radau nodes are not strictly descending in (-1, 1]."""


def _check_alpha(alpha: float) -> None:
    if not (alpha > -0.5 and math.isfinite(alpha)):
        raise ValueError(f"Gegenbauer parameter must be finite and exceed -1/2, got {alpha}")


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")


@dataclass(frozen=True)
class BasisConfig:
    """Basis family parameter and truncation degree."""

    alpha: float
    n: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_degree(self.n)


@dataclass(frozen=True)
class NodeSet:
    """Collocation nodes with quadrature weights on a fixed interval.

    nodes are strictly descending, starting at the right endpoint of
    ``interval``.  ``weights`` are the Gauss-Radau Christoffel weights against
    the Gegenbauer weight function.  ``bary`` are the barycentric
    interpolation weights 1/q_n'(x_k) of the standard nodes: the nodes are the
    n+1 roots of q_n, and an affine map scales every weight by one factor,
    which cancels in the barycentric formula.
    """

    alpha: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    bary: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.bary):
            arr.setflags(write=False)


def _recurrence(alpha: float, m: int, x, table: bool = True
                ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One pass of the recurrence to degree m at x: (G_0 .. G_m, G_m - G_{m-1}, G_m' - G_{m-1}').

    The table has shape (m+1,) + shape(x) and is None unless ``table``; the
    differences have the shape of x.  Each degree step advances the stacked
    pair (G_k, G_k') by the recurrence and its derivative

        (k + 2a) G'_{k+1} = 2 (k + a) (G_k + x G'_k) - k G'_{k-1},

    sharing the product by (2 (k+a) x, x), the k-multiple of the previous
    pair, the subtraction and the division between the two rows.  Each row
    keeps the operations and their order of its own recurrence, so both agree
    bit for bit with the two evaluated in separate loops.  The pairs cycle
    through three rows, so a pass allocates no more than its table.
    """
    _check_alpha(alpha)
    _check_degree(m)
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)  # 1-D, so that a pair row holds x
    pairs = np.zeros((3, 2, x.size))  # (G_k, G_k') in row k % 3; G_{-1} = G'_{-1} = 0
    pairs[0, 0] = 1.0
    if m >= 1:
        pairs[1, 0], pairs[1, 1] = x, 1.0
    out = np.empty((m + 1, x.size)) if table else None
    if table:
        out[:2] = pairs[:2, 0][:m + 1]  # G_0, and G_1 when m >= 1
    factor = np.empty((2, x.size))
    factor[1] = x
    scaled = np.empty_like(factor)
    prev, cur = pairs[0], pairs[1]
    for k in range(1, m):
        c = 2 * (k + alpha)
        step = pairs[(k + 1) % 3]
        slope = step[1]
        np.multiply(c, x, out=factor[0])
        np.multiply(cur, factor, out=step)  # (c x G_k, x G_k')
        np.add(cur[0], slope, out=slope)
        np.multiply(c, slope, out=slope)
        np.multiply(k, prev, out=scaled)
        np.subtract(step, scaled, out=step)
        np.divide(step, k + 2 * alpha, out=step)
        if table:
            np.copyto(out[k + 1], step[0])
        prev, cur = cur, step
    last, before = pairs[m % 3], pairs[(m - 1) % 3]
    diff = (last - before).reshape((2,) + shape)
    if table:
        out = out.reshape((m + 1,) + shape)
    return out, diff[0], diff[1]


def node_polynomial(alpha: float, n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate q_n = G_{n+1} - G_n and its derivative at x in one recurrence pass."""
    _check_degree(n)
    return _recurrence(alpha, n + 1, x, False)[1:]


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


def node_table(cfg: BasisConfig) -> tuple[np.ndarray, np.ndarray]:
    """G_0 .. G_{n+1} and q_n' at the Gauss-Radau nodes, from one recurrence pass.

    Row 1 of the table holds the nodes themselves.
    """
    g, _, slope = _recurrence(cfg.alpha, cfg.n + 1, gauss_radau_nodes(cfg))
    return g, slope


def standard_nodeset(cfg: BasisConfig, *,
                     table: tuple[np.ndarray, np.ndarray] | None = None) -> NodeSet:
    """Nodes, weights and barycentric weights on [-1, 1], read from ``node_table(cfg)``.

    A caller that has evaluated that pair already passes it as ``table``.
    """
    g, slope = node_table(cfg) if table is None else table
    nodes = g[1].copy()  # a view would keep the whole table alive in the memo
    weights = christoffel_weights(cfg, nodes, g[cfg.n])
    return NodeSet(cfg.alpha, cfg.n, nodes, weights, 1.0 / slope, (-1.0, 1.0))


def shift_nodeset(nodeset: NodeSet, b: float) -> NodeSet:
    """Map a standard nodeset onto [0, b]: x -> (b/2)(x+1), weights scale by (b/2)^(2a).

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
        nodeset.bary,
        (0.0, b),
    )
