"""Integration operators built from exact Gegenbauer antiderivatives.

The first-order operator maps samples of a function at the Gauss-Radau nodes
to approximations of its integral from the left endpoint to each node; the
second-order operator does the same for the iterated (double) integral.  Both
are dense (n+1) x (n+1) matrices acting on node-value vectors, assembled on
[-1, 1] and mapped affinely onto [0, b].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisConfig, NodeSet, eval_gegenbauer, shift_nodeset, standard_nodeset

__all__ = [
    "IntegrationOperators",
    "integrate_basis",
    "build_q1",
    "build_q2",
    "shift_operators",
    "build_operators",
    "interpolate",
]

#: Standard bases (nodes, weights, norms and Q1) kept for reuse across solves;
#: at n = 512 each holds a 2 MB Q1.
_BASIS_CACHE_SIZE = 8


@dataclass(frozen=True)
class IntegrationOperators:
    """Standard first-order and shifted first- and second-order integration matrices."""

    standard: NodeSet
    shifted: NodeSet
    q1: np.ndarray
    q1_shifted: np.ndarray
    q2_shifted: np.ndarray

    def __post_init__(self):
        for mat in (self.q1, self.q1_shifted, self.q2_shifted):
            mat.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        """Collocation abscissas on [0, b], descending from b."""
        return self.shifted.nodes

    @property
    def b(self) -> float:
        return self.shifted.b


def integrate_basis(alpha: float, m: int, x) -> np.ndarray:
    """Antiderivatives of G_0 .. G_m vanishing at -1, evaluated at x.

    Row j holds the integral of G_j from -1 to x.  Rows 0 and 1 are x + 1 and
    (x^2 - 1)/2; higher rows use the closed form

        a_j G_{j+1}(x) - b_j G_{j-1}(x) + (-1)^j (a_j - b_j),
        a_j = (j+2a) / (2 (j+a) (j+1)),   b_j = j / (2 (j+a) (j+2a-1)),

    which follows from integrating the three-term recurrence.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = eval_gegenbauer(alpha, m + 1, x)
    out = np.empty((m + 1, x.size))
    out[0] = x + 1.0
    if m >= 1:
        out[1] = (x * x - 1.0) / 2.0
    for j in range(2, m + 1):
        a_j = (j + 2 * alpha) / (2 * (j + alpha) * (j + 1))
        b_j = j / (2 * (j + alpha) * (j + 2 * alpha - 1))
        out[j] = a_j * g[j + 1] - b_j * g[j - 1] + (-1) ** j * (a_j - b_j)
    return out


def build_q1(nodeset: NodeSet) -> np.ndarray:
    """First-order integration matrix on the standard interval.

    Entry (i, k) is the weight multiplying f(x_k) in the approximation of the
    integral of f from -1 to x_i: the interpolant of f in the basis is
    integrated term by term, so Q1 = I^T (G / lambda) diag(w) with
    G[j, k] = G_j(x_k) and I[j, i] the antiderivative of G_j at x_i.
    """
    if nodeset.interval != (-1.0, 1.0):
        raise ValueError("build_q1 expects a standard [-1, 1] nodeset")
    g = eval_gegenbauer(nodeset.alpha, nodeset.n, nodeset.nodes)
    anti = integrate_basis(nodeset.alpha, nodeset.n, nodeset.nodes)
    return (anti.T @ (g / nodeset.lambdas[:, None])) * nodeset.weights[None, :]


def build_q2(q1: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Second-order integration matrix: entry (i, k) is (x_i - x_k) Q1[i, k].

    Swapping the order of the double integral collapses it to a single
    integral with kernel (x - t), which the rule above applies entrywise.
    The diagonal is exactly zero.
    """
    return (nodes[:, None] - nodes[None, :]) * q1


def shift_operators(q1: np.ndarray, standard: NodeSet, b: float) -> IntegrationOperators:
    """Map standard-interval operators onto [0, b].

    The first-order matrix scales by exactly b/2 under the affine map; the
    second-order matrix is built from the shifted abscissas so that the
    kernel factor (x_i - x_k) is exact in the shifted variable.
    """
    shifted = shift_nodeset(standard, b)
    q1_shifted = (b / 2.0) * q1
    return IntegrationOperators(
        standard, shifted, q1, q1_shifted, build_q2(q1_shifted, shifted.nodes)
    )


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _standard_basis(cfg: BasisConfig) -> tuple[NodeSet, np.ndarray]:
    """The standard nodeset and its Q1, shared by every b and every problem."""
    standard = standard_nodeset(cfg)
    q1 = build_q1(standard)
    q1.setflags(write=False)
    return standard, q1


def build_operators(cfg: BasisConfig, b: float = 1.0) -> IntegrationOperators:
    """Shift the memoized standard operators for (alpha, n) onto [0, b]."""
    standard, q1 = _standard_basis(cfg)
    return shift_operators(q1, standard, b)


def interpolate(nodeset: NodeSet, values: np.ndarray, x) -> np.ndarray:
    """Evaluate the degree-n interpolant of node values at new points x.

    Uses the barycentric formula of the second kind (Berrut & Trefethen, SIAM
    Review 46, 2004) on ``nodeset.bary``.  A point that equals a node returns
    that node's value exactly.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[:, None] - nodeset.nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = nodeset.bary / diff
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return (c @ np.asarray(values)) / c.sum(axis=1)
