"""Integration operators built from exact Gegenbauer antiderivatives.

The first-order operator maps samples of a function at the Gauss-Radau nodes
to approximations of its integral from the left endpoint to each node; the
second-order operator does the same for the iterated (double) integral.  Both
are dense (n+1) x (n+1) matrices acting on node-value vectors.  Q1 is built
on [-1, 1] from the nodeset's own table of G_0 .. G_{n+1} (``node_table``),
once per (alpha, n); ``shift_operators`` maps it onto [0, b] and forms Q2
from the shifted Q1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (BasisConfig, NodeSet, _squared_norms, node_table, shift_nodeset,
                    standard_nodeset)

__all__ = [
    "IntegrationOperators",
    "build_q1",
    "shift_operators",
    "build_operators",
    "interpolate",
]

#: Standard bases (the nodeset and Q1, both read from one Gegenbauer table)
#: kept for reuse across solves; at n = 512 each holds a 2 MB Q1.
_BASIS_CACHE_SIZE = 8


@dataclass(frozen=True)
class IntegrationOperators:
    """The nodeset and the first- and second-order integration matrices on [0, b].

    ``shift_operators`` builds all three; both matrices are read-only.
    """

    shifted: NodeSet
    q1_shifted: np.ndarray
    q2_shifted: np.ndarray

    def __post_init__(self):
        self.q1_shifted.setflags(write=False)
        self.q2_shifted.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        """Collocation abscissas on [0, b], descending from b."""
        return self.shifted.nodes


def _antiderivatives(alpha: float, g: np.ndarray) -> np.ndarray:
    """Antiderivatives of G_0 .. G_m vanishing at -1, from the table G_0 .. G_{m+1} at x.

    ``g`` is that table, so g[1] = x.  Row j holds the integral of G_j from
    -1 to x.  Rows 0 and 1 are x + 1 and (x^2 - 1)/2; higher rows use the
    closed form

        a_j G_{j+1}(x) - b_j G_{j-1}(x) + (-1)^j (a_j - b_j),
        a_j = (j+2a) / (2 (j+a) (j+1)),   b_j = j / (2 (j+a) (j+2a-1)),

    which follows from integrating the three-term recurrence.
    """
    x, m = g[1], len(g) - 2
    out = np.empty((m + 1, x.size))
    out[0] = x + 1.0
    out[1:2] = (x * x - 1.0) / 2.0  # no row 1 when m = 0
    j = np.arange(2, m + 1)[:, None]
    a_j = (j + 2 * alpha) / (2 * (j + alpha) * (j + 1))
    b_j = j / (2 * (j + alpha) * (j + 2 * alpha - 1))
    rows = out[2:]  # the closed form, left to right, in place
    np.multiply(a_j, g[3:], out=rows)
    rows -= b_j * g[1:m]
    rows += (-1) ** j * (a_j - b_j)
    return out


def build_q1(nodeset: NodeSet, *, table: np.ndarray) -> np.ndarray:
    """First-order integration matrix on the standard interval.

    Entry (i, k) is the weight multiplying f(x_k) in the approximation of the
    integral of f from -1 to x_i: the interpolant of f in the basis is
    integrated term by term, so Q1 = I^T (G / lambda) diag(w) with
    G[j, k] = G_j(x_k), lambda_j the squared norm of G_j (from the ratio
    recurrence that the weights read too) and I[j, i] the antiderivative of
    G_j at x_i.  ``table`` is the G table of ``node_table``.
    """
    if nodeset.interval != (-1.0, 1.0):
        raise ValueError("build_q1 expects a standard [-1, 1] nodeset")
    lambdas = _squared_norms(nodeset.alpha, nodeset.n)
    anti = _antiderivatives(nodeset.alpha, table)
    q1 = anti.T @ (table[:-1] / lambdas[:, None])
    q1 *= nodeset.weights
    return q1


def shift_operators(q1: np.ndarray, standard: NodeSet, b: float) -> IntegrationOperators:
    """Map the standard nodeset and Q1 onto [0, b], and form Q2 there.

    The first-order matrix scales by exactly b/2 under the affine map.
    Swapping the order of the double integral collapses it to a single
    integral with kernel (x - t): entry (i, k) of Q2 is (x_i - x_k) Q1[i, k]
    in the shifted abscissas, so the kernel factor is exact there and the
    diagonal is exactly zero.
    """
    shifted = shift_nodeset(standard, b)
    q1 = (b / 2.0) * q1
    q2 = np.subtract.outer(shifted.nodes, shifted.nodes)
    q2 *= q1
    return IntegrationOperators(shifted, q1, q2)


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _standard_basis(cfg: BasisConfig) -> tuple[NodeSet, np.ndarray]:
    """The standard nodeset and its Q1, read from one node table, shared by every b."""
    table = node_table(cfg)
    standard = standard_nodeset(cfg, table=table)
    q1 = build_q1(standard, table=table)
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
    that node's value exactly.  The result has the shape of ``np.atleast_1d(x)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x.reshape(-1, 1) - nodeset.nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = nodeset.bary / diff
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return ((c @ np.asarray(values)) / c.sum(axis=1)).reshape(x.shape)
