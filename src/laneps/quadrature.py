"""Integration operators built from exact Gegenbauer antiderivatives.

The first-order operator maps samples of a function at the Gauss-Radau nodes
to approximations of its integral from the left endpoint to each node; the
second-order operator does the same for the iterated (double) integral.  Both
are dense (n+1) x (n+1) matrices acting on node-value vectors.  Q1 is built
on [-1, 1] from the nodeset's own table of G_0 .. G_{n+1} (``node_table``),
once per (alpha, n), and is the only matrix kept.  The operators do not
depend on b; ``IntegrationOperators`` says what Q1 and Q2 are on [0, b].
``interpolate`` takes the mapped nodes with the standard barycentric weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (BasisConfig, NodeSet, _require_finite, _squared_norms, node_table,
                    standard_nodeset)

__all__ = [
    "IntegrationOperators",
    "build_q1",
    "build_operators",
    "interpolate",
]

#: Operators (the nodeset and Q1, both read from one Gegenbauer table) kept
#: for reuse across solves; at n = 512 each holds a 2 MB Q1.
_BASIS_CACHE_SIZE = 8


@dataclass(frozen=True)
class IntegrationOperators:
    """The standard nodeset and its first-order matrix Q1, both on [-1, 1].

    Both are the memo's read-only arrays, shared by every b.  Under the
    affine map onto [0, b] Q1 is (b/2) Q1.  Swapping the order of the double
    integral collapses it to one integral with kernel (x - t), so entry
    (i, k) of Q2 on [0, b] is (x_i - x_k) (b/2) Q1[i, k] in the shifted
    abscissas; its diagonal is exactly zero.
    """

    standard: NodeSet
    q1: np.ndarray


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
    lambdas = _squared_norms(nodeset.alpha, nodeset.n)
    anti = _antiderivatives(nodeset.alpha, table)
    q1 = anti.T @ (table[:-1] / lambdas[:, None])
    q1 *= nodeset.weights
    return q1


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # _require_finite refuses overflow
def build_operators(cfg: BasisConfig) -> IntegrationOperators:
    """The memoized standard nodeset for (alpha, n) and its Q1, read from one
    node table; a Q1 that is not finite raises RootFindingError, unmemoized."""
    table = node_table(cfg)
    standard = standard_nodeset(cfg, table=table)
    q1 = build_q1(standard, table=table)
    _require_finite(cfg, q1)
    q1.setflags(write=False)
    return IntegrationOperators(standard, q1)


def interpolate(nodes: np.ndarray, bary: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """Evaluate the degree-n interpolant of node values at new points x.

    Uses the barycentric formula of the second kind (Berrut & Trefethen, SIAM
    Review 46, 2004) with weights ``bary``, which hold for any affine image of
    their nodes.  A point that equals a node returns that node's value
    exactly.  The result has the shape of ``np.atleast_1d(x)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x.reshape(-1, 1) - nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = bary / diff
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return ((c @ np.asarray(values)) / c.sum(axis=1)).reshape(x.shape)
