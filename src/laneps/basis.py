"""Gegenbauer polynomial basis, Gauss-Radau nodes and Christoffel weights.

The basis is the Gegenbauer family standardized so that G_n(1) = 1 for every
degree, generated by the three-term recurrence

    (n + 2a) G_{n+1}(x) = 2 (n + a) x G_n(x) - n G_{n-1}(x),   G_0 = 1, G_1 = x,

orthogonal on [-1, 1] against the weight (1 - x^2)^(a - 1/2) for a > -1/2.
a = 0 gives the Chebyshev polynomials of the first kind and a = 1/2 the
Legendre polynomials.  Collocation uses the right-endpoint Gauss-Radau points:
x = 1 together with the n roots of q_n = G_{n+1} - G_n, computed as Golub–Welsch
eigenvalues of the Jacobi matrix, one Newton polish.  One private pass of the
recurrence yields the values G_0 .. G_m with their derivatives, or the last
values alone, and every evaluation goes through it; it forms the products
2 (k + a) x of 32 degrees at a time by one outer product and hands numpy its
per-degree scalars as 0-d arrays, so each degree step makes four numpy calls
without slopes and seven with them.  A standard basis makes two passes: a
values-only one at the Golub–Welsch nodes for the polish, whose q_n' comes
from the last three values by a derivative identity, and one with slopes at
the polished nodes (``node_table``), whose table of G_0 .. G_{n+1} the
Christoffel weights and Q1 read and whose recurrence q_n' gives the
barycentric weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisConfig",
    "NodeSet",
    "RootFindingError",
    "node_table",
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


#: Recurrence steps whose products c_k x one outer product forms.
_BLOCK = 32


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
    ``interval``.  ``weights`` are the Gauss-Radau weights against the
    Gegenbauer weight function, the Christoffel numbers of the nodes.
    ``bary`` are the barycentric
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


def _scalars(values: np.ndarray) -> list[np.ndarray]:
    """The entries of a 1-D array as 0-d arrays, which a ufunc reads faster than Python numbers."""
    return [values[j, ...] for j in range(values.size)]


def _recurrence(alpha: float, m: int, x, slopes: bool = True
                ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One pass of the recurrence to degree m at x: (G_0 .. G_m, G_m - G_{m-1}, G_m' - G_{m-1}').

    The table has shape (m+1,) + shape(x); the differences have the shape of
    x.  Each degree step advances the stacked pair (G_k, G_k') by the
    recurrence and its derivative

        (k + 2a) G'_{k+1} = 2 (k + a) (G_k + x G'_k) - k G'_{k-1},

    sharing the product by (c_k x, x), c_k = 2 (k + a), the k-multiple of
    the previous pair, the subtraction and the division between the two rows.
    The products c_k x of _BLOCK degrees at a time come from one outer
    product into a buffer whose slope row holds x throughout, and k, c_k and
    k + 2a are 0-d arrays made once per block, so a degree step makes seven
    numpy calls with slopes and four without, none of which converts a Python
    number.  Each row keeps the operations and their order of its own
    recurrence, so both agree bit for bit with the two evaluated in separate
    loops, one product c_k x per degree.  The pairs cycle through three rows,
    so beside its table a pass allocates O(_BLOCK * size(x)).

    Without ``slopes`` the pass is the values-only one of the node polish: it
    drops the slope row and advances the values alone, with the same
    operations, so G_m - G_{m-1} is the same bits, and it keeps no table,
    since the polish reads only the last three values.  The table is then
    None, and the slope difference comes from those three values by the
    identity (1 - x^2) G_j' = j (G_{j-1} - x G_j) (Szego, Orthogonal
    Polynomials, 1939, section 4.7), which loses digits near x = +-1 and is
    undefined there: it is good for a Newton correction, not for 1/q_n'.
    """
    _check_alpha(alpha)
    _check_degree(m)
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)  # 1-D, so that a pair row holds x
    rows = 2 if slopes else 1  # (G_k, G_k'), or G_k alone
    pairs = np.zeros((3, rows, x.size))  # G_k's pair in row k % 3; G_{-1} = G'_{-1} = 0
    pairs[0, 0] = 1.0
    if m >= 1:
        pairs[1, 0], pairs[1, 1:] = x, 1.0
    if slopes:
        out = np.empty((m + 1, x.size))
        out[:2] = pairs[:2, 0][:m + 1]  # G_0, and G_1 when m >= 1
    factors = np.empty((min(_BLOCK, m), rows, x.size))  # (c_k x, x) for a block of steps
    factors[:, 1:] = x
    k = np.arange(1.0, m)  # the degrees k = 1 .. m-1 that the steps advance from
    c, d = 2 * (k + alpha), k + 2 * alpha  # the bits of 2 * (k + alpha) and k + 2 * alpha
    scaled = np.empty((rows, x.size))
    views = list(factors)  # per-step views, built once
    # the three rows as (pair, value row, slope row), rotated one place per step
    prev, cur, nxt = zip(pairs, pairs[:, 0], pairs[:, -1])
    for start in range(0, m - 1, _BLOCK):
        stop = min(start + _BLOCK, m - 1)
        np.multiply.outer(c[start:stop], x, out=factors[:stop - start, 0])
        # the block's scalars and table rows, made per block so that a pass
        # holds O(_BLOCK) of these objects; each ufunc below takes its output
        # positionally, which numpy parses faster than a keyword
        ks, ds = _scalars(k[start:stop]), _scalars(d[start:stop])
        if slopes:
            cs, table = _scalars(c[start:stop]), list(out[start + 2:stop + 2])
        for j, factor in enumerate(views[:stop - start]):  # j: the step's place in its block
            step, value, slope = nxt
            np.multiply(cur[0], factor, step)  # (c x G_k, x G_k')
            if slopes:
                np.add(cur[1], slope, slope)  # G_k + x G_k'
                np.multiply(cs[j], slope, slope)
            np.multiply(ks[j], prev[0], scaled)
            np.subtract(step, scaled, step)
            np.divide(step, ds[j], step)
            if slopes:
                table[j][...] = value  # G_{k+1}
            prev, cur, nxt = cur, nxt, prev
    last, before = pairs[m % 3], pairs[(m - 1) % 3]
    if slopes:
        diff = (last - before).reshape((2,) + shape)
        return out.reshape((m + 1,) + shape), diff[0], diff[1]
    g_m, g_before, g_earlier = last[0], before[0], pairs[(m - 2) % 3, 0]
    slope = (m * (g_before - x * g_m) - (m - 1) * (g_earlier - x * g_before)) / (1.0 - x * x)
    return None, (g_m - g_before).reshape(shape), slope.reshape(shape)


def node_polynomial(alpha: float, n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate q_n = G_{n+1} - G_n and its derivative at x in one recurrence pass.

    This is the reference evaluator of q_n and q_n', both from the recurrence;
    the node polish no longer calls it.
    """
    _check_degree(n)
    return _recurrence(alpha, n + 1, x)[1:]


def _squared_norms(alpha: float, n: int) -> np.ndarray:
    """Squared weighted L2 norms lambda_0 .. lambda_n of G_0 .. G_n on [-1, 1].

    lambda_0 = 2^(2a) Gamma(a+1/2)^2 / Gamma(2a+1), exactly pi at a = 0.
    The rest are the ratios of lambda_j = 2^(2a-1) j! Gamma(a+1/2)^2 /
    ((j+a) Gamma(j+2a)), multiplied out by one cumulative product:
    lambda_1 = lambda_0 / (2 (1+a)) and, for j >= 2,

        lambda_j = lambda_{j-1} (j / (j+a)) ((j-1+a) / (j-1+2a)).
    """
    head = math.pi if alpha == 0.0 else math.exp(
        2 * alpha * math.log(2) + 2 * math.lgamma(alpha + 0.5) - math.lgamma(2 * alpha + 1))
    j = np.arange(2.0, n + 1)
    ratios = np.concatenate(([head, 1 / (2 * (1 + alpha))],
                             (j / (j + alpha)) * ((j - 1 + alpha) / (j - 1 + 2 * alpha))))
    return np.cumprod(ratios[:n + 1])


def _golub_welsch(alpha: float, n: int) -> np.ndarray:
    """The n roots of q_n, descending, as eigenvalues of the Jacobi matrix, unpolished.

    They are the Gauss nodes of the Jacobi weight (1 - x)^(a + 1/2) (1 + x)^(a - 1/2)
    (Golub & Welsch, Math. Comp. 23, 1969).
    """
    a, b = alpha + 0.5, alpha - 0.5
    k = np.arange(1, n)
    s = 2 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)  # k = 0 term, cancelled so alpha = 0 is not 0/0
    diag[1:] = (b * b - a * a) / (s * (s + 2))
    off = np.sqrt(4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1)))
    jacobi = np.diag(diag)
    jacobi[k, k - 1] = off  # eigvalsh reads only the lower triangle
    return np.linalg.eigvalsh(jacobi)[::-1]


def gauss_radau_nodes(cfg: BasisConfig) -> np.ndarray:
    """Right-endpoint Gauss-Radau abscissas: 1 and the roots of q_n, descending.

    The interior roots are the Golub–Welsch eigenvalues after one Newton
    polish on q_n.  The polish reads q_n' from a values-only pass: the
    correction is a few ulps, so the digits its q_n' loses near +-1 do not
    reach the nodes.
    """
    alpha, n = cfg.alpha, cfg.n
    if n == 0:
        return np.array([1.0])
    x = _golub_welsch(alpha, n)
    _, q, qd = _recurrence(alpha, n + 1, x, False)
    nodes = np.concatenate(([1.0], x - q / qd))
    if not (np.all(np.diff(nodes) < 0) and nodes[-1] > -1.0):
        raise RootFindingError("computed nodes are not strictly descending in (-1, 1]")
    return nodes


def christoffel_weights(cfg: BasisConfig, g: np.ndarray) -> np.ndarray:
    """Gauss-Radau quadrature weights against the Gegenbauer weight function.

    ``g`` is the table of ``node_table``; its rows 0 .. n give the Christoffel
    numbers w_k = 1 / sum_{j<=n} G_j(x_k)^2 / lambda_j (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 1.4).  The
    nodes are the zeros of the quasi-orthogonal q_n, so these are the weights
    of the rule, the endpoint's included, and it integrates polynomials of
    degree <= 2n exactly.
    """
    rows = g[:cfg.n + 1]
    return 1.0 / np.einsum("jk,jk,j->k", rows, rows, 1.0 / _squared_norms(cfg.alpha, cfg.n))


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
    return NodeSet(cfg.alpha, cfg.n, nodes, christoffel_weights(cfg, g), 1.0 / slope, (-1.0, 1.0))


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
