"""Gegenbauer polynomial basis, Gauss-Radau nodes and Christoffel weights.

The basis is the Gegenbauer family standardized so that G_n(1) = 1 for every
degree, generated by the three-term recurrence

    (n + 2a) G_{n+1}(x) = 2 (n + a) x G_n(x) - n G_{n-1}(x),   G_0 = 1, G_1 = x,

orthogonal on [-1, 1] against the weight (1 - x^2)^(a - 1/2) for a > -1/2.
a = 0 gives the Chebyshev polynomials of the first kind and a = 1/2 the
Legendre polynomials.  Collocation uses the right-endpoint Gauss-Radau points:
x = 1 together with the n roots of q_n = G_{n+1} - G_n.  Below n = 256 these
are the Golub–Welsch eigenvalues of the Jacobi matrix after one Newton polish,
an O(n^3) eigensolve; from n = 256 on they come from simultaneous Newton on
q_n started at asymptotic guesses, O(n^2), which is the faster of the two
there, or from the eigensolver where Newton does not converge.  One private
pass of the recurrence yields the values G_0 .. G_m, or the last three
alone, and every evaluation goes through it.  Each Newton step on q_n is one
pass for the last three values, from which it takes q_n' by a derivative
identity: one step for the polish, 2 to 7 from the guesses at alpha <= 20.
One more pass gives the table of
G_0 .. G_{n+1} at the nodes (``node_table``), which the Christoffel weights
and Q1 read.  The barycentric weights 1/q_n' come from that table and the
Christoffel weights by the Christoffel–Darboux formula.  A ``NodeSet`` is
always this rule on [-1, 1]; each solve maps its nodes onto [0, b] itself.
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
]


class RootFindingError(RuntimeError):
    """Raised when the Gauss-Radau nodes are out of order or a rule array or Q1 is not finite."""


def _check_alpha(alpha: float) -> None:
    if not (alpha > -0.5 and math.isfinite(alpha)):
        raise ValueError(f"Gegenbauer parameter must be finite and exceed -1/2, got {alpha}")


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")


#: Recurrence steps whose products c_k x one outer product forms.
_BLOCK = 32
#: From this degree on the nodes come from Newton at asymptotic guesses, not
#: from the eigensolver.  Best of 30 for alpha in {-0.4, 0.5, 2, 5} (2-CPU
#: x86-64 host, numpy 2.4): 1.7-2.9 against 3.6-3.7 ms at n = 256, but
#: 0.9-1.7 against 0.9-1.1 ms at n = 128.
_NEWTON_N = 256
#: Newton passes after which that path gives way to the eigensolver.  From the
#: guesses, alpha <= 2 takes 3-4 passes, alpha = 20 takes 6-7 and alpha = 150
#: up to 20; alpha = 100 at n = 256 does not converge.
_NEWTON_PASSES = 24


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
    """The Gauss-Radau rule on [-1, 1]: nodes, quadrature and barycentric weights.

    nodes are strictly descending, starting at x = 1.  ``weights`` are the
    Gauss-Radau weights against the Gegenbauer weight function, the
    Christoffel numbers of the nodes.  ``bary`` are the barycentric
    interpolation weights 1/q_n'(x_k), which the Christoffel–Darboux formula
    reads off the Christoffel numbers: the nodes are the n+1 roots of q_n.
    A solve maps the nodes onto [0, b] by x -> (b/2)(x + 1) and keeps
    ``bary`` as it is: the map scales every barycentric weight by one factor,
    which cancels in the barycentric formula.
    """

    alpha: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    bary: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.bary):
            arr.setflags(write=False)


def _scalars(values: np.ndarray) -> list[np.ndarray]:
    """The entries of a 1-D array as 0-d arrays, which a ufunc reads faster than Python numbers."""
    return [values[j, ...] for j in range(values.size)]


def _recurrence(alpha: float, m: int, x, table: bool = True) -> np.ndarray:
    """G_0 .. G_m at x by one pass of the recurrence, or G_{m-2}, G_{m-1}, G_m alone.

    With ``table`` the result has shape (m+1,) + shape(x).  Without it the
    rows cycle through a ring of three, and the result is the last three,
    shape (3,) + shape(x), with G_{-2} = G_{-1} = 0: a Newton step on q_n
    reads only those, so it keeps no table.  The products c_k x,
    c_k = 2 (k + a), of _BLOCK degrees at a time come from one outer
    product, and k and k + 2a are 0-d arrays made once per block, so a
    degree step makes four numpy calls, in place, none of which converts a
    Python number.  The operations and their order are the textbook loop's,
    one product c_k x per degree, so the values agree with it bit for bit.
    Beside its result a pass allocates O(_BLOCK * size(x)).
    """
    _check_alpha(alpha)
    _check_degree(m)
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)
    out = np.zeros((m + 1 if table else 3, x.size))  # G_k in row k % len(out)
    out[0] = 1.0
    if m >= 1:
        out[1] = x
    factors = np.empty((min(_BLOCK, m), x.size))  # c_k x for a block of steps
    views = list(factors)  # per-step views, built once
    k = np.arange(1.0, m)  # the degrees k = 1 .. m-1 that the steps advance from
    c, d = 2 * (k + alpha), k + 2 * alpha  # the bits of 2 * (k + alpha) and k + 2 * alpha
    scaled = np.empty(x.size)
    source = out if table else list(out)  # the ring's three row views, made once
    for start in range(0, m - 1, _BLOCK):
        stop = min(start + _BLOCK, m - 1)
        np.multiply.outer(c[start:stop], x, out=factors[:stop - start])
        # the block's scalars and rows G_start .. G_{stop+1}, made per block
        # so that a pass holds O(_BLOCK) of these objects; each ufunc below
        # takes its output positionally, which numpy parses faster than a
        # keyword
        ks, ds = _scalars(k[start:stop]), _scalars(d[start:stop])
        rows = [source[i % len(out)] for i in range(start, stop + 2)]
        for factor, kj, dj, prev, cur, nxt in zip(views, ks, ds, rows, rows[1:], rows[2:]):
            np.multiply(cur, factor, nxt)  # c x G_k
            np.multiply(kj, prev, scaled)
            np.subtract(nxt, scaled, nxt)
            np.divide(nxt, dj, nxt)  # G_{k+1}
    if table:
        return out.reshape((m + 1,) + shape)
    return out[[(m - 2) % 3, (m - 1) % 3, m % 3]].reshape((3,) + shape)


def _squared_norms(alpha: float, n: int) -> np.ndarray:
    """Squared weighted L2 norms lambda_0 .. lambda_n of G_0 .. G_n on [-1, 1].

    lambda_0 = 2^(2a) Gamma(a+1/2)^2 / Gamma(2a+1), exactly pi at a = 0.
    The rest are the ratios of lambda_j = 2^(2a-1) j! Gamma(a+1/2)^2 /
    ((j+a) Gamma(j+2a)), multiplied out by one cumulative product:
    lambda_1 = lambda_0 / (2 (1+a)) and, for j >= 2,

        lambda_j = lambda_{j-1} (j / (j+a)) ((j-1+a) / (j-1+2a)).
    """
    try:
        head = math.pi if alpha == 0.0 else math.exp(
            2 * alpha * math.log(2) + 2 * math.lgamma(alpha + 0.5) - math.lgamma(2 * alpha + 1))
    except OverflowError:  # the lgammas of a huge alpha cancel to noise
        head = math.nan
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
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise RootFindingError(f"the Jacobi matrix of alpha = {alpha!r} is not finite")
    jacobi = np.diag(diag)
    jacobi[k, k - 1] = off  # eigvalsh reads only the lower triangle
    return np.linalg.eigvalsh(jacobi)[::-1]


def _newton_step(alpha: float, n: int, x: np.ndarray) -> np.ndarray:
    """The Newton step q_n(x) / q_n'(x) at interior points x, from one values-only pass.

    It reads G_{n-1}, G_n and G_{n+1} from the ring of the pass and q_n' from
    them by the identity (1 - x^2) G_j' = j (G_{j-1} - x G_j) (Szego,
    Orthogonal Polynomials, 1939, section 4.7), which loses digits near +-1:
    the last steps are a few ulps, so those digits do not reach the nodes.
    """
    g_prev, g_n, g_next = _recurrence(alpha, n + 1, x, False)
    slope = ((n + 1) * (g_n - x * g_next) - n * (g_prev - x * g_n)) / (1.0 - x * x)
    return (g_next - g_n) / slope


def _asymptotic_newton(alpha: float, n: int) -> np.ndarray | None:
    """The n roots of q_n, descending, by simultaneous Newton from asymptotic
    guesses; None if _NEWTON_PASSES passes do not converge.

    They are the Gauss nodes of the Jacobi weight of ``_golub_welsch``, with
    a = alpha + 1/2 and b = alpha - 1/2.  The guesses are the interior
    expansion of Gatteschi and Pittaluga (Hale & Townsend, SIAM J. Sci.
    Comput. 35(2), 2013, section 3), x_k = cos(theta_k) with

        theta_k = phi_k + ((1/4 - a^2) cot(phi_k/2) - (1/4 - b^2) tan(phi_k/2)) / (4 rho^2),

    phi_k = (k + a/2 - 1/4) pi / rho and rho = n + (a + b + 1)/2; it is
    exact at alpha = 0.  They are worst near +-1: 2.4e-4 off at alpha = 20,
    n = 512.  While a step exceeds 1e-6, the Aberth–Ehrlich correction
    step / (1 - step sum_{j != k} 1/(x_k - x_j)) (Aberth, Math. Comp. 27,
    1973) over the other roots, x = 1 among them, keeps the iterates apart;
    plain Newton from these guesses takes 8 passes at alpha = 10 and loses
    the node order from alpha = 15 on.  The passes stop one after the
    largest step falls to 1e-9: stopping at that step left nodes up to
    7.2e-14 off (alpha = -0.499, n = 1024).  From alpha = 22 on some
    iterates swap places on the way, so the roots are sorted at the end,
    and the caller checks that they are strictly descending.
    """
    a, b = alpha + 0.5, alpha - 0.5
    rho = n + alpha + 0.5  # n + (a + b + 1)/2
    phi = (np.arange(1, n + 1) + a / 2 - 0.25) * (math.pi / rho)
    t = np.tan(phi / 2)
    x = np.cos(phi + ((0.25 - a * a) / t - (0.25 - b * b) * t) / (4 * rho * rho))
    last = math.inf
    # an iterate that leaves (-1, 1) overflows the recurrence; it fails the
    # convergence test or the caller's check, so it needs no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_PASSES):
            step = _newton_step(alpha, n, x)
            size = np.max(np.abs(step))
            if size > 1e-6:
                gaps = np.subtract.outer(x, np.append(x, 1.0))
                np.fill_diagonal(gaps, np.inf)
                step = step / (1.0 - step * np.sum(1.0 / gaps, axis=1))
            x = x - step
            if last <= 1e-9:
                return np.sort(x)[::-1]
            last = size
    return None


def gauss_radau_nodes(cfg: BasisConfig) -> np.ndarray:
    """Right-endpoint Gauss-Radau abscissas: 1 and the roots of q_n, descending.

    Below n = _NEWTON_N the interior roots are the Golub–Welsch eigenvalues
    after one Newton step (the polish); from _NEWTON_N on they come from
    ``_asymptotic_newton``, and from the polished eigenvalues where that
    does not converge (alpha = 100 at n = 256).  Both paths take their
    steps from ``_newton_step`` and agree within 1.1e-16 where both were run
    (-0.499 <= alpha <= 20, n <= 1024).
    """
    alpha, n = cfg.alpha, cfg.n
    if n == 0:
        return np.array([1.0])
    x = _asymptotic_newton(alpha, n) if n >= _NEWTON_N else None
    if x is None:
        x = _golub_welsch(alpha, n)
        x = x - _newton_step(alpha, n, x)
    nodes = np.concatenate(([1.0], x))
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


def _barycentric_weights(cfg: BasisConfig, g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """1/q_n'(x_k) from the table g of ``node_table`` and the Christoffel numbers.

    The confluent Christoffel–Darboux formula (Szego, 1939, section 3.2)
    reads K_n(x, x) = C (q_n' G_n - G_n' q_n) with
    C = (n + 2a) / (2 (n + a) lambda_n), and K_n(x_k, x_k) = 1/w_k, so

        1/q_n'(x_k) = G_n(x_k) / (1/(C w_k) + G_n'(x_k) q_n(x_k))

    with G_n' from the identity of ``_newton_step``.  The polished nodes leave q_n
    a few ulps, not zero, so the last term stays, though its G_n' loses
    digits near -1; without it the weights are off by up to 1.3e-8.  At
    x = 1, where the identity is undefined, 1/q_n'(1) = (2a + 1)/(2n + 2a + 1).
    """
    alpha, n = cfg.alpha, cfg.n
    x, g_prev, g_n, g_next = g[1, 1:], g[n - 1, 1:], g[n, 1:], g[n + 1, 1:]
    slope = n * (g_prev - x * g_n) / (1.0 - x * x)
    # n = 0 has no interior node, and C is 0/0 there at a = 0
    c = (n + 2 * alpha) / (2 * (n + alpha) * _squared_norms(alpha, n)[n]) if n else 1.0
    return np.concatenate(([(2 * alpha + 1) / (2 * n + 2 * alpha + 1)],
                           g_n / (1.0 / (c * weights[1:]) + slope * (g_next - g_n))))


def node_table(cfg: BasisConfig) -> np.ndarray:
    """G_0 .. G_{n+1} at the Gauss-Radau nodes, from one recurrence pass.

    Row 1 of the table holds the nodes themselves.
    """
    return _recurrence(cfg.alpha, cfg.n + 1, gauss_radau_nodes(cfg))


def _require_finite(cfg: BasisConfig, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise RootFindingError(f"the Gauss-Radau rule for alpha = {cfg.alpha!r}, n = {cfg.n} "
                               "is not finite in double precision")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # _require_finite refuses overflow
def standard_nodeset(cfg: BasisConfig, *, table: np.ndarray | None = None) -> NodeSet:
    """Nodes, weights and barycentric weights on [-1, 1], read from ``node_table(cfg)``.

    A caller that has evaluated that table already passes it as ``table``.
    In one error state, a rule that doubles cannot hold raises RootFindingError.
    """
    g = node_table(cfg) if table is None else table
    nodes = g[1].copy()  # a view would keep the whole table alive in the memo
    weights = christoffel_weights(cfg, g)
    bary = _barycentric_weights(cfg, g, weights)
    _require_finite(cfg, weights, bary)
    return NodeSet(cfg.alpha, cfg.n, nodes, weights, bary)

