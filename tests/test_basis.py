"""Tests for the polynomial family, Radau nodes, and Christoffel weights."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laneps import basis
from laneps.basis import (
    _NEWTON_N,
    BasisConfig,
    NodeSet,
    _golub_welsch,
    _newton_step,
    _recurrence,
    _squared_norms,
    christoffel_weights,
    gauss_radau_nodes,
    standard_nodeset,
)
from laneps.cli import main
from laneps.solver import ProblemSpec

ALPHA_GRID = (-0.4, 0.0, 0.5, 1.1, 2.0)
NODE_ALPHAS = ALPHA_GRID + (-0.499, 5.0, 20.0)
NODE_DEGREES = (1, 2, 3, 5, 8, 12, 16, 20, 64, 128, 512)
ORACLE_DEGREES = (1, 2, 8, 32)
POLISH_ALPHAS = (-0.499, -0.4, -0.2, 0.0, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0)
POLISH_DEGREES = (1, 2, 3, 7, 16, 33, 64, 127, 128, 255, 256, 511, 512)
#: Recurrence degrees m, which take the steps k = 1 .. m - 1.  m = 33 fills
#: the first 32-step block of c_k x products exactly; 32 stops one step short
#: of it and 34 takes one step into the second block.
PASS_DEGREES = (1, 2, 3, 8, 32, 33, 34, 129, 513)
PASS_ALPHAS = (-0.499, -0.4, 0.0, 0.5, 2.0, 5.0, 20.0)
EPS = np.finfo(float).eps

alphas = st.sampled_from(ALPHA_GRID)
degrees = st.integers(min_value=2, max_value=20)
points = st.floats(min_value=-1.0, max_value=1.0)


def _textbook_table(alpha, m, x):
    """G_0 .. G_m by the three-term recurrence, one loop over the values."""
    x = np.asarray(x, dtype=float)
    out = np.empty((m + 1,) + x.shape)
    out[0] = 1.0
    if m >= 1:
        out[1] = x
    for k in range(1, m):
        out[k + 1] = (2 * (k + alpha) * x * out[k] - k * out[k - 1]) / (k + 2 * alpha)
    return out


def _textbook_node_derivative(alpha, g):
    """G_m' - G_{m-1}' at x = g[1] by the differentiated recurrence over the table g."""
    x = g[1]
    d_prev, d = np.zeros_like(x), np.ones_like(x)
    for k in range(1, len(g) - 1):
        d_prev, d = d, (2 * (k + alpha) * (g[k] + x * d) - k * d_prev) / (k + 2 * alpha)
    return d - d_prev


def _node_polynomial(alpha, n, x):
    """q_n = G_{n+1} - G_n and q_n' at x from the two textbook loops."""
    g = _textbook_table(alpha, n + 1, x)
    return g[n + 1] - g[n], _textbook_node_derivative(alpha, g)


def _exact_bary(alpha, n, x):
    """1/q_n'(x) by the recurrence and its derivative in 40-digit mpmath."""
    out = []
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for t in map(mpmath.mpf, x):
            g_prev, g, d_prev, d = mpmath.mpf(1), t, mpmath.mpf(0), mpmath.mpf(1)
            for k in range(1, n + 1):
                g_prev, g, d_prev, d = (g, (2 * (k + a) * t * g - k * g_prev) / (k + 2 * a),
                                        d, (2 * (k + a) * (g + t * d) - k * d_prev) / (k + 2 * a))
            out.append(float(1 / (d - d_prev)))
    return np.array(out)


def _exact_roots(alpha, n, x):
    """The roots of q_n nearest x, by one 40-digit Newton step from each.

    x is within a few ulps of a root, so the step leaves an error near
    |q_n''/q_n'| |x - root|^2, far below 1e-20.  Its q_n' comes from the
    textbook loops in double precision: a relative error d in it moves the
    step by d |x - root| only.
    """
    _, qd = _node_polynomial(alpha, n, x)
    out = []
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        up = [2 * (k + a) / (k + 2 * a) for k in range(1, n + 1)]
        down = [k / (k + 2 * a) for k in range(1, n + 1)]
        for t, slope in zip(map(mpmath.mpf, x), qd):
            g_prev, g = mpmath.mpf(1), t
            for c, d in zip(up, down):
                g_prev, g = g, c * t * g - d * g_prev
            out.append(float(t - (g - g_prev) / slope))
    return np.array(out)


def _assert_close(computed, exact, n):
    """Normwise agreement to 64 n ulp of the largest exact value (at least 1)."""
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(computed - exact)) <= 64 * n * EPS * scale


class TestEvaluation:
    @given(alpha=alphas, m=degrees, x=points)
    def test_three_term_recurrence(self, alpha, m, x):
        """(k + 2a) G_{k+1} = 2 (k + a) x G_k - k G_{k-1} for all rows."""
        g = _recurrence(alpha, m, np.array([x]))[:, 0]
        for k in range(1, m):
            lhs = (k + 2.0 * alpha) * g[k + 1]
            rhs = 2.0 * (k + alpha) * x * g[k] - k * g[k - 1]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(alpha=alphas, m=degrees)
    def test_unit_value_at_right_endpoint(self, alpha, m):
        g = _recurrence(alpha, m, np.array([1.0]))
        assert np.max(np.abs(g - 1.0)) <= 1e-13

    def test_chebyshev_special_case(self):
        """alpha = 0 reproduces Chebyshev polynomials of the first kind."""
        x = np.linspace(-1.0, 1.0, 41)
        g = _recurrence(0.0, 8, x)
        for k in range(9):
            t = np.polynomial.chebyshev.Chebyshev.basis(k)(x)
            assert np.max(np.abs(g[k] - t)) <= 1e-13

    def test_legendre_special_case(self):
        """alpha = 1/2 reproduces Legendre polynomials."""
        x = np.linspace(-1.0, 1.0, 41)
        g = _recurrence(0.5, 8, x)
        for k in range(9):
            p = np.polynomial.legendre.Legendre.basis(k)(x)
            assert np.max(np.abs(g[k] - p)) <= 1e-13

    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_node_polynomial_matches_the_chebyshev_closed_form(self, n):
        """alpha = 0: q_n = T_{n+1} - T_n and q_n' = (n+1) U_n - n U_{n-1}.

        With x = cos t, T_k(x) = cos(k t) and U_k(x) = sin((k+1) t) / sin t.
        """
        t = np.linspace(0.0, np.pi, 13)[1:-1]
        q, qd = _node_polynomial(0.0, n, np.cos(t))
        _assert_close(q, np.cos((n + 1) * t) - np.cos(n * t), n)
        _assert_close(qd, ((n + 1) * np.sin((n + 1) * t) - n * np.sin(n * t)) / np.sin(t), n)

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_node_polynomial_matches_mpmath(self, alpha, n):
        """G_k(x) = 2F1(-k, k + 2a; a + 1/2; (1 - x)/2) at 50 digits; q_n' by mpmath.diff."""
        x = np.concatenate(([1.0, -1.0], np.random.default_rng(n).uniform(-1.0, 1.0, 7)))
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)

            def g(k, t):
                return mpmath.hyp2f1(-k, k + 2 * a, a + 0.5, (1 - t) / 2)

            def q(t):
                return g(n + 1, t) - g(n, t)

            points = [mpmath.mpf(t) for t in x]
            exact_q = np.array([float(q(t)) for t in points])
            exact_qd = np.array([float(mpmath.diff(q, t)) for t in points])
        q_val, qd = _node_polynomial(alpha, n, x)
        _assert_close(q_val, exact_q, n)
        _assert_close(qd, exact_qd, n)

    @pytest.mark.parametrize("alpha", PASS_ALPHAS)
    @pytest.mark.parametrize("m", (0,) + PASS_DEGREES)
    def test_one_pass_is_bit_identical_to_the_textbook_loops(self, alpha, m):
        rng = np.random.default_rng(m)
        for x in (0.3, np.linspace(-1.0, 1.0, 7), rng.uniform(-1.0, 1.0, (2, 3))):
            assert np.array_equal(_recurrence(alpha, m, x), _textbook_table(alpha, m, x))

    @pytest.mark.parametrize("alpha", PASS_ALPHAS)
    @pytest.mark.parametrize("m", PASS_DEGREES)
    def test_values_only_pass_is_bit_identical_to_the_textbook_loop(self, alpha, m):
        """The ring returns the last three rows of the table, G_{-1} = 0 included."""
        rng = np.random.default_rng(m)
        for x in (0.3, np.linspace(-0.9, 0.9, 7), rng.uniform(-0.99, 0.99, (2, 3))):
            g = _textbook_table(alpha, m, x)
            last = np.concatenate((np.zeros((2,) + np.shape(x)), g))[-3:]
            ring = _recurrence(alpha, m, x, False)
            assert ring.shape == (3,) + np.shape(x)
            assert np.array_equal(ring, last)

    @pytest.mark.parametrize("alpha", PASS_ALPHAS)
    def test_degree_zero_pass_takes_g_minus_one_as_zero(self, alpha):
        x = np.linspace(-1.0, 1.0, 5)
        assert np.array_equal(_recurrence(alpha, 0, x), np.ones((1, 5)))
        # the ring holds G_{-2}, G_{-1}, G_0
        assert np.array_equal(_recurrence(alpha, 0, x, False), [[0.0] * 5, [0.0] * 5, [1.0] * 5])

    def test_rejects_a_negative_degree(self):
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            _recurrence(0.5, -1, 0.3)
        with pytest.raises(ValueError, match="degree must be nonnegative, got -2"):
            _recurrence(0.5, -2, np.array([0.3]), False)

    def test_rejects_invalid_parameter(self):
        with pytest.raises(ValueError):
            BasisConfig(-0.5, 4)
        with pytest.raises(ValueError):
            BasisConfig(0.5, -1)
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError):
                BasisConfig(alpha, 4)


class TestScaleFactors:
    def test_chebyshev_normalization(self):
        lambdas = _squared_norms(0.0, 8)
        assert lambdas[0] == math.pi
        assert lambdas[1:] == pytest.approx([math.pi / 2.0] * 8, rel=1e-13)

    def test_legendre_normalization(self):
        expected = [2.0 / (2 * k + 1) for k in range(10)]
        assert _squared_norms(0.5, 9) == pytest.approx(expected, rel=1e-13)

    @given(alpha=alphas, m=st.integers(min_value=0, max_value=10))
    def test_normalization_positive(self, alpha, m):
        lambdas = _squared_norms(alpha, m)
        assert lambdas.shape == (m + 1,)
        assert np.all(lambdas > 0.0)

    @pytest.mark.parametrize("alpha", [-0.499, -0.4, 0.0, 0.5, 2.0, 5.0, 10.0, 20.0])
    def test_matches_mpmath_to_degree_512(self, alpha):
        """lambda_j = 2^(2a-1) j! Gamma(a+1/2)^2 / ((j+a) Gamma(j+2a)) at 40 digits, j >= 1,
        and lambda_0 = 2^(2a) Gamma(a+1/2)^2 / Gamma(2a+1)."""
        lambdas = _squared_norms(alpha, 512)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            gammas = mpmath.gamma(a + 0.5) ** 2
            for j in range(513):
                if j == 0:
                    exact = 2 ** (2 * a) * gammas / mpmath.gamma(2 * a + 1)
                else:
                    exact = (2 ** (2 * a - 1) * mpmath.factorial(j) * gammas
                             / ((j + a) * mpmath.gamma(j + 2 * a)))
                assert abs(float((lambdas[j] - exact) / exact)) <= 5e-14


class TestNodes:
    @pytest.mark.parametrize("alpha", NODE_ALPHAS)
    @pytest.mark.parametrize("n", NODE_DEGREES)
    def test_right_endpoint_and_ordering(self, alpha, n):
        ns = standard_nodeset(BasisConfig(alpha, n))
        assert ns.nodes[0] == 1.0
        assert ns.nodes.shape == (n + 1,)
        assert np.all(np.diff(ns.nodes) < 0.0)
        assert np.all(ns.nodes[1:] > -1.0)
        assert np.all(ns.weights > 0.0)

    @pytest.mark.parametrize("alpha", NODE_ALPHAS)
    @pytest.mark.parametrize("n", NODE_DEGREES)
    def test_nodes_zero_the_generating_polynomial(self, alpha, n):
        """A further Newton step on q_n moves no node by more than 4 ulp of 1."""
        nodes = gauss_radau_nodes(BasisConfig(alpha, n))
        q, qd = _node_polynomial(alpha, n, nodes)
        assert np.all(np.abs(q) <= 4 * EPS * np.abs(qd))

    @pytest.mark.parametrize("alpha", POLISH_ALPHAS)
    @pytest.mark.parametrize("n", POLISH_DEGREES)
    def test_values_only_q_is_bit_identical_to_the_reference(self, alpha, n):
        """The polish's ring holds the last three rows of the full table, bit for bit."""
        x = _golub_welsch(alpha, n)
        ring, table = _recurrence(alpha, n + 1, x, False), _recurrence(alpha, n + 1, x)
        assert np.array_equal(ring, table[-3:])

    @pytest.mark.parametrize("alpha", POLISH_ALPHAS)
    @pytest.mark.parametrize("n", POLISH_DEGREES)
    def test_polish_is_bit_identical_to_the_reference_newton_step(self, alpha, n):
        """The identity's q_n' only scales a correction of a few ulps.

        Every Newton step on q_n is ``_newton_step``; below _NEWTON_N the
        nodes are one such step from the Golub–Welsch eigenvalues.
        """
        x = _golub_welsch(alpha, n)
        q, qd = _node_polynomial(alpha, n, x)
        assert np.array_equal(x - _newton_step(alpha, n, x), x - q / qd)
        if n < _NEWTON_N:
            assert np.array_equal(gauss_radau_nodes(BasisConfig(alpha, n))[1:], x - q / qd)

    @pytest.mark.parametrize("alpha", [-0.499, -0.4, 0.0, 0.5, 2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_newton_nodes_match_mpmath_roots(self, alpha, n):
        """Each node within 2 ulps of 1 of the 40-digit root of q_n next to it.

        The asymptotic guesses are worst at the 8 nodes nearest each end
        (2.4e-4 off at alpha = 20, n = 512); 8 interior nodes are checked too.
        """
        x = gauss_radau_nodes(BasisConfig(alpha, n))[1:]
        idx = np.concatenate((np.arange(8), np.linspace(8, n - 9, 8).round().astype(int),
                              np.arange(n - 8, n)))
        assert np.max(np.abs(x[idx] - _exact_roots(alpha, n, x[idx]))) <= 2 * EPS

    @pytest.mark.parametrize(("alpha", "n"), [(30.0, 256), (50.0, 512)])
    def test_crossed_newton_iterates_are_sorted(self, alpha, n):
        """From alpha = 22 on some iterates swap places; sorted, they are the roots."""
        x = _golub_welsch(alpha, n)
        polished = x - _newton_step(alpha, n, x)
        nodes = gauss_radau_nodes(BasisConfig(alpha, n))
        assert np.max(np.abs(nodes[1:] - polished)) <= 2 * EPS

    def test_eigensolver_runs_only_below_the_switch(self, monkeypatch):
        def refuse(alpha, n):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(basis, "_golub_welsch", refuse)
        assert gauss_radau_nodes(BasisConfig(0.5, _NEWTON_N)).shape == (_NEWTON_N + 1,)
        with pytest.raises(AssertionError, match="eigensolver called"):
            gauss_radau_nodes(BasisConfig(0.5, _NEWTON_N - 1))

    @pytest.mark.parametrize(("alpha", "n", "passes"), [(20.0, 512, 1), (100.0, 256, None)])
    def test_newton_that_does_not_converge_gives_way_to_the_eigensolver(
            self, monkeypatch, alpha, n, passes):
        """alpha = 20, n = 512 needs 7 passes, and alpha = 100, n = 256 does not
        converge in _NEWTON_PASSES; the nodes are then the polished eigenvalues,
        with no warning from the diverged iterates."""
        if passes is not None:
            monkeypatch.setattr(basis, "_NEWTON_PASSES", passes)
        x = _golub_welsch(alpha, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert basis._asymptotic_newton(alpha, n) is None
            nodes = gauss_radau_nodes(BasisConfig(alpha, n))
        assert np.array_equal(nodes[1:], x - _newton_step(alpha, n, x))

    @pytest.mark.parametrize("alpha", [-0.499, 20.0])
    def test_polish_at_n_1024_raises_no_warning(self, alpha):
        """The identity divides by 1 - x^2, which the extreme nodes bring nearest 0.

        The Newton steps and the barycentric weights both read it.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes = gauss_radau_nodes(BasisConfig(alpha, 1024))
            bary = standard_nodeset(BasisConfig(alpha, 1024)).bary
        assert np.all(np.isfinite(nodes))
        assert np.all(np.isfinite(bary))
        assert np.all(np.sign(bary) == (-1.0) ** np.arange(1025))

    @pytest.mark.parametrize("n", [1, 16, 128, 512])
    def test_chebyshev_closed_form(self, n):
        """alpha = 0 gives x_k = cos(2 pi k / (2n + 1)), k = 0 .. n."""
        nodes = gauss_radau_nodes(BasisConfig(0.0, n))
        expected = np.cos(2 * np.pi * np.arange(n + 1) / (2 * n + 1))
        assert np.max(np.abs(nodes - expected)) <= 1e-15

    def test_nodeset_arrays_are_frozen(self):
        ns = standard_nodeset(BasisConfig(0.5, 4))
        for arr in (ns.nodes, ns.weights, ns.bary):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestWeights:
    def test_two_point_legendre_rule(self):
        """Right-endpoint Radau with two points: nodes {1, -1/3}, weights {1/2, 3/2}."""
        ns = standard_nodeset(BasisConfig(0.5, 1))
        assert ns.nodes[0] == 1.0
        assert ns.nodes[1] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert ns.weights[0] == pytest.approx(0.5, rel=1e-13)
        assert ns.weights[1] == pytest.approx(1.5, rel=1e-13)

    def test_two_point_chebyshev_rule(self):
        ns = standard_nodeset(BasisConfig(0.0, 1))
        assert ns.nodes[1] == pytest.approx(-0.5, rel=1e-14)
        assert ns.weights[0] == pytest.approx(math.pi / 3.0, rel=1e-13)
        assert ns.weights[1] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [1, 4, 9, 15, 20])
    def test_weights_positive(self, alpha, n):
        ns = standard_nodeset(BasisConfig(alpha, n))
        assert np.all(ns.weights > 0.0)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [2, 5, 11, 20])
    def test_discrete_orthonormality(self, alpha, n):
        """sum_j w_j G_k(x_j) G_l(x_j) = lambda_k delta_kl for k + l <= 2n."""
        ns = standard_nodeset(BasisConfig(alpha, n))
        g = _recurrence(alpha, n, ns.nodes)
        lambdas = _squared_norms(alpha, n)
        gram = (g * ns.weights[None, :]) @ g.T / lambdas[:, None]
        assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10

    @pytest.mark.parametrize("alpha", [-0.499, -0.4, 0.5, 2.0])
    @pytest.mark.parametrize("n", [3, 7, 128])
    def test_rule_exact_to_degree_2n(self, alpha, n):
        """Weighted moments of x^k match the closed form for k <= 2n.

        The integral of x^k (1 - x^2)^(a - 1/2) over [-1, 1] is
        B((k + 1)/2, a + 1/2) for even k and 0 for odd k.
        """
        ns = standard_nodeset(BasisConfig(alpha, n))
        r = alpha + 0.5
        for k in range(2 * n + 1):
            p = (k + 1) / 2.0
            exact = 0.0 if k % 2 else math.exp(math.lgamma(p) + math.lgamma(r) - math.lgamma(p + r))
            approx = float(np.sum(ns.weights * ns.nodes**k))
            assert approx == pytest.approx(exact, abs=2e-11, rel=1e-12)


class TestShifting:
    """The map of the standard rule onto [0, b], done by each solve and by `laneps nodes`."""

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_rejects_non_finite_length(self, capsys, b):
        """Both places that map the rule refuse a non-finite b and leave the standard rule as it was."""
        ns = standard_nodeset(BasisConfig(0.5, 2))
        nodes, weights = ns.nodes.copy(), ns.weights.copy()
        with pytest.raises(ValueError, match="b must be finite"):
            ProblemSpec(kind="linear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0,
                        delta=0.0, b=b, p=np.zeros_like, g=np.zeros_like)
        assert main(["nodes", "--n", "2", "--alpha", "0.5", "--b", repr(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "b must be finite" in captured.err
        fresh = standard_nodeset(BasisConfig(0.5, 2))
        for rule in (ns, fresh):
            assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)


class TestBarycentricWeights:
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 5.0, 20.0])
    @pytest.mark.parametrize("n", [16, 128])
    def test_match_mpmath_at_the_nodes(self, alpha, n):
        """bary = 1/q_n' at the floating nodes, the endpoint included, to 5e-13 relative."""
        ns = standard_nodeset(BasisConfig(alpha, n))
        idx = np.unique(np.linspace(0, n, 40).round().astype(int))
        exact = _exact_bary(alpha, n, ns.nodes[idx])
        assert np.max(np.abs(ns.bary[idx] - exact) / np.abs(exact)) <= 5e-13

    def test_degree_zero_rule(self):
        """The one-node rule's q_0 = G_1 - G_0 = x - 1 has q_0' = 1."""
        for alpha in (-0.499, 0.0, 0.5):
            assert np.array_equal(standard_nodeset(BasisConfig(alpha, 0)).bary, [1.0])
