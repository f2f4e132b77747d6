"""Tests for the polynomial family, Radau nodes, and Christoffel weights."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laneps.basis import (
    BasisConfig,
    NodeSet,
    christoffel_weights,
    eval_gegenbauer,
    gauss_radau_nodes,
    node_polynomial,
    normalization,
    shift_nodeset,
    standard_nodeset,
)

ALPHA_GRID = (-0.4, 0.0, 0.5, 1.1, 2.0)
NODE_ALPHAS = ALPHA_GRID + (-0.499, 5.0, 20.0)
NODE_DEGREES = (1, 2, 3, 5, 8, 12, 16, 20, 64, 128, 512)
ORACLE_DEGREES = (1, 2, 8, 32)
EPS = np.finfo(float).eps

alphas = st.sampled_from(ALPHA_GRID)
degrees = st.integers(min_value=2, max_value=20)
points = st.floats(min_value=-1.0, max_value=1.0)


def _assert_close(computed, exact, n):
    """Normwise agreement to 64 n ulp of the largest exact value (at least 1)."""
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(computed - exact)) <= 64 * n * EPS * scale


class TestEvaluation:
    @given(alpha=alphas, m=degrees, x=points)
    def test_three_term_recurrence(self, alpha, m, x):
        """(k + 2a) G_{k+1} = 2 (k + a) x G_k - k G_{k-1} for all rows."""
        g = eval_gegenbauer(alpha, m, np.array([x]))[:, 0]
        for k in range(1, m):
            lhs = (k + 2.0 * alpha) * g[k + 1]
            rhs = 2.0 * (k + alpha) * x * g[k] - k * g[k - 1]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(alpha=alphas, m=degrees)
    def test_unit_value_at_right_endpoint(self, alpha, m):
        g = eval_gegenbauer(alpha, m, np.array([1.0]))
        assert np.max(np.abs(g - 1.0)) <= 1e-13

    def test_chebyshev_special_case(self):
        """alpha = 0 reproduces Chebyshev polynomials of the first kind."""
        x = np.linspace(-1.0, 1.0, 41)
        g = eval_gegenbauer(0.0, 8, x)
        for k in range(9):
            t = np.polynomial.chebyshev.Chebyshev.basis(k)(x)
            assert np.max(np.abs(g[k] - t)) <= 1e-13

    def test_legendre_special_case(self):
        """alpha = 1/2 reproduces Legendre polynomials."""
        x = np.linspace(-1.0, 1.0, 41)
        g = eval_gegenbauer(0.5, 8, x)
        for k in range(9):
            p = np.polynomial.legendre.Legendre.basis(k)(x)
            assert np.max(np.abs(g[k] - p)) <= 1e-13

    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_node_polynomial_matches_the_chebyshev_closed_form(self, n):
        """alpha = 0: q_n = T_{n+1} - T_n and q_n' = (n+1) U_n - n U_{n-1}.

        With x = cos t, T_k(x) = cos(k t) and U_k(x) = sin((k+1) t) / sin t.
        """
        t = np.linspace(0.0, np.pi, 13)[1:-1]
        q, qd = node_polynomial(0.0, n, np.cos(t))
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
        q_val, qd = node_polynomial(alpha, n, x)
        _assert_close(q_val, exact_q, n)
        _assert_close(qd, exact_qd, n)

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
        assert normalization(0.0, 0) == math.pi
        for k in (1, 3, 8):
            assert normalization(0.0, k) == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_legendre_normalization(self):
        for k in (0, 2, 4, 9):
            assert normalization(0.5, k) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    @given(alpha=alphas, m=st.integers(min_value=0, max_value=10))
    def test_normalization_positive(self, alpha, m):
        assert normalization(alpha, m) > 0.0


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
        q, qd = node_polynomial(alpha, n, nodes)
        assert np.all(np.abs(q) <= 4 * EPS * np.abs(qd))

    @pytest.mark.parametrize("n", [1, 16, 128, 512])
    def test_chebyshev_closed_form(self, n):
        """alpha = 0 gives x_k = cos(2 pi k / (2n + 1)), k = 0 .. n."""
        nodes = gauss_radau_nodes(BasisConfig(0.0, n))
        expected = np.cos(2 * np.pi * np.arange(n + 1) / (2 * n + 1))
        assert np.max(np.abs(nodes - expected)) <= 1e-15


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
        g = eval_gegenbauer(alpha, n, ns.nodes)
        gram = (g * ns.weights[None, :]) @ g.T / ns.lambdas[:, None]
        assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    @pytest.mark.parametrize("n", [3, 7])
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
    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0])
    def test_endpoints_and_scaling(self, b):
        ns = standard_nodeset(BasisConfig(0.7, 6))
        shifted = shift_nodeset(ns, b)
        assert shifted.nodes[0] == b
        assert np.all(shifted.nodes[1:] > 0.0)
        factor = (b / 2.0) ** (2.0 * 0.7)
        assert np.allclose(shifted.weights, factor * ns.weights, rtol=1e-14)

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_rejects_non_finite_length(self, b):
        ns = standard_nodeset(BasisConfig(0.5, 2))
        with pytest.raises(ValueError, match="b must be finite"):
            shift_nodeset(ns, b)

    def test_b_two_is_a_pure_translation(self):
        ns = standard_nodeset(BasisConfig(1.1, 8))
        shifted = shift_nodeset(ns, 2.0)
        assert np.all(shifted.nodes == ns.nodes + 1.0)
        assert np.all(shifted.weights == ns.weights)

    def test_nodeset_arrays_are_frozen(self):
        ns = standard_nodeset(BasisConfig(0.5, 4))
        with pytest.raises(ValueError):
            ns.nodes[0] = 0.0
