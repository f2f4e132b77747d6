"""Tests for integration operators, basis antiderivatives, and interpolation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laneps.basis import BasisConfig, standard_nodeset
from laneps.quadrature import (
    build_operators,
    build_q1,
    build_q2,
    eval_gegenbauer,
    integrate_basis,
    interpolate,
    interpolation_matrix,
    shift_operators,
)

ALPHA_GRID = (-0.4, 0.0, 0.5, 1.1, 2.0)
B_GRID = (1.0, 1.5, 2.0)


class TestBasisAntiderivatives:
    def test_chebyshev_quadratic_closed_form(self):
        """For alpha = 0, the degree-2 antiderivative is 2x^3/3 - x - 1/3."""
        x = np.linspace(-1.0, 1.0, 21)
        rows = integrate_basis(0.0, 2, x)
        expected = 2.0 * x**3 / 3.0 - x - 1.0 / 3.0
        assert np.max(np.abs(rows[2] - expected)) <= 1e-14

    def test_low_degree_closed_forms(self):
        x = np.linspace(-1.0, 1.0, 21)
        rows = integrate_basis(1.3, 1, x)
        assert np.max(np.abs(rows[0] - (x + 1.0))) <= 1e-14
        assert np.max(np.abs(rows[1] - (x**2 - 1.0) / 2.0)) <= 1e-14

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_adaptive_quadrature(self, alpha):
        """Antiderivative rows agree with direct integration of the basis.

        13-point Gauss-Legendre on [-1, x] is exact for the degree-24 rows.
        """
        t, w = np.polynomial.legendre.leggauss(13)
        rng = np.random.default_rng(20240817)
        xs = rng.uniform(-1.0, 1.0, size=20)
        rows = integrate_basis(alpha, 24, xs)
        for i, x in enumerate(xs):
            half = (x + 1.0) / 2.0
            exact = half * eval_gegenbauer(alpha, 24, half * (t + 1.0) - 1.0) @ w
            for j in (0, 1, 2, 3, 7, 12, 24):
                assert abs(rows[j, i] - exact[j]) <= 1e-12

    @given(alpha=st.sampled_from(ALPHA_GRID), j=st.integers(min_value=2, max_value=24))
    def test_vanishes_at_left_endpoint(self, alpha, j):
        """Integrals from -1 to -1 are zero; degree >= 2 rows vanish exactly."""
        rows = integrate_basis(alpha, j, np.array([-1.0]))
        assert abs(rows[j, 0]) <= 1e-13


class TestFirstOrderOperator:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 11, 20])
    @pytest.mark.parametrize("b", B_GRID)
    def test_exact_on_polynomials(self, alpha, n, b):
        """Integration of t^k from 0 is exact for k <= n (relative scale)."""
        ops = build_operators(BasisConfig(alpha, n), b)
        x = ops.shifted.nodes
        for k in range(n + 1):
            approx = ops.q1_shifted @ x**k
            exact = x ** (k + 1) / (k + 1.0)
            assert np.max(np.abs(approx - exact)) / np.max(np.abs(exact)) <= 1e-11

    def test_integrates_constants_to_node_offsets(self):
        ops = build_operators(BasisConfig(0.3, 9), 1.0)
        ones = np.ones(10)
        standard = build_q1(ops.standard)
        assert np.max(np.abs(standard @ ones - (ops.standard.nodes + 1.0))) <= 1e-12
        assert np.max(np.abs(ops.q1_shifted @ ones - ops.shifted.nodes)) <= 1e-12

    def test_b_two_reuses_the_standard_matrix(self):
        cfg = BasisConfig(1.1, 7)
        ops = build_operators(cfg, 2.0)
        standard = build_q1(standard_nodeset(cfg))
        assert np.all(ops.q1_shifted == standard)


class TestSecondOrderOperator:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [2, 5, 11, 20])
    @pytest.mark.parametrize("b", B_GRID)
    def test_exact_on_polynomials(self, alpha, n, b):
        """Double integration of t^k from 0 is exact for k <= n - 1."""
        ops = build_operators(BasisConfig(alpha, n), b)
        x = ops.shifted.nodes
        for k in range(n):
            approx = ops.q2_shifted @ x**k
            exact = x ** (k + 2) / ((k + 1.0) * (k + 2.0))
            assert np.max(np.abs(approx - exact)) / np.max(np.abs(exact)) <= 1e-11

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_diagonal_is_exactly_zero(self, alpha):
        ops = build_operators(BasisConfig(alpha, 8), 1.5)
        assert np.all(np.diag(ops.q2_shifted) == 0.0)

    def test_shift_operators_round_trip(self):
        """Building via shift_operators matches build_operators."""
        cfg = BasisConfig(0.8, 6)
        standard = standard_nodeset(cfg)
        q1 = build_q1(standard)
        ops = shift_operators(q1, standard, 1.5)
        direct = build_operators(cfg, 1.5)
        assert np.all(ops.q1_shifted == direct.q1_shifted)
        assert np.all(ops.q2_shifted == direct.q2_shifted)
        assert np.all(ops.q2 == build_q2(q1, standard.nodes))


class TestInterpolation:
    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_cardinal_at_the_nodes(self, alpha):
        ns = standard_nodeset(BasisConfig(alpha, 9))
        lmat = interpolation_matrix(ns, ns.nodes)
        assert np.max(np.abs(lmat - np.eye(10))) <= 1e-9

    @pytest.mark.parametrize("b", B_GRID)
    def test_reproduces_polynomials(self, b):
        ops = build_operators(BasisConfig(0.5, 8), b)
        ns = ops.shifted
        x = np.linspace(0.0, b, 33)
        values = ns.nodes**5 - 2.0 * ns.nodes + 1.0
        expected = x**5 - 2.0 * x + 1.0
        assert np.max(np.abs(interpolate(ns, values, x) - expected)) <= 1e-10

    @given(
        c0=st.floats(min_value=-2.0, max_value=2.0),
        c1=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_reproduces_affine_functions(self, c0, c1):
        ns = standard_nodeset(BasisConfig(1.1, 5))
        values = c0 + c1 * ns.nodes
        x = np.linspace(-1.0, 1.0, 11)
        assert np.max(np.abs(interpolate(ns, values, x) - (c0 + c1 * x))) <= 1e-11

    def test_matrices_are_frozen(self):
        ops = build_operators(BasisConfig(0.5, 4), 1.0)
        with pytest.raises(ValueError):
            ops.q1_shifted[0, 0] = 0.0
