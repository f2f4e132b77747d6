"""Tests for integration operators, basis antiderivatives, and interpolation."""
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laneps import quadrature
from laneps.basis import BasisConfig, shift_nodeset, standard_nodeset
from laneps.quadrature import (
    build_operators,
    build_q1,
    eval_gegenbauer,
    integrate_basis,
    interpolate,
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
        """m = 0 leaves the closed form for degrees >= 2 an empty range."""
        x = np.linspace(-1.0, 1.0, 21)
        for m in (0, 1):
            rows = integrate_basis(1.3, m, x)
            expected = np.array([x + 1.0, (x**2 - 1.0) / 2.0])[: m + 1]
            assert rows.shape == expected.shape
            assert np.max(np.abs(rows - expected)) <= 1e-14

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


class TestStandardBasisMemo:
    def test_shared_across_interval_lengths(self):
        cfg = BasisConfig(0.7, 9)
        first, second = build_operators(cfg, 1.0), build_operators(cfg, 2.5)
        assert first.standard is second.standard
        assert first.q1 is second.q1

    @pytest.mark.parametrize("alpha", ALPHA_GRID + (-0.499, 20.0))
    @pytest.mark.parametrize("n", [0, 1, 5, 32])
    @pytest.mark.parametrize("b", B_GRID)
    def test_bit_identical_to_a_fresh_build(self, alpha, n, b):
        cfg = BasisConfig(alpha, n)
        standard = standard_nodeset(cfg)
        fresh = shift_operators(build_q1(standard), standard, b)
        for ops in (build_operators(cfg, b), build_operators(cfg, b)):
            for ns in ("standard", "shifted"):
                for field in ("nodes", "weights", "lambdas"):
                    assert np.array_equal(
                        getattr(getattr(ops, ns), field), getattr(getattr(fresh, ns), field)
                    )
            for field in ("q1", "q1_shifted", "q2_shifted"):
                assert np.array_equal(getattr(ops, field), getattr(fresh, field))

    def test_least_recently_used_basis_is_rebuilt(self):
        cfg = BasisConfig(0.25, 3)
        first = build_operators(cfg).standard
        for k in range(quadrature._BASIS_CACHE_SIZE):
            build_operators(BasisConfig(0.25, 4 + k))
        assert build_operators(cfg).standard is not first

    def test_public_builders_return_fresh_objects(self):
        cfg = BasisConfig(0.5, 6)
        assert standard_nodeset(cfg) is not standard_nodeset(cfg)
        standard = standard_nodeset(cfg)
        assert build_q1(standard) is not build_q1(standard)


class TestInterpolation:
    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_cardinal_at_the_nodes(self, alpha):
        ns = standard_nodeset(BasisConfig(alpha, 9))
        lmat = np.array([interpolate(ns, unit, ns.nodes) for unit in np.eye(10)])
        assert np.max(np.abs(lmat - np.eye(10))) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 2.0, 5.0])
    def test_returns_node_values_bit_for_bit(self, alpha, n):
        standard = standard_nodeset(BasisConfig(alpha, n))
        values = np.random.default_rng(n).standard_normal(n + 1)
        for b in B_GRID:
            ns = shift_nodeset(standard, b)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = interpolate(ns, values, ns.nodes)
            assert np.array_equal(out, values)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 256, 512])
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 2.0])
    def test_reproduces_chebyshev_polynomials(self, alpha, n):
        """T_d(2x/b - 1) for d = n/2 and n, on 1000 points of (0, b].

        x = 0 is left out: it lies outside the nodes, and the solver returns
        its recovered y(0) there instead of the interpolant.
        """
        standard = standard_nodeset(BasisConfig(alpha, n))
        for b in B_GRID:
            ns = shift_nodeset(standard, b)
            x = np.linspace(0.0, b, 1001)[1:]
            for d in {n // 2, n}:
                values = np.cos(d * np.arccos(2.0 * ns.nodes / b - 1.0))
                expected = np.cos(d * np.arccos(2.0 * x / b - 1.0))
                assert np.max(np.abs(interpolate(ns, values, x) - expected)) <= 1e-11

    @pytest.mark.parametrize("n", [3, 9, 16])
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 2.0, 5.0])
    def test_cardinal_functions_match_lagrange_products(self, alpha, n):
        """Interpolating the k-th unit vector gives prod_{j != k} (x - x_j)/(x_k - x_j).

        Checked on (0, b], like the Chebyshev polynomials above, to 1e-13 of
        the function's size: at alpha = 5 it reaches 26 below the lowest node.
        """
        ns = shift_nodeset(standard_nodeset(BasisConfig(alpha, n)), 1.5)
        x = np.linspace(0.0, 1.5, 41)[1:]
        with mpmath.workdps(50):
            nodes = [mpmath.mpf(float(t)) for t in ns.nodes]
            for k, unit in enumerate(np.eye(n + 1)):
                exact = np.array([
                    float(mpmath.fprod((mpmath.mpf(float(t)) - xj) / (nodes[k] - xj)
                                       for j, xj in enumerate(nodes) if j != k))
                    for t in x
                ])
                size = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(interpolate(ns, unit, x) - exact)) <= 1e-13 * size

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
        """Shifted operators, and the memoized standard ones they share, are read-only."""
        ops = build_operators(BasisConfig(0.5, 4), 1.0)
        for arr in (ops.q1_shifted, ops.q2_shifted, ops.q1, ops.standard.nodes):
            with pytest.raises(ValueError):
                arr[0] = 0.0
