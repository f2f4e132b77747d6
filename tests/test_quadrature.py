"""Tests for integration operators, basis antiderivatives, and interpolation."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import operators_on
from laneps import basis, quadrature
from laneps.basis import BasisConfig, _recurrence, node_table, standard_nodeset
from laneps.quadrature import (
    _antiderivatives,
    build_operators,
    build_q1,
    interpolate,
)
from laneps.solver import ProblemSpec, solve

ALPHA_GRID = (-0.4, 0.0, 0.5, 1.1, 2.0)
B_GRID = (1.0, 1.5, 2.0)


def _linear_spec(b):
    return ProblemSpec(kind="linear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
                       delta=1.0, b=b, p=np.cos, g=np.exp)


class TestBasisAntiderivatives:
    def test_chebyshev_quadratic_closed_form(self):
        """For alpha = 0, the degree-2 antiderivative is 2x^3/3 - x - 1/3."""
        x = np.linspace(-1.0, 1.0, 21)
        rows = _antiderivatives(0.0, _recurrence(0.0, 3, x))
        expected = 2.0 * x**3 / 3.0 - x - 1.0 / 3.0
        assert np.max(np.abs(rows[2] - expected)) <= 1e-14

    def test_low_degree_closed_forms(self):
        """m = 0 leaves the closed form for degrees >= 2 an empty range."""
        x = np.linspace(-1.0, 1.0, 21)
        for m in (0, 1):
            rows = _antiderivatives(1.3, _recurrence(1.3, m + 1, x))
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
        rows = _antiderivatives(alpha, _recurrence(alpha, 25, xs))
        for i, x in enumerate(xs):
            half = (x + 1.0) / 2.0
            exact = half * _recurrence(alpha, 24, half * (t + 1.0) - 1.0) @ w
            for j in (0, 1, 2, 3, 7, 12, 24):
                assert abs(rows[j, i] - exact[j]) <= 1e-12

    @given(alpha=st.sampled_from(ALPHA_GRID), j=st.integers(min_value=2, max_value=24))
    def test_vanishes_at_left_endpoint(self, alpha, j):
        """Integrals from -1 to -1 are zero; degree >= 2 rows vanish exactly."""
        rows = _antiderivatives(alpha, _recurrence(alpha, j + 1, np.array([-1.0])))
        assert abs(rows[j, 0]) <= 1e-13


class TestFirstOrderOperator:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 11, 20])
    @pytest.mark.parametrize("b", B_GRID)
    def test_exact_on_polynomials(self, alpha, n, b):
        """Integration of t^k from 0 is exact for k <= n (relative scale)."""
        x, q1, _ = operators_on(build_operators(BasisConfig(alpha, n)), b)
        for k in range(n + 1):
            approx = q1 @ x**k
            exact = x ** (k + 1) / (k + 1.0)
            assert np.max(np.abs(approx - exact)) / np.max(np.abs(exact)) <= 1e-11

    def test_integrates_constants_to_node_offsets(self):
        cfg = BasisConfig(0.3, 9)
        ops = build_operators(cfg)
        ones = np.ones(10)
        standard = standard_nodeset(cfg)
        q1 = build_q1(standard, table=node_table(cfg))
        assert np.max(np.abs(q1 @ ones - (standard.nodes + 1.0))) <= 1e-12
        x, q1_on_unit, _ = operators_on(ops, 1.0)
        assert np.max(np.abs(q1_on_unit @ ones - x)) <= 1e-12

    def test_b_two_reuses_the_standard_matrix(self):
        cfg = BasisConfig(1.1, 7)
        ops = build_operators(cfg)
        standard = build_q1(standard_nodeset(cfg), table=node_table(cfg))
        assert np.all(operators_on(ops, 2.0)[1] == standard)

    @pytest.mark.parametrize("alpha", [-0.499, -0.4, 0.5, 2.0])
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_standard_matrix_integrates_low_powers_to_rounding(self, alpha, n):
        """Q1 x^k = (x^(k+1) + (-1)^k) / (k+1) at the standard nodes for k <= 8."""
        ops = build_operators(BasisConfig(alpha, n))
        x, q1 = ops.standard.nodes, ops.q1
        for k in range(9):
            exact = (x ** (k + 1) + (-1) ** k) / (k + 1)
            assert np.max(np.abs(q1 @ x**k - exact)) <= 5e-14


class TestSecondOrderOperator:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("n", [2, 5, 11, 20])
    @pytest.mark.parametrize("b", B_GRID)
    def test_exact_on_polynomials(self, alpha, n, b):
        """Double integration of t^k from 0 is exact for k <= n - 1."""
        x, _, q2 = operators_on(build_operators(BasisConfig(alpha, n)), b)
        for k in range(n):
            approx = q2 @ x**k
            exact = x ** (k + 2) / ((k + 1.0) * (k + 2.0))
            assert np.max(np.abs(approx - exact)) / np.max(np.abs(exact)) <= 1e-11

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_diagonal_is_exactly_zero(self, alpha):
        ops = build_operators(BasisConfig(alpha, 8))
        _, _, q2 = operators_on(ops, 1.5)
        assert np.all(np.diag(q2) == 0.0)


class TestLazySecondOrderOperator:
    """The solver forms Q2 per solve, bit for bit by the kernel formula."""

    @pytest.mark.parametrize("alpha", [-0.499, 0.5, 5.0])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_built_on_first_read_with_the_kernel_formula(self, alpha, n):
        """The solver's y is y0 + a1 x + Q2 Phi with Q2 = (x_i - x_k) (b/2) Q1."""
        spec = ProblemSpec(kind="linear", alpha1=0.25, alpha2=2.0, beta=1.0, gamma=0.5,
                           delta=1.0, b=1.5, p=np.cos, g=np.exp)
        ops = build_operators(BasisConfig(alpha, n))
        r = solve(spec, ops)
        x, _, q2 = operators_on(ops, spec.b)
        y = r.y0 + spec.alpha1 * x + q2 @ r.phi
        assert np.array_equal(r.y_nodes, y)


class TestStandardBasisMemo:
    def test_shared_across_interval_lengths(self):
        cfg = BasisConfig(0.7, 9)
        ops = build_operators(cfg)
        for b in (1.0, 2.5):
            # The map onto [0, b] leaves the standard barycentric weights as they are.
            assert solve(_linear_spec(b), ops).bary is ops.standard.bary

    def test_operators_hold_the_memoized_standard_matrix(self):
        """A hit returns the memo entry itself, so its Q1 is never copied."""
        cfg = BasisConfig(0.7, 9)
        assert build_operators(cfg) is build_operators(cfg)

    def test_a_warm_build_allocates_no_matrix(self):
        """At n = 512 a memo hit allocates under 1 KiB: it builds no array at all."""
        cfg = BasisConfig(0.5, 512)
        build_operators(cfg)
        tracemalloc.start()
        try:
            build_operators(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_a_miss_makes_two_recurrence_passes_and_a_hit_none(self, monkeypatch):
        """One pass for the Newton polish, one at the nodes for weights, bary and Q1."""
        calls = []
        original = basis._recurrence

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(basis, "_recurrence", counted)
        build_operators.cache_clear()
        cfg = BasisConfig(0.5, 12)
        build_operators(cfg)
        assert len(calls) == 2
        build_operators(cfg)
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha", ALPHA_GRID + (-0.499, 20.0))
    @pytest.mark.parametrize("n", [0, 1, 5, 32])
    @pytest.mark.parametrize("b", B_GRID)
    def test_bit_identical_to_a_fresh_build(self, alpha, n, b):
        """The memo entry is a fresh standard build, and a solve maps its nodes onto [0, b]."""
        cfg = BasisConfig(alpha, n)
        fresh = standard_nodeset(cfg)
        fresh_q1 = build_q1(fresh, table=node_table(cfg))
        for ops in (build_operators(cfg), build_operators(cfg)):
            for field in ("nodes", "weights", "bary"):
                assert np.array_equal(getattr(ops.standard, field), getattr(fresh, field))
            assert np.array_equal(ops.q1, fresh_q1)
        if n == 0:  # the one-node rule does not solve
            return
        r = solve(_linear_spec(b), build_operators(cfg))
        assert np.array_equal(r.nodes, (b / 2.0) * (fresh.nodes + 1.0))
        assert np.array_equal(r.bary, fresh.bary)

    def test_least_recently_used_basis_is_rebuilt(self):
        cfg = BasisConfig(0.25, 3)
        first = build_operators(cfg)
        for k in range(quadrature._BASIS_CACHE_SIZE):
            build_operators(BasisConfig(0.25, 4 + k))
        assert build_operators(cfg) is not first

    def test_public_builders_return_fresh_objects(self):
        cfg = BasisConfig(0.5, 6)
        assert standard_nodeset(cfg) is not standard_nodeset(cfg)
        standard, table = standard_nodeset(cfg), node_table(cfg)
        assert build_q1(standard, table=table) is not build_q1(standard, table=table)


class TestInterpolation:
    @pytest.mark.parametrize("shape", [(2, 3), (2, 1), (3, 1, 2)])
    def test_keeps_the_shape_of_the_points(self, shape):
        ns = standard_nodeset(BasisConfig(0.5, 8))
        nodes = 0.75 * (ns.nodes + 1.0)
        values = np.cos(nodes)
        flat = np.linspace(0.0, 1.5, math.prod(shape))
        flat[1] = nodes[3]
        out = interpolate(nodes, ns.bary, values, flat.reshape(shape))
        assert out.shape == shape
        assert np.array_equal(out, interpolate(nodes, ns.bary, values, flat).reshape(shape))

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_cardinal_at_the_nodes(self, alpha):
        ns = standard_nodeset(BasisConfig(alpha, 9))
        lmat = np.array([interpolate(ns.nodes, ns.bary, unit, ns.nodes) for unit in np.eye(10)])
        assert np.max(np.abs(lmat - np.eye(10))) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 2.0, 5.0])
    def test_returns_node_values_bit_for_bit(self, alpha, n):
        standard = standard_nodeset(BasisConfig(alpha, n))
        values = np.random.default_rng(n).standard_normal(n + 1)
        for b in B_GRID:
            nodes = (b / 2.0) * (standard.nodes + 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = interpolate(nodes, standard.bary, values, nodes)
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
            nodes = (b / 2.0) * (standard.nodes + 1.0)
            x = np.linspace(0.0, b, 1001)[1:]
            for d in {n // 2, n}:
                values = np.cos(d * np.arccos(2.0 * nodes / b - 1.0))
                expected = np.cos(d * np.arccos(2.0 * x / b - 1.0))
                out = interpolate(nodes, standard.bary, values, x)
                assert np.max(np.abs(out - expected)) <= 1e-11

    @pytest.mark.parametrize("n", [3, 9, 16])
    @pytest.mark.parametrize("alpha", [-0.499, 0.0, 0.5, 2.0, 5.0])
    def test_cardinal_functions_match_lagrange_products(self, alpha, n):
        """Interpolating the k-th unit vector gives prod_{j != k} (x - x_j)/(x_k - x_j).

        Checked on (0, b], like the Chebyshev polynomials above, to 1e-13 of
        the function's size: at alpha = 5 it reaches 26 below the lowest node.
        """
        ns = standard_nodeset(BasisConfig(alpha, n))
        mapped = 0.75 * (ns.nodes + 1.0)
        x = np.linspace(0.0, 1.5, 41)[1:]
        with mpmath.workdps(50):
            nodes = [mpmath.mpf(float(t)) for t in mapped]
            for k, unit in enumerate(np.eye(n + 1)):
                exact = np.array([
                    float(mpmath.fprod((mpmath.mpf(float(t)) - xj) / (nodes[k] - xj)
                                       for j, xj in enumerate(nodes) if j != k))
                    for t in x
                ])
                size = max(1.0, float(np.max(np.abs(exact))))
                out = interpolate(mapped, ns.bary, unit, x)
                assert np.max(np.abs(out - exact)) <= 1e-13 * size

    @pytest.mark.parametrize("b", B_GRID)
    def test_reproduces_polynomials(self, b):
        ns = build_operators(BasisConfig(0.5, 8)).standard
        nodes = (b / 2.0) * (ns.nodes + 1.0)
        x = np.linspace(0.0, b, 33)
        values = nodes**5 - 2.0 * nodes + 1.0
        expected = x**5 - 2.0 * x + 1.0
        assert np.max(np.abs(interpolate(nodes, ns.bary, values, x) - expected)) <= 1e-10

    @given(
        c0=st.floats(min_value=-2.0, max_value=2.0),
        c1=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_reproduces_affine_functions(self, c0, c1):
        ns = standard_nodeset(BasisConfig(1.1, 5))
        values = c0 + c1 * ns.nodes
        x = np.linspace(-1.0, 1.0, 11)
        assert np.max(np.abs(interpolate(ns.nodes, ns.bary, values, x) - (c0 + c1 * x))) <= 1e-11

    def test_matrices_are_frozen(self):
        """The memo entry's Q1 and standard nodeset are read-only."""
        ops = build_operators(BasisConfig(0.5, 4))
        for arr in (ops.q1, ops.standard.nodes, ops.standard.weights, ops.standard.bary):
            with pytest.raises(ValueError):
                arr[0] = 0.0
