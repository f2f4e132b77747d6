"""Tests for a priori error bounds: closed forms, decay, and dominance."""
import math

import numpy as np
import pytest

from laneps.basis import BasisConfig, node_polynomial
from laneps.bounds import (
    BoundInputs,
    bound_derivative_error,
    bound_q1_error,
    bound_q2_error,
    bound_residual,
    bound_solution_error,
    prefactor,
    q_sup_norm,
)
from laneps.quadrature import build_operators
from laneps.registry import get_example
from laneps.solver import solve_problem

#: Roundoff allowance when a bound is structurally zero.
ALLOW = 1e-12


class TestSupNorms:
    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.1, 2.0])
    def test_nonnegative_parameter_closed_forms(self, alpha, n):
        assert q_sup_norm(alpha, n) == 2.0

    @pytest.mark.parametrize("alpha", [-0.4, -0.2, -0.05])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 20])
    def test_negative_parameter_values_upper_bound_the_polynomials(self, alpha, n):
        x = np.linspace(-1.0, 1.0, 4001)
        qmax = float(np.max(np.abs(node_polynomial(alpha, n, x)[0])))
        qbound = q_sup_norm(alpha, n)
        assert qmax <= qbound * (1.0 + 1e-9)
        # the closed form stays within a modest factor of the true sup
        # (the degree-1 odd formula is the loosest case)
        envelope = 2.5 if n == 1 else 1.75
        assert qbound <= envelope * qmax


class TestPrefactor:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_decays_with_the_truncation_degree(self, alpha):
        values = [prefactor(alpha, n, 1.0) for n in range(8, 25)]
        assert all(v > 0.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grows_with_the_interval_length(self):
        assert prefactor(0.5, 10, 2.0) > prefactor(0.5, 10, 1.0)


class TestBoundShapes:
    def test_zero_inputs_give_zero_bounds(self):
        bi = BoundInputs(n=6, alpha=0.5, b=1.0)
        x = np.linspace(0.0, 1.0, 5)
        assert np.all(bound_q1_error(bi, x) == 0.0)
        assert np.all(bound_q2_error(bi, x) == 0.0)
        assert np.all(bound_solution_error(bi, x, 1.0, 0.0) == 0.0)

    def test_vanish_at_the_origin_and_grow_along_the_interval(self):
        bi = BoundInputs(n=6, alpha=0.5, b=1.0, a=1.0, a0=1.0, a1=1.0)
        x = np.linspace(0.0, 1.0, 9)
        q1 = bound_q1_error(bi, x)
        assert q1[0] == 0.0
        assert np.all(np.diff(q1) > 0.0)

    def test_derivative_bound_is_zero_at_the_right_endpoint(self):
        bi = BoundInputs(n=6, alpha=0.5, b=1.5, a=1.0)
        vals = bound_derivative_error(bi, np.array([0.5, 1.5]))
        assert vals[0] > 0.0
        assert vals[1] == 0.0

    def test_value_condition_required_for_solution_and_residual_bounds(self):
        bi = BoundInputs(n=6, alpha=0.5, b=1.0, a0=1.0, a1=1.0, lambda_lip=1.0)
        x = np.array([0.5])
        with pytest.raises(ValueError):
            bound_solution_error(bi, x, 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_residual(bi, x, 1.0, 0.0, 1.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            BoundInputs(n=6, alpha=0.5, b=1.0, a=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("b", math.nan), ("b", math.inf), ("alpha", math.inf), ("a", math.nan),
    ])
    def test_rejects_non_finite_inputs(self, field, value):
        inputs = dict(n=6, alpha=0.5, b=1.0, a=1.0)
        inputs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundInputs(**inputs)


def _robin_dominance_rows(case, n, alpha):
    """Measured quantities and their bounds for a value-condition problem."""
    spec = case.spec
    ops = build_operators(BasisConfig(alpha, n), spec.b)
    x = ops.shifted.nodes
    r = solve_problem(spec, n, alpha)
    ds = case.deriv_sup
    f_nodes = case.exact_second(x)

    q1_meas = np.abs(ops.q1_shifted @ f_nodes - (case.exact_prime(x) - spec.alpha1))
    q1_bound = bound_q1_error(BoundInputs(n=n, alpha=alpha, b=spec.b, a=ds(n + 3)), x)

    exact_double = case.exact(x) - float(case.exact(0.0)) - spec.alpha1 * x
    q2_meas = np.abs(ops.q2_shifted @ f_nodes - exact_double)
    q2_bound = bound_q2_error(
        BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 3), a1=ds(n + 4)), x
    )

    sol_meas = np.abs(r.y_nodes - case.exact(x))
    sol_bound = bound_solution_error(
        BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 2), a1=ds(n + 3)),
        x, spec.beta, spec.gamma,
    )

    res_meas = np.abs(r.residual_nodes)
    res_bound = bound_residual(
        BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 2), a1=ds(n + 3),
                    lambda_lip=case.lipschitz),
        x, spec.alpha2, spec.beta, spec.gamma,
    )
    return [(q1_meas, q1_bound), (q2_meas, q2_bound),
            (sol_meas, sol_bound), (res_meas, res_bound)]


class TestDominance:
    @pytest.mark.parametrize("ex_id,alpha", [(1, 0.1), (3, -0.2)])
    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_value_condition_problems(self, ex_id, alpha, n):
        case = get_example(ex_id)
        for meas, bound in _robin_dominance_rows(case, n, alpha):
            assert np.all(meas <= bound + ALLOW)

    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_derivative_condition_problem(self, n):
        """Derivative bound holds, with an exact zero at the right endpoint."""
        case = get_example(5)
        spec = case.spec
        alpha = 0.9
        r = solve_problem(spec, n, alpha)
        x = r.nodes
        der_meas = np.abs(r.yprime_nodes - case.exact_prime(x))
        der_bound = bound_derivative_error(
            BoundInputs(n=n, alpha=alpha, b=spec.b, a=case.deriv_sup(n + 3)), x
        )
        assert der_bound[0] == 0.0
        assert np.all(der_meas <= der_bound + ALLOW)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_lipschitz_residual_form_on_a_nonlinear_problem(self, n):
        case = get_example(2)
        spec = case.spec
        alpha = 0.8
        r = solve_problem(spec, n, alpha)
        x = r.nodes
        bound = bound_residual(
            BoundInputs(n=n, alpha=alpha, b=spec.b,
                        a0=case.deriv_sup(n + 2), a1=case.deriv_sup(n + 3),
                        lambda_lip=case.lipschitz),
            x, spec.alpha2, spec.beta, spec.gamma,
        )
        assert np.all(np.abs(r.residual_nodes) <= bound + ALLOW)
