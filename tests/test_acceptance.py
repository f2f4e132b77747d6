"""Acceptance gate: one test per published criterion, one pass/fail line each.

Every tolerance below is a stated requirement; the assertions are the gate
and the printed line is a human-readable audit trail (visible with -s or on
failure).
"""
import dataclasses
import time

import numpy as np

from conftest import operators_on
from laneps.basis import BasisConfig, _recurrence, _squared_norms, standard_nodeset
from laneps.bounds import (
    BoundInputs,
    bound_derivative_error,
    bound_q1_error,
    bound_q2_error,
    bound_residual,
    bound_solution_error,
)
from laneps.quadrature import _antiderivatives, build_operators
from laneps.registry import get_example
from laneps.solver import solve, solve_problem

ALPHA_GRID = (-0.4, 0.0, 0.5, 1.1, 2.0)
B_GRID = (1.0, 1.5, 2.0)
#: Roundoff allowance when a bound is structurally zero.
ALLOW = 1e-12


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _errors(case, result):
    lattice = case.lattice()
    mae = float(np.max(np.abs(result.evaluate(lattice) - case.exact(lattice))))
    ae_b = abs(float(result.y_nodes[0]) - float(case.exact(case.spec.b)))
    return mae, ae_b


def test_criterion_01_linear_emissivity_accuracy_and_speed():
    case = get_example(1)
    start = time.perf_counter()
    result = solve_problem(case.spec, 5, 0.1)
    elapsed = time.perf_counter() - start
    mae, ae_b = _errors(case, result)
    ok = mae <= 3e-5 and ae_b <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"mae={mae:.3e}, ae_b={ae_b:.3e}, runtime={elapsed:.3f}s")


def test_criterion_02_polytropic_accuracy_and_speed():
    case = get_example(2)
    start = time.perf_counter()
    fine = solve_problem(case.spec, 8, 0.8)
    coarse = solve_problem(case.spec, 3, 0.8)
    elapsed = time.perf_counter() - start
    mae_fine, _ = _errors(case, fine)
    mae_coarse, _ = _errors(case, coarse)
    ok = mae_fine <= 3e-7 and mae_coarse <= 4e-3 and elapsed < 2.0
    _report(2, ok, f"mae(n=8)={mae_fine:.3e}, mae(n=3)={mae_coarse:.3e}, "
                   f"runtime={elapsed:.3f}s")


def test_criterion_03_heat_conduction_pointwise_errors():
    case = get_example(3)
    table = case.reference_tables[0]
    result = solve_problem(case.spec, table.n, table.alpha)
    pts = np.asarray(table.abscissas)
    rel = np.abs(result.evaluate(pts) - case.exact(pts)) / np.abs(case.exact(pts))
    ae_b = abs(float(result.y_nodes[0]) - float(case.exact(1.0)))
    ok = float(np.max(rel)) <= 1e-5 and ae_b <= 1e-12
    _report(3, ok, f"max_re={np.max(rel):.3e}, ae_b={ae_b:.3e}")


def test_criterion_04_isothermal_sphere_accuracy():
    case = get_example(4)
    result = solve_problem(case.spec, 15, -0.1)
    mae, ae_b = _errors(case, result)
    ok = mae <= 1e-11 and ae_b <= 1e-12
    _report(4, ok, f"mae={mae:.3e}, ae_b={ae_b:.3e}")


def test_criterion_05_derivative_condition_accuracy():
    case = get_example(5)
    result = solve_problem(case.spec, 7, 0.9)
    mae, _ = _errors(case, result)
    slope_err = abs(float(result.yprime_nodes[0]) - (-1.0))
    ok = mae <= 1e-12 and slope_err <= 1e-12
    _report(5, ok, f"mae={mae:.3e}, |y'(1)+1|={slope_err:.3e}")


def test_criterion_06_condition_number_trend():
    spec = get_example(1).spec
    chain = [solve_problem(spec, n, 0.5).kappa_inf for n in (4, 8, 16, 32, 64, 128)]
    monotone = all(a <= b for a, b in zip(chain, chain[1:]))
    low = solve_problem(spec, 128, -0.4).kappa_inf
    high = solve_problem(spec, 128, 2.0).kappa_inf
    ok = monotone and low < 100.0 and high > 1e4
    _report(6, ok, f"chain={['%.3g' % k for k in chain]}, "
                   f"kappa(128,-0.4)={low:.3g}, kappa(128,2)={high:.3g}")


def test_criterion_07_operator_exactness_on_polynomials():
    worst = 0.0
    for alpha in ALPHA_GRID:
        for n in range(1, 21):
            for b in B_GRID:
                ops = build_operators(BasisConfig(alpha, n))
                x, q1, q2 = operators_on(ops, b)
                for k in range(n + 1):
                    err = np.max(np.abs(q1 @ x**k - x ** (k + 1) / (k + 1)))
                    worst = max(worst, float(err / np.max(x ** (k + 1) / (k + 1))))
                for k in range(n):
                    exact = x ** (k + 2) / ((k + 1) * (k + 2))
                    err = np.max(np.abs(q2 @ x**k - exact))
                    worst = max(worst, float(err / np.max(exact)))
    ok = worst <= 1e-11
    _report(7, ok, f"worst relative error={worst:.3e}")


def test_criterion_08_discrete_orthonormality_and_node_structure():
    worst = 0.0
    for alpha in ALPHA_GRID:
        for n in range(1, 21):
            ns = standard_nodeset(BasisConfig(alpha, n))
            g = _recurrence(alpha, n, ns.nodes)
            lambdas = _squared_norms(alpha, n)
            gram = (g * ns.weights[None, :]) @ g.T / lambdas[:, None]
            worst = max(worst, float(np.max(np.abs(gram - np.eye(n + 1)))))
            assert np.all(ns.weights > 0.0)
            assert abs(ns.nodes[0] - 1.0) <= 1e-13
            for b in (1.5, 2.0):  # a solve maps the nodes onto [0, b]
                spec = dataclasses.replace(get_example(1).spec, b=b)
                r = solve(spec, build_operators(BasisConfig(alpha, n)))
                assert abs(r.nodes[0] - b) <= 1e-13
    ok = worst <= 1e-10
    _report(8, ok, f"worst orthonormality defect={worst:.3e}")


def test_criterion_09_antiderivative_oracle_equivalence():
    # 13-point Gauss-Legendre on [-1, x] is exact for degree <= 25, so it
    # integrates every row up to degree 24 exactly.
    t, w = np.polynomial.legendre.leggauss(13)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for alpha in ALPHA_GRID:
        xs = rng.uniform(-1.0, 1.0, size=20)
        rows = _antiderivatives(alpha, _recurrence(alpha, 25, xs))
        for i, x in enumerate(xs):
            half = (x + 1.0) / 2.0
            exact = half * _recurrence(alpha, 24, half * (t + 1.0) - 1.0) @ w
            worst = max(worst, float(np.max(np.abs(rows[:, i] - exact))))
    ok = worst <= 1e-12
    _report(9, ok, f"worst deviation={worst:.3e}")


def test_criterion_10_error_bounds_dominate_measured_errors():
    worst_excess = -np.inf
    for ex_id, alpha in ((1, 0.1), (3, -0.2)):
        case = get_example(ex_id)
        spec = case.spec
        ds = case.deriv_sup
        for n in (4, 5, 6, 8, 12):
            ops = build_operators(BasisConfig(alpha, n))
            x, q1, q2 = operators_on(ops, spec.b)
            result = solve_problem(spec, n, alpha)
            f_nodes = case.exact_second(x)

            meas = np.abs(q1 @ f_nodes - (case.exact_prime(x) - spec.alpha1))
            bound = bound_q1_error(BoundInputs(n=n, alpha=alpha, b=spec.b, a=ds(n + 3)), x)
            worst_excess = max(worst_excess, float(np.max(meas - bound)))

            exact_double = case.exact(x) - float(case.exact(0.0)) - spec.alpha1 * x
            meas = np.abs(q2 @ f_nodes - exact_double)
            bound = bound_q2_error(
                BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 3), a1=ds(n + 4)), x)
            worst_excess = max(worst_excess, float(np.max(meas - bound)))

            meas = np.abs(result.y_nodes - case.exact(x))
            bound = bound_solution_error(
                BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 2), a1=ds(n + 3)),
                x, spec.beta, spec.gamma)
            worst_excess = max(worst_excess, float(np.max(meas - bound)))

            meas = np.abs(result.residual_nodes)
            bound = bound_residual(
                BoundInputs(n=n, alpha=alpha, b=spec.b, a0=ds(n + 2), a1=ds(n + 3),
                            lambda_lip=case.lipschitz),
                x, spec.alpha2, spec.beta, spec.gamma)
            worst_excess = max(worst_excess, float(np.max(meas - bound)))

    case = get_example(5)
    for n in (4, 7, 8, 12):
        result = solve_problem(case.spec, n, 0.9)
        x = result.nodes
        meas = np.abs(result.yprime_nodes - case.exact_prime(x))
        bound = bound_derivative_error(
            BoundInputs(n=n, alpha=0.9, b=case.spec.b, a=case.deriv_sup(n + 3)), x)
        assert bound[0] == 0.0
        worst_excess = max(worst_excess, float(np.max(meas - bound)))

    ok = worst_excess <= ALLOW
    _report(10, ok, f"worst measured-minus-bound={worst_excess:.3e}")


def test_criterion_11_convergence_is_monotone_to_the_floor():
    quoted = {1: 0.1, 2: 0.8, 3: -0.2, 4: 0.9, 5: 0.9}
    details = []
    ok = True
    for ex_id, alpha in quoted.items():
        case = get_example(ex_id)
        maes = []
        for n in (4, 8, 16):
            result = solve_problem(case.spec, n, alpha)
            maes.append(_errors(case, result)[0])
        for prev, cur in zip(maes, maes[1:]):
            if prev <= 1e-12:
                break
            if cur >= prev:
                ok = False
        details.append(f"ex{ex_id}:{maes[0]:.1e}->{maes[1]:.1e}->{maes[2]:.1e}")
    _report(11, ok, "; ".join(details))
