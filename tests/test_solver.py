"""Tests for the integral collocation solver on both boundary-condition branches."""
import numpy as np
import pytest

from laneps.basis import BasisConfig
from laneps.quadrature import build_operators
from laneps.registry import get_example
from laneps.solver import (
    NonlinearSolveError,
    ProblemSpec,
    solve,
    solve_problem,
)


def _manufactured_linear(beta=2.0, gamma=1.0):
    """y = x^2 - 2 solves y'' + y'/x + y = x^2 + 2 with y'(0) = 0."""
    delta = beta * (-1.0) + gamma * 2.0
    return ProblemSpec(
        kind="linear", alpha1=0.0, alpha2=1.0, beta=beta, gamma=gamma,
        delta=delta, b=1.0,
        p=lambda x: np.ones_like(x), g=lambda x: x**2 + 2.0,
    )


class TestRobinBranch:
    def test_polynomial_solution_is_exact(self):
        r = solve_problem(_manufactured_linear(), 6, 0.5)
        x = r.nodes
        assert np.max(np.abs(r.y_nodes - (x**2 - 2.0))) <= 1e-12
        assert abs(r.y0 - (-2.0)) <= 1e-12
        assert np.max(np.abs(r.yprime_nodes - 2.0 * x)) <= 1e-12
        assert r.kappa_inf is not None and np.isfinite(r.kappa_inf)

    def test_two_solution_recoveries_agree(self):
        """y from the eliminated form equals y0 + a1 x + double integration."""
        case = get_example(1)
        ops = build_operators(BasisConfig(0.1, 5), case.spec.b)
        r = solve(case.spec, ops)
        rebuilt = r.y0 + case.spec.alpha1 * r.nodes + ops.q2_shifted @ r.phi
        assert np.max(np.abs(r.y_nodes - rebuilt)) <= 1e-12

    def test_endpoint_value_is_structural_for_dirichlet_data(self):
        """With gamma = 0 the right-endpoint value equals delta/beta exactly."""
        for ex_id in (1, 3):
            case = get_example(ex_id)
            r = solve_problem(case.spec, 6, 0.3)
            assert r.y_nodes[0] == case.spec.delta / case.spec.beta

    def test_monotone_nonlinearity_recovers_polynomial(self):
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0,
            delta=-1.0, b=1.0,
            f=lambda x, y: np.exp(y) - np.exp(x**2 - 2.0) - 4.0,
            dfdy=lambda x, y: np.exp(y),
        )
        r = solve_problem(spec, 6, 0.5)
        assert np.max(np.abs(r.y_nodes - (r.nodes**2 - 2.0))) <= 1e-10
        assert r.newton_iters is not None and r.kappa_inf is None

    @pytest.mark.parametrize(
        "beta,gamma,delta", [(1.0, 0.0, -1.0), (0.0, 1.0, 2.0)], ids=["robin", "neumann"]
    )
    def test_affine_nonlinearity_matches_linear_branch(self, beta, gamma, delta):
        """A linear problem is one Newton step: y = x^2 - 2 either way."""
        bc = dict(alpha1=0.0, alpha2=1.0, beta=beta, gamma=gamma, delta=delta, b=1.0)
        lin = solve_problem(
            ProblemSpec(kind="linear", p=lambda x: np.ones_like(x),
                        g=lambda x: x**2 + 2.0, **bc),
            6, 0.5,
        )
        nl = solve_problem(
            ProblemSpec(kind="nonlinear", f=lambda x, y: y - x**2 - 2.0,
                        dfdy=lambda x, y: np.ones_like(y), **bc),
            6, 0.5,
        )
        assert np.max(np.abs(lin.y_nodes - (lin.nodes**2 - 2.0))) <= 1e-12
        assert np.max(np.abs(lin.y_nodes - nl.y_nodes)) <= 1e-12
        assert abs(lin.y0 - nl.y0) <= 1e-12


class TestNeumannBranch:
    def test_free_constant_resolved_by_minimum_norm(self):
        """p = 0 leaves y(0) free; the returned solution picks y(0) = 0."""
        spec = ProblemSpec(
            kind="linear", alpha1=0.0, alpha2=2.0, beta=0.0, gamma=1.0,
            delta=2.0, b=1.0,
            p=lambda x: np.zeros_like(x), g=lambda x: np.full_like(x, 6.0),
        )
        r = solve_problem(spec, 6, 0.5)
        assert np.max(np.abs(r.y_nodes - r.nodes**2)) <= 1e-12
        assert r.y0 == 0.0
        assert r.kappa_inf == np.inf

    def test_reaction_term_pins_the_constant(self):
        spec = ProblemSpec(
            kind="linear", alpha1=0.0, alpha2=2.0, beta=0.0, gamma=1.0,
            delta=2.0, b=1.0,
            p=lambda x: np.ones_like(x), g=lambda x: x**2 + 6.0,
        )
        r = solve_problem(spec, 6, 0.5)
        assert np.max(np.abs(r.y_nodes - r.nodes**2)) <= 1e-12
        assert abs(r.y0) <= 1e-12
        assert np.isfinite(r.kappa_inf)

    def test_endpoint_derivative_honors_the_boundary_condition(self):
        case = get_example(5)
        r = solve_problem(case.spec, 7, 0.9)
        assert abs(r.yprime_nodes[0] - case.spec.delta / case.spec.gamma) <= 1e-12
        assert abs(r.y0 - np.pi / 2.0) <= 1e-12


class TestNewton:
    def test_steps_contract_and_residual_vanishes(self):
        case = get_example(2)
        r = solve_problem(case.spec, 8, 0.8)
        steps = np.asarray(r.step_norms)
        assert np.all(np.diff(steps[1:]) < 0.0)
        assert steps[-1] <= 1e-6
        assert np.max(np.abs(r.residual_nodes)) <= 1e-10

    @pytest.mark.parametrize("ex_id,n,alpha", [(2, 8, 0.8), (4, 15, -0.1), (5, 7, 0.9)])
    def test_converged_solutions_satisfy_the_equation(self, ex_id, n, alpha):
        case = get_example(ex_id)
        r = solve_problem(case.spec, n, alpha)
        assert np.max(np.abs(r.residual_nodes)) <= 1e-10

    def test_difference_jacobian_matches_analytic(self):
        case = get_example(4)
        spec = case.spec
        no_jac = ProblemSpec(
            kind="nonlinear", alpha1=spec.alpha1, alpha2=spec.alpha2,
            beta=spec.beta, gamma=spec.gamma, delta=spec.delta, b=spec.b,
            f=spec.f, dfdy=None,
        )
        ra = solve_problem(spec, 10, 0.5)
        rb = solve_problem(no_jac, 10, 0.5)
        assert np.max(np.abs(ra.y_nodes - rb.y_nodes)) <= 1e-9

    def test_unsolvable_problem_raises(self):
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0,
            delta=0.0, b=1.0, f=lambda x, y: np.exp(60.0 * y) - 1e6,
        )
        with pytest.raises(NonlinearSolveError):
            solve_problem(spec, 8, 0.5)

    @pytest.mark.parametrize("ex_id,n,alpha", [(2, 64, 5.0), (4, 64, 5.0), (4, 96, 3.0),
                                               (2, 256, 3.0)])
    def test_stall_at_the_rounding_floor_converges(self, ex_id, n, alpha):
        # The line search stalls with max|F| above _NEWTON_TOL but within the
        # rounding level of evaluating F, and with a roundoff-sized step.
        case = get_example(ex_id)
        r = solve_problem(case.spec, n, alpha)
        assert r.newton_iters == len(r.step_norms)
        assert np.max(np.abs(r.y_nodes - case.exact(r.nodes))) <= 1e-11

    @pytest.mark.parametrize("ex_id,n,alpha", [(2, 64, 20.0), (2, 128, 20.0), (4, 64, 20.0),
                                               (4, 128, 20.0), (5, 64, 20.0), (5, 128, 20.0),
                                               (2, 1, 0.0)])
    def test_stall_above_the_rounding_floor_raises(self, ex_id, n, alpha):
        with pytest.raises(NonlinearSolveError, match="line search stalled.*rounding floor"):
            solve_problem(get_example(ex_id).spec, n, alpha)

    def test_overflowing_trial_step_raises_without_warning(self):
        # Spherical Bratu past its fold near lambda = 3.32: a trial step
        # overflows exp, which the line search must reject silently.
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
            delta=0.0, b=1.0, f=lambda x, y: 3.4 * np.exp(y),
            dfdy=lambda x, y: 3.4 * np.exp(y),
        )
        with pytest.raises(NonlinearSolveError, match="line search stalled"):
            solve_problem(spec, 32, 0.5)


class TestResidual:
    def test_linear_solutions_leave_roundoff_residual(self):
        for ex_id, alpha in ((1, 0.1), (3, -0.2)):
            r = solve_problem(get_example(ex_id).spec, 6, alpha)
            assert np.max(np.abs(r.residual_nodes)) <= 1e-10


class TestRepeatSolves:
    @pytest.mark.parametrize("ex_id", [1, 2, 5])
    def test_second_solve_is_bit_identical(self, ex_id):
        spec = get_example(ex_id).spec
        first, second = (solve_problem(spec, 12, 0.3) for _ in range(2))
        for field in ("y_nodes", "phi"):
            assert np.array_equal(getattr(first, field), getattr(second, field))
        assert first.y0 == second.y0
        assert first.kappa_inf == second.kappa_inf
        assert first.step_norms == second.step_norms


class TestResultInterface:
    def test_evaluate_returns_native_values_at_the_endpoints(self):
        r = solve_problem(_manufactured_linear(), 6, 0.5)
        out = r.evaluate(np.array([0.0, 1.0]))
        assert out[0] == r.y0
        assert out[1] == r.y_nodes[0]

    def test_evaluate_interpolates_between_nodes(self):
        r = solve_problem(_manufactured_linear(), 6, 0.5)
        x = np.linspace(0.0, 1.0, 17)
        assert np.max(np.abs(r.evaluate(x) - (x**2 - 2.0))) <= 1e-10

    @pytest.mark.parametrize("ex_id, n, limit", [(1, 256, 1e-12), (3, 64, 2e-12)])
    def test_lattice_error_keeps_the_node_accuracy(self, ex_id, n, limit):
        case = get_example(ex_id)
        r = solve_problem(case.spec, n, -0.499)
        lattice = case.lattice()
        assert np.max(np.abs(r.evaluate(lattice) - case.exact(lattice))) <= limit

    def test_origin_recovery_matches_reference_accuracy(self):
        case = get_example(1)
        r = solve_problem(case.spec, 5, 0.1)
        exact0 = float(case.exact(0.0))
        assert abs(r.y0 - exact0) / abs(exact0) <= 1.9e-5


class TestValidation:
    def test_rejects_inconsistent_specifications(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="weird", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, f=lambda x, y: y)
        with pytest.raises(ValueError):
            ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=0.0,
                        gamma=0.0, delta=0.0, f=lambda x, y: y)
        with pytest.raises(ValueError):
            ProblemSpec(kind="linear", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, p=lambda x: x)
        with pytest.raises(ValueError):
            ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, b=-1.0, f=lambda x, y: y)
        bc = dict(alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0, delta=0.0, b=1.0)
        for key, bad in (("b", np.nan), ("b", np.inf), ("delta", np.nan), ("alpha1", np.inf),
                         ("alpha2", np.nan), ("beta", -np.inf), ("gamma", np.nan)):
            with pytest.raises(ValueError):
                ProblemSpec(kind="linear", p=lambda x: x, g=lambda x: x,
                            **{**bc, key: bad})

    @pytest.mark.parametrize("beta,gamma", [(1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("name", ["p", "g"])
    def test_rejects_non_finite_linear_data_at_the_nodes(self, name, beta, gamma):
        bad = np.nan if name == "p" else np.inf
        data = {"p": lambda x: np.ones_like(x), "g": lambda x: x}
        data[name] = lambda x: np.full_like(x, bad)
        spec = ProblemSpec(kind="linear", alpha1=0.0, alpha2=1.0, beta=beta,
                           gamma=gamma, delta=0.0, **data)
        with pytest.raises(ValueError, match=rf"^{name}\(x\) is not finite"):
            solve_problem(spec, 8, 0.5)

    @pytest.mark.parametrize("ex_id", [1, 5])
    def test_rejects_a_degree_below_one(self, ex_id):
        """A one-node rule used to return a wrong y0 (0.0 for example 1) without error."""
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            solve_problem(get_example(ex_id).spec, 0, 0.5)

    def test_non_finite_nonlinear_residual_raises(self):
        spec = ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0,
                           gamma=0.0, delta=0.0, f=lambda x, y: np.full_like(x, np.nan))
        with pytest.raises(NonlinearSolveError, match="not finite at the initial guess"):
            solve_problem(spec, 8, 0.5)
