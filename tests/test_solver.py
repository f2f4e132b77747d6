"""Tests for the integral collocation solver on both boundary-condition branches."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import operators_on
from laneps import basis, solver
from laneps.basis import BasisConfig
from laneps.expressions import DomainEvalError, Expression, parse_expression
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
        """y at the nodes is y0 + a1 x + Q2 Phi bit for bit: the reported y
        is the accepted iterate's, also after grid sequencing and Krylov
        steps (n = 256), after a line search that halved steps (the stiff
        source), after a rejected full step at the rounding floor
        (alpha = 5) and after a linear step at n = 256.  From n = 256 on the
        y of a solve reads no Q2: its Q2 Phi is x Q1 Phi - Q1 (x Phi), from
        one product of the standard Q1 with (Phi, x Phi), scaled by b/2."""
        for spec, n, alpha in ((get_example(1).spec, 5, 0.1), (get_example(2).spec, 256, 0.5),
                               (get_example(2).spec, 32, 5.0), (_stiff_source(), 16, 0.5),
                               (get_example(1).spec, 256, 0.5)):
            ops = build_operators(BasisConfig(alpha, n))
            r = solve(spec, ops)
            x, _, q2 = operators_on(ops, spec.b)
            if n >= solver._FINE_N:
                q1phi, q1xphi = (ops.q1 @ np.stack((r.phi, x * r.phi), axis=1)).T * (spec.b / 2.0)
                q2phi = x * q1phi - q1xphi
            else:
                q2phi = q2 @ r.phi
            rebuilt = r.y0 + spec.alpha1 * r.nodes + q2phi
            assert np.array_equal(r.y_nodes, rebuilt)

    def test_endpoint_value_is_structural_for_dirichlet_data(self):
        """With gamma = 0 the right-endpoint value is delta/beta to the rounding
        of the border row's terms y0, a1*b and Q2[0] Phi."""
        for ex_id in (1, 3):
            spec = get_example(ex_id).spec
            ops = build_operators(BasisConfig(0.3, 6))
            r = solve(spec, ops)
            _, _, q2 = operators_on(ops, spec.b)
            terms = abs(r.y0) + abs(spec.alpha1 * spec.b) + np.abs(q2[0]) @ np.abs(r.phi)
            assert abs(r.y_nodes[0] - spec.delta / spec.beta) <= 4 * np.finfo(float).eps * terms

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


def _stiff_source():
    """y = 2 - x^2 solves y'' + y'/x + e^(2y) - e^(2(2 - x^2)) + 4 = 0 with
    y'(0) = 0; from the start y = 1 the first full Newton steps overshoot
    by far more than the rounding floor."""
    return ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0,
                       delta=1.0, b=1.0,
                       f=lambda x, y: np.exp(2.0 * y) - np.exp(2.0 * (2.0 - x**2)) + 4.0,
                       dfdy=lambda x, y: 2.0 * np.exp(2.0 * y))


def _counting(spec, names) -> tuple[ProblemSpec, dict]:
    """The spec with its callables ``names`` counting their calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        def call(*args, _fn=getattr(spec, name)):
            calls[name] += 1
            return _fn(*args)

        return call

    return dataclasses.replace(spec, **{name: counted(name) for name in names}), calls


def _manufactured_neumann(p=lambda x: np.ones_like(x)):
    """y = x^2 solves y'' + 2y'/x + p y = p x^2 + 6 with y'(0) = 0, y'(1) = 2;
    p = 0 leaves y(0) free."""
    return ProblemSpec(
        kind="linear", alpha1=0.0, alpha2=2.0, beta=0.0, gamma=1.0, delta=2.0, b=1.0,
        p=p, g=lambda x: p(x) * x**2 + 6.0,
    )


def _rebuilt_jacobian(spec, ops):
    """J of a linear spec from the textbook formulas: H + diag(p) Q2, bordered
    by the column p and the row (beta Q2[0] + gamma Q1[0], beta)."""
    x, q1, q2 = operators_on(ops, spec.b)
    h = np.eye(x.size) + spec.alpha2 * (q1 / x[:, None])
    p = np.broadcast_to(spec.p(x), x.shape)
    border = np.append(spec.beta * q2[0] + spec.gamma * q1[0], spec.beta)
    return np.block([[h + p[:, None] * q2, p[:, None]], [border[None, :]]])


def _count_linalg(monkeypatch) -> dict:
    """Count the solver's calls of np.linalg.solve, inv and lstsq."""
    calls = dict.fromkeys(("solve", "inv", "lstsq"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver.np.linalg, name, counted)
    return calls


class TestLinearFactorization:
    """A linear solve takes its step and kappa_inf from one LU factorization."""

    BRANCHES = {"robin": _manufactured_linear, "neumann": _manufactured_neumann}

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_p_and_g_are_evaluated_once(self, branch):
        spec, calls = _counting(self.BRANCHES[branch](), ("p", "g"))
        solve_problem(spec, 16, 0.5)
        assert calls == {"p": 1, "g": 1}

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_one_solve_and_no_inverse(self, monkeypatch, branch):
        calls = _count_linalg(monkeypatch)
        r = solve_problem(self.BRANCHES[branch](), 16, 0.5)
        assert calls == {"solve": 1, "inv": 0, "lstsq": 0}
        assert np.isfinite(r.kappa_inf)

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("n", [4, 64, 512])
    @pytest.mark.parametrize("alpha", [-0.499, 0.5, 5.0])
    def test_kappa_is_the_inverse_norm_product(self, branch, n, alpha):
        spec = self.BRANCHES[branch]()
        ops = build_operators(BasisConfig(alpha, n))
        jac = _rebuilt_jacobian(spec, ops)
        expected = np.linalg.norm(jac, np.inf) * np.linalg.norm(np.linalg.inv(jac), np.inf)
        assert abs(solve(spec, ops).kappa_inf - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("ex_id", [1, 3])
    def test_large_solve_forms_the_matrices_once_and_keeps_the_step(self, monkeypatch, ex_id, n):
        """From n = 256 on, H and Q2 are formed once, for J, and the residual
        of the solution reads neither.  Phi, y0 and kappa_inf are, bit for
        bit, those of np.linalg.solve of the textbook J against [-F(0) | I],
        with F(0) from its definition (no border row is scaled here)."""
        calls = []
        form = solver._BorderedSystem._form_matrices

        def counted(self):
            calls.append(self.m)
            return form(self)

        monkeypatch.setattr(solver._BorderedSystem, "_form_matrices", counted)
        spec = get_example(ex_id).spec
        ops = build_operators(BasisConfig(0.5, n))
        r = solve(spec, ops)
        assert calls == [n + 1]
        x = r.nodes
        jac = _rebuilt_jacobian(spec, ops)
        a1 = spec.alpha1
        f0 = np.append(spec.p(x) * (a1 * x) - spec.g(x) + a1 * spec.alpha2 / x,
                       spec.beta * a1 * spec.b + spec.gamma * a1 - spec.delta)
        sol = np.linalg.solve(jac, np.hstack((-f0[:, None], np.eye(n + 2))))
        kappa = np.abs(jac).sum(axis=1).max() * np.abs(sol[:, 1:]).sum(axis=1).max()
        assert np.array_equal(r.phi, sol[:-1, 0]) and r.y0 == sol[-1, 0]
        assert r.kappa_inf == kappa


class TestNeumannBranch:
    @pytest.mark.parametrize("delta", [2.0, -2.0], ids=["free-constant", "inconsistent"])
    def test_singular_linear_jacobian_raises(self, monkeypatch, delta):
        """p = 0 leaves y(0) free: y = x^2 + c solves the problem for every c
        when y'(1) = 2, and none does when y'(1) = -2.  Either way J is
        singular, and the one LU factorization reports it."""
        spec = dataclasses.replace(_manufactured_neumann(p=lambda x: np.zeros_like(x)),
                                   delta=delta)
        calls = _count_linalg(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            solve_problem(spec, 16, 0.5)
        assert calls == {"solve": 1, "inv": 0, "lstsq": 0}

    def test_reaction_term_pins_the_constant(self):
        r = solve_problem(_manufactured_neumann(), 6, 0.5)
        assert np.max(np.abs(r.y_nodes - r.nodes**2)) <= 1e-12
        assert abs(r.y0) <= 1e-12
        assert np.isfinite(r.kappa_inf)

    def test_endpoint_derivative_honors_the_boundary_condition(self):
        case = get_example(5)
        r = solve_problem(case.spec, 7, 0.9)
        assert abs(r.yprime_nodes[0] - case.spec.delta / case.spec.gamma) <= 1e-12
        assert abs(r.y0 - np.pi / 2.0) <= 1e-12


class TestSmallBeta:
    @pytest.mark.parametrize("beta", [1e-4, 1e-8, 1e-12, 1e-15])
    def test_robin_data_tends_to_the_neumann_solution(self, beta):
        """y = x^2 - 2 with gamma = 1: the beta -> 0 limit is well posed, and
        the border row never divides by beta."""
        r = solve_problem(_manufactured_linear(beta=beta), 16, 0.5)
        neumann = solve_problem(_manufactured_linear(beta=0.0), 16, 0.5)
        assert np.max(np.abs(r.y_nodes - (r.nodes**2 - 2.0))) <= 1e-13
        assert abs(r.y0 - neumann.y0) <= 1e-13


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

    def test_iteration_cap_raises(self, monkeypatch):
        # Example 2 at n = 16, alpha = 0.5 takes 4 iterations.
        monkeypatch.setattr(solver, "_NEWTON_MAXITER", 1)
        with pytest.raises(NonlinearSolveError, match="^no convergence within 1 iterations"):
            solve_problem(get_example(2).spec, 16, 0.5)

    @pytest.mark.parametrize("n", [32, 256])
    def test_nonlinear_spec_without_dfdy_is_rejected(self, n):
        # There is no difference-quotient fallback for a missing f_y.
        spec = get_example(4).spec
        bare = ProblemSpec(
            kind="nonlinear", alpha1=spec.alpha1, alpha2=spec.alpha2,
            beta=spec.beta, gamma=spec.gamma, delta=spec.delta, b=spec.b, f=spec.f,
        )
        with pytest.raises(NonlinearSolveError, match="^nonlinear problems require dfdy"):
            solve_problem(bare, n, 0.5)

    @pytest.mark.parametrize("n", [32, 256])
    def test_non_finite_f_y_raises(self, n):
        # f_y = 1/(2 sqrt(y)) is inf at the start y = 0; it must not reach J.
        f = parse_expression("sqrt(y) - 1", ("x", "y"))
        spec = ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
                           delta=0.0, b=1.0, f=f, dfdy=f.derivative("y"))
        with pytest.raises(NonlinearSolveError, match="^f_y not finite at x = "):
            solve_problem(spec, n, 0.5)

    def test_overflowing_f_y_raises_without_warning(self):
        spec = ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
                           delta=2.0, b=1.0, f=lambda x, y: y - 1.0,
                           dfdy=lambda x, y: np.exp(800.0 + 0.0 * y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonlinearSolveError, match="^f_y not finite at x = "):
                solve_problem(spec, 8, 0.5)

    @pytest.mark.parametrize("ex_id,n", [(2, 16), (4, 64), (5, 32)])
    def test_one_f_call_per_iterate(self, ex_id, n):
        """Without a halved step, f is called once at the start and once per
        accepted iterate, and f_y once per iteration: the residual's y serves
        the Jacobian and the result."""
        spec, calls = _counting(get_example(ex_id).spec, ("f", "dfdy"))
        r = solve_problem(spec, n, 0.5)
        assert calls == {"f": r.newton_iters + 1, "dfdy": r.newton_iters}

    @pytest.mark.parametrize("n", [8, 64, 300])
    @pytest.mark.parametrize("a2", [1.0, 2.0])
    def test_singular_jacobian_at_the_start_takes_the_minimum_norm_step(
            self, monkeypatch, a2, n):
        """y = 1 + x^2 with beta = 0: the start y = 0 gives f_y = 2y = 0, so
        the first J leaves y(0) free, and only the least-squares step moves
        the iterate; the residual then pins y(0).  From n = 256 on that step
        falls in the coarse run, whose solution starts the fine one."""
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=a2, beta=0.0, gamma=1.0, delta=2.0, b=1.0,
            f=lambda x, y: y**2 - (1.0 + x**2) ** 2 - (2.0 + 2.0 * a2),
            dfdy=lambda x, y: 2.0 * y,
        )
        calls = _count_linalg(monkeypatch)
        r = solve_problem(spec, n, 0.5)
        assert calls["lstsq"] == 1
        assert np.max(np.abs(r.y_nodes - (1.0 + r.nodes**2))) <= 1e-13
        assert r.seed_degree == (32 if n == 300 else None)

    def test_unsolvable_problem_raises(self):
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0,
            delta=0.0, b=1.0, f=lambda x, y: np.exp(60.0 * y) - 1e6,
            dfdy=lambda x, y: 60.0 * np.exp(60.0 * y),
        )
        with pytest.raises(NonlinearSolveError):
            solve_problem(spec, 8, 0.5)

    @pytest.mark.parametrize("ex_id,n,alpha", [(2, 64, 5.0), (4, 64, 5.0), (4, 96, 3.0),
                                               (2, 256, 3.0)])
    def test_stall_at_the_rounding_floor_converges(self, ex_id, n, alpha):
        # The full step is rejected with max|F| above _NEWTON_TOL but within
        # the rounding level of evaluating F, and with a roundoff-sized step.
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

    def test_halved_steps_cost_one_f_call_each(self):
        # The stiff source halves two full steps far above the rounding floor,
        # where the floor test does not evaluate f: one f call at the start
        # and one per trial step.
        spec, calls = _counting(_stiff_source(), ("f",))
        r = solve_problem(spec, 16, 0.5)
        assert calls["f"] == r.newton_iters + 1 + 2
        assert np.max(np.abs(r.y_nodes - (2.0 - r.nodes**2))) <= 1e-14

    def test_rejected_full_step_at_the_rounding_floor_ends_the_run(self):
        """Example 2 at alpha = 5, n = 32 rejects its fifth full step at the
        rounding floor and returns the fourth iterate without halving it:
        f is called at the start, for 4 accepted steps, for the rejected
        step and once by the floor's scale."""
        case = get_example(2)
        spec, calls = _counting(case.spec, ("f",))
        r = solve_problem(spec, 32, 5.0)
        assert r.newton_iters == 4 and calls["f"] == 7
        assert np.max(np.abs(r.y_nodes - case.exact(r.nodes))) <= 1e-13

    @pytest.mark.parametrize("ex_id", [2, 4])
    def test_no_line_search_below_the_rounding_floor(self, ex_id):
        # At alpha = 2, n = 512 a line search run on below the rounding floor
        # halves about 30 times: 42 and 44 f calls for 3 iterations.
        spec, calls = _counting(get_example(ex_id).spec, ("f",))
        solve_problem(spec, 512, 2.0)
        assert calls["f"] <= 12

    @pytest.mark.parametrize("ex_id", [2, 4])
    def test_accepted_roundoff_step_onto_the_rounding_floor_ends_the_run(self, ex_id):
        """At alpha = 2, n = 512 the coarse start sits below the rounding floor
        (about 1.3e-11) but above _NEWTON_TOL, and each roundoff-sized step
        still lowers max|F| a little.  Ending the run once such a full step
        lands on the floor takes rounding out of the count: over
        delta (1 + k eps), k = 0 .. 23, runs that took up to 5 iterations take
        at most 1."""
        spec = get_example(ex_id).spec
        eps = np.finfo(float).eps
        for k in range(8):
            drawn = dataclasses.replace(spec, delta=spec.delta * (1.0 + k * eps))
            assert solve_problem(drawn, 512, 2.0).newton_iters <= 1

    def test_start_at_the_root_takes_no_roundoff_steps(self):
        # Example 4 at alpha = 3, n = 512 starts near the root from the coarse
        # run.  Roundoff-sized steps from there (4 fine iterations, 20 from a
        # nearer start) reach a lattice MAE of 2.63e-13 and no lower.
        case = get_example(4)
        r = solve_problem(case.spec, 512, 3.0)
        lattice = case.lattice()
        assert r.newton_iters <= 2
        assert np.max(np.abs(r.evaluate(lattice) - case.exact(lattice))) <= 2.65e-13

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

    def test_overflowing_start_raises_without_warning(self):
        # y = x^2 - 2 with a tiny beta: the start y0* = (delta - gamma*a1)/beta
        # is about 2e8, where exp overflows before any step is taken.
        beta = 1e-8
        spec = ProblemSpec(
            kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=beta, gamma=1.0,
            delta=2.0 - beta, b=1.0, f=lambda x, y: np.exp(y) - np.exp(x**2 - 2.0) - 4.0,
            dfdy=lambda x, y: np.exp(y),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonlinearSolveError,
                               match="^residual not finite at the initial guess$"):
                solve_problem(spec, 16, 0.5)


def _index5_dirichlet(a=1.1, b=1.2):
    """y = a/sqrt(1 + a^4 x^2/3) solves y'' + 2y'/x + y^5 = 0 with y'(0) = 0."""
    return ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
                       delta=a / np.sqrt(1.0 + a**4 * b * b / 3.0), b=b,
                       f=lambda x, y: y**5, dfdy=lambda x, y: 5.0 * y**4)


class TestNewtonStart:
    """Below n = 256 Newton starts from Phi = 0 with y0 meeting the border row,
    which is the start y = xbar of the solver that eliminated y(0) for beta != 0."""

    #: newton_iters of that solver, keyed by (case, alpha, n).
    ELIMINATED_ITERS = {
        **{(2, alpha, n): 4 for alpha in (-0.4, 0.5, 2.0) for n in (8, 32, 128)},
        **{(4, alpha, n): 5 for alpha in (-0.4, 0.5, 2.0) for n in (8, 32, 128)},
        **{("index5", alpha, 32): 6 for alpha in (-0.4, 0.5, 2.0)},
    }

    @pytest.mark.parametrize("case,alpha,n", sorted(ELIMINATED_ITERS, key=str))
    def test_takes_no_more_iterations_than_the_eliminated_system(self, case, alpha, n):
        spec = _index5_dirichlet() if case == "index5" else get_example(case).spec
        ops = build_operators(BasisConfig(alpha, n))
        r = solve(spec, ops)
        # Where the rounding floor of F (4 eps times its largest row of term
        # magnitudes) exceeds the Newton tolerance, here alpha = 2 at n = 128,
        # whether the last residual lands below the tolerance is chance: over
        # delta * (1 + k eps), k = 0 .. 299, both solvers took one more
        # iteration in about 30% of the draws.  One more is allowed there.
        x, (_, q1, _) = r.nodes, operators_on(ops, spec.b)
        h = np.eye(x.size) + spec.alpha2 * (q1 / x[:, None])
        rows = np.abs(h) @ np.abs(r.phi) + np.abs(spec.f(x, r.y_nodes))
        floor = 4.0 * np.finfo(float).eps * np.max(rows)
        assert r.newton_iters <= self.ELIMINATED_ITERS[case, alpha, n] + (floor > 1e-13)


def _record_build_degrees(monkeypatch) -> list:
    """Record the degree of every basis the solver builds."""
    degrees = []

    def counting(cfg):
        degrees.append(cfg.n)
        return build_operators(cfg)

    monkeypatch.setattr(solver, "build_operators", counting)
    return degrees


class TestCoarseStart:
    #: Lattice MAE with Newton started from z = 0 (the solver before the
    #: coarse start), keyed by (example, alpha, n).
    COLD_MAE = {
        (2, -0.4, 256): 4.44e-15, (2, -0.4, 512): 1.01e-14,
        (2, 0.5, 256): 4.44e-16, (2, 0.5, 512): 6.77e-15,
        (2, 2.0, 256): 9.21e-15, (2, 2.0, 512): 2.72e-14,
        (4, -0.4, 256): 4.44e-14, (4, -0.4, 512): 4.77e-14,
        (4, 0.5, 256): 1.90e-14, (4, 0.5, 512): 3.49e-14,
        (4, 2.0, 256): 5.83e-14, (4, 2.0, 512): 3.42e-13,
        (5, -0.4, 256): 1.20e-14, (5, -0.4, 512): 3.77e-14,
        (5, 0.5, 256): 6.66e-16, (5, 0.5, 512): 7.77e-16,
        (5, 2.0, 256): 6.66e-16, (5, 2.0, 512): 6.66e-16,
    }

    @pytest.mark.parametrize("ex_id,alpha,n", sorted(COLD_MAE))
    def test_seeded_run_is_short_and_keeps_the_accuracy(self, ex_id, alpha, n):
        case = get_example(ex_id)
        r = solve_problem(case.spec, n, alpha)
        lattice = case.lattice()
        mae = np.max(np.abs(r.evaluate(lattice) - case.exact(lattice)))
        assert mae <= max(10.0 * self.COLD_MAE[ex_id, alpha, n], 1e-12)
        assert r.seed_degree == 32
        assert r.newton_iters <= 4 and r.newton_iters == len(r.step_norms)

    @pytest.mark.parametrize("n,seed", [(255, None), (256, 32)])
    def test_threshold_is_degree_256(self, monkeypatch, n, seed):
        degrees = _record_build_degrees(monkeypatch)
        r = solver.solve_problem(get_example(4).spec, n, 0.5)
        assert r.seed_degree == seed
        assert degrees.count(32) == (seed is not None)

    def test_linear_solves_take_no_coarse_start(self, monkeypatch):
        degrees = _record_build_degrees(monkeypatch)
        r = solver.solve_problem(get_example(1).spec, 256, 0.5)
        assert r.seed_degree is None and degrees == [256]

    @pytest.mark.parametrize("f,error,match", [
        (lambda x, y: 3.4 * np.exp(y), NonlinearSolveError, "line search stalled"),
        (parse_expression("log(y)", ("x", "y")), DomainEvalError, "log of a nonpositive"),
    ])
    def test_failed_coarse_run_leaves_the_fine_run_to_raise(self, monkeypatch, f, error, match):
        # Spherical Bratu past its fold, and f = log(y) outside its domain at
        # the start y = 0: both fail at n = 32 and again from z = 0 at n = 256.
        # The Bratu source is its own y-derivative.
        dfdy = f.derivative("y") if isinstance(f, Expression) else f
        sizes = []

        def recording(x, y):
            sizes.append(x.size)
            return f(x, y)

        spec = ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
                           delta=0.0, b=1.0, f=recording, dfdy=dfdy)
        degrees = _record_build_degrees(monkeypatch)
        with pytest.raises(error, match=match):
            solver.solve_problem(spec, 256, 0.5)
        assert degrees == [256, 32]
        assert sizes[0] == 33 and sizes[-1] == 257  # the error is the fine run's


class TestKrylovStep:
    """From n = 256 on, fine Newton steps come from matrix-free GMRES."""

    @pytest.mark.parametrize("beta,gamma", [(2.0, 1.0), (0.0, 1.0)], ids=["robin", "neumann"])
    def test_matrix_free_product_is_the_jacobian(self, monkeypatch, beta, gamma):
        # f = p y - g is affine in y, so its J is the linear spec's J.
        linear = ProblemSpec(kind="linear", alpha1=0.5, alpha2=1.5, beta=beta, gamma=gamma,
                             delta=1.0, b=1.3, p=lambda x: 1.0 + x**2, g=lambda x: np.cos(x))
        spec = ProblemSpec(kind="nonlinear", alpha1=0.5, alpha2=1.5, beta=beta, gamma=gamma,
                           delta=1.0, b=1.3, f=lambda x, y: (1.0 + x**2) * y - np.cos(x),
                           dfdy=lambda x, y: 1.0 + x**2)
        products = []

        def recording(matvec, *args):
            products.append(matvec)
            return gmres(matvec, *args)

        gmres = solver._gmres
        monkeypatch.setattr(solver, "_gmres", recording)
        ops = build_operators(BasisConfig(0.5, 256))
        solve(spec, ops)
        jac = _rebuilt_jacobian(linear, ops)
        rng = np.random.default_rng(7)
        assert products
        for v in rng.standard_normal((3, jac.shape[0])):
            out = np.empty_like(v)
            products[0](v, out)
            expected = jac @ v
            assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_only_the_coarse_run_factors_a_matrix(self, monkeypatch):
        spec = get_example(2).spec
        coarse = solve_problem(spec, 32, 0.5).newton_iters
        calls = _count_linalg(monkeypatch)
        r = solve_problem(spec, 512, 0.5)
        assert r.newton_iters >= 1 and r.seed_degree == 32
        assert calls == {"solve": coarse, "inv": 0, "lstsq": 0}

    def test_a_missed_cap_falls_back_to_lu(self, monkeypatch):
        case = get_example(4)
        coarse = solve_problem(case.spec, 32, 0.5).newton_iters
        monkeypatch.setattr(solver, "_GMRES_MAXITER", 1)
        calls = _count_linalg(monkeypatch)
        r = solve_problem(case.spec, 256, 0.5)
        assert r.newton_iters >= 1
        assert calls["solve"] == coarse + r.newton_iters
        assert np.max(np.abs(r.y_nodes - case.exact(r.nodes))) <= 1e-12

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    @pytest.mark.parametrize("ex_id", [2, 4, 5])
    def test_reaches_the_exact_solution(self, ex_id, alpha, n):
        case = get_example(ex_id)
        r = solve_problem(case.spec, n, alpha)
        assert np.max(np.abs(r.y_nodes - case.exact(r.nodes))) <= 1e-12

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    @pytest.mark.parametrize("ex_id", [1, 2, 3, 4, 5])
    def test_y_is_the_matrix_formula_to_rounding(self, ex_id, alpha, n):
        """The y of a solve from n = 256 on, linear (examples 1 and 3) or a
        Krylov run, taken from the product with Q1, is within 32 eps max|y|
        of y0 + a1 x + Q2 Phi with Q2 from its definition.  The largest
        seen is 7.4 eps on this grid, and at n = 1024 15.6 eps for a Krylov
        run (example 4, alpha = -0.4) and 10.8 eps for a linear solve
        (example 1, alpha = 0.5)."""
        spec = get_example(ex_id).spec
        ops = build_operators(BasisConfig(alpha, n))
        r = solve(spec, ops)
        _, _, q2 = operators_on(ops, spec.b)
        rebuilt = r.y0 + spec.alpha1 * r.nodes + q2 @ r.phi
        scale = np.max(np.abs(r.y_nodes))
        assert np.max(np.abs(r.y_nodes - rebuilt)) <= 32 * np.finfo(float).eps * scale

    @staticmethod
    def _fine_system(monkeypatch, spec, n, alpha):
        """The _BorderedSystem of the fine run of a solve, after the solve."""
        systems = []

        class Recording(solver._BorderedSystem):
            def __init__(self, *args):
                super().__init__(*args)
                systems.append(self)

        monkeypatch.setattr(solver, "_BorderedSystem", Recording)
        solve_problem(spec, n, alpha)
        (fine,) = [system for system in systems if system.m == n + 1]
        return fine

    @pytest.mark.parametrize("ex_id,alpha", [(2, 0.5), (5, -0.4), (2, 2.0), (4, 2.0)])
    def test_forms_no_matrix_without_lu_fallback(self, monkeypatch, ex_id, alpha):
        """A Krylov run forms neither H and Q2 nor J; at alpha = 2 it may
        reach the floor test, which forms |H| alone."""
        fine = self._fine_system(monkeypatch, get_example(ex_id).spec, 512, alpha)
        assert fine.fine
        assert "matrices" not in vars(fine)

    @pytest.mark.parametrize("ex_id,alpha,n", [(2, -0.4, 256), (4, 2.0, 512), (5, 0.5, 256)])
    def test_abs_h_has_the_bits_of_the_magnitude_of_h(self, ex_id, alpha, n):
        """A Krylov run writes |H| from Q1 without forming H."""
        ops = build_operators(BasisConfig(alpha, n))
        system = solver._BorderedSystem(get_example(ex_id).spec, ops)
        assert system.fine
        abs_h = system.abs_h  # formed before H
        assert np.array_equal(abs_h, np.abs(system.matrices[0]))

    def test_lu_fallback_forms_the_matrices(self, monkeypatch):
        """The check above sees a formed matrix: the LU step of a missed cap
        forms H, Q2 and J."""
        monkeypatch.setattr(solver, "_GMRES_MAXITER", 1)
        fine = self._fine_system(monkeypatch, get_example(4).spec, 256, 0.5)
        assert "matrices" in vars(fine)


class TestResidual:
    def test_linear_solutions_leave_roundoff_residual(self):
        for ex_id, alpha in ((1, 0.1), (3, -0.2)):
            r = solve_problem(get_example(ex_id).spec, 6, alpha)
            assert np.max(np.abs(r.residual_nodes)) <= 1e-10

    @pytest.mark.parametrize("beta,gamma,delta", [(1.0, 0.5, 0.3), (0.0, 1.0, 2.0)],
                             ids=["robin", "neumann"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_floor_scale_is_the_largest_row_of_term_magnitudes(self, beta, gamma, delta, n):
        """The scale of the rounding floor, rebuilt from the operator
        definitions: the largest row of |H||Phi| + |f(x, y)| + |a1 a2/x| and
        of the border row |top||Phi| + |beta y0| + |border|.  Two calls at
        two z show that the |H| kept from the first is not stale."""
        spec = ProblemSpec(kind="nonlinear", alpha1=0.3, alpha2=2.0, beta=beta, gamma=gamma,
                           delta=delta, b=1.3, f=lambda x, y: y**3 - x,
                           dfdy=lambda x, y: 3.0 * y**2)
        ops = build_operators(BasisConfig(0.5, n))
        x, q1, q2 = operators_on(ops, spec.b)
        h = np.eye(x.size) + spec.alpha2 * (q1 / x[:, None])
        top = beta * q2[0] + gamma * q1[0]
        border = beta * spec.alpha1 * spec.b + gamma * spec.alpha1 - delta
        system = solver._BorderedSystem(spec, ops)
        for z in np.random.default_rng(n).standard_normal((2, x.size + 1)):
            phi, y0 = z[:-1], z[-1]
            y = y0 + spec.alpha1 * x + q2 @ phi
            rows = (np.abs(h) @ np.abs(phi) + np.abs(spec.f(x, y))
                    + np.abs(spec.alpha1 * spec.alpha2 / x))
            last = np.abs(top) @ np.abs(phi) + abs(beta * y0) + abs(border)
            expected = max(rows.max(), last)
            assert abs(system.scale(z, y) - expected) <= 1e-14 * expected


class TestAllocation:
    @pytest.mark.parametrize("ex_id,alpha,ceiling", [
        (2, 0.5, 0.5), (2, -0.4, 0.5), (5, 0.5, 0.5), (5, -0.4, 0.5), (5, 2.0, 0.5),
        (2, 2.0, 1.5), (4, 2.0, 1.5), (1, 0.5, 3.5), (1, -0.4, 3.5), (3, 2.0, 3.5)])
    def test_warm_large_solve_keeps_no_extra_matrix(self, ex_id, alpha, ceiling):
        """The traced peak of a warm n = 512 solve, in (n + 2)^2 doubles:
        0.18 for a Krylov run that ends without the floor test (no n^2
        matrix, only the Krylov workspace), 1.13 for one that reaches it
        (|H| alone; examples 2 and 4 at alpha = 2) and 3.08 for a linear
        solve (J with [-F(0) | I] and its solution; H and Q2 are formed
        once, for J, and dropped before the solve).  An n^2 matrix more,
        or |H| formed where no floor test needs it, crosses the ceiling.
        LAPACK's copies are not traced: a J factored on the Krylov path is
        what test_only_the_coarse_run_factors_a_matrix catches."""
        spec, n = get_example(ex_id).spec, 512
        solve_problem(spec, n, alpha)  # the basis builds, of n and of the coarse run
        tracemalloc.start()
        try:
            solve_problem(spec, n, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling * (n + 2) ** 2 * 8


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

    def test_evaluate_keeps_the_shape_of_the_points(self):
        r = solve_problem(_manufactured_linear(), 6, 0.5)
        flat = np.linspace(0.0, 1.0, 6)
        out = r.evaluate(flat.reshape(2, 3))
        assert np.array_equal(out, r.evaluate(flat).reshape(2, 3))
        assert out[0, 0] == r.y0

    @pytest.mark.parametrize("x", [np.inf, np.nan, -1.0, 2.0])
    def test_evaluate_rejects_points_outside_the_interval(self, x):
        r = solve_problem(get_example(1).spec, 16, 0.5)
        with pytest.raises(ValueError, match=r"^points must lie in \[0, 1.0\]"):
            r.evaluate([0.5, x])

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
        with pytest.raises(ValueError, match="^kind must be"):
            ProblemSpec(kind="weird", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, f=lambda x, y: y)
        with pytest.raises(ValueError, match="^beta and gamma cannot both vanish$"):
            ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=0.0,
                        gamma=0.0, delta=0.0, f=lambda x, y: y,
                        dfdy=lambda x, y: np.ones_like(y))
        with pytest.raises(ValueError):
            ProblemSpec(kind="linear", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, p=lambda x: x)
        with pytest.raises(ValueError, match="^nonlinear problems require f$"):
            ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, dfdy=lambda x, y: np.ones_like(y))
        with pytest.raises(ValueError, match="^interval length must be positive"):
            ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0,
                        gamma=0.0, delta=0.0, b=-1.0, f=lambda x, y: y,
                        dfdy=lambda x, y: np.ones_like(y))
        bc = dict(alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0, delta=0.0, b=1.0)
        for key, bad in (("b", np.nan), ("b", np.inf), ("delta", np.nan), ("alpha1", np.inf),
                         ("alpha2", np.nan), ("beta", -np.inf), ("gamma", np.nan)):
            with pytest.raises(ValueError):
                ProblemSpec(kind="linear", p=lambda x: x, g=lambda x: x,
                            **{**bc, key: bad})

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_one_operators_object_serves_any_interval(self, b):
        """Operators carry no interval: solve maps their nodes onto the spec's own
        [0, b] and leaves the shared object as it was, so a later solve keeps its bits."""
        ops = build_operators(BasisConfig(0.5, 16))
        standard = ops.standard.nodes.copy()
        spec = get_example(1).spec
        before = solve(spec, ops)
        other = solve(dataclasses.replace(spec, b=b), ops)
        after = solve(spec, ops)
        assert np.array_equal(other.nodes, (b / 2.0) * (standard + 1.0))
        assert np.array_equal(ops.standard.nodes, standard)
        assert np.array_equal(after.y_nodes, before.y_nodes)
        assert np.array_equal(after.nodes, before.nodes)

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("n", [16, 512])
    def test_a_solve_builds_no_nodeset(self, monkeypatch, kind, n):
        """The result holds the nodes on [0, b], read-only, and the memo's own
        bary; no second NodeSet is made for the interval."""
        ex_id = 1 if kind == "linear" else 5
        ops = build_operators(BasisConfig(0.5, n))
        build_operators(BasisConfig(0.5, solver._COARSE_N))  # the seed's memo entry
        built = []
        monkeypatch.setattr(basis.NodeSet, "__post_init__", lambda ns: built.append(ns))
        for b in (0.5, 1.0, 3.0):
            r = solve(dataclasses.replace(get_example(ex_id).spec, b=b), ops)
            assert r.bary is ops.standard.bary
            assert r.nodes[0] == b
            assert not r.nodes.flags.writeable
            assert not hasattr(r, "nodeset")
        assert built == []

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

    @pytest.mark.parametrize("name", ["p", "g"])
    def test_overflowing_linear_data_raises_without_warning(self, name):
        data = {"p": lambda x: np.ones_like(x), "g": lambda x: x}
        data[name] = lambda x: np.exp(800.0 + 0.0 * x)
        spec = ProblemSpec(kind="linear", alpha1=0.0, alpha2=1.0, beta=1.0,
                           gamma=0.0, delta=0.0, **data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name}\(x\) is not finite"):
                solve_problem(spec, 8, 0.5)

    @staticmethod
    def _constant_solution(kind, b):
        """y = 1 solves y'' + y'/x + f = 0 with y'(0) = 0 and y(b) = 1, for f = 0
        (p = g = 0) and for f = y - 1."""
        bc = dict(alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0, delta=1.0, b=b)
        if kind == "linear":
            return ProblemSpec(kind="linear", p=np.zeros_like, g=np.zeros_like, **bc)
        return ProblemSpec(kind="nonlinear", f=lambda x, y: y - 1.0,
                           dfdy=lambda x, y: np.ones_like(y), **bc)

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("b", [1e100, 1e154])
    @pytest.mark.parametrize("n", [8, 300])
    def test_huge_interval_solves_without_warning(self, kind, b, n):
        """Q2 on [0, b] reaches b^2; kappa_inf beyond the double range reads inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve_problem(self._constant_solution(kind, b), n, 0.5)
        assert np.max(np.abs(r.y_nodes - 1.0)) <= 4 * np.finfo(float).eps
        assert r.kappa_inf == (np.inf if kind == "linear" else None)

    @pytest.mark.parametrize(("b", "n"), [(1e10, 255), (1e50, 511), (1e100, 300)])
    def test_dominant_border_row_leaves_y_exact(self, b, n):
        """The border row of size b^2 outweighs H, so it is scaled by a power of
        two to below 1; partial pivoting then takes it last and Phi = 0 comes
        back exact.  Pivoted on early, it left y 98, 228 and 35 ulps off."""
        r = solve_problem(self._constant_solution("linear", b), n, 0.5)
        assert np.array_equal(r.y_nodes, np.ones(n + 1))

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("b", [1e160, 1e300])
    @pytest.mark.parametrize("n", [8, 300])
    def test_overflowing_interval_raises_without_warning(self, kind, b, n):
        """Q2 on [0, b] overflows to inf: a typed error, never a NaN result."""
        error, message = {
            "linear": (ValueError, "^the linear step is not finite"),
            "nonlinear": (NonlinearSolveError, "^residual not finite at the initial guess$"),
        }[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                solve_problem(self._constant_solution(kind, b), n, 0.5)

    @pytest.mark.parametrize("ex_id", [1, 5])
    def test_rejects_a_degree_below_one(self, ex_id):
        """A one-node rule used to return a wrong y0 (0.0 for example 1) without error."""
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            solve_problem(get_example(ex_id).spec, 0, 0.5)

    def test_non_finite_nonlinear_residual_raises(self):
        spec = ProblemSpec(kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0,
                           gamma=0.0, delta=0.0, f=lambda x, y: np.full_like(x, np.nan),
                           dfdy=lambda x, y: np.zeros_like(y))
        with pytest.raises(NonlinearSolveError, match="not finite at the initial guess"):
            solve_problem(spec, 8, 0.5)
