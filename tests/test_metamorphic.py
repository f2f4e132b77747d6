"""Metamorphic relations between solves: oracles that need no closed form.

Scaling (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Comput. Surv. 51(1), 2018): if y solves the problem on
[0, b], then u(t) = y(s t) solves it on [0, b/s] with a1 -> s a1,
gamma -> gamma/s, f -> s^2 f(s t, u), f_y -> s^2 f_y(s t, u), and p and g
likewise.  A solve maps the same standard nodes onto either interval, so the
two discrete systems are the same up to rounding and u at its nodes is y at
its own.  This checks the map onto [0, b], the border-row scaling and the
scale invariance of Newton's exit, and it keeps example 4 on its branch.

Superposition: a linear solve is linear in (g, a1, delta), so the solve for
(g + g2, delta + 0.3) is the solve for (g, delta) plus the one for
(g2, 0.3) with a1 = 0.

Both are held to 32 eps max|y|.

Boundary-data equivalence: the Robin condition y(b) + y'(b) = delta and the
Dirichlet condition y(b) = delta', with delta' the y(b) of the Robin solve,
pick the same solution, so the two solves agree at the nodes.  Example 2
agrees within 31.5 eps max|y|, where the absolute Newton tolerance ends both
runs (ROADMAP item 10), the other examples within 6 eps; the relation is
held to 64 eps max|y|.
"""
import dataclasses
import functools

import numpy as np
import pytest

from laneps.registry import get_example
from laneps.solver import solve_problem

EPS = np.finfo(float).eps
#: (alpha, n): both Newton paths, the coarse seed and the Krylov steps from n = 256 on.
CELLS = [(-0.4, 16), (0.5, 16), (0.5, 64), (2.0, 128), (-0.4, 512), (0.5, 512), (2.0, 512)]
SCALES = [0.5, 3.0, 1e3, 2.0**-10]
#: Newton's absolute _NEWTON_TOL meets interior rows of F scaled by s^2 = 2^-20.
EARLY_EXIT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: the absolute Newton tolerance ends the scaled run one "
           "iteration early (6.3e3 eps on example 4, 3.1e6 eps on example 5)")


def _scaled(spec, s):
    """The problem solved by u(t) = y(s t) on [0, b/s]."""
    if spec.kind == "linear":
        p, g = spec.p, spec.g
        data = dict(p=lambda t: s * s * p(s * t), g=lambda t: s * s * g(s * t))
    else:
        f, dfdy = spec.f, spec.dfdy
        data = dict(f=lambda t, u: s * s * f(s * t, u),
                    dfdy=lambda t, u: s * s * dfdy(s * t, u))
    return dataclasses.replace(spec, alpha1=s * spec.alpha1, gamma=spec.gamma / s,
                               b=spec.b / s, **data)


@functools.lru_cache(maxsize=None)
def _registry_solve(ex_id, alpha, n):
    return solve_problem(get_example(ex_id).spec, n, alpha)


def _gap(y_nodes, y0, reference):
    """max(|y_nodes - y_nodes'|, |y0 - y0'|) of a reference solve, in units of eps max|y'|."""
    gap = max(np.abs(y_nodes - reference.y_nodes).max(), abs(y0 - reference.y0))
    return gap / (EPS * np.abs(reference.y_nodes).max())


def _scaling_cells():
    for ex_id in range(1, 6):
        for alpha, n in CELLS:
            for s in SCALES:
                marks = EARLY_EXIT if ex_id in (4, 5) and s == 2.0**-10 else ()
                yield pytest.param(ex_id, alpha, n, s, marks=marks)


@pytest.mark.parametrize("ex_id,alpha,n,s", list(_scaling_cells()))
def test_scaling_maps_one_solve_onto_the_other(ex_id, alpha, n, s):
    y = _registry_solve(ex_id, alpha, n)
    u = solve_problem(_scaled(y.spec, s), n, alpha)
    assert u.nodes[0] == y.spec.b / s
    assert _gap(u.y_nodes, u.y0, y) <= 32


@pytest.mark.parametrize("ex_id", [1, 3])
@pytest.mark.parametrize("s", [0.5, 2.0**-10])
def test_power_of_two_scaling_of_a_linear_problem_is_bit_identical(ex_id, s):
    """Every input scales by a power of two, which rounds nothing, and a
    linear solve keeps the bits of its node values and y(0)."""
    for alpha, n in CELLS:
        y = _registry_solve(ex_id, alpha, n)
        u = solve_problem(_scaled(y.spec, s), n, alpha)
        assert np.array_equal(u.y_nodes, y.y_nodes) and u.y0 == y.y0


def _g2(x):
    return np.cos(3.0 * x) + x**2


@pytest.mark.parametrize("alpha,n", CELLS)
@pytest.mark.parametrize("ex_id", [1, 3])
def test_superposition_of_linear_solves(ex_id, alpha, n):
    spec = get_example(ex_id).spec
    g = spec.g
    both = dataclasses.replace(spec, g=lambda x: g(x) + _g2(x), delta=spec.delta + 0.3)
    second = dataclasses.replace(spec, g=_g2, delta=0.3, alpha1=0.0)
    y = solve_problem(both, n, alpha)
    first, rest = _registry_solve(ex_id, alpha, n), solve_problem(second, n, alpha)
    assert _gap(first.y_nodes + rest.y_nodes, first.y0 + rest.y0, y) <= 32


#: (alpha, n): both Newton paths, the coarse seed and, from n = 256 on, the
#: product-form residual of both kinds of solve.
BOUNDARY_CELLS = [(-0.4, 16), (0.5, 64), (2.0, 128), (-0.4, 512), (0.5, 512), (2.0, 512)]


@pytest.mark.parametrize("alpha,n", BOUNDARY_CELLS)
@pytest.mark.parametrize("ex_id", [1, 2, 3, 4])
def test_robin_and_dirichlet_data_pick_the_same_solution(ex_id, alpha, n):
    case = get_example(ex_id)
    b = case.spec.b
    delta = float(case.exact(b)) + float(case.exact_prime(b))
    robin = solve_problem(dataclasses.replace(case.spec, beta=1.0, gamma=1.0, delta=delta),
                          n, alpha)
    dirichlet = dataclasses.replace(case.spec, beta=1.0, gamma=0.0, delta=float(robin.y_nodes[0]))
    y = solve_problem(dirichlet, n, alpha)
    assert _gap(y.y_nodes, y.y0, robin) <= 64
