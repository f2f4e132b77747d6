"""Integral pseudospectral solver for singular boundary-value problems.

The package builds a Gauss-Radau collocation scheme from a one-parameter
ultraspherical polynomial family, converts boundary-value problems with a
regular singular point at the origin into integral form, and solves them to
spectral accuracy.  A priori error bounds, a registry of closed-form test
problems, and a benchmark command line round out the toolkit.
"""
from .basis import (
    BasisConfig,
    NodeSet,
    RootFindingError,
    christoffel_weights,
    eval_gegenbauer,
    gauss_radau_nodes,
    node_polynomial,
    normalization,
    shift_nodeset,
    standard_nodeset,
)
from .bounds import (
    BoundInputs,
    bound_derivative_error,
    bound_q1_error,
    bound_q2_error,
    bound_residual,
    bound_solution_error,
    gegenbauer_sup_norm,
    prefactor,
    q_sup_norm,
)
from .config import ConfigError, ProblemConfig, load_config, parse_config_text
from .expressions import DomainEvalError, Expression, ExpressionError, parse_expression
from .quadrature import (
    IntegrationOperators,
    build_operators,
    build_q1,
    build_q2,
    integrate_basis,
    interpolate,
    interpolation_matrix,
    shift_operators,
)
from .registry import (
    ExampleCase,
    ReferenceMAE,
    ReferenceTable,
    RegistryError,
    all_examples,
    get_example,
)
from .solver import (
    NonlinearSolveError,
    ProblemSpec,
    SolverResult,
    compute_residual,
    recover_y0,
    solve,
    solve_linear_neumann,
    solve_linear_robin,
    solve_nonlinear_neumann,
    solve_nonlinear_robin,
    solve_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BasisConfig",
    "BoundInputs",
    "ConfigError",
    "DomainEvalError",
    "ExampleCase",
    "Expression",
    "ExpressionError",
    "IntegrationOperators",
    "NodeSet",
    "NonlinearSolveError",
    "ProblemConfig",
    "ProblemSpec",
    "ReferenceMAE",
    "ReferenceTable",
    "RegistryError",
    "RootFindingError",
    "SolverResult",
    "all_examples",
    "bound_derivative_error",
    "bound_q1_error",
    "bound_q2_error",
    "bound_residual",
    "bound_solution_error",
    "build_operators",
    "build_q1",
    "build_q2",
    "christoffel_weights",
    "compute_residual",
    "eval_gegenbauer",
    "gauss_radau_nodes",
    "gegenbauer_sup_norm",
    "get_example",
    "integrate_basis",
    "interpolate",
    "interpolation_matrix",
    "load_config",
    "node_polynomial",
    "normalization",
    "parse_config_text",
    "parse_expression",
    "prefactor",
    "q_sup_norm",
    "recover_y0",
    "shift_nodeset",
    "shift_operators",
    "solve",
    "solve_linear_neumann",
    "solve_linear_robin",
    "solve_nonlinear_neumann",
    "solve_nonlinear_robin",
    "solve_problem",
    "standard_nodeset",
]
