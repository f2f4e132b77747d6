"""Integral pseudospectral solver for singular boundary-value problems.

The package builds a Gauss-Radau collocation scheme from a one-parameter
ultraspherical polynomial family, converts boundary-value problems with a
regular singular point at the origin into integral form, and solves them to
spectral accuracy.  A priori error bounds, a registry of closed-form test
problems, and a benchmark command line round out the toolkit.
"""
from .basis import BasisConfig, NodeSet, RootFindingError, standard_nodeset
from .bounds import (
    BoundInputs,
    bound_derivative_error,
    bound_q1_error,
    bound_q2_error,
    bound_residual,
    bound_solution_error,
)
from .config import ConfigError, ProblemConfig, load_config, parse_config_text
from .expressions import DomainEvalError, Expression, ExpressionError, parse_expression
from .quadrature import IntegrationOperators, build_operators, interpolate
from .registry import ExampleCase, RegistryError, all_examples, get_example
from .solver import (
    NonlinearSolveError,
    ProblemSpec,
    SolverResult,
    solve,
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
    "get_example",
    "interpolate",
    "load_config",
    "parse_config_text",
    "parse_expression",
    "solve",
    "solve_problem",
    "standard_nodeset",
]
