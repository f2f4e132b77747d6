"""Every exported name of the package and its modules resolves."""
import importlib
import pkgutil

import laneps

#: The public API: what the command line, the solver and the paper's bounds use.
PUBLIC = {
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
}


def test_every_exported_name_resolves():
    modules = [laneps] + [
        importlib.import_module(f"laneps.{info.name}")
        for info in pkgutil.iter_modules(laneps.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_package_exports_the_public_api_only():
    assert len(laneps.__all__) == len(PUBLIC) == 30
    assert set(laneps.__all__) == PUBLIC
