"""Flat key-value problem configuration files.

Lines look like ``key = value``; blank lines, ``#``/``;`` comments and
``[section]`` headers are tolerated and ignored.  Scalar values may be
constant expressions (e.g. ``delta = sqrt(3)/2``); the function-valued keys
``p``/``g`` (linear), ``f`` (nonlinear) and the optional ``exact`` are
expressions in x (f also in y) compiled by the built-in grammar.  A nonlinear
problem's f_y is the derivative of the ``f`` expression in y.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .expressions import Expression, ExpressionError, parse_expression
from .solver import ProblemSpec

__all__ = ["ProblemConfig", "ConfigError", "parse_config_text", "load_config"]

_SCALAR_KEYS = ("alpha1", "alpha2", "beta", "gamma", "delta", "b", "alpha")
_KNOWN_KEYS = set(_SCALAR_KEYS) | {"kind", "n", "f", "p", "g", "exact", "eval_points"}
_DEFAULT_EVAL_POINTS = 50


class ConfigError(ValueError):
    """Malformed configuration file; message carries the offending line."""


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed configuration: the problem, its discretization and evaluation setup."""

    _spec: ProblemSpec
    n: int
    alpha: float
    exact: Expression | None
    eval_points: int

    def to_spec(self) -> ProblemSpec:
        """The solver-facing problem description, with dfdy = df/dy."""
        return self._spec


def _scalar(raw: str, key: str, line_no: int) -> float:
    try:
        return float(parse_expression(raw, ())())
    except (ExpressionError, ArithmeticError) as err:
        raise ConfigError(f"line {line_no}: key {key!r}: {err}") from err


def _integer(raw: str, key: str, line_no: int, minimum: int) -> int:
    try:
        value = int(raw)
    except ValueError as err:
        raise ConfigError(f"line {line_no}: {key} must be an integer, got {raw!r}") from err
    if value < minimum:
        raise ConfigError(f"line {line_no}: {key} must be at least {minimum}, got {value}")
    return value


def _expression(raw: str, key: str, line_no: int, variables: tuple[str, ...]) -> Expression:
    try:
        return parse_expression(raw, variables)
    except ExpressionError as err:
        raise ConfigError(f"line {line_no}: key {key!r}: {err}") from err


def parse_config_text(text: str) -> ProblemConfig:
    """Parse configuration text; raises ConfigError with line positions.

    Data that parses but fails the checks of ``ProblemSpec`` (say beta and
    gamma both 0) raises that plain ValueError.
    """
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {line_no}: empty value for key {key!r}")
        raw[key] = (value, line_no)

    def need(key: str) -> tuple[str, int]:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
        return raw[key]

    kind_value, kind_line = need("kind")
    if kind_value not in ("linear", "nonlinear"):
        raise ConfigError(
            f"line {kind_line}: kind must be 'linear' or 'nonlinear', got {kind_value!r}"
        )
    scalars = {}
    for key in _SCALAR_KEYS:
        value, line_no = need(key)
        scalars[key] = _scalar(value, key, line_no)
    n_value, n_line = need("n")
    n = _integer(n_value, "n", n_line, 1)
    eval_points = _DEFAULT_EVAL_POINTS
    if "eval_points" in raw:
        points_value, points_line = raw["eval_points"]
        eval_points = _integer(points_value, "eval_points", points_line, 2)

    f = p = g = None
    if kind_value == "linear":
        if "f" in raw:
            raise ConfigError(f"line {raw['f'][1]}: linear problems take p and g, not f")
        p_value, p_line = need("p")
        p = _expression(p_value, "p", p_line, ("x",))
        g_value, g_line = need("g")
        g = _expression(g_value, "g", g_line, ("x",))
    else:
        for key in ("p", "g"):
            if key in raw:
                raise ConfigError(f"line {raw[key][1]}: nonlinear problems take f, not p/g")
        f_value, f_line = need("f")
        f = _expression(f_value, "f", f_line, ("x", "y"))
    exact = None
    if "exact" in raw:
        exact_value, exact_line = raw["exact"]
        exact = _expression(exact_value, "exact", exact_line, ("x",))

    spec = ProblemSpec(
        kind=kind_value,
        alpha1=scalars["alpha1"],
        alpha2=scalars["alpha2"],
        beta=scalars["beta"],
        gamma=scalars["gamma"],
        delta=scalars["delta"],
        b=scalars["b"],
        p=p,
        g=g,
        f=f,
        dfdy=None if f is None else f.derivative("y"),
    )
    return ProblemConfig(spec, n, scalars["alpha"], exact, eval_points)


def load_config(path) -> ProblemConfig:
    """Read and parse a configuration file."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
