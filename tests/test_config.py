"""Tests for the key-value problem-config parser."""
import math
from pathlib import Path

import pytest

from laneps.config import ConfigError, load_config, parse_config_text
from laneps.registry import EXAMPLE_IDS

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "laneps" / "configs"

LINEAR = """\
# toy problem
[problem]
kind = linear
alpha1 = 0
alpha2 = 1
beta = 1
gamma = 0
delta = 0
b = 1
p = 0
g = 2*x

[discretization]
n = 6
alpha = 0.5
"""


def _swap(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


class TestHappyPath:
    def test_minimal_linear_problem(self):
        cfg = parse_config_text(LINEAR)
        assert cfg.n == 6 and cfg.alpha == 0.5
        assert cfg.exact is None
        assert cfg.eval_points == 50  # default lattice size
        spec = cfg.to_spec()
        assert spec.kind == "linear"
        assert spec.beta == 1.0 and spec.b == 1.0
        assert spec.f is None and spec.dfdy is None
        assert cfg.to_spec() is spec  # built once, at parse time

    def test_scalar_fields_accept_constant_expressions(self):
        text = _swap(LINEAR, "delta = 0", "delta = sqrt(3)/2")
        cfg = parse_config_text(text)
        assert cfg.to_spec().delta == math.sqrt(3.0) / 2.0

    def test_nonlinear_problem_with_exact_solution(self):
        text = """\
kind = nonlinear
alpha1 = 0
alpha2 = 2
beta = 1
gamma = 0
delta = sqrt(3)/2
b = 1
f = y^5
exact = 1/sqrt(1+x^2/3)
n = 4
alpha = 0.8
eval_points = 11
"""
        cfg = parse_config_text(text)
        assert cfg.eval_points == 11
        assert cfg.exact is not None
        assert float(cfg.exact(1.0)) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        spec = cfg.to_spec()
        assert spec.kind == "nonlinear" and spec.p is None and spec.g is None
        assert float(spec.dfdy(0.5, 2.0)) == 5.0 * 2.0**4  # f_y = 5 y^4
        assert cfg.to_spec() is spec

    def test_shipped_configs_parse(self):
        for i in EXAMPLE_IDS:
            cfg = load_config(CONFIGS / f"example{i}.cfg")
            assert cfg.n >= 1
            assert cfg.exact is not None


class TestRejections:
    def test_unknown_key_reports_the_line(self):
        text = LINEAR + "mystery = 1\n"
        with pytest.raises(ConfigError, match="line 16"):
            parse_config_text(text)

    def test_line_without_equals_sign_reports_the_line(self):
        text = LINEAR + "mystery\n"
        with pytest.raises(ConfigError, match="^line 16: expected 'key = value', got 'mystery'$"):
            parse_config_text(text)

    def test_duplicate_key(self):
        text = LINEAR + "alpha = 0.6\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    def test_missing_required_key(self):
        text = _swap(LINEAR, "alpha2 = 1\n", "")
        with pytest.raises(ConfigError, match="alpha2"):
            parse_config_text(text)

    def test_linear_problems_reject_a_nonlinear_source(self):
        text = _swap(LINEAR, "p = 0", "f = y^5")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_nonlinear_problems_reject_linear_coefficients(self):
        text = _swap(LINEAR, "kind = linear", "kind = nonlinear")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_bad_kind(self):
        text = _swap(LINEAR, "kind = linear", "kind = quadratic")
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text(text)

    def test_bad_degree_and_lattice(self):
        with pytest.raises(ConfigError, match="^line 14: n must be at least 1, got 0$"):
            parse_config_text(_swap(LINEAR, "n = 6", "n = 0"))
        with pytest.raises(ConfigError, match="^line 14: n must be an integer, got '6.5'$"):
            parse_config_text(_swap(LINEAR, "n = 6", "n = 6.5"))
        with pytest.raises(ConfigError, match="^line 16: eval_points must be at least 2, got 1$"):
            parse_config_text(LINEAR + "eval_points = 1\n")
        with pytest.raises(ConfigError,
                           match="^line 16: eval_points must be an integer, got 'ten'$"):
            parse_config_text(LINEAR + "eval_points = ten\n")

    def test_malformed_expression_reports_line_and_column(self):
        text = _swap(LINEAR, "g = 2*x", "g = sin(")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        message = str(err.value)
        assert "column" in message

    def test_empty_value(self):
        text = _swap(LINEAR, "b = 1", "b =")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_scalar_fields_reject_variables(self):
        text = _swap(LINEAR, "b = 1", "b = x")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_spec_checks_raise_a_plain_value_error(self):
        """Data that parses but fails ProblemSpec's checks is not a ConfigError."""
        text = _swap(LINEAR, "beta = 1", "beta = 0")  # gamma = 0 as well
        with pytest.raises(ValueError, match="^beta and gamma cannot both vanish$") as err:
            parse_config_text(text)
        assert not isinstance(err.value, ConfigError)
