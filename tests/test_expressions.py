"""Tests for the arithmetic expression grammar used by problem configs."""
import math
import random
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laneps import expressions, registry
from laneps.config import parse_config_text
from laneps.expressions import DomainEvalError, ExpressionError, parse_expression

coeffs = st.floats(min_value=-5.0, max_value=5.0)


def ev(text, x=None, y=None):
    if y is not None:
        return parse_expression(text, ("x", "y"))(np.asarray(x), np.asarray(y))
    if x is not None:
        return parse_expression(text, ("x",))(np.asarray(x))
    return parse_expression(text, ())()


class TestGrammar:
    def test_literals_and_constants(self):
        assert ev("3") == 3.0
        assert ev("2.5e-3") == 2.5e-3
        assert ev(".5") == 0.5
        assert ev("pi") == math.pi

    def test_precedence(self):
        assert ev("2+3*4^2") == 50.0
        assert ev("(2+3)*4") == 20.0
        assert ev("2^3^2") == 512.0  # right-associative power
        assert ev("8/4/2") == 1.0  # left-associative division
        assert ev("-2^2") == -4.0  # unary minus binds looser than power
        assert ev("2*-3") == -6.0

    def test_variables_and_functions(self):
        x = np.linspace(0.1, 1.0, 7)
        assert np.allclose(ev("sin(x)^2 + cos(x)^2", x), 1.0, rtol=1e-15)
        assert np.allclose(ev("exp(log(x))", x), x, rtol=1e-14)
        assert np.allclose(ev("sqrt(x^2)", x), x, rtol=1e-15)
        assert np.allclose(ev("pow(x, 3)", x), x**3, rtol=1e-15)
        assert np.allclose(ev("sinh(x) / cosh(x)", x), np.tanh(x), rtol=1e-14)
        assert np.allclose(ev("abs(0 - x)", x), x, rtol=1e-15)

    def test_two_variable_expressions(self):
        x = np.array([0.5, 1.0])
        y = np.array([2.0, -1.0])
        assert np.allclose(ev("y^5 - x", x, y), y**5 - x, rtol=1e-15)

    @given(a=coeffs, b=coeffs, c=coeffs)
    def test_quadratic_matches_direct_evaluation(self, a, b, c):
        x = np.linspace(-2.0, 2.0, 9)
        expr = parse_expression(f"{a!r}*x^2 + {b!r}*x + {c!r}", ("x",))
        direct = a * x**2 + b * x + c
        assert np.max(np.abs(expr(x) - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_evaluation_is_deterministic(self):
        x = np.linspace(0.0, 1.0, 11)
        first = ev("(8/(8-x^2))^2", x)
        second = ev("(8/(8-x^2))^2", x)
        assert np.all(first == second)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,column",
        [
            ("sin(", 5),
            ("2 +", 4),
            ("(1 + 2", 7),
            ("1 + * 2", 5),
        ],
    )
    def test_truncated_input_reports_the_position(self, text, column):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text, ("x",))
        assert f"column {column}" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'q'"):
            parse_expression("2*q", ("x",))

    def test_undeclared_variable(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
            parse_expression("x + y", ("x",))

    def test_function_arity(self):
        with pytest.raises(ExpressionError):
            parse_expression("pow(x)", ("x",))
        with pytest.raises(ExpressionError):
            parse_expression("sin(x, x)", ("x",))

    def test_call_with_the_wrong_number_of_arguments(self):
        f = parse_expression("x + y", ("x", "y"))
        with pytest.raises(TypeError, match=r"takes 2 argument\(s\), got 1"):
            f(1.0)
        with pytest.raises(TypeError, match=r"takes 2 argument\(s\), got 3"):
            f(1.0, 2.0, 3.0)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2", ("x",))
        with pytest.raises(ExpressionError):
            parse_expression("x !", ("x",))


class TestDomainErrors:
    def test_log_of_nonpositive_reports_the_point(self):
        expr = parse_expression("log(x)", ("x",))
        with pytest.raises(DomainEvalError) as err:
            expr(np.array([0.5, -0.25]))
        assert "-0.25" in str(err.value)

    def test_division_by_zero_reports_the_point(self):
        expr = parse_expression("1/(x-1)", ("x",))
        with pytest.raises(DomainEvalError) as err:
            expr(np.array([0.0, 1.0]))
        assert "x = 1" in str(err.value)

    def test_square_root_of_negative(self):
        expr = parse_expression("sqrt(x)", ("x",))
        with pytest.raises(DomainEvalError):
            expr(np.array([-0.01]))

    def test_fractional_power_of_negative_base(self):
        expr = parse_expression("x^0.5", ("x",))
        with pytest.raises(DomainEvalError):
            expr(np.array([-2.0]))

    def test_zero_to_a_negative_power(self):
        expr = parse_expression("x^(0-1)", ("x",))
        with pytest.raises(DomainEvalError):
            expr(np.array([0.0]))

    def test_valid_points_pass_the_same_checks(self):
        expr = parse_expression("log(x) + 1/x + sqrt(x)", ("x",))
        out = expr(np.array([0.5, 2.0]))
        assert np.all(np.isfinite(out))


class TestLiteralFastPath:
    """^ by a whole literal >= 0 and / by a nonzero literal skip their checks."""

    @pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5])
    def test_registry_configs_are_bit_identical_to_the_checked_path(self, monkeypatch,
                                                                     example_id):
        text = (registry._CONFIG_DIR / f"example{example_id}.cfg").read_text(encoding="utf-8")
        fast = parse_config_text(text)
        monkeypatch.setattr(expressions, "_never_leaves_domain", lambda op, args: False)
        checked = parse_config_text(text)
        rng = np.random.default_rng(example_id)
        x = rng.uniform(0.01, fast.to_spec().b, 257)
        y = rng.uniform(0.1, 2.0, 257)

        def field(cfg, key):
            return cfg.exact if key == "exact" else getattr(cfg.to_spec(), key)

        for key, var in (("f", "y"), ("p", "x"), ("g", "x"), ("exact", "x")):
            ours, ref = field(fast, key), field(checked, key)
            if ours is None:
                continue
            args = (x, y) if key == "f" else (x,)
            for _ in range(3):  # the expression, then its first and second derivative
                assert np.array_equal(ours(*args), ref(*args)), (key, ours.text)
                ours, ref = ours.derivative(var), ref.derivative(var)

    def test_safe_literal_operations_bypass_the_checks(self, monkeypatch):
        calls = []
        for op in ("/", "^"):
            fn = expressions._CHECKED[op]
            monkeypatch.setitem(expressions._CHECKED, op,
                                lambda *a, _fn=fn, _op=op: calls.append(_op) or _fn(*a))
        x = np.linspace(-1.0, 1.0, 9)
        assert np.array_equal(ev("x^2 + x^0 - x/2 + x^3/pi", x), x**2 + 1.0 - x / 2 + x**3 / np.pi)
        assert calls == []
        ev("x^2.5 + x^(0-2) + 1/x + x/(1-3)", np.array([0.5]))
        assert sorted(calls) == ["/", "/", "^", "^"]

    @pytest.mark.parametrize("text,x,match", [
        ("(0-x)^0.5", 2.0, "fractional power of a negative value"),
        ("x^(0-1)", 0.0, "zero raised to a negative power"),
        ("x^-1", 0.0, "zero raised to a negative power"),
        ("1/(x-x)", 0.5, "division by zero"),
        ("x/0", 0.5, "division by zero"),
    ])
    def test_other_checked_operations_still_raise(self, text, x, match):
        with pytest.raises(DomainEvalError, match=match):
            ev(text, np.array([0.25, x]))


def _random_expression(rng, depth):
    """A random expression over x and y: its text and an mpmath evaluator.

    Every grammar operator and function can appear; log, sqrt, division and
    powers with a variable exponent get arguments kept away from their
    domain edges, and tan gets |argument| <= 1.
    """
    if depth == 0:
        leaf = rng.choice(["x", "y", "num"])
        if leaf == "num":
            c = round(rng.uniform(0.5, 2.0), 3)
            return repr(c), lambda x, y: mpmath.mpf(repr(c))
        return leaf, (lambda x, y: x) if leaf == "x" else (lambda x, y: y)
    a, fa = _random_expression(rng, depth - 1)
    b, fb = _random_expression(rng, rng.randrange(depth))
    kind = rng.choice(["+", "-", "*", "/", "neg", "^int", "^frac", "pow", "sin", "cos",
                       "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs"])
    if kind == "+":
        return f"({a}) + ({b})", lambda x, y: fa(x, y) + fb(x, y)
    if kind == "-":
        return f"({a}) - ({b})", lambda x, y: fa(x, y) - fb(x, y)
    if kind == "*":
        return f"({a})*({b})", lambda x, y: fa(x, y) * fb(x, y)
    if kind == "/":
        return f"({a})/(1 + ({b})^2)", lambda x, y: fa(x, y) / (1 + fb(x, y) ** 2)
    if kind == "neg":
        return f"-({a})", lambda x, y: -fa(x, y)
    if kind == "^int":
        k = rng.choice([2, 3])
        return f"({a})^{k}", lambda x, y: fa(x, y) ** k
    if kind == "^frac":
        k = rng.choice(["0.5", "-1.5"])
        return (f"(1 + ({a})^2)^{k}",
                lambda x, y: mpmath.power(1 + fa(x, y) ** 2, mpmath.mpf(k)))
    if kind == "pow":
        return (f"pow(1 + ({a})^2, {b})",
                lambda x, y: mpmath.power(1 + fa(x, y) ** 2, fb(x, y)))
    if kind == "tan":
        return f"tan(sin({a}))", lambda x, y: mpmath.tan(mpmath.sin(fa(x, y)))
    if kind in ("log", "sqrt"):
        fn = getattr(mpmath, kind)
        return f"{kind}(1 + ({a})^2)", lambda x, y: fn(1 + fa(x, y) ** 2)
    fn = mpmath.fabs if kind == "abs" else getattr(mpmath, kind)
    return f"{kind}({a})", lambda x, y: fn(fa(x, y))


class TestDerivative:
    def test_matches_mpmath_on_random_expressions(self):
        rng = random.Random(20170)
        points = [(0.3, -0.7), (0.55, 0.2), (0.9, 0.85)]
        used = set()
        with mpmath.workdps(50):
            for _ in range(80):
                text, exact = _random_expression(rng, rng.randrange(1, 4))
                used.update(re.findall(r"[a-z]+|[-+*/^]", text))
                expr = parse_expression(text, ("x", "y"))
                x = np.array([p[0] for p in points])
                y = np.array([p[1] for p in points])
                for var in ("x", "y"):
                    ours = expr.derivative(var)(x, y)
                    for k, (px, py) in enumerate(points):
                        if var == "x":
                            ref = mpmath.diff(lambda t: exact(t, mpmath.mpf(py)), mpmath.mpf(px))
                        else:
                            ref = mpmath.diff(lambda t: exact(mpmath.mpf(px), t), mpmath.mpf(py))
                        ref = float(ref)
                        assert abs(ours[k] - ref) <= 1e-11 * max(1.0, abs(ref)), (text, var)
        grammar = {"+", "-", "*", "/", "^", "pow", "sin", "cos", "tan", "exp", "log", "sqrt",
                   "sinh", "cosh", "abs"}
        assert grammar <= used

    def test_variable_free_subtrees_are_pruned(self):
        x = np.linspace(0.1, 1.0, 7)
        y = np.linspace(-1.0, 2.0, 7)
        f = parse_expression("sin(y) - cos(x) + 2/x", ("x", "y"))
        assert np.array_equal(f.derivative("y")(x, y), np.cos(y))
        g = parse_expression("y^5", ("x", "y"))
        assert np.array_equal(g.derivative("y")(x, y), 5.0 * y**4)

    def test_calls_return_arrays_of_the_broadcast_shape(self):
        x = np.linspace(0.0, 1.0, 5)
        exact = parse_expression("pi/2 - x", ("x",))
        slope = exact.derivative("x")(x)
        assert isinstance(slope, np.ndarray) and slope.shape == x.shape
        assert np.all(slope == -1.0)
        assert np.all(exact.derivative("x").derivative("x")(x) == 0.0)
        for text in ("3", "x"):
            fy = parse_expression(text, ("x", "y")).derivative("y")(x, x)
            assert isinstance(fy, np.ndarray) and fy.shape == x.shape
            assert np.all(fy == 0.0)
        p = parse_expression("0", ("x",))(x)
        assert isinstance(p, np.ndarray) and p.shape == x.shape
        assert parse_expression("2^3", ())().shape == ()

    def test_derivative_has_no_domain_checks(self):
        # The value path raises; the derivative returns inf without a warning.
        f = parse_expression("sqrt(y) - 1", ("x", "y"))
        assert np.all(np.isinf(f.derivative("y")(np.ones(3), np.zeros(3))))

    def test_unknown_variable_is_rejected(self):
        with pytest.raises(ValueError, match="'y' is not a variable"):
            parse_expression("x^2", ("x",)).derivative("y")
