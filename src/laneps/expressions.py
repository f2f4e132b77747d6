"""Small arithmetic expression language for user-defined problem data.

Grammar: identifiers drawn from the declared variable list (x, or x and y),
the constant pi, numeric literals, binary + - * / ^ (right-associative power),
unary minus, and the functions sin cos tan exp log sqrt sinh cosh abs pow.
Text parses to a tree, which compiles to a closure tree evaluated with numpy,
so expressions vectorize over arrays; parse errors carry the offending column
and evaluation-time domain violations report the offending abscissa.  No
Python eval is involved.  ``Expression.derivative`` differentiates the tree
in one variable by the forward-mode rules (Griewank & Walther, Evaluating
Derivatives, SIAM 2008, ch. 3), with abs' = sign; the derivative evaluates
without domain checks.
"""
from __future__ import annotations

import operator
import re

import numpy as np

__all__ = ["Expression", "ExpressionError", "DomainEvalError", "parse_expression"]


class ExpressionError(ValueError):
    """Parse-time failure, with the 1-based column of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class DomainEvalError(ArithmeticError):
    """Evaluation left the function's domain (log of nonpositive, etc.)."""


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        raise ExpressionError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _domain_check(label: str, bad, ctx: dict) -> None:
    bad = np.asarray(bad)
    if not bad.any():
        return
    detail = ""
    x = ctx.get("x")
    if x is not None:
        try:
            x_grid = np.broadcast_to(np.asarray(x, dtype=float), bad.shape)
            where = np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.shape else ()
            detail = f" at x = {float(x_grid[where]):.17g}"
        except ValueError:
            pass
    raise DomainEvalError(label + detail)


def _fn_log(arg, ctx):
    _domain_check("log of a nonpositive value", arg <= 0, ctx)
    return np.log(arg)


def _fn_sqrt(arg, ctx):
    _domain_check("square root of a negative value", arg < 0, ctx)
    return np.sqrt(arg)


def _power(base, exponent, ctx):
    exponent = np.asarray(exponent)
    fractional = exponent != np.floor(exponent)
    _domain_check("fractional power of a negative value", (np.asarray(base) < 0) & fractional, ctx)
    _domain_check("zero raised to a negative power", (np.asarray(base) == 0) & (exponent < 0), ctx)
    return np.power(base, exponent)


def _divide(num, den, ctx):
    _domain_check("division by zero", np.asarray(den) == 0, ctx)
    return num / den


#: Plain numpy operations; sign (abs') appears in derivative trees only.
_FUNCTIONS = {name: getattr(np, name) for name in
              ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs", "sign")}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": np.power}
#: The operations whose value path checks its domain; each takes ctx last.
_CHECKED = {"/": _divide, "^": _power, "log": _fn_log, "sqrt": _fn_sqrt}
_FUNCTION_NAMES = (set(_FUNCTIONS) - {"sign"}) | {"pow"}
_ONE = ("num", 1.0)


def _never_leaves_domain(op: str, args) -> bool:
    """True for ^ by a whole literal >= 0 and / by a nonzero literal: their
    domain checks cannot fire, so they compile to the plain numpy op."""
    if op not in ("/", "^") or args[1][0] != "num":
        return False
    value = args[1][1]
    return value != 0.0 if op == "/" else value >= 0.0 and value.is_integer()


def _compile(node, checked: bool):
    """Closure evaluating a tree on a dict of variable values.

    A tree is a tuple ("num", value), ("var", name), ("neg", a), (op, a, b)
    for op in + - * / ^, or (function name, a).  With ``checked`` the value
    path raises DomainEvalError where _CHECKED says so, except where
    _never_leaves_domain shows the check cannot fire.
    """
    op, *args = node
    if op == "num":
        value = args[0]
        return lambda ctx: value
    if op == "var":
        return lambda ctx, name=args[0]: ctx[name]
    parts = [_compile(arg, checked) for arg in args]
    if op == "neg":
        (inner,) = parts
        return lambda ctx: -inner(ctx)
    if checked and op in _CHECKED and not _never_leaves_domain(op, args):
        fn = _CHECKED[op]
        if len(parts) == 1:
            return lambda ctx, a=parts[0]: fn(a(ctx), ctx)
        return lambda ctx, l=parts[0], r=parts[1]: fn(l(ctx), r(ctx), ctx)
    if len(parts) == 1:
        return lambda ctx, fn=_FUNCTIONS[op], a=parts[0]: fn(a(ctx))
    return lambda ctx, fn=_ARITHMETIC[op], l=parts[0], r=parts[1]: fn(l(ctx), r(ctx))


# Derivative-tree builders; None stands for an exact zero and is pruned.
def _add(a, b):
    return a if b is None else b if a is None else ("+", a, b)


def _sub(a, b):
    return a if b is None else ("neg", b) if a is None else ("-", a, b)


def _mul(a, b):
    if a is None or b is None:
        return None
    return b if a == _ONE else a if b == _ONE else ("*", a, b)


def _div(a, b):
    return None if a is None else ("/", a, b)


def _function_derivative(name: str, u, du):
    """d name(u) for a nonzero du: du / (1/name'(u)) for log, sqrt and tan,
    name'(u) * du for the rest, and None (zero) for sign."""
    divisor = {"log": u, "sqrt": ("*", ("num", 2.0), ("sqrt", u)),
               "tan": ("*", ("cos", u), ("cos", u))}.get(name)
    if divisor is not None:
        return _div(du, divisor)
    return _mul({"sin": ("cos", u), "cos": ("neg", ("sin", u)), "exp": ("exp", u),
                 "sinh": ("cosh", u), "cosh": ("sinh", u), "abs": ("sign", u)}.get(name), du)


def _derivative(node, var: str):
    """Forward-mode derivative tree of ``node`` in ``var``; None if zero."""
    op, *args = node
    if op == "num":
        return None
    if op == "var":
        return _ONE if args[0] == var else None
    derivs = [_derivative(arg, var) for arg in args]
    if all(d is None for d in derivs):
        return None
    if op == "neg":
        return ("neg", derivs[0])
    if len(args) == 1:
        return _function_derivative(op, args[0], derivs[0])
    (u, v), (du, dv) = args, derivs
    if op == "+":
        return _add(du, dv)
    if op == "-":
        return _sub(du, dv)
    if op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if op == "/":
        return _sub(_div(du, v), _div(_mul(u, dv), ("*", v, v)))
    if dv is None:  # constant exponent: e * b^(e - 1) * b'
        e_less_one = ("num", v[1] - 1.0) if v[0] == "num" else ("-", v, _ONE)
        return _mul(_mul(v, ("^", u, e_less_one)), du)
    # b^e * (e' log b + e b' / b)
    return _mul(node, _add(_mul(dv, ("log", u)), _div(_mul(v, du), u)))


class _Parser:
    """Recursive descent over the token stream, emitting a tree."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            shown = value if kind != "end" else "end of expression"
            raise ExpressionError(f"expected {op!r}, found {shown}", pos)
        return self.advance()

    def parse(self):
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {value!r}", pos)
        return node

    def expression(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand):
        """operand (op operand)*, left-associative, for op in ``ops``."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = (self.advance()[1], node, operand())
        return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.unary()
            return ("neg", inner) if value == "-" else inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return ("num", float(value))
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        if kind == "name":
            if value == "pi":
                return ("num", np.pi)
            if value in self.variables:
                return ("var", value)
            if value in _FUNCTION_NAMES:
                return self.call(value, pos)
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        shown = value if kind != "end" else "end of expression"
        raise ExpressionError(f"expected a value, found {shown}", pos)

    def call(self, name: str, pos: int):
        self.expect_op("(")
        args = [self.expression()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.expression())
        self.expect_op(")")
        if name == "pow":
            if len(args) != 2:
                raise ExpressionError("pow expects exactly 2 arguments", pos)
            return ("^", *args)
        if len(args) != 1:
            raise ExpressionError(f"{name} expects exactly 1 argument", pos)
        return (name, args[0])


class Expression:
    """A compiled expression callable on its declared variables.

    A call returns a float array with the broadcast shape of its arguments.
    """

    def __init__(self, text: str, variables: tuple[str, ...], *, _tree=None):
        self.text = text
        self.variables = variables
        self._tree = _Parser(text, variables).parse() if _tree is None else _tree
        # Domain checks guard parsed text only; a derivative tree runs plain numpy.
        self._root = _compile(self._tree, checked=_tree is None)

    def __call__(self, *values):
        if len(values) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} takes {len(self.variables)} "
                f"argument(s), got {len(values)}"
            )
        arrays = [np.asarray(v, dtype=float) for v in values]
        with np.errstate(all="ignore"):
            out = self._root(dict(zip(self.variables, arrays)))
        shape = np.broadcast(*arrays).shape if arrays else ()
        if type(out) is not np.ndarray or out.shape != shape:
            out = np.full(shape, out)
        return out

    def derivative(self, var: str) -> "Expression":
        """The partial derivative in ``var``, over the same variables.

        Its tree is built here, once; subtrees free of ``var`` differentiate
        to an exact zero, which is pruned.
        """
        if var not in self.variables:
            raise ValueError(f"{var!r} is not a variable of {self!r}")
        tree = _derivative(self._tree, var)
        return Expression(f"d({self.text})/d{var}", self.variables,
                          _tree=("num", 0.0) if tree is None else tree)

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables})"


def parse_expression(text: str, variables: tuple[str, ...] = ("x",)) -> Expression:
    """Compile an expression over the given variables; raises ExpressionError."""
    return Expression(text, variables)
