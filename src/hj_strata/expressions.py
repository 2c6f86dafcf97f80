"""Scalar expression language for scenario fields.

An expression is Python's expression grammar with ``^`` for power, so ``^``
is right-associative and binds tighter than a unary minus on its left,
restricted by one whitelist: decimal number literals; the slow variables
``x1, x2``, the fast variables ``y1, y2`` and the control components
``{a1}, {a2}`` (braced in the source, the variables ``a1, a2`` of the parsed
tree; a bare ``a1`` is an unknown name); binary ``+ - * / ^`` and unary
``+ -``; positional calls of ``sin cos exp abs sqrt min max wrap smoothstep``.

``wrap(v, T)`` reduces ``v`` modulo the period ``T`` into ``[0, T)``;
``smoothstep(a, b, v)`` is the cubic ramp that is 0 at ``v = a``, 1 at
``v = b`` and exactly saturated outside (reversed edges ``a > b`` give the
descending ramp).  Both are the tools scenarios use to build periodic and
compactly supported field patterns, so they are exact at their edges rather
than merely close.

Sources are parsed by :func:`ast.parse`, never compiled: evaluation walks the
tree with each operator's numpy ufunc, vectorized over numpy arrays, so one
call covers every control once the control variables carry a control axis.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["ExpressionError", "ScalarExpr", "parse_expression"]

VARIABLES = ("x1", "x2", "y1", "y2")
CONTROLS = ("a1", "a2")  # written {a1}, {a2}


def wrap(v, period):
    """``v`` reduced modulo ``period`` into ``[0, period)``."""
    return v - period * np.floor(v / period)


def smoothstep(lo, hi, v):
    """Cubic ramp from 0 at ``v = lo`` to 1 at ``v = hi``, exactly saturated
    outside the edges."""
    t = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


# name -> (arity, implementation)
FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "wrap": (2, wrap),
    "smoothstep": (3, smoothstep),
}

_OPERATORS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power}
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_TOKEN = re.compile(r"[\w.]+|[^\w\s]")
# What Python's grammar cannot reject: characters outside the language,
# braces other than {a1}/{a2}, '**' (power is '^') and a trailing comma.
_BAD_CHARACTER = re.compile(r"[^A-Za-z0-9_+\-*/^(),.{}\s]")
_BAD_CONTROL = re.compile(r"\{(?!a[12]\})")
_BAD_TOKEN = re.compile(r"\*\*|,\s*\)")


class ExpressionError(ValueError):
    """Syntax or validity error in an expression source string.

    ``offset`` is the index of the offending token in the source string.
    """

    def __init__(self, message: str, source: str, offset: int):
        self.offset = offset
        self.source = source
        super().__init__(f"{message} (at offset {offset} in {source!r})")


def _evaluate(node: ast.expr, env: Mapping[str, np.ndarray | float]):
    kind = type(node)
    if kind is ast.BinOp:
        return _OPERATORS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if kind is ast.Name:
        return env[node.id]
    if kind is ast.Constant:
        return node.value
    if kind is ast.Call:
        return FUNCTIONS[node.func.id][1](*(_evaluate(arg, env) for arg in node.args))
    if kind is ast.UnaryOp:
        value = _evaluate(node.operand, env)
        return -value if type(node.op) is ast.USub else value
    return env[node.elts[0].id]  # {a1} or {a2}


@dataclass(frozen=True, slots=True)
class ScalarExpr:
    """A parsed scalar expression over ``x1, x2, y1, y2, a1, a2``."""

    root: ast.expr
    variables: frozenset[str]

    def __call__(self, **env: np.ndarray | float):
        """Evaluate with numpy broadcasting; missing variables must be unused."""
        missing = self.variables.difference(env)
        if missing:
            raise KeyError(f"expression uses unbound variable(s) {sorted(missing)}")
        return _evaluate(self.root, env)

    def free_vars(self) -> frozenset[str]:
        return self.variables


def parse_expression(source: str) -> ScalarExpr:
    """Parse ``source`` into a :class:`ScalarExpr`.

    Raises :class:`ExpressionError` carrying the index of the first
    offending token on malformed input.
    """
    if m := _BAD_CHARACTER.search(source):
        raise ExpressionError(f"unexpected character {m[0]!r}", source, m.start())
    if m := _BAD_CONTROL.search(source):
        raise ExpressionError("unknown control; controls are {a1} and {a2}", source, m.start())
    if m := _BAD_TOKEN.search(source):
        raise ExpressionError(f"unexpected token {m[0][-1]!r}", source, m.end() - 1)
    # Spaces for whitespace and for the leading zeros of '01', which Python
    # refuses; the text starts at its first token.
    text = re.sub(r"\s|(?<![\w.])0+(?=\d)", lambda z: " " * len(z[0]), source)
    lead = len(text) - len(text.lstrip())
    text = text[lead:].replace("^", "**")
    where = [i for i in range(lead, len(source)) for _ in range(1 + (source[i] == "^"))] + [len(source)]
    variables: set[str] = set()

    def fail(message: str, node: ast.expr):
        raise ExpressionError(message, source, where[node.col_offset])

    def operator(node: ast.expr) -> int:
        # An infix node starts with its leftmost operand, perhaps behind
        # parentheses; its operator is the first token after that operand
        # and the operand's closing parentheses.  Any other node is reported
        # where it starts.
        operands = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]
        if operands:
            first = min(operands, key=lambda c: c.col_offset)
            if not text[node.col_offset:first.col_offset].strip(" ("):
                rest = text[first.end_col_offset:]
                return first.end_col_offset + len(rest) - len(rest.lstrip(" )"))
        return node.col_offset

    def check(node: ast.expr) -> None:
        kind, segment = type(node), source[where[node.col_offset] : where[node.end_col_offset]]
        if kind is ast.BinOp and type(node.op) in _OPERATORS:
            check(node.left)
            check(node.right)
        elif kind is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
            check(node.operand)
        elif kind is ast.Name:
            if node.id not in VARIABLES:
                fail(f"unknown name {node.id!r}", node)
            variables.add(node.id)
        elif kind is ast.Set:  # {a1} or {a2}, the only braces the source may hold
            variables.add(node.elts[0].id)
        elif kind is ast.Constant and _DECIMAL.fullmatch(segment):
            node.value = float(segment)
        elif (kind is ast.Call and type(node.func) is ast.Name and not node.keywords
              and node.func.col_offset == node.col_offset):  # not '(sin)(1)'
            name, arity = node.func.id, FUNCTIONS.get(node.func.id, (None,))[0]
            if arity is None:
                fail(f"unknown name {name!r}", node)
            if len(node.args) != arity:
                fail(f"{name} takes {arity} argument(s), got {len(node.args)}", node)
            for arg in node.args:
                check(arg)
        else:
            raise ExpressionError(f"unsupported syntax {segment!r}", source, where[operator(node)])

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)  # '1and 2' warns, then parses
            root = ast.parse(text, mode="eval").body
        check(root)
    except SyntaxError as exc:
        at = (exc.offset or 0) - 1
        if not 0 <= at < len(text):
            raise ExpressionError("unexpected end of input", source, len(source)) from None
        token = _TOKEN.search(source, where[at])
        message = f"unexpected token {token[0]!r}" if exc.msg == "invalid syntax" and token else exc.msg
        raise ExpressionError(message, source, where[at]) from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply", source, 0) from None
    return ScalarExpr(root, frozenset(variables))
