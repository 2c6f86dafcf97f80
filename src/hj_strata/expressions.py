"""Scalar expression language for scenario fields.

Expressions are written over the slow variables ``x1, x2``, the fast
variables ``y1, y2`` and the control components ``{a1}, {a2}`` (braced in the
source, the variables ``a1, a2`` of the parsed tree; a bare ``a1`` is an
unknown name) with the usual arithmetic operators ``+ - * / ^``
(``^`` is right-associative power), unary minus, and the function set
``sin cos exp abs sqrt min max wrap smoothstep``.

``wrap(v, T)`` reduces ``v`` modulo the period ``T`` into ``[0, T)``;
``smoothstep(a, b, v)`` is the cubic ramp that is 0 at ``v = a``, 1 at
``v = b`` and exactly saturated outside (reversed edges ``a > b`` give the
descending ramp).  Both are the tools scenarios use to build periodic and
compactly supported field patterns, so they are exact at their edges rather
than merely close.

Parsing produces a small immutable AST; evaluation is vectorized over numpy
arrays, so one call covers every control once the control variables carry a
control axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

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


class ExpressionError(ValueError):
    """Syntax or validity error in an expression source string.

    ``offset`` is the byte offset of the offending token in the source.
    """

    def __init__(self, message: str, source: str, offset: int):
        self.offset = offset
        self.source = source
        super().__init__(f"{message} (at offset {offset} in {source!r})")


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, Bin, Call]

# Binding powers for the Pratt parser.
_ADD, _MUL, _UNARY, _POW = 10, 20, 30, 40
# operator -> (binding power, implementation)
_OPERATORS = {
    "+": (_ADD, np.add),
    "-": (_ADD, np.subtract),
    "*": (_MUL, np.multiply),
    "/": (_MUL, np.divide),
    "^": (_POW, np.power),
}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", src, i) from None
            tokens.append(("num", text, i))
            i = j
            continue
        if ch == "{":
            j = src.find("}", i)
            if j < 0:
                raise ExpressionError("unclosed '{'", src, i)
            if src[i + 1 : j] not in CONTROLS:
                raise ExpressionError(f"unknown control {src[i : j + 1]!r}; controls are {{a1}} and {{a2}}", src, i)
            tokens.append(("control", src[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", src, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        kind, t, off = self.peek()
        if kind != "op" or t != text:
            raise ExpressionError(f"expected {text!r}", self.src, off)
        self.advance()

    def parse(self) -> Node:
        node = self.expression(0)
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", self.src, off)
        return node

    def expression(self, min_power: int) -> Node:
        node = self.prefix()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in _OPERATORS:
                return node
            power = _OPERATORS[text][0]
            if power < min_power:
                return node
            self.advance()
            # '^' is right-associative, the rest left-associative.
            right = self.expression(power if text == "^" else power + 1)
            node = Bin(text, node, right)

    def prefix(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "control":
            return Var(text)
        if kind == "name":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect("(")
                args = [self.expression(0)]
                while True:
                    k, t, o = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expression(0))
                    else:
                        break
                self.expect(")")
                arity = FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExpressionError(
                        f"{text} takes {arity} argument(s), got {len(args)}", self.src, off
                    )
                return Call(text, tuple(args))
            raise ExpressionError(f"unknown name {text!r}", self.src, off)
        if kind == "op" and text == "-":
            return Neg(self.expression(_UNARY))
        if kind == "op" and text == "+":
            return self.expression(_UNARY)
        if kind == "op" and text == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {text!r}" if text else "unexpected end of input", self.src, off)


def _evaluate(node: Node, env: Mapping[str, np.ndarray | float]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.operand, env)
    if isinstance(node, Bin):
        return _OPERATORS[node.op][1](_evaluate(node.left, env), _evaluate(node.right, env))
    return FUNCTIONS[node.func][1](*(_evaluate(arg, env) for arg in node.args))


def _free_vars(node: Node, acc: set[str]) -> None:
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        _free_vars(node.operand, acc)
    elif isinstance(node, Bin):
        _free_vars(node.left, acc)
        _free_vars(node.right, acc)
    elif isinstance(node, Call):
        for a in node.args:
            _free_vars(a, acc)


@dataclass(frozen=True, slots=True)
class ScalarExpr:
    """A parsed scalar expression over ``x1, x2, y1, y2, a1, a2``."""

    root: Node

    def __call__(self, **env: np.ndarray | float):
        """Evaluate with numpy broadcasting; missing variables must be unused."""
        missing = self.free_vars() - set(env)
        if missing:
            raise KeyError(f"expression uses unbound variable(s) {sorted(missing)}")
        return _evaluate(self.root, env)

    def free_vars(self) -> set[str]:
        acc: set[str] = set()
        _free_vars(self.root, acc)
        return acc


def parse_expression(source: str) -> ScalarExpr:
    """Parse ``source`` into a :class:`ScalarExpr`.

    Raises :class:`ExpressionError` carrying the byte offset of the first
    offending token on malformed input.
    """
    return ScalarExpr(_Parser(source).parse())
