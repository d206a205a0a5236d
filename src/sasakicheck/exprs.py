"""Tiny arithmetic expression grammar for embeddings and normal scalings.

Supported: ``+ - * / ^<integer>``, parentheses, ``exp``, ``sin``,
``cos``, numeric literals (``2``, ``.5``, ``1e-3``, ``2.5E+4``) and
declared variable names.  Parentheses, function calls and signs nest at
most ``MAX_DEPTH`` deep; a chain of ``+ -`` or ``* /`` operands of any
length runs in one loop.  Expressions compile to closures over a
coordinate list, dual-compatible, so everything built from them can be
differentiated.  They are elementwise (see :mod:`sasakicheck.fields`):
the coordinates may be numpy columns of a point stack, or duals over
them, and a failure on a stack names the first point that fails alone.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import dual
from .errors import EvaluationError, ExprParseError

_FUNCTIONS = {"exp": dual.exp, "sin": dual.sin, "cos": dual.cos}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# digits and points, then an optional exponent; float() rejects a malformed one
_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d*)?")
MAX_DEPTH = 50  # about 8 parser frames a level: well inside Python's recursion limit


@dataclass(frozen=True)
class Expr:
    text: str
    fn: Callable

    def __call__(self, coords):
        try:
            return self.fn(coords)
        except (ArithmeticError, ValueError) as exc:
            columns = [x for x in map(dual.innermost, coords) if isinstance(x, np.ndarray)]
            if columns:
                # a stack: rerun point by point, so the message is the one
                # the first failing point gives alone
                for i in range(len(columns[0])):
                    self([dual.take(c, i) for c in coords])
                at = f"a stack of {len(columns[0])} points"
            else:
                at = [dual.real_part(c) for c in coords]
            raise EvaluationError(f"expression {self.text!r} failed at {at}: {exc}") from exc


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(variables)}
        self.depth = 0

    def error(self, msg: str):
        raise ExprParseError(f"{msg} in {self.text!r}", self.pos)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self.expr()
        if self.peek():
            self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return node

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops):
        """Left-associative ``operand (op operand)*`` with ``op`` one of ``ops``."""
        first, rest = operand(), []
        while (ch := self.peek()) and ch in ops:
            self.pos += 1
            rest.append((_BINARY[ch], operand()))
        if not rest:
            return first

        def run(c):
            acc = first(c)
            for op, f in rest:
                acc = op(acc, f(c))
            return acc
        return run

    def nested(self, parse):
        """``parse()`` one nesting level down, refused past ``MAX_DEPTH``."""
        if self.depth == MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def unary(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            inner = self.nested(self.unary)
            return lambda c: -inner(c)
        if ch == "+":
            self.pos += 1
            return self.nested(self.unary)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start or (self.pos < len(self.text) and self.text[self.pos] == "."):
                self.error("exponent must be an integer literal")
            n = sign * int(self.text[start:self.pos])
            return (lambda b, k: lambda c: dual._ipow(b(c), k))(base, n)
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.nested(self.expr)
            if self.peek() != ")":
                self.error("missing closing parenthesis")
            self.pos += 1
            return node
        number = _NUMBER.match(self.text, self.pos)
        if number:
            start, literal = self.pos, number.group()
            self.pos = number.end()
            try:
                value = float(literal)
            except ValueError:
                self.pos = start
                self.error(f"bad numeric literal {literal!r}")
            return lambda c, v=value: v
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name in _FUNCTIONS:
                if self.peek() != "(":
                    self.error(f"function {name} needs parentheses")
                self.pos += 1
                arg = self.nested(self.expr)
                if self.peek() != ")":
                    self.error(f"missing closing parenthesis after {name}(...)")
                self.pos += 1
                f = _FUNCTIONS[name]
                return lambda c, f=f, a=arg: f(a(c))
            if name in self.vars:
                idx = self.vars[name]
                return lambda c, i=idx: c[i]
            self.pos = start
            self.error(f"unknown identifier {name!r}")
        if ch == "":
            self.error("unexpected end of expression")
        self.error(f"unexpected character {ch!r}")


def compile_expression(text: str, variables: Sequence[str]) -> Expr:
    fn = _Parser(text, variables).parse()
    return Expr(text=text.strip(), fn=fn)


def compile_map(texts: Sequence[str], variables: Sequence[str]) -> Callable:
    """Compile a list of expressions into a coordinate-map closure."""
    exprs: List[Expr] = [compile_expression(t, variables) for t in texts]

    def map_func(coords):
        return [e(coords) for e in exprs]

    return map_func
