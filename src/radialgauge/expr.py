"""Parsing and evaluation of scalar coefficient expressions.

Connection coefficients are supplied as plain-text formulas in the chart
coordinates ``x1 ... xn``, e.g. ``"x1*x2 + sin(x1)"``.  ``parse`` turns a
formula into an immutable syntax tree, ``evaluate`` computes its value at a
point.  Trees are frozen dataclasses: hashable, picklable, and safe to
evaluate concurrently.

``Program`` compiles a tuple of trees for evaluation at many points at once:
calling it on an (m, n) array of points returns the (m, T) array whose row r
holds ``evaluate(trees[t], points[r])``, bit for bit.  Each distinct subtree
becomes one instruction over a column of all m values, so subtrees shared
between trees (a common denominator, say) are computed once per call, and
subtrees without variables are folded into constants at compile time.
``+ - * /``, negation, ``abs`` and ``sqrt`` run as numpy array operations,
which round exactly as the Python float operations do.  ``^`` and the other
functions run element by element through the same ``math`` functions that
``evaluate`` calls, because numpy's vectorized kernels for them (chosen per
CPU) may differ from the C library in the last bit.  A domain condition in
any row (a zero denominator, a negative ``sqrt`` argument, a ``math`` call
that raises) makes the program evaluate the whole batch point by point with
``evaluate``, so the exception and its message are the scalar ones.

Syntax: ``+ - * / ^`` with the usual precedence (``^`` binds tightest and is
right-associative, so ``-x1^2`` means ``-(x1^2)``), parentheses, decimal or
scientific number literals, and the functions sin, cos, tan, exp, log, sqrt,
abs, atan.  Anything that leaves the real domain (``log(0)``, ``1/0``,
``sqrt(-1)``) raises instead of producing NaN.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import struct
from dataclasses import dataclass

import numpy as np


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Malformed source text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Evaluation left the real domain (division by zero, log of a
    non-positive number, sqrt of a negative, overflow, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, matching the coordinate names x1..xn


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Num | Var | Neg | BinOp | Call

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
    "atan": math.atan,
}

_ARITY = dict.fromkeys(FUNCTIONS, 1)

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"x(\d+)\Z")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            found = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    # factor := '-' factor | base ('^' factor)?
    # Power binds tighter than unary minus: -x1^2 parses as -(x1^2).
    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    # base := number | variable | function '(' args ')' | '(' expr ')'
    def base(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call(value, pos)
            return self.variable(value, pos)
        found = repr(value) if kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {found}", pos)

    def call(self, name, pos):
        self.advance()  # '('
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")", "')'")
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", pos)
        if len(args) != _ARITY[name]:
            raise ParseError(
                f"{name} takes {_ARITY[name]} argument, got {len(args)}", pos
            )
        return Call(name, tuple(args))

    def variable(self, name, pos):
        m = _VAR_RE.match(name)
        if m is None:
            if name in FUNCTIONS:
                raise ParseError(f"function {name!r} must be called", pos)
            raise ParseError(f"unknown identifier {name!r}", pos)
        index = int(m.group(1))
        if index < 1:
            raise ParseError("variable index must be at least 1", pos)
        if index > self.n:
            raise ParseError(
                f"variable x{index} exceeds declared dimension n={self.n}", pos
            )
        return Var(index)


def parse(source, n):
    """Parse ``source`` into a syntax tree over the variables x1..xn.

    Raises ParseError (with a 0-based position) on malformed input,
    unknown identifiers, or variable indices above ``n``.
    """
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    parser = _Parser(_tokenize(source), n)
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return node


def evaluate(node, point):
    """Evaluate a tree at ``point`` (a sequence of at least n reals).

    Pure: identical inputs give bit-identical results.  Raises
    EvalDomainError instead of returning NaN or infinity.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index - 1])
    if isinstance(node, Neg):
        return -evaluate(node.operand, point)
    if isinstance(node, BinOp):
        a = evaluate(node.left, point)
        b = evaluate(node.right, point)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero")
            return a / b
        try:
            # math.pow rejects negative-base fractional powers and 0^negative
            # (float.__pow__ would return a complex number for the former)
            return math.pow(a, b)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(f"invalid power {a!r}^{b!r}: {exc}") from None
    arg = evaluate(node.args[0], point)
    name = node.func
    if name == "log" and arg <= 0.0:
        raise EvalDomainError(f"log of non-positive value {arg!r}")
    if name == "sqrt" and arg < 0.0:
        raise EvalDomainError(f"sqrt of negative value {arg!r}")
    try:
        return FUNCTIONS[name](arg)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(f"{name}({arg!r}): {exc}") from None


class _Fallback(Exception):
    """Some row meets a domain condition: evaluate the batch point by point."""


# opcodes of Program instructions
_COLUMN, _ARRAY, _MATH = range(3)

# the operations that numpy rounds exactly as Python floats do
_ARRAY_FUNCTIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "/": operator.truediv, "neg": operator.neg,
                    "abs": operator.abs, "sqrt": np.sqrt}


def _has_zero(values):
    return np.count_nonzero(values) < len(values)  # NaN counts as nonzero


def _has_negative(values):
    return np.count_nonzero(values < 0.0) > 0


def _listed(value):
    """An instruction operand as an iterable of Python floats: a column, or
    a constant (a 0-d array) repeated."""
    if value.ndim:
        return value.tolist()
    return itertools.repeat(value.item())


class Program:
    """A tuple of trees compiled for evaluation over the rows of an (m, n)
    array; see the module docstring.  Compilation hash-conses the trees:
    an instruction is keyed by its operation and its operands' registers,
    so equal subtrees anywhere in the tuple share one register.  (Keying
    by the nodes themselves would merge ``Num(0.0)`` with ``Num(-0.0)``,
    which compare equal.)  Folded constants are held as 0-d arrays, which
    numpy combines with a column faster than a Python float, with the same
    bits.  Immutable after construction."""

    def __init__(self, trees):
        self.trees = tuple(trees)
        self._constants = []  # a register's folded value, None if it varies
        # (opcode, function, operand register or column, operand register
        # or None, result register), and finally the result's checks
        self._code = []
        self._checks = {}  # register -> domain checks of its values
        self._numbers = {}  # hash-consing key -> register
        try:
            refs = [self._emit(tree) for tree in self.trees]
        except _Fallback:
            # a constant subtree leaves the domain, so every point raises
            self._code = None
            return
        self._code = [step + (tuple(self._checks.get(step[-1], ())),)
                      for step in self._code]
        self._registers = [None if value is None else np.array(value, float)
                           for value in self._constants]
        # the constant entries, written into each output in one assignment
        self._template = np.array(
            [0.0 if self._constants[ref] is None else self._constants[ref]
             for ref in refs], dtype=float)
        self._outputs = [(t, ref) for t, ref in enumerate(refs)
                         if self._constants[ref] is None]

    def _register(self, key, value=None):
        ref = self._numbers.get(key)
        if ref is None:
            ref = self._numbers[key] = len(self._constants)
            self._constants.append(value)
        return ref

    def _constant(self, value):
        return self._register(("num", struct.pack("<d", value)), value)

    def _emit(self, node):
        """The register holding ``node``'s values, emitting the
        instructions it needs that are not already in the program."""
        if isinstance(node, Num):
            return self._constant(node.value)
        if isinstance(node, Var):
            key = ("var", node.index)
            if key not in self._numbers:
                self._code.append((_COLUMN, None, node.index - 1, None,
                                   self._register(key)))
            return self._numbers[key]
        if isinstance(node, Neg):
            name, operands = "neg", (self._emit(node.operand),)
        elif isinstance(node, BinOp):
            name = node.op
            operands = (self._emit(node.left), self._emit(node.right))
        else:
            name = node.func
            operands = tuple(self._emit(arg) for arg in node.args)
        if all(self._constants[ref] is not None for ref in operands):
            try:
                return self._constant(evaluate(node, ()))
            except EvalDomainError:
                raise _Fallback from None
        key = (name,) + operands
        if key not in self._numbers:
            a, b = operands if len(operands) == 2 else (operands[0], None)
            self._code.append((*self._operation(name, a, b), a, b,
                               self._register(key)))
        return self._numbers[key]

    def _operation(self, name, a, b):
        """(opcode, function) of an instruction, noting the domain checks
        that its operands need."""
        if name == "/":
            if self._constants[b] == 0.0:
                raise _Fallback
            self._require(b, _has_zero)
        elif name == "sqrt":
            self._require(a, _has_negative)
        if name in _ARRAY_FUNCTIONS:
            return _ARRAY, _ARRAY_FUNCTIONS[name]
        return _MATH, math.pow if name == "^" else FUNCTIONS[name]

    def _require(self, ref, check):
        """Check the values of register ``ref`` as it is computed; a
        constant register was checked when it was folded."""
        if self._constants[ref] is None:
            checks = self._checks.setdefault(ref, [])
            if check not in checks:
                checks.append(check)

    def __call__(self, points):
        """The (m, T) values of the trees at the rows of ``points``."""
        points = np.asarray(points, dtype=float)
        if self._code is not None:
            try:
                with np.errstate(all="ignore"):
                    return self._run(points)
            except _Fallback:
                pass
        return np.array([[evaluate(tree, point) for tree in self.trees]
                         for point in points],
                        dtype=float).reshape(len(points), len(self.trees))

    def _run(self, points):
        m = len(points)
        r = self._registers.copy()
        for op, fn, a, b, out, checks in self._code:
            if op == _ARRAY:
                value = fn(r[a]) if b is None else fn(r[a], r[b])
            elif op == _COLUMN:
                value = points[:, a]
            else:
                args = (_listed(r[a]),) if b is None else (_listed(r[a]),
                                                           _listed(r[b]))
                try:
                    value = np.fromiter(map(fn, *args), float, m)
                except (ValueError, ZeroDivisionError, OverflowError):
                    raise _Fallback from None
            for has_bad_value in checks:
                if has_bad_value(value):
                    raise _Fallback
            r[out] = value
        values = np.empty((m, len(self.trees)))
        values[:] = self._template
        for t, ref in self._outputs:
            values[:, t] = r[ref]
        return values


def divisors(node):
    """The denominator subtrees of every ``/`` in the tree, and ``cos(u)``
    for every ``tan(u)``, innermost first (a denominator that contains a
    division comes after it)."""
    return (den for den, _ in poles(node))


def poles(node):
    """``(denominator, operation)`` for every ``/`` and every ``tan`` in
    the tree, innermost first: a ``/`` node with its right operand, or a
    ``tan(u)`` call with ``cos(u)``."""
    if isinstance(node, BinOp):
        yield from poles(node.left)
        yield from poles(node.right)
        if node.op == "/":
            yield node.right, node
    elif isinstance(node, Neg):
        yield from poles(node.operand)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from poles(arg)
        if node.func == "tan":
            yield Call("cos", node.args), node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return _ATOM_PREC


def to_source(node):
    """Render a tree back to source text that reparses to the same tree."""
    if isinstance(node, Num):
        text = repr(node.value)
        return text if node.value >= 0 else f"({text})"
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    p = _PREC[node.op]
    left, right = to_source(node.left), to_source(node.right)
    if node.op == "^":
        # left slot is a base (atoms only); right slot is a factor
        if _prec(node.left) < _ATOM_PREC:
            left = f"({left})"
        if _prec(node.right) < _NEG_PREC:
            right = f"({right})"
    else:
        if _prec(node.left) < p:
            left = f"({left})"
        # left-associative: an equal-precedence right child needs parens
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left} {node.op} {right}"


_OP_NAME = {"+": "Add", "-": "Sub", "*": "Mul", "/": "Div", "^": "Pow"}


def format_ast(node):
    """Compact functional dump of a tree, for the CLI ``parse`` command."""
    if isinstance(node, Num):
        return f"Num({node.value!r})"
    if isinstance(node, Var):
        return f"Var(x{node.index})"
    if isinstance(node, Neg):
        return f"Neg({format_ast(node.operand)})"
    if isinstance(node, Call):
        args = ", ".join(format_ast(a) for a in node.args)
        return f"Call({node.func}, {args})"
    return f"{_OP_NAME[node.op]}({format_ast(node.left)}, {format_ast(node.right)})"
