"""Tree-walking references for expression trees.

The package evaluates trees only through generated code
(``expressions.compile_tuple`` behind ``expressions.call_checked``).  This
module walks a tree node by node instead, with the same contract: an
undefined operation or a non-finite result raises EvalDomainError, a
variable index beyond the point raises ArityError.  Tests compare the
generated code against it.

The package folds trees as it builds them (the parser and the derivative
rules go through the folding constructors).  :func:`_ref_simplify` folds a
raw tree after the fact, bottom-up through the same constructors, so tests
compare what the package built against it.

:func:`reference_parse` is the recursive-descent parser the package used
before its parser read tokens by index, one method call per token and per
grammar level; tests compare ``parse_expression`` against it, tree for tree
and error for error.
"""

import math
import re

from pfaffian import expressions as ex
from pfaffian.errors import ArityError, EvalDomainError, ParseError, UnknownIdentifierError
from pfaffian.expressions import (
    _BINARY,
    FUNCTION_NAMES,
    MAX_DEPTH,
    Binary,
    Const,
    Expression,
    Pow,
    Unary,
    Var,
    func,
    neg,
    powc,
)

_UNARY_EVAL = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
}


def evaluate(e: Expression, point) -> float:
    """Evaluate ``e`` at ``point`` (a sequence of floats).

    Raises :class:`EvalDomainError` on division by zero, log of a
    non-positive value, sqrt of a negative value, or overflow; never
    returns a non-finite float.  Raises :class:`ArityError` when a
    variable index exceeds the point length.
    """
    v = _eval(e, point)
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite result {v!r}")
    return v


def _eval(e, point):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index >= len(point):
            raise ArityError(
                f"variable index {e.index} out of range for point of length {len(point)}"
            )
        return float(point[e.index])
    if isinstance(e, Unary):
        a = _eval(e.arg, point)
        if e.op == "neg":
            return -a
        try:
            return _UNARY_EVAL[e.op](a)
        except ValueError as exc:
            raise EvalDomainError(f"{e.op}({a!r}) is undefined") from exc
        except OverflowError as exc:
            raise EvalDomainError(f"{e.op}({a!r}) overflows") from exc
    if isinstance(e, Binary):
        a = _eval(e.left, point)
        b = _eval(e.right, point)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if isinstance(e, Pow):
        a = _eval(e.base, point)
        try:
            return math.pow(a, e.exponent)
        except ValueError as exc:
            raise EvalDomainError(f"pow({a!r}, {e.exponent!r}) is undefined") from exc
        except OverflowError as exc:
            raise EvalDomainError(f"pow({a!r}, {e.exponent!r}) overflows") from exc
    raise TypeError(f"not an Expression node: {e!r}")


def numeric_equal(e1: Expression, e2: Expression, points, rel_tol=1e-10) -> bool:
    """Numeric equivalence by sampling: equal at every point where both evaluate."""
    compared = 0
    for p in points:
        try:
            a = evaluate(e1, p)
            b = evaluate(e2, p)
        except EvalDomainError:
            continue
        compared += 1
        if abs(a - b) > rel_tol * max(1.0, abs(a), abs(b)):
            return False
    return compared > 0


def _ref_simplify(e):
    """``e`` rebuilt bottom-up through the folding constructors."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = _ref_simplify(e.arg)
        return ex.neg(a) if e.op == "neg" else ex.func(e.op, a)
    if isinstance(e, Binary):
        left, right = _ref_simplify(e.left), _ref_simplify(e.right)
        return {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[e.op](left, right)
    return ex.powc(_ref_simplify(e.base), e.exponent)


def _is_const(e, v):
    return isinstance(e, Const) and e.value == v


def _ref_neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _ref_add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _ref_sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _ref_neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def _ref_mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def _ref_div(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


# The folding rules of the package's constructors, written with value
# compares: ``_is_const(e, 0.0)`` matches both signed zeros.  The package
# tests operands by identity against its kept-alive interned constants;
# each rule here must return the same node.
REF_FOLDS = {"neg": _ref_neg, "add": _ref_add, "sub": _ref_sub,
             "mul": _ref_mul, "div": _ref_div}


def parenthesized_sources(exprs, names):
    """The texts of ``expressions.python_sources`` with every operation in
    parentheses: each sum, product and negation is written ``(...)``.

    The package writes only the parentheses Python's precedence needs; the
    two texts must parse to the same tree.  Shared subtrees are bound and
    read exactly as the package does it.
    """
    uses = {}  # id(node) -> references from distinct parents and roots
    children = {}

    def count(e):
        if id(e) in children:
            return
        kids = (
            (e.arg,) if isinstance(e, Unary)
            else (e.left, e.right) if isinstance(e, Binary)
            else (e.base,) if isinstance(e, Pow)
            else ()
        )
        children[id(e)] = kids
        uses.setdefault(id(e), 0)
        for kid in kids:
            count(kid)
            uses[id(kid)] += 1

    for e in exprs:
        count(e)
        uses[id(e)] += 1
    bound = {}

    def text(e):
        if id(e) in bound:
            return bound[id(e)]
        if isinstance(e, Const):
            return ex.python_literal(e.value)
        if isinstance(e, Var):
            return names[e.index]
        args = [text(kid) for kid in children[id(e)]]
        if isinstance(e, Unary):
            src = f"(-{args[0]})" if e.op == "neg" else f"_{e.op}({args[0]})"
        elif isinstance(e, Binary):
            src = f"({args[0]}{e.op}{args[1]})"
        else:
            src = f"_pow({args[0]},{ex.python_literal(e.exponent)})"
        if uses[id(e)] < 2:
            return src
        local = bound[id(e)] = f"_cse{len(bound)}"
        return f"({local} := {src})"

    return [text(e) for e in exprs]


# One token per match, after the whitespace before it: a number, an
# identifier, an operator, or any other character, which is an error.  The
# matches of findall are then contiguous, and only trailing whitespace is
# left unmatched.
_TOKEN_RE = re.compile(
    r"(\s*)(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([-+*/^()])"
    r"|(\S))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    for space, num, ident, op, other in _TOKEN_RE.findall(text):
        pos += len(space)
        if num:
            tokens.append(("num", num, pos))
            pos += len(num)
        elif ident:
            tokens.append(("ident", ident, pos))
            pos += len(ident)
        elif op:
            tokens.append(("op", op, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {other!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser; each rule returns ``(expression, depth)``.

    ``depth`` counts levels as :data:`MAX_DEPTH` does.  ``nesting`` counts
    the parentheses, calls and unary minuses open around the current token,
    so that the recursion stops at the bound before it goes deeper.
    """

    def __init__(self, text, var_names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", offset)
        return self.advance()

    @staticmethod
    def deeper(depth, offset):
        """``depth + 1``; ParseError at ``offset`` past :data:`MAX_DEPTH`."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             offset)
        return depth + 1

    def parse(self):
        e, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", offset)
        return e

    def expr(self):
        e, depth = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs, rhs_depth = self.term()
                e = _BINARY[value](e, rhs)
                depth = self.deeper(max(depth, rhs_depth), offset)
            else:
                return e, depth

    def term(self):
        e, depth = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs, rhs_depth = self.factor()
                e = _BINARY[value](e, rhs)
                depth = self.deeper(max(depth, rhs_depth), offset)
            else:
                return e, depth

    def factor(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            inner, depth = self.nested(self.factor, offset)
            return neg(inner), depth
        e, depth = self.base()  # power := base ("^" ["-"] number)?
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            depth = self.deeper(depth, offset)
            sign = 1.0
            kind, value, offset = self.peek()
            if kind == "op" and value == "-":
                self.advance()
                sign = -1.0
                kind, value, offset = self.peek()
            if kind != "num":
                raise ParseError("expected a numeric exponent after '^'", offset)
            self.advance()
            e = powc(e, sign * float(value))
        return e, depth

    def base(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value)), 1
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTION_NAMES:
                    if value in self.var_index:
                        raise ParseError(f"{value!r} is not a function", offset)
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                arg, depth = self.nested(self.expr, offset)
                self.expect_op(")")
                return func(value, arg), depth
            if value in self.var_index:
                return Var(self.var_index[value]), 1
            raise UnknownIdentifierError(value, offset)
        if kind == "op" and value == "(":
            e, depth = self.nested(self.expr, offset)
            self.expect_op(")")
            return e, depth
        raise ParseError(f"expected a number, identifier or '('", offset)

    def nested(self, rule, offset):
        """``rule()`` one level further in, its depth counting that level."""
        self.nesting = self.deeper(self.nesting, offset)
        e, depth = rule()
        self.nesting -= 1
        return e, self.deeper(depth, offset)


def reference_parse(text, var_names):
    """``parse_expression`` as :class:`_Parser` computes it."""
    return _Parser(text, var_names).parse()
