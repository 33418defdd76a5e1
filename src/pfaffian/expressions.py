"""Symbolic scalar expressions over an ordered variable list.

Expression trees are immutable and closed under differentiation: constants,
variable references (by index), the unary operations neg/exp/log/sin/cos/sqrt,
the binary operations add/sub/mul/div, and pow with a constant exponent.
Evaluation is total where defined; any operation that would produce a
non-finite float raises :class:`EvalDomainError` instead of returning it.

Grammar accepted by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Function names: exp, log, sin, cos, sqrt.  Whitespace is insignificant.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass

from .errors import ArityError, EvalDomainError, ParseError, UnknownIdentifierError

FUNCTION_NAMES = ("exp", "log", "sin", "cos", "sqrt")

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "FUNCTION_NAMES",
    "constant",
    "variable",
    "neg",
    "add",
    "sub",
    "mul",
    "div",
    "powc",
    "func",
    "parse_expression",
    "to_string",
    "evaluate",
    "differentiate",
    "simplify",
    "substitute",
    "compile_scalar",
    "compile_tuple",
    "python_source",
    "kernel_namespace",
    "checked_evaluator",
    "numeric_equal",
]


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    index: int


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # 'neg' or one of FUNCTION_NAMES
    arg: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # '+', '-', '*', '/'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: float  # constant exponent only


# ---------------------------------------------------------------------------
# smart constructors (light folding keeps derivative trees small)
# ---------------------------------------------------------------------------


def constant(v) -> Const:
    return Const(float(v))


def variable(i: int) -> Var:
    if i < 0:
        raise ArityError(f"variable index must be non-negative, got {i}")
    return Var(i)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def powc(base: Expression, exponent: float) -> Expression:
    exponent = float(exponent)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return Const(1.0)
    if isinstance(base, Const):
        try:
            return Const(math.pow(base.value, exponent))
        except (ValueError, OverflowError):
            pass
    return Pow(base, exponent)


def func(name: str, arg: Expression) -> Expression:
    if name not in FUNCTION_NAMES:
        raise ValueError(f"not a known function: {name!r}")
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expression, var_index: int) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to variable ``var_index``."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.index == var_index else Const(0.0)
    if isinstance(e, Unary):
        da = differentiate(e.arg, var_index)
        a = e.arg
        if e.op == "neg":
            return neg(da)
        if e.op == "exp":
            return mul(Unary("exp", a), da)
        if e.op == "log":
            return div(da, a)
        if e.op == "sin":
            return mul(Unary("cos", a), da)
        if e.op == "cos":
            return neg(mul(Unary("sin", a), da))
        if e.op == "sqrt":
            return div(da, mul(Const(2.0), Unary("sqrt", a)))
    if isinstance(e, Binary):
        dl = differentiate(e.left, var_index)
        dr = differentiate(e.right, var_index)
        if e.op == "+":
            return add(dl, dr)
        if e.op == "-":
            return sub(dl, dr)
        if e.op == "*":
            return add(mul(dl, e.right), mul(e.left, dr))
        # quotient rule
        num = sub(mul(dl, e.right), mul(e.left, dr))
        return div(num, powc(e.right, 2.0))
    if isinstance(e, Pow):
        db = differentiate(e.base, var_index)
        return mul(mul(Const(e.exponent), powc(e.base, e.exponent - 1.0)), db)
    raise TypeError(f"not an Expression node: {e!r}")


def simplify(e: Expression) -> Expression:
    """Best-effort, value-preserving simplification.

    Rebuilds the tree bottom-up through the folding constructors, which
    apply at minimum 0*e -> 0, 1*e -> e, e+0 -> e and constant folding.
    Not canonical: structurally different but equivalent trees remain so.
    """
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = simplify(e.arg)
        return neg(a) if e.op == "neg" else func(e.op, a)
    if isinstance(e, Binary):
        left, right = simplify(e.left), simplify(e.right)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](left, right)
    if isinstance(e, Pow):
        return powc(simplify(e.base), e.exponent)
    raise TypeError(f"not an Expression node: {e!r}")


def substitute(e: Expression, replacements) -> Expression:
    """Replace every ``Var(i)`` with ``replacements[i]`` (an Expression)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.index >= len(replacements):
            raise ArityError(
                f"variable index {e.index} out of range for {len(replacements)} replacements"
            )
        return replacements[e.index]
    if isinstance(e, Unary):
        a = substitute(e.arg, replacements)
        return neg(a) if e.op == "neg" else func(e.op, a)
    if isinstance(e, Binary):
        left = substitute(e.left, replacements)
        right = substitute(e.right, replacements)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](left, right)
    if isinstance(e, Pow):
        return powc(substitute(e.base, replacements), e.exponent)
    raise TypeError(f"not an Expression node: {e!r}")


# ---------------------------------------------------------------------------
# serialization (round-trips through parse_expression)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e):
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _num_repr(v: float) -> str:
    return repr(float(v))


def to_string(e: Expression, var_names) -> str:
    """Serialize to the grammar of :func:`parse_expression`.

    Re-parsing the output yields a structurally equal tree.
    """
    if isinstance(e, Const):
        return _num_repr(e.value)
    if isinstance(e, Var):
        return var_names[e.index]
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_string(e.arg, var_names)
            # '-' binds to a base; anything else must be parenthesized
            if isinstance(e.arg, (Var, Unary)) or (
                isinstance(e.arg, Const) and e.arg.value >= 0
            ):
                return "-" + inner
            return "-(" + inner + ")"
        return f"{e.op}({to_string(e.arg, var_names)})"
    if isinstance(e, Binary):
        lhs = to_string(e.left, var_names)
        rhs = to_string(e.right, var_names)
        p = _prec(e)
        if _prec(e.left) < p:
            lhs = "(" + lhs + ")"
        # parenthesize right child at equal precedence to preserve shape
        if _prec(e.right) <= p:
            rhs = "(" + rhs + ")"
        return f"{lhs}{e.op}{rhs}"
    if isinstance(e, Pow):
        base = to_string(e.base, var_names)
        if not (
            isinstance(e.base, (Var, Unary))
            or (isinstance(e.base, Const) and e.base.value >= 0)
        ):
            base = "(" + base + ")"
        return f"{base}^{_num_repr(e.exponent)}"
    raise TypeError(f"not an Expression node: {e!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace handled by the regex; a failure here
            # means an unrecognized character
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, var_names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
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

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = Binary(value, e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = Binary(value, e, rhs)
            else:
                return e

    def factor(self):
        e = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            sign = 1.0
            kind, value, offset = self.peek()
            if kind == "op" and value == "-":
                self.advance()
                sign = -1.0
                kind, value, offset = self.peek()
            if kind != "num":
                raise ParseError("expected a numeric exponent after '^'", offset)
            self.advance()
            e = Pow(e, sign * float(value))
        return e

    def base(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTION_NAMES:
                    if value in self.var_index:
                        raise ParseError(f"{value!r} is not a function", offset)
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(value, arg)
            if value in self.var_index:
                return Var(self.var_index[value])
            raise UnknownIdentifierError(value, offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and value == "-":
            inner = self.base()
            # fold '-' on a literal so negative constants round-trip
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        raise ParseError(f"expected a number, identifier or '('", offset)


def parse_expression(text: str, var_names) -> Expression:
    """Parse ``text`` against the ordered variable-name list ``var_names``."""
    return _Parser(text, var_names).parse()


# ---------------------------------------------------------------------------
# compilation (fast scalar evaluation for inner loops)
# ---------------------------------------------------------------------------

_compiled_cache: "weakref.WeakKeyDictionary[Expression, object]" = (
    weakref.WeakKeyDictionary()
)

# math functions as generated source spells them
_KERNEL_GLOBALS = {
    "_exp": math.exp,
    "_log": math.log,
    "_sin": math.sin,
    "_cos": math.cos,
    "_sqrt": math.sqrt,
    "_pow": math.pow,
}


def python_literal(v: float) -> str:
    """Python source text that evaluates to exactly the float ``v``.

    Finite values are their ``repr``; inf and nan, whose ``repr`` is not
    a Python literal, are spelled ``float('inf')`` and the like.
    """
    text = repr(float(v))
    return text if math.isfinite(v) else f"float('{text}')"


def python_tuple(items) -> str:
    """Tuple display of the source texts ``items``; one item keeps its comma."""
    items = list(items)
    return ", ".join(items) + ("," if len(items) == 1 else "")


def _codegen(e, out, names):
    if isinstance(e, Const):
        out.append(python_literal(e.value))
    elif isinstance(e, Var):
        out.append(names[e.index])
    elif isinstance(e, Unary):
        if e.op == "neg":
            out.append("(-")
            _codegen(e.arg, out, names)
            out.append(")")
        else:
            out.append(f"_{e.op}(")
            _codegen(e.arg, out, names)
            out.append(")")
    elif isinstance(e, Binary):
        out.append("(")
        _codegen(e.left, out, names)
        out.append(e.op)
        _codegen(e.right, out, names)
        out.append(")")
    elif isinstance(e, Pow):
        out.append("_pow(")
        _codegen(e.base, out, names)
        out.append(f",{python_literal(e.exponent)})")
    else:
        raise TypeError(f"not an Expression node: {e!r}")


def _max_var_index(e):
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return _max_var_index(e.arg)
    if isinstance(e, Binary):
        return max(_max_var_index(e.left), _max_var_index(e.right))
    if isinstance(e, Pow):
        return _max_var_index(e.base)
    return -1


def python_source(e: Expression, names) -> str:
    """Python expression text of ``e`` with ``Var(i)`` spelled ``names[i]``.

    Run in a :func:`kernel_namespace`, the text performs exactly the float
    operations of :func:`compile_scalar`, so code generated around it (for
    example one expression inlined at several points) stays bit-identical.
    """
    if _max_var_index(e) >= len(names):
        raise ArityError(f"expression uses more than {len(names)} variables")
    parts = []
    _codegen(e, parts, names)
    return "".join(parts)


def kernel_namespace() -> dict:
    """Fresh globals for executing text from :func:`python_source`."""
    return dict(_KERNEL_GLOBALS)


def _arg_list(n_vars):
    return ",".join(f"x{i}" for i in range(n_vars)) or "*_ignored"


def compile_scalar(e: Expression, n_vars: int):
    """Compile ``e`` into a raw positional callable ``f(x0, ..., x{n-1})``.

    The raw callable is fast but unguarded: it may raise ValueError,
    ZeroDivisionError or OverflowError, and may return inf/nan from plain
    arithmetic.  Use :func:`checked_evaluator` for contract-grade error
    behavior; hot loops should guard at a coarser granularity.
    """
    if _max_var_index(e) >= n_vars:
        raise ArityError(f"expression uses more than {n_vars} variables")
    cached = _compiled_cache.get(e)
    if cached is not None and cached[0] == n_vars:
        return cached[1]
    body = python_source(e, [f"x{i}" for i in range(n_vars)])
    source = f"lambda {_arg_list(n_vars)}: ({body})"
    fn = eval(  # noqa: S307 - source is generated from our own AST
        compile(source, "<pfaffian-expr>", "eval"), kernel_namespace()
    )
    _compiled_cache[e] = (n_vars, fn)
    return fn


def compile_tuple(exprs, n_vars: int):
    """Compile several expressions into one callable returning a tuple.

    Saves per-call overhead in loops that need a full coefficient vector.
    Same raw error behavior as :func:`compile_scalar`.
    """
    names = [f"x{i}" for i in range(n_vars)]
    bodies = [python_source(e, names) for e in exprs]
    source = f"lambda {_arg_list(n_vars)}: ({','.join(bodies)},)"
    return eval(  # noqa: S307 - source is generated from our own AST
        compile(source, "<pfaffian-expr>", "eval"), kernel_namespace()
    )


def checked_evaluator(e: Expression, n_vars: int):
    """Compiled evaluator with the same error contract as :func:`evaluate`."""
    raw = compile_scalar(e, n_vars)

    def call(*coords):
        try:
            v = raw(*coords)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(str(exc)) from exc
        if not math.isfinite(v):
            raise EvalDomainError(f"non-finite result {v!r}")
        return v

    return call


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
