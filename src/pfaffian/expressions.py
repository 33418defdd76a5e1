"""Symbolic scalar expressions over an ordered variable list.

Expression trees are immutable and closed under differentiation: constants,
variable references (by index), the unary operations neg/exp/log/sin/cos/sqrt,
the binary operations add/sub/mul/div, and pow with a constant exponent.
The parser, :func:`differentiate` and :func:`substitute` build every node
through the folding constructors (:func:`neg`, :func:`add`, :func:`sub`,
:func:`mul`, :func:`div`, :func:`powc`), so their trees come out folded as
they are built: ``e+0``, ``0*e``, ``1*e`` and ``--e`` do not survive, and
an operation on constants becomes its value where that is defined.
Nodes are interned (hash-consed) as they are built: constructing a node
that is structurally equal to a live one returns that node, with ``0.0``
and ``-0.0`` apart.  A subtree repeated within or across trees is one
object, so memos keyed on node ``id`` share its work.  Each node class's
constructor looks its key up in the table itself; only a new node costs
a further call, to enter it.
Trees are evaluated only through generated code (:func:`compile_scalar`,
:func:`compile_tuple`).  :func:`call_checked` calls such code with the
checked contract: an undefined operation or a non-finite result raises
:class:`EvalDomainError` instead of returning a value.

Raw generated code, these callables and the loops other modules generate
around :func:`python_source`, raises an error of :data:`UNDEFINED` where
an operation is undefined: ValueError for the log or square root of a
negative value, ZeroDivisionError for a pole, OverflowError for an
overflowing exp or power, the last two being ArithmeticErrors.  Every
catcher of those errors names :data:`UNDEFINED`, and generated code reads
it as ``_UNDEFINED`` (:func:`exec_source`); no other module lists them.

Grammar accepted by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := base ('^' ['-'] number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

Function names: exp, log, sin, cos, sqrt.  Unary minus binds more loosely
than ``^`` and more tightly than ``*`` and ``/``, as in Python: ``-x^2`` is
``-(x^2)``, ``x*-y`` is ``x*(-y)`` and ``x^-2`` is ``x^(-2)``.  Whitespace
is insignificant anywhere, leading and trailing whitespace included.
Nesting is bounded: an expression deeper than :data:`MAX_DEPTH` levels is
a ParseError (see :func:`parse_expression`).  The parser reads the token
texts by index with one method per level, ``expr``, ``term`` and
``factor``; ``factor`` takes the unary minus, ``base`` and ``power``, and
an error computes its offset in the text only when it is raised.

Building leaves no reference cycles: the trees, the helpers of
:func:`python_sources` and the functions :func:`exec_source` defines all
go by reference counting once they are dropped.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, fields

from .errors import ArityError, EvalDomainError, ParseError, UnknownIdentifierError

FUNCTION_NAMES = ("exp", "log", "sin", "cos", "sqrt")

# Deepest expression the parser accepts.  A number or variable is one
# level; each operation, function call, unary minus and pair of parentheses
# around a subexpression adds one.  Differentiation, substitution and the
# generated code all recurse or nest with depth, and the Jacobian of a
# coefficient is deeper than the coefficient; at this bound every check of a
# form still compiles.  Benchmark and catalog forms are at most 24 deep.
MAX_DEPTH = 64

# What raw generated code raises where an operation is undefined.
UNDEFINED = (ValueError, ArithmeticError)

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "FUNCTION_NAMES",
    "MAX_DEPTH",
    "UNDEFINED",
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
    "differentiate",
    "substitute",
    "compile_scalar",
    "compile_tuple",
    "call_checked",
    "python_source",
    "python_sources",
    "exec_source",
]


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()

    def __reduce__(self):
        # copy and pickle rebuild a node through its constructor, so the
        # copy is the interned node
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# Every node is interned: constructing a node returns the live node of the
# same kind, operation and children if there is one.  The key is the kind,
# the operation, the ``id`` of each child and, for a constant value or a Pow
# exponent, the value and its sign, every NaN alike (:func:`python_literal`
# spells every NaN ``float('nan')``).  A live entry's node keeps its children
# alive, so their ids name them; an entry goes away when its node dies.
# Nodes are never keyed on themselves: ``==`` on nodes
# compares field values, under which ``Const(0.0) == Const(-0.0)``.  Sharing
# is an optimization only: two equal nodes (as threads racing on one key
# could make) are computed twice, with the same values.
_NODES = {}  # intern key -> _NodeRef to the live node


class _NodeRef(weakref.ref):
    """Weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _forget(ref):
    """Drop the table entry of a node that died (a weakref callback)."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _register(node, key):
    """Enter the new ``node`` in the table under ``key``; returns ``node``."""
    ref = _NODES[key] = _NodeRef(node, _forget)
    ref.key = key
    return node


# Each constructor looks its key up itself and returns a live node without a
# further call; only a miss builds the node and calls _register.
_set_field = object.__setattr__
_copysign = math.copysign


@dataclass(frozen=True, init=False)
class Const(Expression):
    __slots__ = ("value", "__weakref__")
    value: float

    def __new__(cls, value):
        key = (cls, value, _copysign(1.0, value)) if value == value else (cls, "nan")
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set_field(node, "value", value)
        return _register(node, key)


@dataclass(frozen=True, init=False)
class Var(Expression):
    __slots__ = ("index", "__weakref__")
    index: int

    def __new__(cls, index):
        if index < 0:
            raise ArityError(f"variable index must be non-negative, got {index}")
        key = (cls, index)
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set_field(node, "index", index)
        return _register(node, key)


@dataclass(frozen=True, init=False)
class Unary(Expression):
    __slots__ = ("op", "arg", "__weakref__")
    op: str  # 'neg' or one of FUNCTION_NAMES
    arg: Expression

    def __new__(cls, op, arg):
        key = (cls, op, id(arg))
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set_field(node, "op", op)
        _set_field(node, "arg", arg)
        return _register(node, key)


@dataclass(frozen=True, init=False)
class Binary(Expression):
    __slots__ = ("op", "left", "right", "__weakref__")
    op: str  # '+', '-', '*', '/'
    left: Expression
    right: Expression

    def __new__(cls, op, left, right):
        key = (cls, op, id(left), id(right))
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set_field(node, "op", op)
        _set_field(node, "left", left)
        _set_field(node, "right", right)
        return _register(node, key)


@dataclass(frozen=True, init=False)
class Pow(Expression):
    __slots__ = ("base", "exponent", "__weakref__")
    base: Expression
    exponent: float  # constant exponent only

    def __new__(cls, base, exponent):
        key = ((cls, id(base), exponent, _copysign(1.0, exponent))
               if exponent == exponent else (cls, id(base), "nan"))
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set_field(node, "base", base)
        _set_field(node, "exponent", exponent)
        return _register(node, key)


# The constants the folds and the derivative rules return most, kept alive
# so that returning them costs no table lookup.  Nodes are interned, so while
# these live every constant 0.0, -0.0 and 1.0 is one of them, and the folds
# test for them by identity.
_ZERO, _NEG_ZERO, _ONE = Const(0.0), Const(-0.0), Const(1.0)


# ---------------------------------------------------------------------------
# smart constructors (light folding keeps parsed and derivative trees small)
# ---------------------------------------------------------------------------


def constant(v) -> Const:
    return Const(float(v))


def variable(i: int) -> Var:
    return Var(i)


def neg(a: Expression) -> Expression:
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Unary and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def add(a: Expression, b: Expression) -> Expression:
    if a is _ZERO or a is _NEG_ZERO:
        return b
    if b is _ZERO or b is _NEG_ZERO:
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if b is _ZERO or b is _NEG_ZERO:
        return a
    if a is _ZERO or a is _NEG_ZERO:
        return neg(b)
    if type(a) is Const and type(b) is Const:
        return Const(a.value - b.value)
    return Binary("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if a is _ZERO or a is _NEG_ZERO or b is _ZERO or b is _NEG_ZERO:
        return _ZERO
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if b is _ONE:
        return a
    if (a is _ZERO or a is _NEG_ZERO) and not (b is _ZERO or b is _NEG_ZERO):
        return _ZERO
    if type(a) is Const and type(b) is Const and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def powc(base: Expression, exponent: float) -> Expression:
    exponent = float(exponent)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return _ONE
    if type(base) is Const:
        try:
            return Const(math.pow(base.value, exponent))
        except UNDEFINED:
            pass
    return Pow(base, exponent)


def func(name: str, arg: Expression) -> Expression:
    if name not in FUNCTION_NAMES:
        raise ValueError(f"not a known function: {name!r}")
    return Unary(name, arg)


# the folding constructor of each Binary operation
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expression, var_index: int, memo=None) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to variable ``var_index``.

    Every rule builds through the folding constructors, so the derivative
    of a folded tree is folded too.
    ``memo`` is a dict that caches derivatives per node (by ``id``, keeping
    the node alive); pass one dict to every call on trees that share nodes,
    such as all entries of a Jacobian.  Nodes are interned, so a subtree
    repeated across such trees (the ``exp(Q)`` factor of every coefficient
    of ``exp(Q) * grad P``, say) is one node and is differentiated once per
    variable it contains and once for all the variables it does not: the
    rules never look at the variable inside such a subtree, so its
    derivative is the same tree, signed zeros included, for each of them.
    """
    if var_index < 0:
        raise ArityError(f"variable index must be non-negative, got {var_index}")
    return _derivative(e, var_index, {} if memo is None else memo)


def _derivative_entry(e, memo):
    """``(e, mask of the variables in e, derivatives by variable)`` of node ``e``."""
    entry = memo.get(id(e))
    if entry is None:
        t = type(e)
        if t is Binary:
            mask = _derivative_entry(e.left, memo)[1] | _derivative_entry(e.right, memo)[1]
        elif t is Pow:
            mask = _derivative_entry(e.base, memo)[1]
        elif t is Var:
            mask = 1 << e.index
        elif t is Unary:
            mask = _derivative_entry(e.arg, memo)[1]
        else:
            mask = 0
        entry = memo[id(e)] = (e, mask, {})
    return entry


def _derivative(e, j, memo):
    _, mask, by_var = memo.get(id(e)) or _derivative_entry(e, memo)
    key = j if mask >> j & 1 else -1  # -1: every variable absent from e
    d = by_var.get(key)
    if d is None:
        d = by_var[key] = _derivative_rule(e, j, memo)
    return d


def _derivative_rule(e, j, memo):
    t = type(e)
    if t is Binary:
        dl = _derivative(e.left, j, memo)
        dr = _derivative(e.right, j, memo)
        op = e.op
        if op == "+":
            return add(dl, dr)
        if op == "-":
            return sub(dl, dr)
        if op == "*":
            return add(mul(dl, e.right), mul(e.left, dr))
        # quotient rule
        num = sub(mul(dl, e.right), mul(e.left, dr))
        return div(num, powc(e.right, 2.0))
    if t is Pow:
        db = _derivative(e.base, j, memo)
        return mul(mul(Const(e.exponent), powc(e.base, e.exponent - 1.0)), db)
    if t is Var:
        return _ONE if e.index == j else _ZERO
    if t is Const:
        return _ZERO
    if t is Unary:
        da = _derivative(e.arg, j, memo)
        a = e.arg
        op = e.op
        if op == "neg":
            return neg(da)
        if op == "exp":
            return mul(Unary("exp", a), da)
        if op == "log":
            return div(da, a)
        if op == "sin":
            return mul(Unary("cos", a), da)
        if op == "cos":
            return neg(mul(Unary("sin", a), da))
        if op == "sqrt":
            return div(da, mul(Const(2.0), Unary("sqrt", a)))
    raise TypeError(f"not an Expression node: {e!r}")


def substitute(e: Expression, replacements) -> Expression:
    """Replace every ``Var(i)`` with ``replacements[i]`` (an Expression)."""
    t = type(e)
    if t is Binary:
        left = substitute(e.left, replacements)
        right = substitute(e.right, replacements)
        return _BINARY[e.op](left, right)
    if t is Var:
        if e.index >= len(replacements):
            raise ArityError(
                f"variable index {e.index} out of range for {len(replacements)} replacements"
            )
        return replacements[e.index]
    if t is Const:
        return e
    if t is Pow:
        return powc(substitute(e.base, replacements), e.exponent)
    if t is Unary:
        a = substitute(e.arg, replacements)
        return neg(a) if e.op == "neg" else func(e.op, a)
    raise TypeError(f"not an Expression node: {e!r}")


# ---------------------------------------------------------------------------
# serialization (round-trips through parse_expression)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e):
    t = type(e)
    if t is Binary:
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if t is Pow:
        return _PREC_POW
    return _PREC_ATOM


def _num_repr(v: float) -> str:
    """Number text of the grammar; +-inf, which has no literal, as +-1e999,
    and NaN as ``(1e999-1e999)``, which the parser folds to the NaN node."""
    v = float(v)
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"
    if v != v:
        return "(1e999-1e999)"
    return repr(v)


def to_string(e: Expression, var_names) -> str:
    """Serialize to the grammar of :func:`parse_expression`.

    Re-parsing the output of a folded tree (one the parser or the folding
    constructors built) yields a structurally equal tree.
    """
    t = type(e)
    if t is Const:
        return _num_repr(e.value)
    if t is Var:
        return var_names[e.index]
    if t is Unary:
        if e.op == "neg":
            inner = to_string(e.arg, var_names)
            # written bare after '-': a variable, a call, a negation or an
            # unsigned number; anything else is parenthesized
            if _is_primary(e.arg) or type(e.arg) is Unary:
                return "-" + inner
            return "-(" + inner + ")"
        return f"{e.op}({to_string(e.arg, var_names)})"
    if t is Binary:
        lhs = to_string(e.left, var_names)
        rhs = to_string(e.right, var_names)
        p = _prec(e)
        if _prec(e.left) < p:
            lhs = "(" + lhs + ")"
        # parenthesize right child at equal precedence to preserve shape
        if _prec(e.right) <= p:
            rhs = "(" + rhs + ")"
        return f"{lhs}{e.op}{rhs}"
    if t is Pow:
        base = to_string(e.base, var_names)
        # '-x^2' is the negation of 'x^2': a negated base is parenthesized
        if not _is_primary(e.base):
            base = "(" + base + ")"
        return f"{base}^{_num_repr(e.exponent)}"
    raise TypeError(f"not an Expression node: {e!r}")


def _is_primary(e):
    """Whether ``e`` is written as a base of the grammar without parentheses:
    a variable, a function call or a number whose text has no sign (not
    ``-0.0``, which reads as the negation of ``0.0``)."""
    t = type(e)
    return (t is Var or (t is Unary and e.op != "neg")
            or (t is Const and e.value >= 0 and math.copysign(1.0, e.value) > 0))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# One token per match, after the whitespace before it: a number, an
# identifier, an operator or parenthesis, or any other character, which is
# an error.  The matches of findall are then contiguous, and only trailing
# whitespace is left unmatched.
_TOKEN_RE = re.compile(
    r"\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|[-+*/^()]"
    r"|\S)"
)
# A number starts with a decimal digit (``\d`` matches those of every
# script; these sets hold the ASCII ones) or ``.``, an identifier with an
# ASCII letter or ``_``.
_NUMBER_START = frozenset("0123456789.")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _IDENT_START | frozenset("0123456789+-*/^()")  # valid, ASCII
_END = ""  # the token after the last
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _tokenize(text):
    """The token texts of ``text``, then :data:`_END`.

    An operator or parenthesis is its one character.  Any other character
    that starts no token, a lone ``.`` among them, is a token of its own,
    and the first one is a ParseError.
    """
    tokens = _TOKEN_RE.findall(text)
    if not _ONE_CHAR_TOKENS.issuperset([t for t in set(tokens) if len(t) == 1]):
        for k, t in enumerate(tokens):
            if len(t) == 1 and t not in _ONE_CHAR_TOKENS and not t.isdecimal():
                raise ParseError(f"unexpected character {t!r}", _offset(text, k))
    tokens.append(_END)
    return tokens


def _offset(text, k):
    """Offset in ``text`` of its token ``k``; of :data:`_END`, ``len(text)``.
    Errors only: the tokens carry no offsets."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


class _Parser:
    """Recursive-descent parser over the token texts, read by index ``i``.

    One method per level of the grammar, each returning ``(expression,
    depth)`` and leaving ``i`` at the token after what it read: ``expr``
    and ``term`` loop over their operators, and ``factor`` reads a unary
    minus and its operand, or a number, a variable, a call or a
    parenthesized expression followed by an optional power.  ``depth``
    counts levels as :data:`MAX_DEPTH` does.  ``nesting`` counts the
    parentheses, calls and unary minuses open around the current token, so
    that the recursion stops at the bound before it goes deeper.  An error
    finds the offset of its token in the text only when it is raised.
    """

    def __init__(self, text, var_names):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def error(self, message, k):
        """ParseError ``message`` at token ``k``."""
        return ParseError(message, _offset(self.text, k))

    def parse(self):
        e, _ = self.expr()
        token = self.tokens[self.i]
        if token != _END:
            raise self.error(f"unexpected {token!r}", self.i)
        return e

    def expr(self):
        e, depth = self.term()
        tokens = self.tokens
        while True:
            k = self.i
            op = tokens[k]
            if op != "+" and op != "-":
                return e, depth
            self.i = k + 1
            rhs, rhs_depth = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
            if rhs_depth > depth:
                depth = rhs_depth
            if depth >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            depth += 1

    def term(self):
        e, depth = self.factor()
        tokens = self.tokens
        while True:
            k = self.i
            op = tokens[k]
            if op != "*" and op != "/":
                return e, depth
            self.i = k + 1
            rhs, rhs_depth = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
            if rhs_depth > depth:
                depth = rhs_depth
            if depth >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            depth += 1

    def factor(self):
        tokens = self.tokens
        k = self.i
        token = tokens[k]
        i = k + 1
        first = token[:1]
        if first in _NUMBER_START:
            e, depth = Const(float(token)), 1
        elif first in _IDENT_START and tokens[i] != "(":
            index = self.var_index.get(token)
            if index is None:
                raise UnknownIdentifierError(token, _offset(self.text, k))
            e, depth = Var(index), 1
        elif first in _IDENT_START or token == "(":
            # a call or a parenthesized expression: one level further in
            if token != "(":
                if token not in FUNCTION_NAMES:
                    if token in self.var_index:
                        raise self.error(f"{token!r} is not a function", k)
                    raise UnknownIdentifierError(token, _offset(self.text, k))
                i += 1
            if self.nesting >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            self.nesting += 1
            self.i = i
            e, depth = self.expr()
            self.nesting -= 1
            if depth >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            depth += 1
            i = self.i
            if tokens[i] != ")":
                raise self.error("expected ')'", i)
            i += 1
            if token != "(":
                e = Unary(token, e)
        elif token == "-":
            # factor := '-' factor, one level further in
            if self.nesting >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            self.nesting += 1
            self.i = i
            e, depth = self.factor()
            self.nesting -= 1
            if depth >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, k)
            return neg(e), depth + 1
        elif first.isdecimal():  # a digit of another script
            e, depth = Const(float(token)), 1
        else:
            raise self.error("expected a number, identifier or '('", k)
        if tokens[i] == "^":  # power := base ('^' ['-'] number)?
            if depth >= MAX_DEPTH:
                raise self.error(_TOO_DEEP, i)
            depth += 1
            sign = 1.0
            i += 1
            if tokens[i] == "-":
                sign = -1.0
                i += 1
            first = tokens[i][:1]
            if first not in _NUMBER_START and not first.isdecimal():
                raise self.error("expected a numeric exponent after '^'", i)
            e = powc(e, sign * float(tokens[i]))
            i += 1
        self.i = i
        return e, depth


def parse_expression(text: str, var_names) -> Expression:
    """Parse ``text`` against the ordered variable-name list ``var_names``.

    Each node is built through the folding constructors as it is parsed,
    so ``x + 0`` is ``Var``, ``-2`` and ``2*3`` are constants and ``--x``
    is ``x``.  Nesting depth is counted on the text, before folding.
    Raises ParseError on malformed text and on an expression deeper than
    :data:`MAX_DEPTH` levels.
    """
    return _Parser(text, var_names).parse()


# ---------------------------------------------------------------------------
# compilation (fast scalar evaluation for inner loops)
# ---------------------------------------------------------------------------

# math functions as generated source spells them, _isfinite and UNDEFINED
_KERNEL_GLOBALS = {
    "_UNDEFINED": UNDEFINED,
    "_exp": math.exp,
    "_log": math.log,
    "_sin": math.sin,
    "_cos": math.cos,
    "_sqrt": math.sqrt,
    "_pow": math.pow,
    "_isfinite": math.isfinite,
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


def python_sum(items) -> str:
    """Source text ``(0.0 + (t0) + (t1) + ...)`` of the sum of the texts ``items``.

    The terms are added left to right from ``0.0``.  That is the builtin
    ``sum`` over floats up to Python 3.11; Python 3.12 compensates the
    rounding in ``sum``, so generated code spells the additions out to
    round the same way on every version.
    """
    return "(0.0{})".format("".join(f" + ({t})" for t in items))


# Binding strengths of generated text, loosest first: a sum, a product, a
# negation (a negative literal is one too) and an atom (a name, a literal, a
# call or a parenthesized assignment expression).  Pow is a call of _pow.
_SUM, _PRODUCT, _NEGATION, _ATOM = range(4)


def python_sources(exprs, names):
    """Python expression texts of ``exprs``, each distinct subtree computed once.

    Nodes are interned (structurally equal nodes are one object, with
    ``-0.0`` and ``0.0`` apart), so subtrees are told apart by ``id``.  A
    subtree used more than once across ``exprs`` is bound by an assignment
    expression at its first textual occurrence and read by name after that;
    every other node is written inline.  Python evaluates the texts left to
    right, so they perform the float operations of the trees written out in
    full, in the same order minus the repeats, and the first one to raise is
    the same.  A text reads the names bound in the texts before it, so
    the texts must run in order and unconditionally; the locals are named
    ``_cse<k>``, which the surrounding code must not use.  ``Var(i)`` is
    spelled ``names[i]``; a larger index raises :class:`ArityError`.
    """
    n_vars = len(names)
    seen = {}  # id(node) -> slot; the trees keep their nodes alive
    nodes = []  # slot -> (node, child slots)
    uses = []  # slot -> references from distinct parent slots and roots

    def slot_of(e):
        slot = seen.get(id(e))
        if slot is not None:
            return slot
        t = type(e)
        if t is Binary:
            kids = (slot_of(e.left), slot_of(e.right))
        elif t is Const:
            kids = ()
        elif t is Var:
            if e.index >= n_vars:
                raise ArityError(f"expression uses more than {n_vars} variables")
            kids = ()
        elif t is Pow:
            kids = (slot_of(e.base),)
        elif t is Unary:
            kids = (slot_of(e.arg),)
        else:
            raise TypeError(f"not an Expression node: {e!r}")
        slot = seen[id(e)] = len(nodes)
        nodes.append((e, kids))
        uses.append(0)
        for kid in kids:
            uses[kid] += 1
        return slot

    bound = {}  # slot -> local name, once its assignment is written

    def text(slot):
        """``(text, strength)`` of the node in ``slot``, in only the
        parentheses Python's precedence needs.

        Python parses the text to the tree a fully parenthesized text
        parses to: an operand is parenthesized where it binds more loosely
        than its operator, and the right operand of a sum or product also
        where it binds equally (``a-(b+c)``, ``a/(b*c)``), as the operators
        group left to right.
        """
        local = bound.get(slot)
        if local is not None:
            return local, _ATOM
        e, kids = nodes[slot]
        t = type(e)
        if t is Binary:
            left, left_strength = text(kids[0])
            right, right_strength = text(kids[1])
            op = e.op
            strength = _SUM if op == "+" or op == "-" else _PRODUCT
            if left_strength < strength:
                left = f"({left})"
            if right_strength <= strength:
                right = f"({right})"
            src = f"{left}{op}{right}"
        elif t is Const:
            src = python_literal(e.value)
            return src, _NEGATION if src[0] == "-" else _ATOM
        elif t is Var:
            return names[e.index], _ATOM
        elif t is Unary:
            arg, arg_strength = text(kids[0])
            if e.op != "neg":
                src, strength = f"_{e.op}({arg})", _ATOM
            elif arg_strength < _NEGATION:
                src, strength = f"-({arg})", _NEGATION
            else:
                src, strength = f"-{arg}", _NEGATION
        else:
            src, strength = f"_pow({text(kids[0])[0]},{python_literal(e.exponent)})", _ATOM
        if uses[slot] < 2:
            return src, strength
        local = bound[slot] = f"_cse{len(bound)}"
        return f"({local} := {src})", _ATOM

    try:
        roots = [slot_of(e) for e in exprs]
        for root in roots:
            uses[root] += 1
        return [text(root)[0] for root in roots]
    finally:
        # each helper refers to itself through its closure: break those
        # cycles, so that this call's garbage goes by reference counting
        del slot_of, text


def python_source(e: Expression, names) -> str:
    """Python expression text of ``e`` with ``Var(i)`` spelled ``names[i]``.

    Run by :func:`exec_source`, the text performs exactly the float
    operations of :func:`compile_scalar`, so code generated around it (for
    example one expression inlined at several points) stays bit-identical.
    Repeated subtrees are bound to locals named ``_cse<k>``, which the
    surrounding code must not use.  The text has only the parentheses its
    own operations need: code that uses it as an operand parenthesizes it.
    """
    return python_sources([e], names)[0]


def exec_source(source: str, label: str, **extra) -> dict:
    """Run generated ``source`` in fresh globals: ``_KERNEL_GLOBALS``, the
    names generated text reads (``_UNDEFINED`` is :data:`UNDEFINED`), plus
    ``extra``, the exception classes of the calling module.

    Returns the names the source defines, by name.  They are bound outside
    the globals, so a generated function and its globals form no reference
    cycle and go as soon as the caller drops them; in turn, generated code
    must not refer to a name its source defines.  ``label`` names the code
    in tracebacks (``<pfaffian-label>``).  The one place generated code is
    executed.
    """
    defined = {}
    exec(  # noqa: S102 - source is generated from our own AST
        compile(source, f"<pfaffian-{label}>", "exec"),
        {**_KERNEL_GLOBALS, **extra}, defined,
    )
    return defined


def _compile_return(text, n_vars):
    """``def f(x0, ..., x{n-1}): return <text>``, compiled in a kernel namespace."""
    args = ",".join(f"x{i}" for i in range(n_vars)) or "*_ignored"
    source = f"def _kernel({args}):\n    return {text}\n"
    return exec_source(source, "expr")["_kernel"]


def compile_scalar(e: Expression, n_vars: int):
    """Compile ``e`` into a raw positional callable ``f(x0, ..., x{n-1})``.

    The raw callable is fast but unguarded: it may raise an error of
    :data:`UNDEFINED`, and may return inf/nan from plain arithmetic; callers
    guard at a coarser granularity.  :func:`call_checked` turns those into
    the :class:`EvalDomainError` contract.
    """
    return _compile_return(python_source(e, [f"x{i}" for i in range(n_vars)]), n_vars)


def compile_tuple(exprs, n_vars: int):
    """Compile several expressions into one callable returning a tuple.

    Subtrees shared between the expressions are computed once per call
    (see :func:`python_source`), with the values and raw error behavior of
    :func:`compile_scalar` on each expression in turn.
    """
    texts = python_sources(exprs, [f"x{i}" for i in range(n_vars)])
    return _compile_return(f"({python_tuple(texts)})", n_vars)


def call_checked(fn, point, n_vars: int) -> tuple:
    """``fn(*point)`` for a :func:`compile_tuple` callable, with checked errors.

    Raises :class:`ArityError` unless ``point`` has ``n_vars`` coordinates.
    The coordinates are passed as Python floats, so a numpy scalar divides
    by zero with an error, not to inf.  An error of :data:`UNDEFINED` (a
    pole, log or sqrt of a negative value, an overflowing exp or pow) and a
    non-finite entry of the result raise :class:`EvalDomainError`.
    """
    if len(point) != n_vars:
        raise ArityError(f"point of length {len(point)} for {n_vars} variables")
    args = tuple(map(float, point))
    try:
        values = fn(*args)
    except ZeroDivisionError as exc:
        raise EvalDomainError("division by zero") from exc
    except OverflowError as exc:
        raise EvalDomainError(f"overflow at {args}: {exc}") from exc
    except UNDEFINED as exc:
        raise EvalDomainError(f"undefined at {args}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise EvalDomainError(f"non-finite result {v!r}")
    return values
