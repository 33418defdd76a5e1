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
"""

import math

from pfaffian import expressions as ex
from pfaffian.errors import ArityError, EvalDomainError
from pfaffian.expressions import Binary, Const, Expression, Pow, Unary, Var

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
