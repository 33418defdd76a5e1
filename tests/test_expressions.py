import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffian import expressions as ex
from pfaffian.errors import (
    ArityError,
    EvalDomainError,
    ParseError,
    UnknownIdentifierError,
)

VARS3 = ("x1", "x2", "x3")


def test_parse_single_variable():
    assert ex.parse_expression("x2", ["x1", "x2"]) == ex.Var(1)


def test_parse_grammar_shape():
    e = ex.parse_expression("x1*x2 + sin(x3)", VARS3)
    expected = ex.Binary(
        "+",
        ex.Binary("*", ex.Var(0), ex.Var(1)),
        ex.Unary("sin", ex.Var(2)),
    )
    assert e == expected


def test_parse_unclosed_paren_offset():
    with pytest.raises(ParseError) as err:
        ex.parse_expression("x1*(", VARS3)
    assert err.value.offset == 4


def test_parse_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as err:
        ex.parse_expression("x1 + bogus", VARS3)
    assert err.value.name == "bogus"


def test_parse_variable_used_as_function():
    with pytest.raises(ParseError):
        ex.parse_expression("x1(x2)", VARS3)


def test_parse_function_without_call():
    with pytest.raises(UnknownIdentifierError):
        ex.parse_expression("sin + 1", VARS3)


def test_evaluate_product():
    e = ex.parse_expression("x1*x2", ["x1", "x2"])
    assert ex.evaluate(e, (3.0, 4.0)) == 12.0


def test_evaluate_division_by_zero():
    e = ex.parse_expression("x1/x2", ["x1", "x2"])
    with pytest.raises(EvalDomainError):
        ex.evaluate(e, (1.0, 0.0))


def test_evaluate_exp_identity():
    e = ex.parse_expression("exp(0*x1)", ["x1"])
    assert ex.evaluate(e, (7.0,)) == 1.0


@pytest.mark.parametrize(
    "text,point",
    [
        ("log(x1)", (-1.0,)),
        ("log(x1)", (0.0,)),
        ("sqrt(x1)", (-4.0,)),
        ("exp(x1)", (1e6,)),
        ("x1^0.5", (-2.0,)),
    ],
)
def test_evaluate_domain_errors(text, point):
    e = ex.parse_expression(text, ["x1"])
    with pytest.raises(EvalDomainError):
        ex.evaluate(e, point)


def test_evaluate_arity_check():
    with pytest.raises(ArityError):
        ex.evaluate(ex.Var(3), (1.0, 2.0))


def test_differentiate_product_of_variables():
    e = ex.parse_expression("x1*x2", ["x1", "x2"])
    d = ex.simplify(ex.differentiate(e, 0))
    assert d == ex.Var(1)


def test_differentiate_sin():
    e = ex.parse_expression("sin(x1)", ["x1"])
    assert ex.differentiate(e, 0) == ex.Unary("cos", ex.Var(0))


def test_differentiate_absent_variable():
    e = ex.parse_expression("x1*x2", VARS3)
    assert ex.simplify(ex.differentiate(e, 2)) == ex.Const(0.0)


def test_simplify_additive_identity():
    e = ex.Binary("+", ex.Const(0.0), ex.Var(0))
    assert ex.simplify(e) == ex.Var(0)


def test_simplify_absorbing_zero():
    e = ex.Binary("*", ex.Const(0.0), ex.Unary("sin", ex.Var(1)))
    assert ex.simplify(e) == ex.Const(0.0)


def test_simplify_constant_folding():
    e = ex.Binary("*", ex.Const(2.0), ex.Const(3.0))
    assert ex.simplify(e) == ex.Const(6.0)


# --- serialization round-trip -------------------------------------------------

_names = st.sampled_from([0, 1, 2])
_leaf = st.one_of(
    _names.map(ex.Var),
    st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    ).map(lambda v: ex.Const(float(v))),
)


def _apply_unary(t):
    op, arg = t
    return ex.neg(arg) if op == "neg" else ex.func(op, arg)


def _apply_binary(t):
    op, left, right = t
    return {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[op](left, right)


def _trees(leaf):
    # build through the folding constructors: their image, like the parser's,
    # is closed under serialize/re-parse
    unary = st.sampled_from(["neg", "exp", "log", "sin", "cos", "sqrt"])
    binary = st.sampled_from(["+", "-", "*", "/"])
    expo = st.sampled_from([-2.0, -1.0, 0.5, 2.0, 3.0])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(unary, sub).map(_apply_unary),
            st.tuples(binary, sub, sub).map(_apply_binary),
            st.tuples(sub, expo).map(lambda t: ex.powc(*t)),
        ),
        max_leaves=20,
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_trees(_leaf))
def test_to_string_round_trips_structurally(tree):
    text = ex.to_string(tree, VARS3)
    assert ex.parse_expression(text, VARS3) == tree


def test_parse_serialize_reparse_fixed_corpus():
    corpus = [
        "x1*x2 + sin(x3)",
        "-x1^2 - (x2 - x3)/(1 + x1^2)",
        "exp(x1)*log(2 + x2^2) - sqrt(1 + x3^2)",
        "1e-3*x1 - 2.5",
        "x1/x2/x3",
        "a--b".replace("a", "x1").replace("b", "x2"),
    ]
    for text in corpus:
        tree = ex.parse_expression(text, VARS3)
        assert ex.parse_expression(ex.to_string(tree, VARS3), VARS3) == tree


# --- smooth random expressions for derivative checks --------------------------


def _smooth_expr(rng, n_vars, depth=3):
    """Random expression smooth on [-1,1]^n (guarded denominators and args)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.variable(int(rng.integers(n_vars)))
        return ex.constant(float(rng.uniform(-2, 2)))
    op = rng.integers(6)
    a = _smooth_expr(rng, n_vars, depth - 1)
    b = _smooth_expr(rng, n_vars, depth - 1)
    bounded = ex.div(a, ex.constant(4.0))  # keep exp/sin arguments tame
    if op == 0:
        return ex.add(a, b)
    if op == 1:
        return ex.sub(a, b)
    if op == 2:
        return ex.mul(a, b)
    if op == 3:
        return ex.div(a, ex.add(ex.constant(3.0), ex.mul(b, b)))
    if op == 4:
        return ex.func("sin", bounded) if rng.random() < 0.5 else ex.func(
            "cos", bounded
        )
    return ex.func("exp", bounded)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_differentiation_linearity(rng):
    for _ in range(20):
        e1 = _smooth_expr(rng, 3)
        e2 = _smooth_expr(rng, 3)
        a, b = rng.uniform(-2, 2, size=2)
        combo = ex.add(ex.mul(ex.constant(a), e1), ex.mul(ex.constant(b), e2))
        for var in range(3):
            d_combo = ex.differentiate(combo, var)
            d1 = ex.differentiate(e1, var)
            d2 = ex.differentiate(e2, var)
            for p in rng.uniform(-1, 1, size=(5, 3)):
                lhs = ex.evaluate(d_combo, p)
                rhs = a * ex.evaluate(d1, p) + b * ex.evaluate(d2, p)
                assert _rel_close(lhs, rhs, 1e-12)


def test_second_derivatives_commute(rng):
    for _ in range(25):
        e = _smooth_expr(rng, 3)
        i, j = rng.choice(3, size=2, replace=False)
        dij = ex.differentiate(ex.differentiate(e, int(i)), int(j))
        dji = ex.differentiate(ex.differentiate(e, int(j)), int(i))
        for p in rng.uniform(-1, 1, size=(8, 3)):
            assert _rel_close(ex.evaluate(dij, p), ex.evaluate(dji, p), 1e-10)


def test_symbolic_vs_centered_difference(rng):
    h = 1e-5
    for _ in range(30):
        e = _smooth_expr(rng, 3)
        var = int(rng.integers(3))
        d = ex.differentiate(e, var)
        for p in rng.uniform(-0.9, 0.9, size=(4, 3)):
            plus = np.array(p)
            minus = np.array(p)
            plus[var] += h
            minus[var] -= h
            fd = (ex.evaluate(e, plus) - ex.evaluate(e, minus)) / (2 * h)
            assert _rel_close(ex.evaluate(d, p), fd, 1e-6)


def test_compiled_matches_tree_walk(rng):
    for _ in range(25):
        e = _smooth_expr(rng, 3)
        fn = ex.checked_evaluator(e, 3)
        for p in rng.uniform(-1, 1, size=(6, 3)):
            assert fn(*p) == pytest.approx(ex.evaluate(e, p), rel=0, abs=0)


def test_compiled_error_parity():
    e = ex.parse_expression("log(x1)", ["x1"])
    fn = ex.checked_evaluator(e, 1)
    with pytest.raises(EvalDomainError):
        fn(-1.0)


def test_substitute_composition(rng):
    e = ex.parse_expression("x1^2 + sin(x2)", ["x1", "x2"])
    r1 = ex.parse_expression("u+v", ["u", "v"])
    r2 = ex.parse_expression("u*v", ["u", "v"])
    composed = ex.substitute(e, (r1, r2))
    for u, v in rng.uniform(-1, 1, size=(10, 2)):
        direct = ex.evaluate(e, (u + v, u * v))
        assert _rel_close(ex.evaluate(composed, (u, v)), direct, 1e-12)


def test_nodes_are_immutable():
    node = ex.Var(0)
    with pytest.raises(Exception):
        node.index = 1


def test_numeric_equal_detects_difference(rng):
    a = ex.parse_expression("x1*x1", ["x1"])
    b = ex.parse_expression("x1^2", ["x1"])
    c = ex.parse_expression("x1^2 + 1e-3", ["x1"])
    pts = rng.uniform(-2, 2, size=(50, 1))
    assert ex.numeric_equal(a, b, pts)
    assert not ex.numeric_equal(a, c, pts)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.1, -2.5, 1e-300])
def test_python_literal_round_trips(value):
    text = ex.python_literal(value)
    assert repr(eval(text)) == repr(value)  # noqa: S307 - our own literal
    if math.isfinite(value):
        assert text == repr(value)


def test_compile_non_finite_constants():
    assert ex.compile_scalar(ex.Const(math.inf), 0)() == math.inf
    assert math.isnan(ex.compile_scalar(ex.Const(math.nan), 0)())
    overflowed = ex.parse_expression("x^1e400 + 1", ["x"])
    assert ex.compile_scalar(overflowed, 1)(0.5) == 1.0
