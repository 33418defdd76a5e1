import ast
import copy
import functools
import gc
import math
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    DEEP_SHAPES,
    DOMAIN_ERROR_CASES,
    FOLDING,
    deepest_accepted,
    random_tree,
    unit_box,
)
from oracle import _ref_simplify
from test_cli_fuzz import _expressions as fuzz_expressions
from pfaffian import expressions as ex
from pfaffian.errors import (
    ArityError,
    EvalDomainError,
    ParseError,
    UnknownIdentifierError,
)
from pfaffian.forms import PfaffianForm

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
    assert oracle.evaluate(e, (3.0, 4.0)) == 12.0


def test_evaluate_division_by_zero():
    e = ex.parse_expression("x1/x2", ["x1", "x2"])
    with pytest.raises(EvalDomainError):
        oracle.evaluate(e, (1.0, 0.0))


def test_evaluate_exp_identity():
    e = ex.parse_expression("exp(0*x1)", ["x1"])
    assert oracle.evaluate(e, (7.0,)) == 1.0


@pytest.mark.parametrize("text,point", DOMAIN_ERROR_CASES)
def test_evaluate_domain_errors(text, point):
    e = ex.parse_expression(text, ["x1"])
    with pytest.raises(EvalDomainError):
        oracle.evaluate(e, point)


def test_evaluate_arity_check():
    with pytest.raises(ArityError):
        oracle.evaluate(ex.Var(3), (1.0, 2.0))


def test_differentiate_product_of_variables():
    e = ex.parse_expression("x1*x2", ["x1", "x2"])
    d = _ref_simplify(ex.differentiate(e, 0))
    assert d == ex.Var(1)


def test_differentiate_sin():
    e = ex.parse_expression("sin(x1)", ["x1"])
    assert ex.differentiate(e, 0) == ex.Unary("cos", ex.Var(0))


def test_differentiate_absent_variable():
    e = ex.parse_expression("x1*x2", VARS3)
    assert _ref_simplify(ex.differentiate(e, 2)) == ex.Const(0.0)


def test_simplify_additive_identity():
    e = ex.Binary("+", ex.Const(0.0), ex.Var(0))
    assert _ref_simplify(e) == ex.Var(0)


def test_simplify_absorbing_zero():
    e = ex.Binary("*", ex.Const(0.0), ex.Unary("sin", ex.Var(1)))
    assert _ref_simplify(e) == ex.Const(0.0)


def test_simplify_constant_folding():
    e = ex.Binary("*", ex.Const(2.0), ex.Const(3.0))
    assert _ref_simplify(e) == ex.Const(6.0)


# --- the parser folds as it builds --------------------------------------------


def test_parse_folds_like_reference_simplify(rng):
    # raw random trees (constants 0.0, -0.0, +-1, ...), written out and parsed;
    # the same draws through the folding constructors give the same tree
    for _ in range(600):
        n = int(rng.integers(1, 4))
        seed = int(rng.integers(2**32))
        raw = random_tree(np.random.default_rng(seed), n, 5, [])
        folded = random_tree(np.random.default_rng(seed), n, 5, [], FOLDING)
        names = [f"x{i}" for i in range(n)]
        parsed = ex.parse_expression(ex.to_string(raw, names), names)
        assert repr(parsed) == repr(_ref_simplify(raw)) == repr(folded)


# (text, the tree it parses to); signed zeros count: repr tells -0.0 from 0.0
FOLDING_CASES = [
    ("x1+0", ex.Var(0)),
    ("0+x1", ex.Var(0)),
    ("x1-0", ex.Var(0)),
    ("0-x1", ex.Unary("neg", ex.Var(0))),
    ("0*x1", ex.Const(0.0)),
    ("x1*0", ex.Const(0.0)),
    ("1*x1", ex.Var(0)),
    ("x1/1", ex.Var(0)),
    ("0/x1", ex.Const(0.0)),
    ("0/0", ex.Binary("/", ex.Const(0.0), ex.Const(0.0))),
    ("1/0", ex.Binary("/", ex.Const(1.0), ex.Const(0.0))),
    ("6/4", ex.Const(1.5)),
    ("2*3 - 1", ex.Const(5.0)),
    ("--x1", ex.Var(0)),
    ("---x1", ex.Unary("neg", ex.Var(0))),
    ("-(x1*0)", ex.Const(-0.0)),
    ("-0", ex.Const(-0.0)),
    ("-(1+2)", ex.Const(-3.0)),
    ("-(x1+0)", ex.Unary("neg", ex.Var(0))),
    ("x1^0", ex.Const(1.0)),
    ("x1^-0", ex.Const(1.0)),
    ("x1^1", ex.Var(0)),
    ("(x1+0)^2", ex.Pow(ex.Var(0), 2.0)),
    ("2^3", ex.Const(8.0)),
    ("(0 - 1e400)^2", ex.Const(math.inf)),
    ("(0-2)^0.5", ex.Pow(ex.Const(-2.0), 0.5)),
    ("10^400", ex.Pow(ex.Const(10.0), 400.0)),
    ("exp(0*x1)", ex.Unary("exp", ex.Const(0.0))),
    ("sin(x1-0)*1", ex.Unary("sin", ex.Var(0))),
    ("x1*x2 + 0*x3", ex.Binary("*", ex.Var(0), ex.Var(1))),
    ("x1 + -0", ex.Var(0)),
]


@pytest.mark.parametrize("text,tree", FOLDING_CASES)
def test_parse_folding_edge_cases(text, tree):
    assert repr(ex.parse_expression(text, VARS3)) == repr(tree)


def test_folds_of_signed_zeros_and_one_are_the_reference_nodes():
    # the constructors fold by identity against their kept-alive constants;
    # operands built after a collection are still those constants
    gc.collect()
    x = ex.Var(0)
    pool = [ex.Const(v) for v in (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, math.nan)]
    pool += [x, ex.Unary("neg", x), ex.Binary("*", x, x)]
    for a in pool:
        assert ex.neg(a) is oracle.REF_FOLDS["neg"](a), a
        for b in pool:
            for name in ("add", "sub", "mul", "div"):
                got = getattr(ex, name)(a, b)
                assert got is oracle.REF_FOLDS[name](a, b), (name, a, b)
    zero, neg_zero, one = ex.Const(0.0), ex.Const(-0.0), ex.Const(1.0)
    assert ex.neg(zero) is neg_zero and ex.neg(neg_zero) is zero
    assert ex.add(zero, neg_zero) is neg_zero and ex.add(neg_zero, zero) is zero
    assert ex.sub(neg_zero, zero) is neg_zero and ex.sub(zero, neg_zero) is zero
    assert ex.sub(neg_zero, x) is ex.neg(x)
    assert ex.mul(neg_zero, one) is zero and ex.mul(x, neg_zero) is zero
    assert ex.div(neg_zero, one) is neg_zero and ex.div(neg_zero, x) is zero
    assert repr(ex.div(neg_zero, zero)) == repr(ex.Binary("/", neg_zero, zero))


@pytest.mark.parametrize("text", ["x1 ", "x1\t", " x1 \n", "x1 +x2 \t "])
def test_trailing_whitespace_ends_the_text(text):
    assert ex.parse_expression(text, VARS3) is ex.parse_expression(text.strip(), VARS3)


@pytest.mark.parametrize("text, offset, message", [
    ("x1 + ", 5, "expected a number"),  # the text ends after the operator
    ("x1 ? ", 3, "unexpected character '?'"),
    ("x1 +\t@", 5, "unexpected character '@'"),
    (" ", 1, "expected a number"),
])
def test_parse_errors_after_whitespace_keep_their_offset(text, offset, message):
    with pytest.raises(ParseError, match=message) as err:
        ex.parse_expression(text, VARS3)
    assert err.value.offset == offset


# --- unary minus binds more loosely than '^' ---------------------------------


@pytest.mark.parametrize("text, point, value", [
    ("-x1^2", (3.0, 1.0), -9.0),
    ("-2^2", (0.0, 0.0), -4.0),
    ("x1*-x2^2", (3.0, 1.0), -3.0),
    ("-(x1)^2", (3.0, 1.0), -9.0),
    ("(-x1)^2", (3.0, 1.0), 9.0),
    ("x1^-2", (2.0, 1.0), 0.25),
    ("-x1^-2", (2.0, 1.0), -0.25),
    ("--x1^2", (3.0, 1.0), 9.0),
    ("2^-1*x2", (0.0, 3.0), 1.5),
])
def test_unary_minus_negates_the_power(text, point, value):
    fn = ex.compile_scalar(ex.parse_expression(text, VARS3[:2]), 2)
    assert fn(*point) == value


def test_negated_power_base_is_written_in_parentheses():
    x = ex.Var(0)
    assert ex.to_string(ex.powc(ex.neg(x), 2), VARS3) == "(-x1)^2.0"
    assert ex.to_string(ex.neg(ex.powc(x, 2)), VARS3) == "-(x1^2.0)"
    assert ex.to_string(ex.Pow(ex.Const(-0.0), -1.0), VARS3) == "(-0.0)^-1.0"
    for tree in (ex.powc(ex.neg(x), 2), ex.Pow(ex.Const(-0.0), -1.0)):
        assert ex.parse_expression(ex.to_string(tree, VARS3), VARS3) is tree


# Python's parser is an independent oracle for the grammar: a text of the
# grammar, with '^' spelled '**', is a Python expression of the same
# precedence.  Every number but an exponent has a decimal point or an
# exponent part, so Python computes in floats, as the generated code does,
# and the two agree exactly wherever both are defined: finite, with no
# error, and real (Python raises a negative number to a fractional power as
# a complex number).
_PY_NAMES = ("x", "y")
_PY_LITERALS = ["0.0", "0.5", "1.0", "2.0", "3.", ".25", "1.5e1", "2e-1"]
_PY_EXPONENTS = ["2", "3", "0.5", "1e0", "-1", "-2", "-0.5"]
_PY_POINTS = [(3.0, 1.0), (-1.5, 0.75), (0.0, -0.5), (2.0, 2.0), (-0.5, 0.0)]
_PY_FUNCTIONS = {name: getattr(math, name) for name in ex.FUNCTION_NAMES}


def _grammar_texts():
    leaves = st.sampled_from([*_PY_NAMES, *_PY_LITERALS])

    def extend(inner):
        atom = st.one_of(
            leaves,
            inner.map(lambda t: f"({t})"),
            st.tuples(st.sampled_from(ex.FUNCTION_NAMES), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
        )
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            inner.map(lambda t: f"-{t}"),
            st.tuples(atom, st.sampled_from(_PY_EXPONENTS)).map("^".join),
            atom,
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _value_here(text, point):
    fn = ex.compile_scalar(ex.parse_expression(text, _PY_NAMES), 2)
    try:
        v = fn(*point)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return v if math.isfinite(v) else None


def _value_in_python(text, point):
    scope = {"__builtins__": {}, **_PY_FUNCTIONS, **dict(zip(_PY_NAMES, point))}
    try:
        v = eval(text.replace("^", "**"), scope)  # noqa: S307 - generated text
    except (ArithmeticError, ValueError, TypeError):
        return None
    return v if isinstance(v, float) and math.isfinite(v) else None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_grammar_texts(), st.sampled_from(_PY_POINTS))
@example("-x^2", (3.0, 1.0))
@example("x*-y^2 - -2.0^-1", (3.0, 1.0))
@example("-(x + y)^2 / -y^3", (3.0, 1.0))
def test_parse_agrees_with_python_on_the_grammar(text, point):
    here, python = _value_here(text, point), _value_in_python(text, point)
    if here is not None and python is not None:
        assert here == python, (text, point)


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
        # folds to a NaN constant, written as text that folds back to it
        "(1e400-1e400)*x1 + 1",
        "-(1e400-1e400)",
    ]
    for text in corpus:
        tree = ex.parse_expression(text, VARS3)
        assert ex.parse_expression(ex.to_string(tree, VARS3), VARS3) is tree


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
                lhs = oracle.evaluate(d_combo, p)
                rhs = a * oracle.evaluate(d1, p) + b * oracle.evaluate(d2, p)
                assert _rel_close(lhs, rhs, 1e-12)


def test_second_derivatives_commute(rng):
    for _ in range(25):
        e = _smooth_expr(rng, 3)
        i, j = rng.choice(3, size=2, replace=False)
        dij = ex.differentiate(ex.differentiate(e, int(i)), int(j))
        dji = ex.differentiate(ex.differentiate(e, int(j)), int(i))
        for p in rng.uniform(-1, 1, size=(8, 3)):
            assert _rel_close(oracle.evaluate(dij, p), oracle.evaluate(dji, p), 1e-10)


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
            fd = (oracle.evaluate(e, plus) - oracle.evaluate(e, minus)) / (2 * h)
            assert _rel_close(oracle.evaluate(d, p), fd, 1e-6)


def test_compiled_matches_tree_walk(rng):
    for _ in range(25):
        e = _smooth_expr(rng, 3)
        fn = ex.compile_scalar(e, 3)
        for p in rng.uniform(-1, 1, size=(6, 3)):
            assert fn(*p) == pytest.approx(oracle.evaluate(e, p), rel=0, abs=0)


def test_substitute_composition(rng):
    e = ex.parse_expression("x1^2 + sin(x2)", ["x1", "x2"])
    r1 = ex.parse_expression("u+v", ["u", "v"])
    r2 = ex.parse_expression("u*v", ["u", "v"])
    composed = ex.substitute(e, (r1, r2))
    for u, v in rng.uniform(-1, 1, size=(10, 2)):
        direct = oracle.evaluate(e, (u + v, u * v))
        assert _rel_close(oracle.evaluate(composed, (u, v)), direct, 1e-12)


def test_variables_are_the_indices_the_trees_read():
    names = ["x", "y", "z", "w"]
    exprs = [ex.parse_expression(t, names)
             for t in ("exp(y) * sqrt(z)^-2", "-y / 3", "2.5", "sin(1) + x - x")]
    assert ex.variables(exprs) == {0, 1, 2}
    assert ex.variables(exprs[1:3]) == {1}
    assert ex.variables([ex.Const(1.0), ex.func("exp", ex.Const(1.0))]) == set()


def test_nodes_are_immutable():
    node = ex.Var(0)
    with pytest.raises(Exception):
        node.index = 1


def test_numeric_equal_detects_difference(rng):
    a = ex.parse_expression("x1*x1", ["x1"])
    b = ex.parse_expression("x1^2", ["x1"])
    c = ex.parse_expression("x1^2 + 1e-3", ["x1"])
    pts = rng.uniform(-2, 2, size=(50, 1))
    assert oracle.numeric_equal(a, b, pts)
    assert not oracle.numeric_equal(a, c, pts)


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


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_compile_keeps_signed_zero_constants_apart(first):
    # structurally equal under ==, but 0.0*x and -0.0*x differ in sign
    trees = [ex.Binary("*", ex.Const(first), ex.Var(0)),
             ex.Binary("*", ex.Const(-first), ex.Var(0))]
    fns = [ex.compile_scalar(t, 1) for t in trees]  # both trees alive
    for tree, fn in zip(trees, fns):
        expected = oracle.evaluate(tree, (2.0,))
        assert math.copysign(1.0, fn(2.0)) == math.copysign(1.0, expected)
    both = ex.compile_tuple(trees, 1)(2.0)
    assert [math.copysign(1.0, v) for v in both] == [math.copysign(1.0, first),
                                                     -math.copysign(1.0, first)]


@pytest.mark.parametrize("text", ["x1^1e400 + 1", "-1e400*x1", "x2^-1e400",
                                  "(0 - 1e400)^2"])
def test_to_string_spells_infinities_as_numbers(text):
    tree = ex.parse_expression(text, VARS3)
    out = ex.to_string(tree, VARS3)
    assert "inf" not in out
    assert repr(ex.parse_expression(out, VARS3)) == repr(tree)


def test_differentiate_rejects_negative_index():
    with pytest.raises(ArityError):
        ex.differentiate(ex.Var(0), -1)


# a negative index once compiled to the last variable, names[-1], and failed in
# differentiate with a bare ValueError from the variable mask's shift
@pytest.mark.parametrize("call", [
    lambda: ex.compile_scalar(ex.Var(-1), 2),
    lambda: ex.differentiate(ex.Var(-1), 0),
    lambda: ex.variable(-1),
], ids=["compile_scalar", "differentiate", "variable"])
def test_negative_variable_index_is_an_arity_error(call):
    with pytest.raises(ArityError, match="non-negative"):
        call()


def test_memoized_derivatives_match_fresh_calls():
    e = ex.parse_expression("exp(x1*x2)*sin(x3) - x2/(1 + x1^2)", VARS3)
    d_memo = {}
    for _ in range(2):
        for j in range(4):
            shared = ex.differentiate(e, j, d_memo)
            assert repr(shared) == repr(ex.differentiate(e, j))


def test_repeated_subtrees_are_computed_once():
    e = ex.parse_expression("exp(x1 + x2)*exp(x1 + x2) - sin(x3)/exp(x1 + x2)", VARS3)
    text = ex.python_source(e, list(VARS3))
    assert text.count("_exp(") == 1 and text.count("+") == 1
    fn = ex.compile_scalar(e, 3)
    assert fn(0.25, -0.5, 1.0) == oracle.evaluate(e, (0.25, -0.5, 1.0))


def test_python_sum_adds_left_to_right():
    terms = ["1e16", "1.0", "-1e16"]
    # a compensated sum (math.fsum; the builtin sum from Python 3.12) gives 1.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert eval(ex.python_sum(terms)) == 0.0  # noqa: S307 - our own literals
    assert repr(eval(ex.python_sum(["-0.0"]))) == "0.0"  # noqa: S307
    assert eval(ex.python_sum([])) == 0.0  # noqa: S307
    # each term is parenthesized: a difference is one term, not two
    assert eval(ex.python_sum(["1e16 - 1e16", "1.0"])) == 1.0  # noqa: S307


# --- generated code: only the parentheses precedence needs -------------------

_code_leaf = st.one_of(
    _names.map(ex.Var),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -1.5, 2.5, -1e-300, 1e300,
                     math.inf, -math.inf, math.nan]).map(ex.Const),
    st.floats().map(ex.Const),
)


@st.composite
def _shared_trees(draw):
    """Random folded trees, plus trees built from several of them, so that
    subtrees repeat within and across the list."""
    pool = draw(st.lists(_trees(_code_leaf), min_size=1, max_size=3))
    picks = st.integers(0, len(pool) - 1)
    combos = draw(st.lists(
        st.tuples(st.sampled_from("+-*/"), picks, picks), max_size=4))
    return pool + [_apply_binary((op, pool[i], pool[j])) for op, i, j in combos]


def _assert_parses_as_parenthesized(exprs, names):
    texts = ex.python_sources(exprs, names)
    for text, full in zip(texts, oracle.parenthesized_sources(exprs, names),
                          strict=True):
        assert ast.dump(ast.parse(text, mode="eval")) == ast.dump(
            ast.parse(full, mode="eval")), (text, full)
        assert len(text) <= len(full)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_shared_trees())
def test_generated_text_parses_as_the_parenthesized_text(exprs):
    _assert_parses_as_parenthesized(exprs, list(VARS3))


def _sweep_style_coefficients(n):
    """exp(Q) grad P for a polynomial P with every monomial of degree at most
    2 in ``n`` variables, as the classify sweep of the benchmark builds."""
    names = [f"x{i + 1}" for i in range(n)]
    monomials = [*names, *(f"{a}*{b}" for i, a in enumerate(names)
                           for b in names[i:])]
    p_text = " + ".join(f"{(-1) ** k * (k + 1) / 4}*{m}"
                        for k, m in enumerate(monomials))
    psi = ex.parse_expression(p_text, names)
    mu = ex.parse_expression(f"exp(0.25*x1*x2 - 0.5*{names[-1]}^2)", names)
    return names, [ex.mul(mu, ex.differentiate(psi, i)) for i in range(n)]


@pytest.mark.parametrize("case", ["catalog", "sweep-3", "sweep-5"])
def test_generated_text_of_forms_parses_as_the_parenthesized_text(case):
    from pfaffian.catalog import catalog

    if case == "catalog":
        forms = [(e.var_names, list(e.form.coefficients)) for e in catalog()]
    else:
        forms = [_sweep_style_coefficients(int(case[-1]))]
    for names, coefficients in forms:
        n = len(names)
        memo = {}
        partials = [ex.differentiate(c, j, memo)
                    for i, c in enumerate(coefficients) for j in range(n) if j != i]
        _assert_parses_as_parenthesized([*coefficients, *partials], list(names))
        _assert_parses_as_parenthesized(coefficients, list(names))


@pytest.mark.parametrize("text,source", [
    ("x1 + x2 + x3", "x1+x2+x3"),
    ("x1 - (x2 + x3)", "x1-(x2+x3)"),
    ("(x1 - x2)*x3 / (x1*x2)", "(x1-x2)*x3/(x1*x2)"),
    ("-(x1*x2) - -x3", "-(x1*x2)--x3"),
    ("x1*-1.5 + exp(-x2)", "x1*-1.5+_exp(-x2)"),
    ("(x1 + x2)^2", "_pow(x1+x2,2.0)"),
])
def test_generated_text_has_only_needed_parentheses(text, source):
    assert ex.python_source(ex.parse_expression(text, VARS3), list(VARS3)) == source


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_parse_depth_bound(shape):
    with pytest.raises(ParseError, match=f"deeper than {ex.MAX_DEPTH} levels"):
        ex.parse_expression(DEEP_SHAPES[shape](3000), ["x", "y"])


def test_parse_depth_counts_levels():
    # the variable is one level, each minus, call, parenthesis pair, binary
    # operation and power one more
    below = ex.MAX_DEPTH - 1
    assert deepest_accepted("neg") == "-" * below + "x"
    assert deepest_accepted("sin") == "sin(" * below + "x" + ")" * below
    assert deepest_accepted("parens") == "(" * below + "x" + ")" * below
    assert deepest_accepted("sum") == DEEP_SHAPES["sum"](ex.MAX_DEPTH - 2)
    for text in ("x" + "*x" * below, "x" + "+x" * below):
        ex.parse_expression(text, ["x"])
        with pytest.raises(ParseError):
            ex.parse_expression(text + text[-2:], ["x"])


@pytest.mark.parametrize("text", [
    "(" * 2000 + "x" + ")" * 2000,
    "-" * 3000 + "x",
    "+".join(["x"] * 3000),
    "exp(" * 2000 + "x" + ")" * 2000,
    "x" + "/x" * 3000,
])
def test_parse_rejects_deep_input_without_recursion_error(text):
    with pytest.raises(ParseError):
        ex.parse_expression(text, ["x"])


# The parser against the reference parser of tests/oracle.py: on texts of
# the CLI fuzzer's expression grammar, on random token soups and on
# nestings around MAX_DEPTH, it returns the reference's interned tree or
# raises the reference's error: the same class, message and offset.
_SOUP_TOKENS = ["x", "y", "q", "exp", "sqrt", "tan", "0", "2.5", ".5", "3.", "1e999",
                "1e-3", "1e", "(", ")", "+", "-", "*", "/", "^", "^-", " ", "\t", "$",
                ".", "\u0663", "\u0663.\u0665", "\u00e9", "\u00b2", "\u00a0"]
# wrappers that add one level or two; the outermost may leave a parenthesis
# open, close one too many or lack an exponent
_WRAPPERS = ["({})", "-{}", "--{}", "exp({})", "x+{}", "{}-x", "{}*y", "y/{}",
             "({})^2", "({})^-1.5", "sin({})", "log(x)/{}"]
_OUTERMOST = ["{}", "{}", "{}", "sqrt({}", "({}))", "{}^"]
_NAMES = ("x", "y", "z", "T", "theta")
_NAME_LISTS = [_NAMES, _NAMES, _NAMES, ("x", "y"), ("x", "exp"), ()]


def _token_soups():
    return st.lists(st.sampled_from(_SOUP_TOKENS), max_size=14).map("".join)


def _nestings():
    """Texts whose depth is about MAX_DEPTH: just inside and just past it."""
    return st.tuples(
        st.sampled_from(["x", "2", "x*y", "-y^3"]),
        st.lists(st.sampled_from(_WRAPPERS), min_size=ex.MAX_DEPTH - 12,
                 max_size=ex.MAX_DEPTH + 2),
        st.sampled_from(_OUTERMOST),
    ).map(lambda t: t[2].format(
        functools.reduce(lambda text, w: w.format(text), t[1], t[0])))


def _parse_outcome(parse, text, names):
    try:
        return parse(text, names)
    except (ParseError, UnknownIdentifierError) as exc:
        return type(exc), str(exc), exc.offset


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.one_of(fuzz_expressions(list(_NAMES)), _token_soups(), _nestings()),
       st.sampled_from(_NAME_LISTS))
@example("", ("x",))
@example("x^-y", ("x", "y"))
@example("exp(x) + exp + exp(", ("x", "exp"))
@example("x(1)", ("x",))
@example("\u0663.\u0665*x^\u0662 - x^-\u0663", ("x",))  # Arabic-Indic digits
@example("-" * (ex.MAX_DEPTH + 1) + "x", ("x",))
@example("sin(" * (ex.MAX_DEPTH + 1) + "x", ("x",))
@example("(" * (ex.MAX_DEPTH - 1) + "x" + ")" * (ex.MAX_DEPTH - 2), ("x",))
def test_parser_matches_the_reference_parser(text, names):
    want = _parse_outcome(oracle.reference_parse, text, names)
    got = _parse_outcome(ex.parse_expression, text, names)
    if isinstance(want, ex.Expression):
        assert got is want
    else:
        assert got == want


# --- interning ----------------------------------------------------------------


def test_parses_of_one_text_are_one_object():
    text = "exp(x1*x2) - sin(x3)/(1 + x1^2)"
    first = ex.parse_expression(text, VARS3)
    second = ex.parse_expression(text, VARS3)
    assert second is first
    del first
    assert ex.parse_expression(text, VARS3) is second


def test_constructors_return_the_live_node():
    x, y = ex.variable(0), ex.variable(1)
    tree = ex.add(ex.mul(x, ex.func("exp", y)), ex.constant(1.5))
    assert ex.Binary("+", ex.Binary("*", ex.Var(0), ex.Unary("exp", ex.Var(1))),
                     ex.Const(1.5)) is tree
    assert ex.powc(ex.sub(x, y), 2) is ex.Pow(ex.Binary("-", x, y), 2.0)
    assert ex.neg(ex.neg(tree)) is tree


def test_signed_zeros_stay_distinct_nodes():
    pos, neg = ex.Const(0.0), ex.Const(-0.0)
    assert pos is not neg and pos == neg  # equal under ==, apart as nodes
    assert ex.neg(pos) is neg and ex.constant(-0.0) is neg
    x = ex.variable(0)
    sines = [ex.func("sin", pos), ex.func("sin", neg)]
    assert sines[0] is not sines[1]
    assert ex.Pow(x, 0.0) is not ex.Pow(x, -0.0)
    assert ex.Binary("*", pos, x) is not ex.Binary("*", neg, x)
    values = ex.compile_tuple(sines, 1)(2.0)
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]


def test_nan_constants_are_one_node():
    # python_literal spells every NaN float('nan'), so all NaNs are one node
    a, b = ex.Const(math.nan), ex.Const(float("nan"))
    assert a is b and ex.Const(-math.nan) is a
    x = ex.variable(0)
    assert ex.Pow(x, math.nan) is ex.Pow(x, float("nan"))
    assert ex.Const(math.inf) is not a and ex.Const(math.inf) is ex.constant("inf")
    assert ex.add(x, a) is ex.add(x, b)
    values = ex.compile_tuple([a, ex.add(x, b)], 1)(1.0)
    assert all(math.isnan(v) for v in values)


def test_copies_are_the_interned_node():
    tree = ex.parse_expression("exp(x1*x2)*sin(-0.0) + x3^0.5", VARS3)
    assert copy.copy(tree) is tree and copy.deepcopy(tree) is tree
    assert pickle.loads(pickle.dumps(tree)) is tree


def test_generated_functions_go_by_reference_counting():
    # exec_source binds what the source defines outside the generated globals
    gc.collect()
    gc.disable()
    try:
        fn = ex.compile_tuple([ex.parse_expression("exp(x1)*x2 + x1", VARS3)] * 2, 3)
        assert "_kernel" not in fn.__globals__
        dead = weakref.ref(fn)
        del fn
        assert dead() is None
    finally:
        gc.enable()


def test_table_entries_go_away_with_their_nodes():
    gc.collect()
    before = len(ex._NODES)
    tree = ex.parse_expression("exp(x1*x2)*7.25 + sqrt(x3 + 1.75)", VARS3)
    assert len(ex._NODES) > before
    dead = weakref.ref(tree)
    del tree
    gc.collect()
    assert dead() is None
    assert len(ex._NODES) == before


def test_repeated_factor_is_differentiated_once_per_variable(monkeypatch):
    # the exp(Q) factor of exp(Q) * grad P is one node in all coefficients,
    # so the jet's one memo differentiates it once per variable
    factor = ex.parse_expression("exp(x1^2 - x2*x3)", VARS3)
    coeffs = tuple(ex.parse_expression(f"exp(x1^2 - x2*x3)*({t})", VARS3)
                   for t in ("x2*x3", "x1*x3", "x1*x2"))
    assert all(c.left is factor for c in coeffs)
    calls = Counter()
    rule = ex._derivative_rule

    def counting(e, j, memo):
        if e is factor:
            calls[j] += 1
        return rule(e, j, memo)

    monkeypatch.setattr(ex, "_derivative_rule", counting)
    PfaffianForm(VARS3, coeffs, unit_box(3)).jet_fn
    assert calls == {0: 1, 1: 1, 2: 1}


def test_raw_trees_compile_to_the_values_of_the_oracle(rng):
    # unfolded trees from the node classes are interned too; the tuple
    # shares their repeated subtrees and keeps the oracle's values
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        pool = []
        trees = [random_tree(rng, n, 4, pool) for _ in range(3)]
        fn = ex.compile_tuple(trees, n)
        for p in rng.uniform(-2, 2, size=(6, n)).tolist():
            try:
                expected = repr(tuple(oracle.evaluate(t, p) for t in trees))
            except EvalDomainError:
                expected = EvalDomainError
            try:
                got = repr(ex.call_checked(fn, p, n))
            except EvalDomainError:
                got = EvalDomainError
            assert got == expected
            checked += got is not EvalDomainError
    assert checked > 0
