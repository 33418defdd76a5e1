import itertools
import math

import numpy as np
import pytest

import oracle
from conftest import (
    DOMAIN_ERROR_CASES,
    FOLDING,
    PROBE_CASES,
    fold,
    monomials_up_to,
    random_points,
    random_tree,
)
from oracle import _ref_simplify
from pfaffian import expressions as ex
from pfaffian.catalog import catalog
from pfaffian.errors import (
    ArityError,
    EvalDomainError,
    FormError,
    OutOfDomainError,
    SingularFormError,
)
from pfaffian.forms import (
    DEFAULT_SINGULAR_TOL,
    Box,
    PfaffianForm,
    coefficient_vector,
    distance,
    form_from_expressions,
    format_form_file,
    is_singular_at,
    load_form,
    make_form,
    make_substitution,
    mild_nonlinear_substitution,
    parse_box,
    parse_form_file,
    pivot,
    pullback,
    random_linear_substitution,
    singular,
    singular_source,
)
from pfaffian.forms import _jacobian
from pfaffian.sampling import MAX_VARIABLES

BOX2 = Box((-1, -1), (1, 1))
BOX3 = Box((-1, -1, -1), (1, 1, 1))


def test_make_form_basic():
    f = make_form(["x", "y"], ["y", "x"], BOX2)
    assert f.n == 2
    assert f.var_names == ("x", "y")


def test_make_form_contact_witness():
    f = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    assert coefficient_vector(f, (0, 0, 0)) == (0.0, 0.0, 1.0)


def test_make_form_identically_null_rejected():
    with pytest.raises(SingularFormError):
        make_form(["x"], ["0"], Box((-1,), (1,)))


def test_make_form_arity_mismatch():
    with pytest.raises(ArityError):
        make_form(["x", "y"], ["y"], BOX2)


@pytest.mark.parametrize("names, count, box, error, message", [
    (("x", "x"), 2, BOX2, FormError, "duplicate variable names"),
    (("x", "y"), 1, BOX2, ArityError, "1 coefficients for 2 variables"),
    (("x", "y"), 2, BOX3, ArityError, "box dimension 3 != 2 variables"),
])
def test_both_constructors_validate_alike(names, count, box, error, message):
    # the checks run before any text is parsed: "((" would be a ParseError
    with pytest.raises(error, match=f"^{message}$"):
        make_form(names, ["(("] * count, box)
    with pytest.raises(error, match=f"^{message}$"):
        form_from_expressions(names, [ex.constant(1.0)] * count, box)


def test_pivot_is_the_first_largest_coefficient():
    tol = DEFAULT_SINGULAR_TOL
    assert pivot((0.5, -2.0, 2.0)) == 1  # a tie goes to the first index
    assert pivot((-3.0, 3.0)) == 0
    assert pivot((0.0, tol, -tol)) is None
    assert pivot((0.0, 2 * tol)) == 1
    assert pivot((math.inf, 1.0)) == 0
    # a NaN is picked only where it comes first, as max picks it
    assert pivot((math.nan, 1.0)) == 0
    assert pivot((1.0, math.nan)) == 0
    assert pivot((0.0, math.nan)) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pivot_is_the_index_max_picks(n):
    # every tuple of n sizes from a pool with ties, signed zeros, the
    # tolerance, infinities and NaN: the rule max(range(n), key=...) states
    pool = (0.0, -0.0, DEFAULT_SINGULAR_TOL, -2 * DEFAULT_SINGULAR_TOL, 0.5,
            -0.5, 2.0, math.inf, -math.inf, math.nan)
    for values in itertools.product(pool, repeat=n):
        k = max(range(n), key=lambda i: abs(values[i]))
        want = None if abs(values[k]) <= DEFAULT_SINGULAR_TOL else k
        assert pivot(values) == want, values


@pytest.mark.parametrize("values", [
    (0.0, -0.0), (1e-12, -1e-12), (1e-12, 1.5e-12), (-3.0, 3.0, 1.0),
    (math.nan, 0.0), (0.0, math.nan), (math.inf, math.nan), (-math.inf,),
    (5e-324,), (1e300, -1e-300, 2.0),
])
def test_singular_rule_agrees_in_python_and_generated_code(values):
    k = pivot(values)
    assert singular(values) == (k is None)
    k = max(range(len(values)), key=lambda i: abs(values[i]))
    assert singular(values) == (abs(values[k]) <= DEFAULT_SINGULAR_TOL)
    test = ex.exec_source(f"def test(v):\n    return {singular_source('v')}\n",
                          "singular")["test"]
    for v in values:
        assert test(v) == singular((v,)) == (abs(v) <= DEFAULT_SINGULAR_TOL)


def test_coefficient_vector_examples():
    f = make_form(["x", "y"], ["y", "x"], Box((-5, -5), (5, 5)))
    assert coefficient_vector(f, (3, 4)) == (4.0, 3.0)
    g = make_form(["x", "y", "z"], ["-y", "0", "1"], Box((-3, -3, -3), (3, 3, 3)))
    assert coefficient_vector(g, (0, 2, 0)) == (-2.0, 0.0, 1.0)


def test_coefficient_vector_out_of_domain():
    f = make_form(["x", "y"], ["y", "x"], BOX2)
    with pytest.raises(OutOfDomainError):
        coefficient_vector(f, (2.0, 0.0))


def test_is_singular_at():
    f = make_form(["x", "y"], ["y", "x"], BOX2)
    assert is_singular_at(f, (0.0, 0.0))
    assert not is_singular_at(f, (1.0, 0.0))
    g = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    for p in [(0, 0, 0), (0.5, -0.5, 0.9)]:
        assert not is_singular_at(g, p)


def test_pole_coefficients_survive_construction():
    # 1/x has a pole inside the box; those samples are skipped, not fatal
    f = make_form(["x", "y"], ["1/x", "1"], Box((-1, -1), (1, 1)))
    assert coefficient_vector(f, (0.5, 0.0)) == (2.0, 1.0)


# --- pullback -----------------------------------------------------------------


def test_pullback_hand_chain_rule():
    # d(x+y) under x=u+v, y=u-v becomes 2du + 0dv
    f = make_form(["x", "y"], ["1", "1"], BOX2)
    s = make_substitution(
        ["u", "v"], ["u+v", "u-v"], (0, 0), Box((-0.4, -0.4), (0.4, 0.4))
    )
    g = pullback(f, s)
    assert coefficient_vector(g, (0.1, -0.2)) == (2.0, 0.0)


def test_pullback_identity_substitution(rng):
    f = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    s = make_substitution(
        ["u", "v", "w"], ["u", "v", "w"], (0, 0, 0),
        Box((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9)),
    )
    g = pullback(f, s)
    for p in rng.uniform(-0.9, 0.9, size=(20, 3)):
        assert coefficient_vector(g, p) == pytest.approx(
            coefficient_vector(f, p), abs=1e-14
        )


def test_pullback_linear_stretch():
    # x = 2u scales the first coefficient by 2: F1bar = -2y
    f = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    s = make_substitution(
        ["u", "v", "w"], ["2*u", "v", "w"], (0, 0, 0),
        Box((-0.45, -0.9, -0.9), (0.45, 0.9, 0.9)),
    )
    g = pullback(f, s)
    p = (0.2, 0.3, -0.4)
    assert coefficient_vector(g, p) == pytest.approx((-0.6, 0.0, 1.0))


def test_pullback_respects_jacobian_transpose(rng):
    # coefficient vector of the pullback equals J^T F at mapped points
    for trial in range(50):
        n = int(rng.integers(2, 5))
        box = Box((-1,) * n, (1,) * n)
        coeffs = []
        names = tuple(f"x{i}" for i in range(n))
        for i in range(n):
            c = rng.uniform(-2, 2, size=n + 1)
            text = " + ".join(
                [f"{c[0]:.6f}"] + [f"{c[j + 1]:.6f}*x{j}" for j in range(n)]
            )
            coeffs.append(text)
        f = make_form(names, coeffs, box)
        s = random_linear_substitution(f, seed=trial)
        g = pullback(f, s)
        p_new = tuple(rng.uniform(lo, hi) for lo, hi in
                      zip(s.new_domain.lows, s.new_domain.highs))
        jac = s.jacobian_at(p_new)
        mapped = s.apply(p_new)
        expected = jac.T @ np.asarray(coefficient_vector(f, mapped))
        got = np.asarray(coefficient_vector(g, p_new))
        assert np.allclose(got, expected, atol=1e-10)


def test_double_pullback_linear_inverse(rng):
    f = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    a = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.1, 0.0, 1.0]])
    a_inv = np.linalg.inv(a)

    def texts(m, names):
        rows = []
        for i in range(3):
            rows.append(
                " + ".join(f"({float(m[i, j])!r})*{names[j]}" for j in range(3))
            )
        return rows

    s = make_substitution(["u", "v", "w"], texts(a, ["u", "v", "w"]),
                          (0, 0, 0), Box((-0.5,) * 3, (0.5,) * 3))
    g = pullback(f, s)
    s_back = make_substitution(["x", "y", "z"], texts(a_inv, ["x", "y", "z"]),
                               (0, 0, 0), Box((-0.3,) * 3, (0.3,) * 3))
    h = pullback(g, s_back)
    for p in rng.uniform(-0.3, 0.3, size=(25, 3)):
        assert np.allclose(
            coefficient_vector(h, p), coefficient_vector(f, p), atol=1e-9
        )


def test_pullback_preserves_line_integrals(rng):
    # the defining property: integrals of the form along corresponding
    # curves agree
    f = make_form(["x", "y", "z"], ["-y", "x*z", "1"], BOX3)
    s = make_substitution(
        ["u", "v", "w"], ["u+0.1*v^2", "v-0.05*w^2", "w+0.1*u*v"],
        (0, 0, 0), Box((-0.3,) * 3, (0.3,) * 3),
    )
    g = pullback(f, s)

    ts = np.linspace(0.0, 1.0, 2001)
    curve_new = np.stack(
        [
            0.2 * np.sin(2 * np.pi * ts),
            0.18 * np.cos(2 * np.pi * ts) - 0.1,
            0.15 * ts,
        ],
        axis=1,
    )
    curve_old = np.array([s.apply(tuple(p)) for p in curve_new])

    def line_integral(form, pts):
        total = 0.0
        for a, b in zip(pts, pts[1:]):
            mid = tuple((a + b) / 2.0)
            fv = np.asarray(coefficient_vector(form, mid))
            total += float(fv @ (b - a))
        return total

    assert line_integral(g, curve_new) == pytest.approx(
        line_integral(f, curve_old), abs=1e-6
    )


def test_substitution_requires_invertible_jacobian():
    with pytest.raises(FormError):
        make_substitution(["u", "v"], ["u+v", "u+v"], (0, 0),
                          Box((-1, -1), (1, 1)))


def test_substitution_rejects_repeated_new_variables():
    # the parser binds a repeated name to its first position, so the
    # Jacobian has a zero column: the error must name the repeat instead
    with pytest.raises(FormError, match="^duplicate variable names$"):
        make_substitution(["u", "u", "w"], ["u", "u", "w"], (0, 0, 0), BOX3)


def test_variable_lists_beyond_the_sampling_bound_are_form_errors():
    # the Halton samples have one prime base per variable, for at most
    # MAX_VARIABLES variables: a longer list must fail when the form or the
    # substitution is built, not when a sample is drawn
    n = MAX_VARIABLES + 1
    names = [f"x{i}" for i in range(n)]
    box = Box((-1,) * n, (1,) * n)
    message = f"^{n} variables; at most {MAX_VARIABLES} are supported$"
    with pytest.raises(FormError, match=message):
        make_form(names, ["1"] * n, box)
    with pytest.raises(FormError, match=message):
        make_substitution(names, names, (0,) * n, box)
    text = "".join([f"vars: {', '.join(names)}\n",
                    *(f"F[{i + 1}] = 1\n" for i in range(n)),
                    "domain: " + " x ".join(["[-1,1]"] * n) + "\n"])
    with pytest.raises(FormError, match=message):
        parse_form_file(text)


def test_mild_nonlinear_substitution_valid():
    f = make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)
    s = mild_nonlinear_substitution(f)
    jac = s.jacobian_at(s.base_point)
    assert np.allclose(jac, np.eye(3))
    for p in s.new_domain.corners():
        assert f.domain.contains(s.apply(tuple(p)))


# --- form files ----------------------------------------------------------------

FORM_TEXT = """\
# heat form of a monatomic ideal gas
vars: T, V
F[1] = 1.5
F[2] = T/V   # pressure over temperature ratio
domain: [1,2] x [1,2]
"""


def test_parse_form_file_round_trip(tmp_path):
    f = parse_form_file(FORM_TEXT)
    assert f.var_names == ("T", "V")
    assert coefficient_vector(f, (1.5, 1.5)) == (1.5, 1.0)
    text = format_form_file(f)
    g = parse_form_file(text)
    assert g.var_names == f.var_names
    assert g.domain == f.domain
    path = tmp_path / "gas.pfaff"
    path.write_text(text)
    assert load_form(path).var_names == f.var_names


@pytest.mark.parametrize(
    "text",
    [
        "F[1] = x\ndomain: [0,1]",  # missing vars
        "vars: x\nF[1] = x",  # missing domain
        "vars: x\nF[2] = x\ndomain: [0,1]",  # wrong index
        "vars: x\nF[1] = x\ndomain: [1,0]",  # empty interval
        "vars: x\nF[1] = x\ndomain: [0,1]\nwhat",  # junk line
    ],
)
def test_parse_form_file_errors(text):
    with pytest.raises(FormError):
        parse_form_file(text)


def test_box_validation():
    with pytest.raises(FormError):
        Box((0, 0), (1,))
    with pytest.raises(FormError):
        Box((0,), (0,))


def test_overflowed_constant_round_trips_through_form_file():
    # x^1e400 parses to x^inf; the file must spell inf as a number again
    f = parse_form_file(
        "vars: x, y\nF[1] = x^1e400 + 1\nF[2] = 1\ndomain: [0.5,1] x [0,1]\n"
    )
    text = format_form_file(f)
    assert "1e999" in text
    g = parse_form_file(text)
    assert repr(g.coefficients) == repr(f.coefficients)
    assert g.domain == f.domain


# --- Jacobian and compiled kernel against the per-entry reference ---------------
# The reference is the plain recursive differentiate, the oracle's fold and
# the tree-walking code generator, one compile per expression.  A form stores
# the coefficients it is given, so the reference forms are folded trees:
# parsed texts, and random trees built through the folding constructors.


def _ref_differentiate(e, j):
    if isinstance(e, ex.Const):
        return ex.Const(0.0)
    if isinstance(e, ex.Var):
        return ex.Const(1.0) if e.index == j else ex.Const(0.0)
    if isinstance(e, ex.Unary):
        da = _ref_differentiate(e.arg, j)
        a = e.arg
        if e.op == "neg":
            return ex.neg(da)
        if e.op == "exp":
            return ex.mul(ex.Unary("exp", a), da)
        if e.op == "log":
            return ex.div(da, a)
        if e.op == "sin":
            return ex.mul(ex.Unary("cos", a), da)
        if e.op == "cos":
            return ex.neg(ex.mul(ex.Unary("sin", a), da))
        if e.op == "sqrt":
            return ex.div(da, ex.mul(ex.Const(2.0), ex.Unary("sqrt", a)))
    if isinstance(e, ex.Binary):
        dl = _ref_differentiate(e.left, j)
        dr = _ref_differentiate(e.right, j)
        if e.op == "+":
            return ex.add(dl, dr)
        if e.op == "-":
            return ex.sub(dl, dr)
        if e.op == "*":
            return ex.add(ex.mul(dl, e.right), ex.mul(e.left, dr))
        num = ex.sub(ex.mul(dl, e.right), ex.mul(e.left, dr))
        return ex.div(num, ex.powc(e.right, 2.0))
    db = _ref_differentiate(e.base, j)
    return ex.mul(ex.mul(ex.Const(e.exponent), ex.powc(e.base, e.exponent - 1.0)), db)


def _ref_source(e, names):
    if isinstance(e, ex.Const):
        return ex.python_literal(e.value)
    if isinstance(e, ex.Var):
        return names[e.index]
    if isinstance(e, ex.Unary):
        if e.op == "neg":
            return f"(-{_ref_source(e.arg, names)})"
        return f"_{e.op}({_ref_source(e.arg, names)})"
    if isinstance(e, ex.Binary):
        return f"({_ref_source(e.left, names)}{e.op}{_ref_source(e.right, names)})"
    return f"_pow({_ref_source(e.base, names)},{ex.python_literal(e.exponent)})"


def _ref_compile(e, n):
    args = ",".join(f"x{i}" for i in range(n)) or "*_ignored"
    body = _ref_source(e, [f"x{i}" for i in range(n)])
    return ex.exec_source(f"fn = lambda {args}: ({body})\n", "reference")["fn"]


def _ref_jacobian(coefficients, n):
    return tuple(
        tuple(_ref_simplify(_ref_differentiate(c, j)) for j in range(n))
        for c in coefficients
    )


_FIXED_TEXTS = (
    ("-y", "x/0", "log(0)*z"),
    ("x*y - exp(-y)", "sqrt(x^2 + 1)/(1 + y)", "sin(z)*cos(x*z)"),
    ("-y", "0", "1"),
    ("x^300", "1/x - 1/y", "-(x*0)"),
)


def _reference_forms(rng):
    """(var names, folded coefficient trees) of the catalog, fixed and random
    forms."""
    cases = [(e.form.var_names, e.form.coefficients) for e in catalog()]
    names = ("x", "y", "z")
    for texts in _FIXED_TEXTS:
        cases.append((names, tuple(ex.parse_expression(t, names) for t in texts)))
    for _ in range(40):
        n = int(rng.integers(1, 5))
        pool = []
        coeffs = tuple(random_tree(rng, n, 4, pool, FOLDING) for _ in range(n))
        cases.append((tuple(f"x{i}" for i in range(n)), coeffs))
    return cases


def _outcome(fn, p):
    try:
        return repr(fn(*p))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def _reference_outcome(fns, p):
    """Values of the per-entry callables, or the class of the first to raise."""
    values = []
    for fn in fns:
        try:
            values.append(fn(*p))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return type(exc)
    return repr(tuple(values))


def _probe_points(rng, n):
    pts = [tuple(p) for p in rng.uniform(-2, 2, size=(12, n))]  # numpy floats
    pts += [tuple(float(v) for v in p) for p in rng.uniform(-2, 2, size=(12, n))]
    pts += [(0.0,) * n, (-0.0,) * n, (1.0,) * n, (-1.0,) * n, (800.0,) * n,
            (1e-200,) * n]
    return pts


def test_jacobian_matches_per_entry_reference(rng):
    for names, coeffs in _reference_forms(rng):
        assert repr(_jacobian(coeffs, len(names))) == repr(
            _ref_jacobian(coeffs, len(names)))


def test_signed_zero_derivative_kept():
    names = ("x", "y")
    coeffs = (ex.parse_expression("-y", names), ex.Var(0))
    assert repr(_jacobian(coeffs, 2)[0][0]) == repr(ex.Const(-0.0))


def test_jet_matches_per_entry_compile(rng):
    # the jet holds F, then dF_i/dx_j for j != i, row by row
    for names, coeffs in _reference_forms(rng):
        n = len(names)
        form = PfaffianForm(names, coeffs, Box((-1,) * n, (1,) * n))
        partials = [d for i, row in enumerate(_ref_jacobian(coeffs, n))
                    for j, d in enumerate(row) if j != i]
        entries = [*coeffs, *partials]
        reference = [_ref_compile(e, n) for e in entries]
        singles = [ex.compile_scalar(e, n) for e in entries]
        jet = form.jet_fn
        with np.errstate(all="ignore"):  # numpy scalars divide by zero quietly
            for p in _probe_points(rng, n):
                assert _outcome(jet, p) == _reference_outcome(reference, p)
                for ref, single in zip(reference, singles):
                    assert _outcome(single, p) == _outcome(ref, p)


def test_compile_tuple_shares_subtrees_structurally():
    # every tree is built through the constructors on its own; interned,
    # the repeated exp(x*y) is one node and is computed once, while the
    # constants 0.0 and -0.0 stay two
    def exp_xy():
        return ex.func("exp", ex.mul(ex.variable(0), ex.variable(1)))

    def sin_times_x(zero):
        return ex.mul(ex.func("sin", ex.constant(zero)), ex.variable(0))

    exprs = [ex.add(exp_xy(), ex.mul(ex.constant(0.5), exp_xy())),
             ex.mul(exp_xy(), sin_times_x(-0.0)),
             sin_times_x(0.0),
             sin_times_x(-0.0),
             ex.add(exp_xy(), ex.mul(ex.constant(0.5), exp_xy()))]
    assert exprs[4] is exprs[0] and exprs[1].right is exprs[3]
    texts = ex.python_sources(exprs, ["x", "y"])
    assert "".join(texts).count("_exp(") == 1
    assert "_sin(0.0)" in texts[2] and "_sin(-0.0)" in texts[1]
    fn = ex.compile_tuple(exprs, 2)
    reference = [_ref_compile(e, 2) for e in exprs]
    for p in [(0.5, -1.5), (1.0, 0.0), (700.0, 2.0), (-0.0, 3.0)]:
        assert _outcome(fn, p) == _reference_outcome(reference, p)
    with pytest.raises(ArityError):
        ex.compile_tuple([ex.Var(2)], 2)


def test_make_form_probes_center_first():
    # nonsingular at the center: no Halton point is drawn
    calls = []
    box = Box((-1, -1), (1, 1))

    class CountingBox(Box):
        def samples(self, count):
            calls.append(count)
            return super().samples(count)

    counting = CountingBox(box.lows, box.highs)
    make_form(["x", "y"], ["1", "x"], counting)
    assert calls == []
    make_form(["x", "y"], ["x", "y"], counting)  # singular at the center
    assert calls == [256]
    with pytest.raises(SingularFormError):
        make_form(["x", "y"], ["x*0", "0"], counting)
    assert calls == [256, 256]


# --- the nonsingularity probe on the jet against the probe on F ------------------


def _probe_outcome(names, texts, domain, needs_jet):
    """The form's coefficient vector at the center, or the probe's message."""
    try:
        form = make_form(names, texts, parse_box(domain), needs_jet=needs_jet)
    except SingularFormError as exc:
        return str(exc)
    return coefficient_vector(form, form.domain.center)


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_jet_probe_matches_coefficient_probe(case):
    names, texts, domain = PROBE_CASES[case]
    jet = _probe_outcome(names, texts, domain, True)
    assert jet == _probe_outcome(names, texts, domain, False)
    if case == "jet_raises":
        assert jet == (1.0, 0.0, 0.0)
    else:
        assert isinstance(jet, str)


def test_jet_probe_compiles_f_only_where_the_jet_fails():
    names, texts, domain = PROBE_CASES["jet_raises"]
    form = make_form(names, texts, parse_box(domain), needs_jet=True)
    assert "jet_fn" in vars(form) and "coefficient_tuple_fn" in vars(form)
    form = make_form(names, ["2 + x", "z", "y"], parse_box(domain), needs_jet=True)
    assert "jet_fn" in vars(form) and "coefficient_tuple_fn" not in vars(form)
    form = make_form(names, ["2 + x", "z", "y"], parse_box(domain))
    assert "jet_fn" not in vars(form)


# --- checked evaluation against the tree-walking oracle --------------------------
# coefficient_vector, is_singular_at and Substitution.apply/jacobian_at call
# compiled tuples through expressions.call_checked; tests/oracle.py walks the
# trees.  Values and error classes must agree.


def _result(call, *args):
    """``call(*args)``, or the class of the checked error it raises."""
    try:
        return call(*args)
    except (EvalDomainError, ArityError, OutOfDomainError) as exc:
        return type(exc)


def _assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


def _oracle_vector(form, p):
    return tuple(oracle.evaluate(c, p) for c in form.coefficients)


def _oracle_singular(form, p):
    return max(abs(v) for v in _oracle_vector(form, p)) <= DEFAULT_SINGULAR_TOL


def _oracle_apply(sub, p):
    return tuple(oracle.evaluate(e, p) for e in sub.exprs)


def _oracle_jacobian(sub, p):
    return [[oracle.evaluate(ex.differentiate(e, j), p) for j in range(sub.n)]
            for e in sub.exprs]


def _guard_points(rng, box):
    """Numpy floats, Python floats and ints inside ``box``, and its corners."""
    pts = [tuple(p) for p in random_points(rng, box, 8)]
    pts += [tuple(float(v) for v in p) for p in random_points(rng, box, 8)]
    pts += [tuple(float(v) for v in p) for p in box.corners()]
    ints = [tuple(int(v) for v in np.ceil(box.lows)),
            tuple(int(v) for v in np.floor(box.highs))]
    return pts + [p for p in ints if box.contains(p)]


# a pole and a log of negative values; an overflowing exp and product
POLE_LOG = make_form(["x", "y"], ["1/x", "log(y) - x"], BOX2)
OVERFLOW = make_form(["x", "y"], ["exp(800*x)", "y*1e300*1e300 + 1"], BOX2)
# numpy scalars would divide by zero to inf here, and return 0.0 at x = 0
HIDDEN_POLE = make_form(["x", "y"], ["x/(1 + 1/x)", "1"], BOX2)
# undefined where v <= -0.5 and at u = 0, in the point and the Jacobian
UNDEFINED_SUB = make_substitution(["u", "v"], ["u + 0.1*log(v + 0.5)", "v + 0.2/u"],
                                  (0.5, 0.5), BOX2)
EDGE_POINTS = [(0.0, 0.5), (np.float64(0.0), 0.5), (0, 1), (0.5, -0.5),
               (1.0, 0.0), (0.0, 1.0), (-0.0, -1.0), (np.float64(1.0), 1)]


def test_coefficient_vector_matches_oracle(rng):
    undefined = 0
    cases = [(e.form, []) for e in catalog()]
    cases += [(f, EDGE_POINTS) for f in (POLE_LOG, OVERFLOW, HIDDEN_POLE)]
    for form, edge_points in cases:
        for p in _guard_points(rng, form.domain) + edge_points:
            got = _result(coefficient_vector, form, p)
            _assert_same(got, _result(_oracle_vector, form, p))
            _assert_same(_result(is_singular_at, form, p),
                         _result(_oracle_singular, form, p))
            undefined += got is EvalDomainError
    assert undefined >= 8


def test_substitution_matches_oracle(rng):
    cases = [(UNDEFINED_SUB, EDGE_POINTS)]
    for seed, e in enumerate(catalog()):
        cases += [(random_linear_substitution(e.form, seed=seed), []),
                  (mild_nonlinear_substitution(e.form), [])]
    undefined = 0
    for sub, edge_points in cases:
        for p in _guard_points(rng, sub.new_domain) + edge_points:
            got = _result(sub.apply, p)
            _assert_same(got, _result(_oracle_apply, sub, p))
            _assert_same(_result(lambda q: sub.jacobian_at(q).tolist(), p),
                         _result(_oracle_jacobian, sub, p))
            undefined += got is EvalDomainError
    assert undefined >= 4


@pytest.mark.parametrize("form,p", [
    (POLE_LOG, (0.0, 0.5)),  # pole
    (POLE_LOG, (np.float64(0.0), 0.5)),
    (HIDDEN_POLE, (np.float64(0.0), 0.5)),
    (POLE_LOG, (0.5, -0.5)),  # log of a negative value
    (OVERFLOW, (1.0, 0.0)),  # exp overflows
    (OVERFLOW, (0.0, 1.0)),  # the product overflows to inf
])
def test_checked_errors_are_eval_domain_errors(form, p):
    assert _result(_oracle_vector, form, p) is EvalDomainError
    with pytest.raises(EvalDomainError):
        coefficient_vector(form, p)
    with pytest.raises(EvalDomainError):
        is_singular_at(form, p)


def test_checked_arity_and_domain_errors():
    with pytest.raises(ArityError):
        coefficient_vector(POLE_LOG, (0.5,))
    with pytest.raises(ArityError):
        UNDEFINED_SUB.apply((0.5,))
    with pytest.raises(ArityError):
        UNDEFINED_SUB.jacobian_at((0.5, 0.5, 0.5))
    with pytest.raises(OutOfDomainError):
        coefficient_vector(POLE_LOG, (2.0, 0.5))
    with pytest.raises(EvalDomainError):
        UNDEFINED_SUB.jacobian_at((0.0, 0.5))


@pytest.mark.parametrize("text,point", DOMAIN_ERROR_CASES)
def test_coefficient_vector_domain_errors(text, point):
    half = 2.0 * abs(point[0]) + 1.0
    form = PfaffianForm(("x1",), (ex.parse_expression(text, ["x1"]),),
                        Box((-half,), (half,)))
    with pytest.raises(EvalDomainError):
        coefficient_vector(form, point)


# --- derivatives of folded coefficients are folded --------------------------------


def _poly_text(rng, n, degree):
    """Dense random polynomial in x1..xn, written as form files write them."""
    terms = []
    for expo in monomials_up_to(n, degree):
        factors = [f"x{v + 1}^{e}" for v, e in enumerate(expo) if e]
        terms.append("*".join([f"{rng.uniform(-1, 1):.3f}", *factors]))
    return " + ".join(terms)


def _sweep_style_forms(rng):
    """Polynomial forms in 3-5 variables, plain, scaled by exp and twisted."""
    forms = []
    for n in (3, 4, 5):
        names = [f"x{i + 1}" for i in range(n)]
        box = Box((-1,) * n, (1,) * n)
        polys = [_poly_text(rng, n, 2) for _ in range(n)]
        factor = _poly_text(rng, n, 2)
        forms.append(make_form(names, polys, box))
        forms.append(make_form(names, [f"exp({factor})*({t})" for t in polys], box))
        forms.append(make_form(names, [f"{polys[0]} - 0.7*x2", *polys[1:]], box))
    return forms


def test_derivatives_are_simplify_fixed_points(rng):
    forms = [e.form for e in catalog()]
    forms += [pullback(f, random_linear_substitution(f, seed=7)) for f in forms]
    forms += _sweep_style_forms(rng)
    for names, coeffs in _reference_forms(rng):
        n = len(names)
        forms.append(PfaffianForm(names, coeffs, Box((-1,) * n, (1,) * n)))
    for form in forms:
        for row in _jacobian(form.coefficients, form.n):
            for d in row:
                assert repr(_ref_simplify(d)) == repr(d)


# --- distances ---------------------------------------------------------------------


def test_distance_adds_squares_left_to_right(rng):
    # a pair whose distance Python 3.12's compensated sum rounds differently
    pairs = [((0.9626009722302022, 0.12809522375164262, -0.7344460244417297),
              (0.792992037356042, -0.17235517342939066, -0.6623582775212051))]
    for _ in range(500):
        n = int(rng.integers(2, 6))
        pairs.append((tuple(rng.uniform(-1, 1, n)),
                      tuple(float(v) for v in rng.uniform(-1, 1, n))))
    for p, q in pairs:
        expected = math.sqrt(fold((a - b) ** 2 for a, b in zip(p, q)))
        assert repr(distance(p, q)) == repr(expected)
