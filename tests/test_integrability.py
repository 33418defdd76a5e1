import itertools
import json

import numpy as np
import pytest

from conftest import gradient_form, random_polynomial, unit_box
from oracle import _ref_simplify
from pfaffian import expressions as ex
from pfaffian import forms as pfaffian_forms
from pfaffian.errors import ArityError
from pfaffian.forms import (
    Box,
    PfaffianForm,
    make_form,
    make_substitution,
    mild_nonlinear_substitution,
    pullback,
    random_linear_substitution,
)
from pfaffian.forms import _jacobian
from pfaffian.integrability import (
    CLASS_EXACT,
    CLASS_INCONCLUSIVE,
    CLASS_LOCALLY_INTEGRABLE,
    CLASS_NON_INTEGRABLE,
    clairaut_component,
    classify,
    curl_triple_product,
    exactness_defect,
    invariance_check,
    sample_points,
)
from pfaffian.integrability import (
    _better,
    _SampleScan,
    _scale_factors,
    _scan_samples,
)

BOX3 = Box((-1, -1, -1), (1, 1, 1))


@pytest.fixture(scope="module")
def contact():
    return make_form(["x", "y", "z"], ["-y", "0", "1"], BOX3)


def test_defect_zero_for_exact(rng):
    f = make_form(["x", "y"], ["y", "x"], Box((-2, -2), (2, 2)))
    for p in rng.uniform(-2, 2, size=(10, 2)):
        assert exactness_defect(f, 0, 1, p) == pytest.approx(0.0, abs=1e-14)


def test_defect_contact_value(contact, rng):
    for p in rng.uniform(-1, 1, size=(10, 3)):
        assert exactness_defect(contact, 0, 1, p) == pytest.approx(1.0)


def test_defect_antisymmetry(contact, rng):
    for p in rng.uniform(-1, 1, size=(10, 3)):
        assert exactness_defect(contact, 0, 1, p) == pytest.approx(
            -exactness_defect(contact, 1, 0, p)
        )


def test_tensor_contact_constant_one(contact, rng):
    for p in rng.uniform(-1, 1, size=(20, 3)):
        assert clairaut_component(contact, 0, 1, 2, p) == pytest.approx(
            1.0, abs=1e-12
        )


def test_tensor_zero_for_exact(rng):
    psi = ex.parse_expression("x1+x2+x3", ["x1", "x2", "x3"])
    f = gradient_form(psi, 3, BOX3)
    for p in rng.uniform(-1, 1, size=(10, 3)):
        assert clairaut_component(f, 0, 1, 2, p) == pytest.approx(0.0, abs=1e-12)


def test_tensor_zero_for_scaled_exact(rng):
    f = make_form(
        ["x", "y", "z"],
        ["exp(z)*y", "exp(z)*x", "exp(z)"],
        Box((-0.5,) * 3, (0.5,) * 3),
    )
    for p in rng.uniform(-0.5, 0.5, size=(20, 3)):
        assert clairaut_component(f, 0, 1, 2, p) == pytest.approx(0.0, abs=1e-12)


def test_tensor_total_antisymmetry(rng):
    for _ in range(10):
        n = int(rng.integers(3, 6))
        psi = random_polynomial(rng, n, degree=3)
        # perturb one coefficient to break exactness
        coeffs = [_ref_simplify(ex.differentiate(psi, i)) for i in range(n)]
        coeffs[0] = ex.add(coeffs[0], ex.mul(ex.variable(1), ex.variable(1)))
        from pfaffian.forms import form_from_expressions

        f = form_from_expressions(
            tuple(f"x{i}" for i in range(n)), coeffs, unit_box(n)
        )
        p = rng.uniform(-1, 1, size=n)
        i, j, k = rng.choice(n, size=3, replace=False)
        base = clairaut_component(f, int(i), int(j), int(k), p)
        for perm, sign in [
            ((i, k, j), -1),
            ((j, i, k), -1),
            ((k, j, i), -1),
            ((j, k, i), 1),
            ((k, i, j), 1),
        ]:
            value = clairaut_component(f, int(perm[0]), int(perm[1]),
                                       int(perm[2]), p)
            assert value == pytest.approx(sign * base, abs=1e-12)


def test_curl_matches_tensor(contact, rng):
    for p in rng.uniform(-1, 1, size=(50, 3)):
        assert abs(
            curl_triple_product(contact, p) - clairaut_component(contact, 0, 1, 2, p)
        ) <= 1e-12


def test_curl_matches_tensor_across_catalog(rng):
    # the two independent routes agree at 1000 points over the 3-variable entries
    from pfaffian.catalog import catalog

    forms = [e.form for e in catalog() if e.form.n == 3]
    per_form = 1000 // len(forms) + 1
    for f in forms:
        lows = np.asarray(f.domain.lows)
        highs = np.asarray(f.domain.highs)
        for p in lows + rng.random((per_form, 3)) * (highs - lows):
            a = curl_triple_product(f, p)
            b = clairaut_component(f, 0, 1, 2, p)
            assert abs(a - b) <= 1e-12


def test_curl_requires_three_variables():
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    with pytest.raises(Exception):
        curl_triple_product(f, (0.5, 0.5))


def test_curl_zero_for_exact(rng):
    f = make_form(["x", "y", "z"], ["y", "x", "0"], BOX3)
    for p in rng.uniform(-1, 1, size=(10, 3)):
        assert curl_triple_product(f, p) == pytest.approx(0.0, abs=1e-13)


# --- classification -----------------------------------------------------------


def test_classify_exact_two_var():
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    v = classify(f)
    assert v.classification == CLASS_EXACT
    assert v.witness_value <= v.tolerance


def test_classify_two_var_never_non_integrable():
    f = make_form(["x", "y"], ["0", "x"], Box((0.5, -1), (1.5, 1)))
    v = classify(f)
    assert v.classification == CLASS_LOCALLY_INTEGRABLE
    assert v.witness_value <= v.tolerance


def test_classify_contact(contact):
    v = classify(contact)
    assert v.classification == CLASS_NON_INTEGRABLE
    assert v.witness_value == pytest.approx(1.0, rel=1e-9)
    assert v.witness_value > v.tolerance
    assert v.witness_triple == (0, 1, 2)


def test_classify_one_variable():
    f = make_form(["x"], ["1+x^2"], Box((-1,), (1,)))
    assert classify(f).classification == CLASS_EXACT


def test_classify_exact_many_vars(rng):
    psi = random_polynomial(rng, 4, degree=3)
    f = gradient_form(psi, 4, unit_box(4))
    v = classify(f)
    assert v.classification == CLASS_EXACT


def test_report_keys_exact_shape(contact):
    report = classify(contact).as_report()
    assert set(report) == {
        "class", "tolerance", "samples_used", "witness", "per_triple_max"
    }
    assert set(report["witness"]) == {"point", "triple", "value"}
    json.dumps(report)  # must be plain JSON data


def test_singular_samples_excluded_from_witness():
    # y dx + x dy is singular only at the origin; classification is unaffected
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    v = classify(f)
    assert v.classification == CLASS_EXACT
    assert v.samples_used > 0


# --- necessity property batteries (small here, full size in acceptance) --------


def test_exact_forms_annul_tensor(rng):
    for _ in range(20):
        n = int(rng.integers(3, 6))
        psi = random_polynomial(rng, n, degree=3)
        f = gradient_form(psi, n, unit_box(n))
        pts = rng.uniform(-1, 1, size=(16, n))
        fns = [ex.compile_scalar(c, n) for c in f.coefficients]
        worst = 0.0
        for p in pts:
            fvals = [fn(*p) for fn in fns]
            scale = 1.0 / max(1.0, max(abs(v) for v in fvals)) ** 2
            for i, j, k in itertools.combinations(range(n), 3):
                worst = max(worst, abs(clairaut_component(f, i, j, k, p)) * scale)
        assert worst <= 1e-9


def test_scaled_exact_forms_annul_tensor(rng):
    for _ in range(10):
        n = int(rng.integers(3, 6))
        psi = random_polynomial(rng, n, degree=3)
        mu = ex.func("exp", random_polynomial(rng, n, degree=2, coeff_range=1.0))
        f = gradient_form(psi, n, unit_box(n), mu=mu)
        pts = rng.uniform(-1, 1, size=(16, n))
        fns = [ex.compile_scalar(c, n) for c in f.coefficients]
        worst = 0.0
        for p in pts:
            fvals = [fn(*p) for fn in fns]
            scale = 1.0 / max(1.0, max(abs(v) for v in fvals)) ** 2
            for i, j, k in itertools.combinations(range(n), 3):
                worst = max(worst, abs(clairaut_component(f, i, j, k, p)) * scale)
        assert worst <= 1e-9


# --- invariance under change of variables --------------------------------------


def test_invariance_exact_form_linear():
    psi = ex.parse_expression("x+y+z", ["x", "y", "z"])
    f = gradient_form(psi, 3, BOX3)
    s = random_linear_substitution(f, seed=7)
    report = invariance_check(f, s)
    assert report.nullity_preserved
    assert report.max_original <= 1e-9
    assert report.max_pullback <= 1e-9


def test_invariance_contact_linear_stretch(contact):
    s = make_substitution(
        ["u", "v", "w"], ["2*u", "v", "w"], (0, 0, 0),
        Box((-0.45, -0.9, -0.9), (0.45, 0.9, 0.9)),
    )
    report = invariance_check(contact, s)
    assert report.nullity_preserved
    assert report.max_original > report.tolerance
    assert report.max_pullback > report.tolerance


def test_invariance_integrable_nonlinear():
    f = make_form(
        ["x", "y", "z"],
        ["exp(z)*y", "exp(z)*x", "exp(z)"],
        Box((-0.5,) * 3, (0.5,) * 3),
    )
    s = mild_nonlinear_substitution(f)
    report = invariance_check(f, s)
    assert report.nullity_preserved
    assert report.max_pullback <= report.tolerance


def test_verdict_invariants_hold(contact):
    f2 = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    for form in (contact, f2):
        v = classify(form)
        if v.classification == CLASS_NON_INTEGRABLE:
            assert v.witness_value > v.tolerance
        if v.classification in (CLASS_EXACT, CLASS_LOCALLY_INTEGRABLE):
            assert v.witness_value <= v.tolerance


def test_sample_plan_is_deterministic(contact):
    a = sample_points(contact, 32)
    b = sample_points(contact, 32)
    assert a == b


def test_sample_points_are_python_floats(contact):
    # the compiled evaluators raise at a pole on Python floats; numpy
    # scalars would divide to inf with a RuntimeWarning
    gas = make_form(["T", "V"], ["1.5", "T/V"], Box((1, 1), (2, 2)))
    for form in (contact, gas):
        points = sample_points(form, 32)
        assert len(points) == 1 + 2 ** form.n + 32
        assert all(type(v) is float for p in points for v in p)


def test_inconclusive_report_writes_absent_witness_as_null():
    # dF_2/dx = 300*x^299 overflows at every sample: nothing is usable
    f = make_form(["x", "y"], ["1", "x^300"], Box((10.55, 0), (10.64, 1)))
    v = classify(f)
    assert v.classification == CLASS_INCONCLUSIVE
    report = v.as_report()
    assert set(report) == {
        "class", "tolerance", "samples_used", "witness", "per_triple_max"
    }
    assert report["witness"] == {"point": None, "triple": None, "value": None}
    json.dumps(report, allow_nan=False)


def test_points_whose_curls_overflow_after_the_rescale_count_as_failed():
    # max|F_i| <= 1, so the rescale by it cannot bring the curls of partials
    # near 1e308 back below the overflow; the other points still decide
    f = make_form(["x", "y", "z"], ["sin(1e308*y)", "sin(-1e308*x)", "1"], BOX3)
    v = classify(f)
    assert v.classification == CLASS_NON_INTEGRABLE
    assert 0 < v.samples_used < len(sample_points(f))
    json.dumps(v.as_report(), allow_nan=False)


def test_rescaled_tensors_of_several_triples_match_the_unscaled_form():
    # |R_ijk| near 1e400 overflows at every point; each triple's scaled value
    # is computed again from the jet scaled by 1/max|F_i|, which gives the
    # scaled values of the same form without the factor 1e200
    names = ["w", "x", "y", "z"]
    texts = ["1 + y", "z*w", "2 + x", "x - w"]
    box = Box((-1,) * 4, (1,) * 4)
    small_form = make_form(names, texts, box)
    small = classify(small_form)
    big = classify(make_form(names, [f"1e200*({t})" for t in texts], box))
    assert big.classification == small.classification == CLASS_NON_INTEGRABLE
    assert big.samples_used == small.samples_used == len(sample_points(small_form))
    assert big.witness_triple == small.witness_triple
    assert big.witness_value == pytest.approx(small.witness_value, rel=1e-12)
    assert [t.triple for t in big.per_triple_max] == list(
        itertools.combinations(range(4), 3))
    for b, s in zip(big.per_triple_max, small.per_triple_max):
        assert b.value == pytest.approx(s.value, rel=1e-12)


# --- sample scan against the per-entry reference loop ---------------------------


def _finite(v):
    return -float("inf") < v < float("inf") and v == v


def _ref_scan_samples(form, points, singular_tol):
    """The scan evaluating each coefficient and off-diagonal partial separately.

    ``dvals[i][j]`` is dF_i/dx_j; the diagonal partials are not evaluated.
    """
    n = form.n
    fns = [ex.compile_scalar(c, n) for c in form.coefficients]
    dfs = {(i, j): ex.compile_scalar(d, n)
           for i, row in enumerate(_jacobian(form.coefficients, n))
           for j, d in enumerate(row) if j != i}
    scan = _SampleScan()
    triples = list(itertools.combinations(range(n), 3))
    for t in triples:
        scan.per_triple[t] = (0.0, None)
    for p in points:
        try:
            fvals = [fn(*p) for fn in fns]
            dvals = [[None] * n for _ in range(n)]
            for (i, j), d in dfs.items():
                dvals[i][j] = d(*p)
        except (ValueError, ZeroDivisionError, OverflowError):
            scan.failed += 1
            continue
        if not all(_finite(v) for v in fvals) or not all(
            _finite(v) for row in dvals for v in row if v is not None
        ):
            scan.failed += 1
            continue
        if max(abs(v) for v in fvals) <= singular_tol:
            scan.singular += 1
            continue
        scan.used += 1
        lin, quad = _scale_factors(max(abs(v) for v in fvals))
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(dvals[j][i] - dvals[i][j]) * lin
                if scan.defect_point is None or _better(
                    d, p, scan.defect_max, scan.defect_point
                ):
                    scan.defect_max, scan.defect_point = d, tuple(p)
                    scan.defect_pair = (i, j)
        for (i, j, k) in triples:
            r = (
                fvals[i] * (dvals[k][j] - dvals[j][k])
                + fvals[j] * (dvals[i][k] - dvals[k][i])
                + fvals[k] * (dvals[j][i] - dvals[i][j])
            )
            r = abs(r) * quad
            prev_val, prev_pt = scan.per_triple[(i, j, k)]
            if prev_pt is None or _better(r, p, prev_val, prev_pt):
                scan.per_triple[(i, j, k)] = (r, tuple(p))
            if scan.tensor_point is None or _better(
                r, p, scan.tensor_max, scan.tensor_point
            ):
                scan.tensor_max, scan.tensor_point = r, tuple(p)
                scan.tensor_triple = (i, j, k)
    if scan.tensor_point is None:
        scan.tensor_max = 0.0
    return scan


_SCAN_FORMS = (
    (("x", "y"), ("1/x", "1"), (-1, -1), (1, 1)),  # pole through the center
    (("x", "y"), ("y", "x"), (-1, -1), (1, 1)),  # singular at the center
    (("x", "y", "z"), ("log(x)", "sqrt(y)", "z*x"), (-1, -1, -1), (1, 1, 1)),
    (("x", "y", "z"), ("y*z", "-x*z/(y - 0.25)", "x^2"), (-1, -1, -1), (1, 1, 1)),
    (("x", "y", "z", "w"), ("exp(60*x)*y", "-w", "x*y*z", "log(1.5 + z)/w"),
     (-1, -1, -1, -1), (1, 1, 1, 1)),
    (("x", "y"), ("1", "x^300"), (10.55, 0), (10.64, 1)),  # overflows everywhere
    (("x", "y", "z"), ("-y", "0", "1"), (-1, -1, -1), (1, 1, 1)),
)


def test_one_variable_report_keeps_zero_witness_value():
    v = classify(make_form(["x"], ["1 + x^2"], Box((-1,), (1,))))
    assert v.as_report()["witness"] == {"point": None, "triple": None,
                                        "value": 0.0}


def test_scan_matches_per_entry_reference(rng, monkeypatch):
    forms = [
        PfaffianForm(names, tuple(ex.parse_expression(t, names) for t in texts),
                     Box(lows, highs))
        for names, texts, lows, highs in _SCAN_FORMS
    ]
    for _ in range(10):
        n = int(rng.integers(3, 6))
        forms.append(gradient_form(random_polynomial(rng, n), n, unit_box(n)))
    contact = forms[len(_SCAN_FORMS) - 1]
    forms.append(pullback(contact, random_linear_substitution(contact, seed=3)))
    outcomes = set()
    with np.errstate(all="ignore"):  # numpy scalars divide by zero quietly
        for form in forms:
            points = sample_points(form, 48)
            points += [tuple(float(v) for v in p) for p in form.domain.samples(8)]
            for singular_tol in (1e-12, 0.5):
                monkeypatch.setattr(pfaffian_forms, "DEFAULT_SINGULAR_TOL",
                                    singular_tol)
                got = _scan_samples(form, points)
                expected = _ref_scan_samples(form, points, singular_tol)
                assert got == expected
                assert repr(got) == repr(expected)
                assert got.used + got.singular + got.failed == len(points)
                outcomes.update(k for k in ("used", "singular", "failed")
                                if getattr(got, k))
    assert outcomes == {"used", "singular", "failed"}


# --- pointwise helpers against per-entry evaluators -----------------------------


def _per_entry(form):
    fns = [ex.compile_scalar(c, form.n) for c in form.coefficients]
    dfs = [[ex.compile_scalar(d, form.n) for d in row]
           for row in _jacobian(form.coefficients, form.n)]
    return fns, dfs


def test_pointwise_helpers_match_per_entry_reference():
    from pfaffian.catalog import catalog

    checked = 0
    for e in catalog():
        form = e.form
        fns, dfs = _per_entry(form)
        for p in sample_points(form):
            try:
                form.jet_fn(*p)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            for i, j in itertools.permutations(range(form.n), 2):
                ref = dfs[j][i](*p) - dfs[i][j](*p)
                assert repr(exactness_defect(form, i, j, p)) == repr(ref)
            for i, j, k in itertools.permutations(range(form.n), 3):
                fi, fj, fk = fns[i](*p), fns[j](*p), fns[k](*p)
                ref = (
                    fi * (dfs[k][j](*p) - dfs[j][k](*p))
                    + fj * (dfs[i][k](*p) - dfs[k][i](*p))
                    + fk * (dfs[j][i](*p) - dfs[i][j](*p))
                )
                assert repr(clairaut_component(form, i, j, k, p)) == repr(ref)
                checked += 1
    assert checked > 0


def test_pointwise_helpers_evaluate_all_entries_jointly():
    # only F_1 = 1/x is undefined at x = 0; the defect of the (y, z) pair
    # reads none of its entries, yet raises with F and dF evaluated together
    f = make_form(["x", "y", "z"], ["1/x", "z", "y"], BOX3)
    p = (0.0, 0.5, 0.5)
    fns, dfs = _per_entry(f)
    assert dfs[2][1](*p) - dfs[1][2](*p) == 0.0
    with pytest.raises(ZeroDivisionError):
        fns[0](*p)
    with pytest.raises(ZeroDivisionError):
        exactness_defect(f, 1, 2, p)
    with pytest.raises(ZeroDivisionError):
        clairaut_component(f, 0, 1, 2, p)
    with pytest.raises(ZeroDivisionError):
        curl_triple_product(f, p)


_CONTACT_POINT = (0.1, 0.2, 0.3)


def test_pointwise_helpers_reject_indices_out_of_range(contact):
    # -1 must not read the last jet entry as if it were F_3
    assert clairaut_component(contact, 2, 0, 1, _CONTACT_POINT) == 1.0
    for i, j, k in [(-1, 0, 1), (3, 0, 1), (0, 1, 3), (0, -3, 1)]:
        with pytest.raises(ArityError):
            clairaut_component(contact, i, j, k, _CONTACT_POINT)
    for i, j in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
        with pytest.raises(ArityError):
            exactness_defect(contact, i, j, _CONTACT_POINT)


@pytest.mark.parametrize("p", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), ()])
def test_pointwise_helpers_reject_points_of_the_wrong_length(contact, p):
    with pytest.raises(ArityError):
        exactness_defect(contact, 0, 1, p)
    with pytest.raises(ArityError):
        clairaut_component(contact, 0, 1, 2, p)
    with pytest.raises(ArityError):
        curl_triple_product(contact, p)


def test_diagonal_partials_are_not_evaluated():
    # d sqrt(x^2)/dx = x/sqrt(x^2) divides by zero on the plane x = 0, which
    # holds the center and one Halton point of the plan.  It is the diagonal
    # partial dF_1/dx_1, which no defect or tensor component reads, so all 73
    # points are usable samples (71 while the jet held the diagonal).
    f = make_form(["x", "y", "z"], ["1 + sqrt(x^2)", "z", "y"], BOX3,
                  needs_jet=True)
    assert f.jet_fn(0.0, 0.5, 0.5) == (1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    v = classify(f)
    assert (v.classification, v.samples_used) == (CLASS_EXACT, 73)
