"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 6, 7 and 9 share cached probe reports so the determinism
comparison re-runs the probes exactly once.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import entropy, gradient_form, random_polynomial, unit_box
from pfaffian import expressions as ex
from pfaffian.catalog import catalog, entry
from pfaffian.errors import AnalysisError
from pfaffian.factor import (
    SurfaceField,
    build_potential_2var,
    global_factorization,
    solve_characteristic,
    staircase_defect,
)
from pfaffian.forms import (
    mild_nonlinear_substitution,
    random_linear_substitution,
)
from pfaffian.integrability import (
    CLASS_NON_INTEGRABLE,
    clairaut_component,
    classify,
    curl_triple_product,
    invariance_check,
)
from pfaffian.reach import estimate_dimension, explore, surrounding_line_scan
from pfaffian.reports import json_text

_cache = {}


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _tensor_max_normalized(form, points):
    worst = 0.0
    fns = [ex.compile_scalar(c, form.n) for c in form.coefficients]
    for p in points:
        fvals = [fn(*p) for fn in fns]
        scale = 1.0 / max(1.0, max(abs(v) for v in fvals)) ** 2
        for i, j, k in itertools.combinations(range(form.n), 3):
            worst = max(worst, abs(clairaut_component(form, i, j, k, p)) * scale)
    return worst


def test_criterion_1_exact_forms_annul_tensor():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        psi = random_polynomial(rng, n, degree=3, coeff_range=2.0)
        form = gradient_form(psi, n, unit_box(n))
        worst = max(worst, _tensor_max_normalized(form, form.domain.samples(64)))
    elapsed = time.monotonic() - t0
    _line(1, worst <= 1e-9 and elapsed <= 30.0,
          f"200 exact forms, max normalized tensor {worst:.3e} "
          f"(bound 1e-9), {elapsed:.1f}s (bound 30s)")


def test_criterion_2_scaled_exact_forms_annul_tensor():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        psi = random_polynomial(rng, n, degree=3, coeff_range=2.0)
        mu = ex.func("exp", random_polynomial(rng, n, degree=2, coeff_range=1.0))
        form = gradient_form(psi, n, unit_box(n), mu=mu)
        worst = max(worst, _tensor_max_normalized(form, form.domain.samples(64)))
    _line(2, worst <= 1e-9,
          f"100 scaled-exact forms, max normalized tensor {worst:.3e} (bound 1e-9)")


def test_criterion_3_contact_witness():
    rng = np.random.default_rng(303)
    contact = entry("contact").form
    pts = rng.uniform(-1, 1, size=(1000, 3))
    tensor_dev = max(abs(clairaut_component(contact, 0, 1, 2, p) - 1.0) for p in pts)
    curl_dev = max(
        abs(curl_triple_product(contact, p) - clairaut_component(contact, 0, 1, 2, p))
        for p in pts
    )
    verdict = classify(contact)
    ok = (
        tensor_dev <= 1e-12
        and curl_dev <= 1e-12
        and verdict.classification == CLASS_NON_INTEGRABLE
    )
    _line(3, ok,
          f"tensor deviation from 1 is {tensor_dev:.2e}, curl agreement "
          f"{curl_dev:.2e} (bounds 1e-12), class {verdict.classification}")


def test_criterion_4_two_variable_construction():
    gas = entry("ideal_gas_heat").form
    result = build_potential_2var(gas, grid_per_axis=17)
    rng = np.random.default_rng(404)
    pairs = 0
    level_dev = 0.0
    entropy_dev = 0.0
    while pairs < 100:
        p = tuple(rng.uniform(1.05, 1.95, size=2))
        try:
            psi_p = result.psi(p)
        except AnalysisError:
            continue
        points = []
        solve_characteristic(gas, p, 1, None, 1e-11, 1e-13, points)
        if len(points) < 5:
            continue
        q = tuple(points[len(points) // 2])
        try:
            psi_q = result.psi(q)
        except AnalysisError:
            continue
        if abs(psi_p - psi_q) > 1e-6:
            continue
        level_dev = max(level_dev, abs(psi_p - psi_q))
        entropy_dev = max(entropy_dev, abs(entropy(p) - entropy(q)))
        pairs += 1
    ok = entropy_dev <= 1e-5 and result.residual_max <= 1e-5
    _line(4, ok,
          f"100 same-level pairs: entropy deviation {entropy_dev:.2e} "
          f"(bound 1e-5), residual_max {result.residual_max:.2e} (bound 1e-5,"
          f" {result.evaluated_points} grid points, "
          f"{result.skipped_points} skipped)")


def test_criterion_5_global_construction():
    scaled = entry("scaled_exact").form
    base = (0.0, 0.0, 0.0)
    result = global_factorization(scaled, 2, base, grid_per_axis=9)
    field = SurfaceField(scaled, 2, base)
    rng = np.random.default_rng(505)
    paired_dev = 0.0
    pairs = 0
    while pairs < 100:
        p = tuple(rng.uniform(-0.45, 0.45, size=3))
        try:
            s = field.fiber_through(p)
            u_q = tuple(rng.uniform(-0.45, 0.45, size=2))
            zq = field.value(u_q, s)
        except AnalysisError:
            continue
        if abs(zq) > 0.5:
            continue
        q = (*u_q, zq)
        paired_dev = max(
            paired_dev,
            abs((p[0] * p[1] + p[2]) - (q[0] * q[1] + q[2])),
        )
        pairs += 1
    stair_int, _ = staircase_defect(scaled, 2, base)
    contact = entry("contact").form
    stair_contact, _ = staircase_defect(contact, 2, (0.0, 0.0, 0.0))
    ok = (
        result.residual_max <= 1e-5
        and paired_dev <= 1e-5
        and stair_int <= 1e-6
        and stair_contact > 1e-2
    )
    _line(5, ok,
          f"residual_max {result.residual_max:.2e} (bound 1e-5), paired-level "
          f"deviation {paired_dev:.2e} (bound 1e-5), staircase {stair_int:.2e} "
          f"(bound 1e-6) vs contact {stair_contact:.2e} (must exceed 1e-2)")


def _probe_catalog(seed=42, epsilon=0.3, budget=200000, threshold=0.05):
    reports = {}
    outcome = {}
    for e in catalog():
        sample = explore(e.form, e.box.center, epsilon, budget, seed)
        psi_fn = e.psi0_fn()
        verdict = estimate_dimension(sample, threshold, psi_reference=psi_fn)
        reports[e.name] = json_text({
            "sample": {**sample.as_report(),
                       "endpoints": [list(p) for p in sample.endpoints],
                       "step_counts": list(sample.step_counts)},
            "verdict": verdict.as_report(),
        })
        outcome[e.name] = verdict
    return reports, outcome


def _scan_cases(epsilon=0.3, budget=200000):
    cases = {
        "rolling_cylinder": ("x", None),
        "contact": ("z", None),
    }
    reports = {}
    fractions = {}
    for name, (var, _) in cases.items():
        e = entry(name)
        idx = e.var_names.index(var)
        scan = surrounding_line_scan(e.form, e.box.center, idx, epsilon, budget)
        reports[name] = json_text(scan.as_report())
        fractions[name] = scan.fraction_reached
    return reports, fractions


def test_criterion_6_probe_matches_classification():
    t0 = time.monotonic()
    reports, outcome = _probe_catalog()
    elapsed = time.monotonic() - t0
    _cache["probe_reports"] = reports
    mismatches = []
    thickness_worst = 0.0
    for e in catalog():
        verdict = classify(e.form)
        kind = outcome[e.name].kind
        expected = (
            "full_dimensional"
            if verdict.classification == CLASS_NON_INTEGRABLE
            else "codimension_one_like"
        )
        if kind != expected:
            mismatches.append(f"{e.name}: {kind} != {expected}")
        if e.psi0_text is not None and verdict.classification != CLASS_NON_INTEGRABLE:
            thickness_worst = max(thickness_worst, outcome[e.name].thickness)
    ok = not mismatches and thickness_worst <= 1e-5 and elapsed <= 120.0
    _line(6, ok,
          f"verdict/probe agreement on {len(outcome)} entries "
          f"{'(mismatches: ' + '; '.join(mismatches) + ')' if mismatches else ''}"
          f"thickness {thickness_worst:.2e} (bound 1e-5), "
          f"{elapsed:.0f}s (bound 120s)")


def test_criterion_7_surrounding_line_scan():
    reports, fractions = _scan_cases()
    _cache["scan_reports"] = reports
    ok = (
        fractions["rolling_cylinder"] <= 1 / 32
        and fractions["contact"] >= 31 / 32
    )
    _line(7, ok,
          f"rolling fraction {fractions['rolling_cylinder']:.4f} (bound 1/32), "
          f"contact fraction {fractions['contact']:.4f} (bound 31/32)")


def test_criterion_8_nullity_invariance():
    failures = []
    for seed in range(50):
        e = catalog()[seed % len(catalog())]
        sub = random_linear_substitution(e.form, seed)
        report = invariance_check(e.form, sub)
        if not report.nullity_preserved:
            failures.append(f"linear #{seed} on {e.name}")
    for k in range(10):
        e = catalog()[k % len(catalog())]
        sub = mild_nonlinear_substitution(e.form)
        report = invariance_check(e.form, sub)
        if not report.nullity_preserved:
            failures.append(f"nonlinear #{k} on {e.name}")
    _line(8, not failures,
          "nullity preserved for 50 linear + 10 nonlinear substitutions"
          + ("" if not failures else f" (failures: {'; '.join(failures)})"))


def test_criterion_9_probe_determinism():
    if "probe_reports" not in _cache or "scan_reports" not in _cache:
        pytest.fail("criteria 6 and 7 must run before the determinism check")
    probe_again, _ = _probe_catalog()
    scan_again, _ = _scan_cases()
    same_probe = probe_again == _cache["probe_reports"]
    same_scan = scan_again == _cache["scan_reports"]
    _line(9, same_probe and same_scan,
          f"probe reports byte-identical: {same_probe}, "
          f"scan reports byte-identical: {same_scan}")
