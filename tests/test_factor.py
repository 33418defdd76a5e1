import math

import numpy as np
import pytest

from conftest import entropy
from pfaffian import expressions as ex
from pfaffian import ode
from pfaffian.catalog import entry
from pfaffian.errors import AnalysisError
from pfaffian.factor import (
    METHOD_GLOBAL,
    METHOD_TWO_VAR,
    CharacteristicKernels,
    FactorizationResult,
    SurfaceField,
    TransversalSpec,
    _trace_characteristic,
    auto_transversal,
    build_potential_2var,
    global_factorization,
    solve_characteristic,
    staircase_defect,
    verify_factorization,
)
from pfaffian.forms import Box, make_form

IDEAL_GAS = make_form(["T", "V"], ["1.5", "T/V"], Box((1, 1), (2, 2)))
SCALED = make_form(
    ["x", "y", "z"],
    ["exp(z)*y", "exp(z)*x", "exp(z)"],
    Box((-0.5,) * 3, (0.5,) * 3),
)
CONTACT = make_form(["x", "y", "z"], ["-y", "0", "1"], Box((-1,) * 3, (1,) * 3))


# --- characteristics -----------------------------------------------------------


def test_characteristic_conserves_product():
    f = make_form(["x", "y"], ["y", "x"], Box((0.5, 0.5), (2, 2)))
    curve = solve_characteristic(f, (1.0, 1.0), 1)
    assert len(curve.points) > 3
    dev = max(abs(p[0] * p[1] - 1.0) for p in curve.points)
    assert dev <= 1e-8
    assert np.all(np.diff(curve.params) > 0)


def test_characteristic_vertical_field():
    # F = (1, 0): the annihilating curves are the lines x = const
    f = make_form(["x", "y"], ["1", "0"], Box((-1, -1), (1, 1)))
    curve = solve_characteristic(f, (0.25, 0.0), 1)
    assert curve.status == "boundary"
    assert max(abs(p[0] - 0.25) for p in curve.points) <= 1e-10
    assert abs(abs(curve.points[-1][1]) - 1.0) <= 1e-9


def test_characteristic_zero_length_on_transversal():
    tv = TransversalSpec(fixed_axis=0, value=1.5)
    curve = solve_characteristic(IDEAL_GAS, (1.5, 1.25), 1, transversal=tv)
    assert curve.status == "transversal"
    assert curve.label == 1.25
    assert len(curve.points) == 1


def test_characteristic_line_integral_small():
    # discrete pairing of the form with each step stays at integrator scale
    f = make_form(["x", "y"], ["y", "x"], Box((0.5, 0.5), (2, 2)))
    curve = solve_characteristic(f, (1.0, 1.2), -1, rtol=1e-9, atol=1e-12)
    fns = [ex.compile_scalar(c, f.n) for c in f.coefficients]
    worst = 0.0
    for p, q in zip(curve.points, curve.points[1:]):
        fa = np.array([fn(*p) for fn in fns])
        fb = np.array([fn(*q) for fn in fns])
        step = np.asarray(q) - np.asarray(p)
        pairing = abs(float((fa + fb) / 2 @ step))
        worst = max(worst, pairing)
    assert worst <= 1e-7  # 10x the integrator tolerance at unit scale


def test_characteristic_singular_truncation():
    # y dx + x dy with a characteristic running into the singular origin
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    curve = solve_characteristic(f, (0.5, 0.0), 1)
    assert curve.status in ("boundary", "singular")


def test_auto_transversal_picks_good_axis():
    tv = auto_transversal(IDEAL_GAS)
    assert tv.fixed_axis in (0, 1)
    assert 1.0 < tv.value < 2.0


def test_closed_characteristics_need_bounded_transversal():
    # circular foliation: a full-width transversal is crossed twice and the
    # residual exposes it; a half segment restores a clean factorization
    f = make_form(["x", "y"], ["x-1.5", "y-1.5"], Box((1, 1), (2, 2)))
    half = build_potential_2var(
        f, transversal=TransversalSpec(0, 1.5, span=(1.5, 2.0)), grid_per_axis=7
    )
    assert half.residual_max <= 1e-5
    assert half.psi((1.7, 1.5)) == pytest.approx(1.7, abs=1e-8)
    full = build_potential_2var(
        f, transversal=TransversalSpec(0, 1.5), grid_per_axis=7
    )
    assert full.residual_max > 1e-2


# --- two-variable construction ---------------------------------------------------


@pytest.fixture(scope="module")
def gas_result():
    return build_potential_2var(IDEAL_GAS, grid_per_axis=11)


def test_gas_potential_levels_match_entropy(gas_result, rng):
    pairs = 0
    while pairs < 40:
        p = tuple(rng.uniform(1.25, 1.95, size=2))
        try:
            psi_p = gas_result.psi(p)
        except AnalysisError:
            continue
        curve = solve_characteristic(IDEAL_GAS, p, 1, rtol=1e-11, atol=1e-13)
        if len(curve.points) < 5:
            continue
        q = tuple(curve.points[len(curve.points) // 2])
        try:
            psi_q = gas_result.psi(q)
        except AnalysisError:
            continue
        if abs(psi_p - psi_q) <= 1e-6:
            assert abs(entropy(p) - entropy(q)) <= 1e-5
            pairs += 1


def test_gas_residual(gas_result):
    assert gas_result.method == METHOD_TWO_VAR
    assert gas_result.evaluated_points > 40
    assert gas_result.residual_max <= 1e-5


def test_gas_mu_proportional_to_temperature(gas_result):
    # along one level, mu/T is constant
    p = (1.5, 1.5)
    psi0 = gas_result.psi(p)
    curve = solve_characteristic(IDEAL_GAS, p, 1, rtol=1e-11, atol=1e-13)
    q = tuple(curve.points[len(curve.points) // 2])
    assert abs(gas_result.psi(q) - psi0) <= 1e-8
    ratio_p = gas_result.mu(p) / p[0]
    ratio_q = gas_result.mu(q) / q[0]
    assert ratio_p == pytest.approx(ratio_q, rel=1e-4)


def test_exact_input_relabeled_monotonically():
    f = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    res = build_potential_2var(f, grid_per_axis=9)
    assert res.residual_max <= 1e-7
    # psi must be a monotone relabeling of x+y
    levels = []
    for t in np.linspace(-0.5, 0.5, 7):
        levels.append(res.psi((t, 0.0)))
    assert all(b > a for a, b in zip(levels, levels[1:]))


def test_ray_form_levels_match_ratio(rng):
    f = make_form(["x", "y"], ["y", "-x"], Box((1, 1), (2, 2)))
    res = build_potential_2var(f, grid_per_axis=9)
    assert res.residual_max <= 1e-5
    for _ in range(10):
        p = tuple(rng.uniform(1.2, 1.8, size=2))
        curve = solve_characteristic(f, p, 1, rtol=1e-11, atol=1e-13)
        q = tuple(curve.points[len(curve.points) // 2])
        if abs(res.psi(p) - res.psi(q)) <= 1e-6:
            assert p[0] / p[1] == pytest.approx(q[0] / q[1], abs=1e-5)


# --- verification --------------------------------------------------------------


def _reference_result(form, psi_text, mu_text):
    names = form.var_names
    psi_fn = ex.compile_scalar(ex.parse_expression(psi_text, names), form.n)
    mu_fn = ex.compile_scalar(ex.parse_expression(mu_text, names), form.n)
    return FactorizationResult(
        psi=lambda p: psi_fn(*p), mu=lambda p: mu_fn(*p), method="reference"
    )


def test_verify_reference_factorization_tight():
    res = _reference_result(SCALED, "x*y+z", "exp(z)")
    samples = SCALED.domain.samples(64, margin=0.05)
    stats = verify_factorization(SCALED, res, samples)
    assert stats.residual_max <= 1e-8
    assert stats.skipped_points == 0


def test_verify_degenerate_candidate_rejected():
    res = FactorizationResult(psi=lambda p: 0.0, mu=lambda p: 1.0,
                              method="degenerate")
    samples = SCALED.domain.samples(32, margin=0.05)
    stats = verify_factorization(SCALED, res, samples)
    assert stats.residual_max > 0.5  # of order max|F| after normalization


def test_verify_gauge_freedom():
    res1 = _reference_result(SCALED, "x*y+z", "exp(z)")
    res2 = FactorizationResult(
        psi=lambda p: 2.0 * res1.psi(p), mu=lambda p: 0.5 * res1.mu(p),
        method="gauge",
    )
    samples = SCALED.domain.samples(32, margin=0.05)
    s1 = verify_factorization(SCALED, res1, samples)
    s2 = verify_factorization(SCALED, res2, samples)
    assert s1.residual_max == pytest.approx(s2.residual_max, rel=1e-6, abs=1e-12)


# --- global construction ---------------------------------------------------------


@pytest.fixture(scope="module")
def scaled_global():
    return global_factorization(SCALED, 2, (0.0, 0.0, 0.0), grid_per_axis=7)


def test_global_residual_and_flags(scaled_global):
    assert scaled_global.method == METHOD_GLOBAL
    assert scaled_global.residual_max <= 1e-5
    assert scaled_global.flags["monotone_violations"] == 0


def test_global_psi_matches_reference_levels(scaled_global, rng):
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    for _ in range(20):
        p = tuple(rng.uniform(-0.4, 0.4, size=3))
        s = field.fiber_through(p)
        u_q = tuple(rng.uniform(-0.4, 0.4, size=2))
        q = (*u_q, field.value(u_q, s))
        if abs(q[2]) <= 0.5:
            psi0_p = p[0] * p[1] + p[2]
            psi0_q = q[0] * q[1] + q[2]
            assert abs(psi0_p - psi0_q) <= 1e-5


def test_global_exact_input_unit_mu():
    f = make_form(["x", "y", "z"], ["1", "1", "1"], Box((-1,) * 3, (1,) * 3))
    res = global_factorization(f, 2, (0, 0, 0), grid_per_axis=5)
    assert res.residual_max <= 1e-7
    assert res.mu((0.2, 0.1, -0.3)) == pytest.approx(1.0, abs=1e-7)


def test_global_rejects_non_integrable():
    with pytest.raises(AnalysisError):
        global_factorization(CONTACT, 2, (0, 0, 0))


def test_fiber_rootfind_agrees_with_back_integration(rng):
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    for _ in range(10):
        p = tuple(rng.uniform(-0.35, 0.35, size=3))
        a = field.fiber_through(p)
        b = field.fiber_by_rootfind(p)
        assert a == pytest.approx(b, abs=1e-9)


def test_fiber_through_memoizes_successes_only(monkeypatch):
    import pfaffian.factor as factor

    solves = []
    original = factor._integrate_unit

    def counting(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(factor, "_integrate_unit", counting)
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    p = (0.2, -0.1, 0.05)
    s = field.fiber_through(p)
    assert field.fiber_through(p) == s
    assert len(solves) == 1
    # on dz = -dx the surface through (0.9, 0, 0.9) would meet the base fiber
    # at z = 1.8, outside the box; failures are solved again on every call
    f = make_form(["x", "y", "z"], ["1", "0", "1"], Box((-1,) * 3, (1,) * 3))
    field = SurfaceField(f, 2, (0.0, 0.0, 0.0))
    solves.clear()
    for _ in range(2):
        with pytest.raises(AnalysisError):
            field.fiber_through((0.9, 0.0, 0.9))
    assert len(solves) == 2


def test_fiber_map_monotone(rng):
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    u = (0.3, -0.2)
    values = [field.value(u, s) for s in np.linspace(-0.4, 0.4, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_staircase_separates_integrable_from_contact():
    worst_int, _ = staircase_defect(SCALED, 2, (0, 0, 0))
    assert worst_int <= 1e-6
    worst_contact, per_target = staircase_defect(CONTACT, 2, (0, 0, 0))
    assert worst_contact > 1e-2
    assert any(t["defect"] is not None and t["defect"] > 1e-2 for t in per_target)


def test_psi_constant_on_explored_null_curves(scaled_global):
    # curves annihilating the form stay on one recovered level
    from pfaffian.reach import explore

    sample = explore(SCALED, (0.0, 0.0, 0.0), 0.25, 4000, 13, keep_curves=True)
    assert sample.curves
    checked = 0
    for curve in sample.curves[:4]:
        pts = curve.points[:: max(1, len(curve.points) // 8)]
        try:
            base_level = scaled_global.psi(tuple(pts[0]))
        except AnalysisError:
            continue
        for p in pts[1:]:
            try:
                level = scaled_global.psi(tuple(p))
            except AnalysisError:
                continue
            assert abs(level - base_level) <= 1e-5
            checked += 1
    assert checked >= 8


# --- gauge covariance of the construction ---------------------------------------


def test_gauge_covariance_of_two_var_construction(rng):
    # rescaling the form by a positive function leaves levels unchanged and
    # multiplies mu pointwise
    base = IDEAL_GAS
    scaled = make_form(
        ["T", "V"], ["(1+0.3*sin(T))*1.5", "(1+0.3*sin(T))*T/V"],
        Box((1, 1), (2, 2)),
    )
    tv = TransversalSpec(1, 1.5)
    res_a = build_potential_2var(base, transversal=tv, grid_per_axis=7)
    res_b = build_potential_2var(scaled, transversal=tv, grid_per_axis=7)
    checked = 0
    for _ in range(30):
        p = tuple(rng.uniform(1.3, 1.9, size=2))
        try:
            la, lb = res_a.psi(p), res_b.psi(p)
            mu_a, mu_b = res_a.mu(p), res_b.mu(p)
        except AnalysisError:
            continue
        # identical labels: both label by the same transversal coordinate
        assert la == pytest.approx(lb, abs=1e-8)
        c = 1 + 0.3 * math.sin(p[0])
        assert mu_b == pytest.approx(c * mu_a, rel=1e-4)
        checked += 1
    assert checked >= 10


def test_mu_from_gradient_evaluates_all_coefficients():
    # mu reads only F_2 for this gradient, but F_1 = 1/x is undefined at
    # x = 0 and the coefficients are evaluated together
    from pfaffian.factor import _mu_from_gradient

    f = make_form(["x", "y"], ["1/x", "1"], Box((-1, -1), (1, 1)))
    assert _mu_from_gradient(f, (0.5, 0.0), (0.0, 2.0)) == (0.5, False)
    with pytest.raises(ZeroDivisionError):
        _mu_from_gradient(f, (0.0, 0.0), (0.0, 2.0))


def test_label_only_trace_matches_solve_characteristic(rng):
    kernels = CharacteristicKernels(IDEAL_GAS)
    for axis in (0, 1):
        tv = TransversalSpec(axis, 1.5)
        for _ in range(10):
            p = tuple(float(v) for v in rng.uniform(1.0, 2.0, size=2))
            for direction in (1, -1):
                curve = solve_characteristic(IDEAL_GAS, p, direction, tv, rtol=1e-11,
                                             atol=1e-13, kernels=kernels)
                trace = _trace_characteristic(IDEAL_GAS, p, direction, tv, 1e-11,
                                              1e-13, kernels=kernels)
                assert trace == (curve.status, curve.label, curve.truncated)


def test_criterion_5_run_attempt_bound(monkeypatch):
    """The global construction of acceptance criterion 5 stays cheap.

    scaled_exact, free z, grid 9: 41,509 Dormand-Prince attempts, where the
    stepper without box exits made 449,296 (four solves crawled along the
    widened bound until the step budget ran out).
    """
    attempts = []
    advance = ode.Dopri5._advance

    def counting(stepper, *args):
        stats = stepper.stats
        before = stats.accepted + stats.rejected
        try:
            return advance(stepper, *args)
        finally:
            attempts.append(stats.accepted + stats.rejected - before)

    monkeypatch.setattr(ode.Dopri5, "_advance", counting)
    result = global_factorization(entry("scaled_exact").form, 2, (0.0, 0.0, 0.0),
                                  grid_per_axis=9)
    assert (result.evaluated_points, result.skipped_points) == (541, 188)
    assert sum(attempts) <= 60000
