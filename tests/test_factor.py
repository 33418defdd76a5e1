import collections
import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    dopri5_start,
    dopri5_step,
    entropy,
    inset_samples,
    secant_bisect_root,
    start_slope,
)
from pfaffian import expressions as ex
from pfaffian import factor, ode, sampling
from pfaffian.catalog import catalog, entry
from pfaffian.errors import AnalysisError
from pfaffian.factor import (
    METHOD_GLOBAL,
    METHOD_TWO_VAR,
    FactorizationResult,
    SurfaceField,
    TransversalSpec,
    _SWAP_HYSTERESIS,
    _step_probe,
    _tangent,
    auto_transversal,
    build_potential_2var,
    global_factorization,
    solve_characteristic,
    staircase_defect,
    verify_factorization,
)
from pfaffian.forms import DEFAULT_SINGULAR_TOL, Box, make_form

IDEAL_GAS = make_form(["T", "V"], ["1.5", "T/V"], Box((1, 1), (2, 2)))
SCALED = make_form(
    ["x", "y", "z"],
    ["exp(z)*y", "exp(z)*x", "exp(z)"],
    Box((-0.5,) * 3, (0.5,) * 3),
)
CONTACT = make_form(["x", "y", "z"], ["-y", "0", "1"], Box((-1,) * 3, (1,) * 3))


# --- characteristics -----------------------------------------------------------


def _curve(form, start, direction, transversal=None, rtol=1e-9, atol=1e-12):
    """The characteristic through ``start``: its status, label and points,
    by default at the tolerances ``foliate`` traces with."""
    points = []
    status, label = solve_characteristic(
        form, start, direction, transversal, rtol, atol, points)
    return SimpleNamespace(status=status, label=label, points=points)


def test_characteristic_conserves_product():
    f = make_form(["x", "y"], ["y", "x"], Box((0.5, 0.5), (2, 2)))
    curve = _curve(f, (1.0, 1.0), 1)
    assert len(curve.points) > 3
    dev = max(abs(p[0] * p[1] - 1.0) for p in curve.points)
    assert dev <= 1e-8
    assert all(p != q for p, q in zip(curve.points, curve.points[1:]))


def test_characteristic_vertical_field():
    # F = (1, 0): the annihilating curves are the lines x = const
    f = make_form(["x", "y"], ["1", "0"], Box((-1, -1), (1, 1)))
    curve = _curve(f, (0.25, 0.0), 1)
    assert curve.status == "boundary"
    assert max(abs(p[0] - 0.25) for p in curve.points) <= 1e-10
    assert abs(abs(curve.points[-1][1]) - 1.0) <= 1e-9


def test_characteristic_zero_length_on_transversal():
    tv = TransversalSpec(fixed_axis=0, value=1.5)
    curve = _curve(IDEAL_GAS, (1.5, 1.25), 1, tv)
    assert curve.status == "transversal"
    assert curve.label == 1.25
    assert len(curve.points) == 1


def test_characteristic_line_integral_small():
    # discrete pairing of the form with each step stays at integrator scale
    f = make_form(["x", "y"], ["y", "x"], Box((0.5, 0.5), (2, 2)))
    curve = _curve(f, (1.0, 1.2), -1, rtol=1e-9, atol=1e-12)
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
    curve = _curve(f, (0.5, 0.0), 1)
    assert curve.status in ("boundary", "singular")


def test_auto_transversal_picks_good_axis():
    tv = auto_transversal(IDEAL_GAS)
    assert tv.fixed_axis in (0, 1)
    assert 1.0 < tv.value < 2.0


def _quantile_cases(rng):
    """Lists of 1 to 200 values: spread, with ties, with inf, with NaN."""
    for n in range(1, 201):
        spread = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        ties = [rng.choice([0.0, 0.25, 1.0, 1e-300, 7.5]) for _ in range(n)]
        yield spread
        yield ties
        yield [abs(v) for v in spread]
        for special in (math.inf, -math.inf, math.nan):
            for base in (spread, ties):
                values = list(base)
                for _ in range(rng.randint(1, max(1, n // 10))):
                    values[rng.randrange(n)] = special
                yield values
        yield [math.inf] * n


def test_quantile_matches_numpy():
    count = 0
    for values in _quantile_cases(random.Random(11)):
        with np.errstate(invalid="ignore"):
            want = float(np.quantile(values, 0.05))
        got = factor._quantile(values, 0.05)
        assert type(got) is float
        assert float.hex(got) == float.hex(want), values
        count += 1
    assert count == 200 * 10


def test_larger_index_is_numpy_argmax():
    specials = [0.0, -0.0, 1.0, -1.0, 1e-300, math.inf, -math.inf, math.nan]
    for a in specials:
        for b in specials:
            assert factor._larger_index(a, b) == int(np.argmax([a, b])), (a, b)


def _numpy_auto_transversal(form):
    """``auto_transversal`` with ``np.quantile`` and ``np.argmax``, as it was
    written before it computed both itself."""
    values = []
    for p in form.domain.samples(128):
        try:
            values.append(form.coefficient_tuple_fn(*p))
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
    scores = []
    for axis in range(2):
        mags = [abs(f[1 - axis]) for f in values]
        with np.errstate(invalid="ignore"):
            scores.append(np.quantile(mags, 0.05) if mags else 0.0)
    axis = int(np.argmax(scores))
    return TransversalSpec(axis, form.domain.center[axis])


AXIS_CHOICE_FORMS = [
    IDEAL_GAS,
    *(entry(name).form for name in ("product_exact", "ideal_gas_heat",
                                    "rolling_cylinder", "ray_form")),
    make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1))),  # a tie
    make_form(["x", "y"], ["-2", "2"], Box((0, 3), (1, 5))),  # a tie
    make_form(["x", "y"], ["1/x", "1/y"], Box((-1, -1), (1, 1))),  # poles
    # F_1 is +-inf at every sample, or NaN where both terms overflow alike
    make_form(["x", "y"], ["x*1e300*1e300 + 2", "1 + y^2"], Box((-1, -1), (1, 1))),
    make_form(["x", "y"], ["x*1e300*1e300 - y*1e300*1e300", "1 + y^2"],
              Box((-1, -1), (1, 1))),
    make_form(["x", "y"], ["2 + x", "x*1e300*1e300 - y*1e300*1e300"],
              Box((-1, -1), (1, 1))),
]


def test_auto_transversal_matches_numpy_choice(rng):
    forms = list(AXIS_CHOICE_FORMS)
    for _ in range(40):
        c = [f"{v:.3f}" for v in rng.uniform(-2, 2, 6)]
        forms.append(make_form(
            ["x", "y"],
            [f"{c[0]} + {c[1]}*x + {c[2]}*y^2", f"{c[3]} + {c[4]}*x*y + {c[5]}*y"],
            Box((-1, -0.5), (0.5, 2))))
    chosen = set()
    for form in forms:
        tv = auto_transversal(form)
        assert tv == _numpy_auto_transversal(form)
        chosen.add(tv.fixed_axis)
    assert chosen == {0, 1}


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
        curve = _curve(IDEAL_GAS, p, 1, rtol=1e-11, atol=1e-13)
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
    curve = _curve(IDEAL_GAS, p, 1, rtol=1e-11, atol=1e-13)
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
        curve = _curve(f, p, 1, rtol=1e-11, atol=1e-13)
        q = tuple(curve.points[len(curve.points) // 2])
        if abs(res.psi(p) - res.psi(q)) <= 1e-6:
            assert p[0] / p[1] == pytest.approx(q[0] / q[1], abs=1e-5)


# --- verification --------------------------------------------------------------


@pytest.mark.parametrize("x, offsets, order", [
    (50.3, {-1, 1}, 2),  # room for +-h: the central difference
    (0.015, {-1, 1}, 2),  # within [lo + h, lo + 2h): still the central difference
    (0.005, {0, 1, 2}, 2),  # within h of the low face: one-sided forward
    (100.0, {0, -1, -2}, 2),  # on the high face: one-sided backward
])
def test_fd_partial_stencil_of_each_region(x, offsets, order):
    # h = FD_SCALE * 100 = 0.01 on axis 0; |d^k sin / dx^k| <= 1, so each
    # stencil is within h^order of cos(x), rounding (about 1e-14) aside
    box = Box((0.0, -1.0), (100.0, 1.0))
    h = factor.FD_SCALE * 100.0
    seen = []

    def fn(p):
        seen.append(round((p[0] - x) / h))
        return math.sin(p[0]) + p[1] ** 2

    value = factor.fd_partial(fn, (x, 0.25), 0, box)
    assert set(seen) == offsets
    assert abs(value - math.cos(x)) <= h ** order


def _reference_result(form, psi_text, mu_text):
    names = form.var_names
    psi_fn = ex.compile_scalar(ex.parse_expression(psi_text, names), form.n)
    mu_fn = ex.compile_scalar(ex.parse_expression(mu_text, names), form.n)
    return FactorizationResult(
        psi=lambda p: psi_fn(*p), mu=lambda p: mu_fn(*p), method="reference"
    )


def test_verify_reference_factorization_tight():
    res = _reference_result(SCALED, "x*y+z", "exp(z)")
    samples = inset_samples(SCALED.domain, 64, 0.05)
    stats = verify_factorization(SCALED, res, samples)
    assert stats.residual_max <= 1e-8
    assert stats.skipped_points == 0


def test_verify_degenerate_candidate_rejected():
    res = FactorizationResult(psi=lambda p: 0.0, mu=lambda p: 1.0,
                              method="degenerate")
    samples = inset_samples(SCALED.domain, 32, 0.05)
    stats = verify_factorization(SCALED, res, samples)
    assert stats.residual_max > 0.5  # of order max|F| after normalization


def test_verify_gauge_freedom():
    res1 = _reference_result(SCALED, "x*y+z", "exp(z)")
    res2 = FactorizationResult(
        psi=lambda p: 2.0 * res1.psi(p), mu=lambda p: 0.5 * res1.mu(p),
        method="gauge",
    )
    samples = inset_samples(SCALED.domain, 32, 0.05)
    s1 = verify_factorization(SCALED, res1, samples)
    s2 = verify_factorization(SCALED, res2, samples)
    assert s1.residual_max == pytest.approx(s2.residual_max, rel=1e-6, abs=1e-12)


def test_verify_fills_result_and_scales_overflowing_rms():
    # dpsi = (1, 1) and mu = 1e200 against F = (1, 1): every residual is
    # 1e200 - 1, whose square overflows
    form = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    res = FactorizationResult(psi=lambda p: p[0] + p[1], mu=lambda p: 1e200,
                              method="huge")
    samples = inset_samples(form.domain, 8, 0.05)
    assert verify_factorization(form, res, samples) is res
    assert (res.evaluated_points, res.skipped_points) == (8, 0)
    assert res.residual_max == pytest.approx(1e200, rel=1e-9)
    assert res.residual_rms == pytest.approx(1e200, rel=1e-9)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_verification_sees_a_millionth(name):
    """The check stays sharp under the central difference: scaling mu by
    1 + 1e-6, or adding 1e-6 * x_0^2 to psi, lifts residual_max above 5e-7
    on every catalog entry (two-variable ones on the 9-point grid, the others
    from the box center with z free, on the 5-point grid)."""
    form = entry(name).form
    box = form.domain
    if form.n == 2:
        per_axis = 9
        result = build_potential_2var(form, grid_per_axis=per_axis)
    else:
        per_axis = 5
        result = global_factorization(form, form.n - 1, box.center, per_axis,
                                      require_integrable=False)
    assert result.residual_max <= 1e-7 or name == "contact"
    grid = sampling.box_grid(box.lows, box.highs, per_axis)
    psi, mu = result.psi, result.mu
    for perturbed in (
        FactorizationResult(psi=psi, mu=lambda p: (1 + 1e-6) * mu(p), method="mu"),
        FactorizationResult(psi=lambda p: psi(p) + 1e-6 * p[0] ** 2, mu=mu,
                            method="psi"),
    ):
        verify_factorization(form, perturbed, grid)
        assert perturbed.evaluated_points == result.evaluated_points
        assert perturbed.residual_max > 5e-7, perturbed.method


def test_verification_keeps_mu_and_the_rows_read_it():
    """On F = (1, 1) over [-1, 1]^2 with psi = x + y and mu = 1: psi fails
    at x > 0.5 (so the gradient fails at x = 0.5 and beyond, before mu is
    called) and mu raises at y < -0.5 and is infinite at y = 1.  The rows
    call mu only where verification did not, and psi only where mu is
    finite."""
    form = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    calls = collections.Counter()

    def psi(p):
        calls["psi", p] += 1
        if p[0] > 0.5:
            raise AnalysisError("no characteristic")
        return p[0] + p[1]

    def mu(p):
        calls["mu", p] += 1
        if p[1] < -0.5:
            raise AnalysisError("no mu")
        return math.inf if p[1] == 1.0 else 1.0

    result = FactorizationResult(psi=psi, mu=mu, method="marked")
    grid = sampling.box_grid((-1, -1), (1, 1), 5)
    verify_factorization(form, result, grid)
    # None where the gradient failed first, NaN where mu raised
    assert [(p, "nan" if m != m else m) for p, m in result.mu_at] == [
        ((x, y), None if x >= 0.5 else "nan" if y < -0.5
         else math.inf if y == 1.0 else 1.0)
        for x, y in grid]
    # x in (-1, -0.5, 0), y in (-0.5, 0, 0.5)
    assert (result.evaluated_points, result.skipped_points) == (9, 16)

    calls.clear()
    rows = factor.grid_rows(result)
    reached = [p for p in grid if p[0] < 0.5]
    assert not any(calls["mu", p] for p in reached)
    assert all(calls["mu", p] == 1 for p in grid if p not in reached)
    finite_mu = [p for p in grid if -0.5 <= p[1] < 1.0]
    assert sorted(p for (kind, p), c in calls.items() if kind == "psi" and c) \
        == sorted(finite_mu)
    # psi is defined up to x = 0.5, so that column keeps its rows although
    # its gradient stencil reaches past it
    assert rows == [[x, y, x + y, 1.0] for x, y in finite_mu if x <= 0.5]


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.form.n == 2])
def test_two_variable_rows_are_the_evaluated_points(name):
    """factor2 at grid 9: the CSV has a row at each point with a residual,
    and no other; psi and mu fail together with the gradient there."""
    result = build_potential_2var(entry(name).form, grid_per_axis=9)
    assert len(factor.grid_rows(result)) == result.evaluated_points


@pytest.mark.parametrize("per_axis, evaluated, rows", [(5, 73, 93), (9, 541, 585)])
def test_global_rows_include_points_without_a_residual(per_axis, evaluated, rows):
    """scaled_exact from the center with z free: the CSV has more rows than
    the report has evaluated points.  The extra rows are points where psi
    and mu are defined but a path solve of the gradient stencil leaves the
    box."""
    form = entry("scaled_exact").form
    result = global_factorization(form, 2, form.domain.center, per_axis)
    assert result.evaluated_points == evaluated
    assert len(factor.grid_rows(result)) == rows


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


def fiber_by_rootfind(field, p, expand=1.5, max_expand=60) -> float:
    """Root-finding variant of ``field.fiber_through`` (cross-check path)."""
    p = tuple(float(v) for v in p)
    u_p = tuple(p[i] for i in field.other)
    target = p[field.free_index]
    lo, hi = field._free_bounds

    def g(s):
        return field.value(u_p, s) - target

    half = max(1e-6, 1e-3 * (hi - lo))
    center = min(max(target, lo), hi)
    for _ in range(max_expand):
        s_lo = max(lo, center - half)
        s_hi = min(hi, center + half)
        try:
            if g(s_lo) * g(s_hi) <= 0:
                return ode.bisect_root(g, s_lo, s_hi, xtol=1e-13)
        except AnalysisError:
            pass
        if s_lo == lo and s_hi == hi:
            break
        half *= expand
    raise AnalysisError("could not bracket the fiber coordinate")


@pytest.mark.parametrize("name, base", [("scaled_exact", (0.0, 0.0, 0.0)),
                                        ("exact_3var", (0.0, 0.0, 0.0)),
                                        ("exact_3var", (0.3, -0.2, 0.1))])
def test_ok_path_solves_end_inside_the_widened_box(name, base, monkeypatch):
    """Why ``fiber_through`` needs no range check on the fiber coordinate.

    A solve ends "ok" at an accepted state, which is the state of the last
    stage of its step (``_A[6]`` is ``_B5`` without its last weight, 0.0),
    and every stage state was held inside the widened box before the
    right-hand side ran.  Over the construction, the monotonicity check and
    the staircase, box exits included, no "ok" solve ends outside it.
    """
    form = entry(name).form
    lo, hi = SurfaceField(form, 2, base)._free_bounds
    ends = collections.Counter()
    solve = factor._integrate_unit

    def recording(*args):
        status, y, accepted, rejected = solve(*args)
        if status == "ok":
            ends["inside" if lo <= y[0] <= hi else "outside"] += 1
        else:
            ends[status] += 1
        return status, y, accepted, rejected

    monkeypatch.setattr(factor, "_integrate_unit", recording)
    global_factorization(form, 2, base, grid_per_axis=5)
    staircase_defect(form, 2, base)
    assert ends["inside"] > 500 and "outside" not in ends
    assert ends["box_exit"] > 0


def test_fiber_rootfind_agrees_with_back_integration(rng):
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    for _ in range(10):
        p = tuple(rng.uniform(-0.35, 0.35, size=3))
        a = field.fiber_through(p)
        b = fiber_by_rootfind(field, p)
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


@pytest.mark.parametrize("outcome", ["box_exit", "step_rejection", "max_steps",
                                     ValueError, ZeroDivisionError, OverflowError])
def test_failed_path_solves_raise_analysis_error(monkeypatch, outcome):
    """Every failing end of a path solve is an AnalysisError, never memoized.

    ``_integrate_unit`` is replaced by one that ends each solve with the
    status ``outcome`` at its start state, or raises ``outcome`` as the
    right-hand side at the start does.
    """
    solves = []

    def failing(kernel, params, y0, *args):
        solves.append(y0)
        if not isinstance(outcome, str):
            raise outcome("right-hand side undefined at the start")
        return outcome, y0, 3, 4

    monkeypatch.setattr(factor, "_integrate_unit", failing)
    field = SurfaceField(SCALED, 2, (0.0, 0.0, 0.0))
    for _ in range(2):
        with pytest.raises(AnalysisError, match="^surface integration failed") as info:
            field.value((0.2, -0.1), 0.05)
        assert type(info.value) is AnalysisError
        with pytest.raises(AnalysisError, match="^surface integration failed") as info:
            field.fiber_through((0.2, -0.1, 0.05))
        assert type(info.value) is AnalysisError
    assert len(solves) == 4
    assert field.memo == {}


def test_path_solve_undefined_at_the_start_raises_analysis_error():
    # F_y = y vanishes on y = 0: the path solves of value(u, 0) and
    # fiber_through((x, 0)) start there, where the right-hand side divides by 0
    form = make_form(["x", "y"], ["1", "y"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.5))
    with pytest.raises(ZeroDivisionError):
        start_slope(field.kernel, 0.0, (0.0,), (0.0, 0.3))
    for _ in range(2):
        with pytest.raises(AnalysisError, match="^surface integration failed"):
            field.value((0.3,), 0.0)
        with pytest.raises(AnalysisError, match="^surface integration failed"):
            field.fiber_through((0.3, 0.0))
    assert field.memo == {}
    # on x + y^2 / 2 = const the path to x = -0.3 from y = 0.5 is defined
    assert field.value((-0.3,), 0.5) == pytest.approx(math.sqrt(0.85), abs=1e-9)


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

    sample = explore(SCALED, (0.0, 0.0, 0.0), 0.25, 4000, 13)
    # every endpoint lies on a null curve from the base
    base_level = scaled_global.psi(sample.base)
    checked = 0
    for p in sample.endpoints[1:]:
        try:
            level = scaled_global.psi(p)
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


def test_characteristic_ends_singular_mid_curve():
    # F = (1, sqrt(x)): x is solved for, dx/dy = -sqrt(x), and the curve from
    # (0.5, -0.5) against the tangent reaches x = 0 at y = 2 sqrt(0.5) - 0.5;
    # past it sqrt(x) is undefined, the step size collapses, and the curve
    # ends there as singular
    form = make_form(["x", "y"], ["1", "sqrt(x)"], Box((-1, -1), (1, 1)))
    for points in (None, []):
        assert solve_characteristic(form, (0.5, -0.5), -1, None, 1e-9, 1e-12,
                                    points) == ("singular", None)
    x, y = points[-1]
    assert 0.0 <= x <= 1e-12
    assert y == pytest.approx(2 * math.sqrt(0.5) - 0.5, abs=1e-6)
    # a start where sqrt(x) is undefined is an analysis error
    with pytest.raises(AnalysisError, match="undefined at the start"):
        solve_characteristic(form, (-0.5, 0.0), 1, None, 1e-9, 1e-12)


def test_label_only_trace_matches_solve_characteristic(rng):
    for axis in (0, 1):
        tv = TransversalSpec(axis, 1.5)
        for _ in range(10):
            p = tuple(float(v) for v in rng.uniform(1.0, 2.0, size=2))
            for direction in (1, -1):
                pts = []
                traced = solve_characteristic(IDEAL_GAS, p, direction, tv, 1e-11,
                                              1e-13, pts)
                label_only = solve_characteristic(IDEAL_GAS, p, direction, tv,
                                                  1e-11, 1e-13)
                assert label_only == traced and pts


# --- the characteristic trace against the stepper-driven reference ---------------


class _RefProbeFailed(Exception):
    pass


def _ref_crossing(kernel, start, end, direction, rtol, atol, max_steps, level):
    """``(lam, probe)`` of the crossing of ``level`` inside an accepted step.

    The step goes from ``start = (t0, y0, f0)`` to ``end = (t1, y1)``.  The
    state at the fraction ``lam`` is a whole solve of :func:`dopri5_step`
    from the step start whose first step spans the interval, and the step's
    own end states at ``lam`` 0 and 1; a solve that does not end "ok" raises
    :class:`_RefProbeFailed`.
    """
    (t0, y0, f0), (t1, y1) = start, end

    def probe(lam):
        if lam == 0.0:
            return y0
        if lam == 1.0:
            return y1
        t_end = t0 + lam * (t1 - t0)
        status, state = dopri5_step(kernel, (t0, y0, f0, abs(t_end - t0), 0, 0),
                                    t_end, direction, rtol, atol, max_steps,
                                    whole=True)
        if status != "ok":
            raise _RefProbeFailed(status)
        return state[1]

    lam = ode.bisect_root(lambda lam: probe(lam)[0] - level, 0.0, 1.0, xtol=1e-14)
    return lam, probe


def _ref_trace(form, start, direction, transversal, rtol, atol, max_steps,
               pts, swaps):
    """The characteristic trace with one stepper state per segment.

    ``_trace_characteristic`` as it was written before it called the
    generated loop directly, when each segment ran a stepper object with its
    own attempt counts, here the state ``(t, y, f0, h, accepted, rejected)``
    of :func:`dopri5_step` over the form's characteristic kernels; with its
    later rules that a step leaving the box from on a face of the solved axis
    is a boundary exit, and that a step crossing both the transversal on its
    span and a face ends at the transversal, which it meets first.  A
    crossing inside a step is located by :func:`_ref_crossing`.  Appends one
    entry to ``swaps`` per change of the solved axis.
    """
    singular_tol = DEFAULT_SINGULAR_TOL
    box = form.domain
    coeffs = form.coefficient_tuple_fn
    x = (float(start[0]), float(start[1]))
    pts.append(x)
    scale = max(box.edges)
    if (
        transversal is not None
        and abs(x[transversal.fixed_axis] - transversal.value) <= 1e-14 * scale
        and transversal.on_span(x[transversal.varying_axis()])
    ):
        return "transversal", x[transversal.varying_axis()]
    f = coeffs(*x)
    if max(abs(f[0]), abs(f[1])) <= singular_tol:
        return "singular", None
    sign = 1.0 if direction >= 0 else -1.0
    tau = (sign * _tangent(f)[0], sign * _tangent(f)[1])
    dependent = int(np.argmax([abs(f[0]), abs(f[1])]))
    steps_used = 0
    while True:
        if steps_used >= max_steps:
            return "max_steps", None
        b = dependent
        a = 1 - b
        sign_a = 1.0 if tau[a] >= 0 else -1.0
        kernel = factor._characteristic_kernel(form, b)
        t_limit = box.highs[a] if sign_a > 0 else box.lows[a]
        hit_transversal_on_a = (
            transversal is not None
            and transversal.fixed_axis == a
            and (transversal.value - x[a]) * sign_a > 0
            and (t_limit - transversal.value) * sign_a >= 0
        )
        t_target = transversal.value if hit_transversal_on_a else t_limit
        try:
            state = dopri5_start(kernel, x[a], (x[b],))
        except (ValueError, ZeroDivisionError, OverflowError):
            return "singular", None
        budget = max_steps - steps_used
        while True:
            step_start = state[:3]
            prev_t, prev_y = step_start[:2]
            status, state = dopri5_step(kernel, state, t_target, sign_a, rtol, atol,
                                        budget)
            if status == "max_steps":
                return "max_steps", None
            if status != "ok":
                return "singular", None
            t_new, y_new = state[:2]
            steps_used += 1
            crossed = None
            locate = functools.partial(_ref_crossing, kernel, step_start,
                                       (t_new, y_new), sign_a, rtol, atol, max_steps)
            try:
                if transversal is not None and transversal.fixed_axis == b:
                    g0 = prev_y[0] - transversal.value
                    g1 = y_new[0] - transversal.value
                    if g0 * g1 <= 0 and (g0 != 0 or g1 != 0):
                        lam, probe = locate(transversal.value)
                        if transversal.on_span(prev_t + lam * (t_new - prev_t)):
                            crossed = (lam, probe, "transversal")
                faces = () if crossed else ((box.lows[b], -1.0), (box.highs[b], 1.0))
                for bound, outward in faces:
                    g0, g1 = prev_y[0] - bound, y_new[0] - bound
                    if g0 * g1 < 0:
                        crossed = (*locate(bound), "boundary")
                    elif g0 * outward >= 0 and g1 * outward > 0:
                        crossed = (0.0, None, "boundary")
                if crossed is not None:
                    lam, probe, kind = crossed
                    t_hit = prev_t + lam * (t_new - prev_t)
                    y_hit = prev_y if probe is None else probe(lam)
            except _RefProbeFailed:
                return "singular", None
            if crossed is not None:
                p_hit = [0.0, 0.0]
                p_hit[a], p_hit[b] = t_hit, y_hit[0]
                p_hit = box.clamp(p_hit)
                pts.append(tuple(p_hit))
                if kind == "transversal":
                    return "transversal", p_hit[a]
                return "boundary", None
            p_new = [0.0, 0.0]
            p_new[a], p_new[b] = t_new, y_new[0]
            x = tuple(p_new)
            pts.append(x)
            try:
                f = coeffs(*x)
            except (ValueError, ZeroDivisionError, OverflowError):
                return "singular", None
            if max(abs(f[0]), abs(f[1])) <= singular_tol:
                return "singular", None
            tau_new = _tangent(f)
            if tau_new[0] * tau[0] + tau_new[1] * tau[1] < 0:
                tau_new = (-tau_new[0], -tau_new[1])
            tau = tau_new
            if abs(t_new - t_target) <= 1e-14 * max(1.0, abs(t_target)):
                if hit_transversal_on_a:
                    if transversal.on_span(x[b]):
                        return "transversal", x[b]
                    hit_transversal_on_a = False
                    t_target = t_limit
                else:
                    return "boundary", None
            if abs(f[a]) > _SWAP_HYSTERESIS * abs(f[b]):
                dependent = a
                swaps.append(a)
                break
            if steps_used >= max_steps:
                return "max_steps", None


def _assert_trace_matches(form, start, direction, tv, max_steps=100000,
                          rtol=1e-9, atol=1e-12, swaps=None):
    """The trace and the reference agree on status, label and points.

    The trace that keeps its points runs one step per call of the generated
    loop, the trace of the label only runs each segment in one call that
    returns at the steps its stop test picks; both must give the reference's
    result.
    """
    pts, ref_pts = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor, "MAX_STEPS", max_steps)
        trace = solve_characteristic(form, start, direction, tv, rtol, atol, pts)
        label_only = solve_characteristic(form, start, direction, tv, rtol, atol)
    ref = _ref_trace(form, start, direction, tv, rtol, atol, max_steps,
                     ref_pts, [] if swaps is None else swaps)
    assert (trace[0], repr(trace[1])) == (ref[0], repr(ref[1]))
    assert repr(label_only) == repr(trace)
    assert pts == ref_pts
    assert repr(pts) == repr(ref_pts)
    return trace[0]


@pytest.mark.parametrize("name", ["ideal_gas_heat", "product_exact", "ray_form",
                                  "rolling_cylinder"])
def test_trace_matches_reference_on_catalog(name, rng):
    form = entry(name).form
    box = form.domain
    lows, highs = np.asarray(box.lows), np.asarray(box.highs)
    center = box.center
    # near the corners the slope of product_exact's hyperbolas swaps roles
    corners = [tuple(float(c + 0.95 * (v - c)) for c, v in zip(center, corner))
               for corner in ((lows[0], highs[1]), (highs[0], lows[1]))]
    statuses, swaps = set(), []
    for axis in (0, 1):
        varying = 1 - axis
        quarter = 0.25 * (highs[varying] - lows[varying])
        span = (center[varying] - quarter, center[varying] + quarter)
        for tv in (TransversalSpec(axis, center[axis]),
                   TransversalSpec(axis, center[axis], span), None):
            # the box corners start on a face of either solved axis
            starts = corners + [(float(lows[0]), float(lows[1])),
                                (float(highs[0]), float(highs[1]))] + [
                tuple(float(v) for v in rng.uniform(lows, highs)) for _ in range(6)]
            for p in starts:
                for direction in (1, -1):
                    statuses.add(_assert_trace_matches(form, p, direction, tv,
                                                       swaps=swaps))
                    for max_steps in (1, 2, 3):
                        _assert_trace_matches(form, p, direction, tv, max_steps)
    assert "transversal" in statuses and "boundary" in statuses
    assert swaps or name != "product_exact"


def test_trace_matches_reference_near_singular_points(rng):
    # F = (y, x) vanishes at the origin: a start there is singular at once,
    # starts near it meet the hyperbolas' sharp turns and swap slope roles
    form = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    tv = TransversalSpec(0, 0.5)
    assert _assert_trace_matches(form, (0.0, 0.0), 1, tv) == "singular"
    swaps = []
    for _ in range(20):
        p = tuple(float(v) for v in rng.uniform(-0.2, 0.2, size=2))
        for direction in (1, -1):
            _assert_trace_matches(form, p, direction, tv, swaps=swaps)
            _assert_trace_matches(form, p, direction, None, swaps=swaps)
            # step budgets that run out before, at and after the swaps
            for max_steps in (1, 2, 3, 5, 8, 13, 21, 34):
                _assert_trace_matches(form, p, direction, tv, max_steps)
    assert swaps


def test_trace_spends_its_budget_on_a_face_transversal():
    # theta = 1 is a face of the box and a transversal whose span the curve
    # misses: the fourth step lands exactly on it, off the span, and with
    # four budgeted steps the trace ends as max_steps, not at the boundary
    form = entry("rolling_cylinder").form
    tv = TransversalSpec(1, 1.0, (-1.0, -1.0 + 2e-9))
    statuses = [_assert_trace_matches(form, (0.0, 0.0), -1, tv, max_steps)
                for max_steps in (3, 4, 5)]
    assert statuses == ["max_steps", "max_steps", "boundary"]


def _recorded_stops(form, stops, monkeypatch):
    """Wrap the step loops of ``form``'s characteristic kernels to tally why
    segment calls return; ``monkeypatch`` swaps the wrapped kernels into
    ``form.ode_kernels`` until the test ends.

    A call that runs a segment up to its step budget (not one step, not a
    probe's whole solve) and returns "ok" is tallied in ``stops`` under each
    check of the stop test that holds at its last step ("face", "level",
    "target", "slope") and under "limit" when it reached the step limit.
    Such a return with none of them is tallied as "none".
    """
    for b in (0, 1):
        kernel = factor._characteristic_kernel(form, b)

        @functools.wraps(kernel)
        def recording(*args, _kernel=kernel):
            result = _kernel(*args)
            t_end, accepted0, limit = args[4], args[9], args[11]
            lo, hi, level, tol, slope = args[12:]
            status, t1, y1, f1, _, accepted, _, _, y0, _ = result
            if status == "ok" and limit not in (math.inf, accepted0 + 1):
                fired = [name for name, hit in (
                    ("face", not (lo < y0[0] < hi and lo < y1[0] < hi)),
                    ("level", (y0[0] - level) * (y1[0] - level) <= 0),
                    ("target", abs(t1 - t_end) <= tol),
                    ("slope", abs(f1[0]) > slope),
                    ("limit", accepted >= limit)) if hit]
                stops.update(fired or ["none"])
            return result

        monkeypatch.setitem(form.ode_kernels, ("characteristic", b), recording)


def test_trace_stops_at_every_check(rng, monkeypatch):
    """Each check of the stop test ends segment calls, and only those do.

    The starts cross a spanned transversal off its span on either axis,
    swap the solved axis, start on a face and run out of step budgets of 1
    to 34 steps; every trace matches the one-step reference.
    """
    stops = collections.Counter()
    # x - theta is constant on the characteristics; x is solved for.  From
    # (-0.5, 0) against the tangent the curve meets x = 0 and theta = 0.5 at
    # (0, 0.5), off the spans below, and goes on to theta = 1
    rolling = entry("rolling_cylinder").form
    _recorded_stops(rolling, stops, monkeypatch)
    # the call that meets x = 0 returns there, the one that meets theta = 0.5
    # and the one that reaches theta = 1 return at their targets
    for tv, seen in ((TransversalSpec(0, 0.0, (0.6, 0.9)), {"level": 1, "target": 1}),
                     (TransversalSpec(1, 0.5, (0.2, 0.4)), {"target": 2})):
        before = collections.Counter(stops)
        status = _assert_trace_matches(rolling, (-0.5, 0.0), -1, tv)
        assert status == "boundary"
        assert stops - before == seen
    assert _assert_trace_matches(rolling, (-0.5, 0.0), -1,
                                 TransversalSpec(0, 0.0, (0.4, 0.6))) == "transversal"
    # product_exact swaps its solved axis near the corners of its box, and
    # its corners start on faces of either axis
    form = entry("product_exact").form
    _recorded_stops(form, stops, monkeypatch)
    tv = auto_transversal(form)
    starts = [(0.55, 1.45), (1.45, 0.55), (0.5, 0.5), (1.5, 1.5), (0.5, 1.5),
              *(tuple(float(v) for v in rng.uniform(0.5, 1.5, 2)) for _ in range(6))]
    swaps = []
    for p in starts:
        for direction in (1, -1):
            for spec in (tv, None):
                _assert_trace_matches(form, p, direction, spec, swaps=swaps)
            for max_steps in (1, 2, 3, 5, 8, 13, 21, 34):
                _assert_trace_matches(form, p, direction, tv, max_steps)
    assert swaps
    assert {"face", "level", "target", "slope", "limit"} <= set(stops)
    assert "none" not in stops


# stop arguments that make one check of the stop test hold from some step of
# xy = 0.84 on, solved for y from x = 1.5 down to the end x = 0.6: y rises
# from 0.56 through 1.0 at x = 0.84, the slope -y/x passes -1 at x = 0.917,
# and x comes within 0.4 of the end at x = 1.0
_ONE_CHECK = {
    "face": (-math.inf, 1.0, math.nan, 0.0, math.inf),
    "level": (-math.inf, math.inf, 1.0, 0.0, math.inf),
    "target": (-math.inf, math.inf, math.nan, 0.4, math.inf),
    "slope": (-math.inf, math.inf, math.nan, 0.0, 1.0),
}


@pytest.mark.parametrize("check", sorted(_ONE_CHECK))
def test_segment_call_returns_at_the_first_step_a_check_holds(check):
    """One call runs to the first step where the check holds, as single steps do.

    It returns that step's end and start, and every step before it is taken
    as one call per step takes it.
    """
    kernel = factor._characteristic_kernel(entry("product_exact").form, 1)
    lo, hi, level, tol, slope = stop = _ONE_CHECK[check]
    t_end = 0.6
    holds = {
        "face": lambda t1, y0, y1, f1: not (lo < y0 < hi and lo < y1 < hi),
        "level": lambda t1, y0, y1, f1: (y0 - level) * (y1 - level) <= 0,
        "target": lambda t1, y0, y1, f1: abs(t1 - t_end) <= tol,
        "slope": lambda t1, y0, y1, f1: abs(f1) > slope,
    }[check]
    start = (1.5, (0.56,), start_slope(kernel, 1.5, (0.56,)), 0.0, 0, 0)
    args = (t_end, -1.0, 1e-9, 1e-12, 100000)
    t, y, f0, h, accepted, rejected = start
    steps = 0
    while True:
        status, *state = kernel(t, y, f0, h, *args, accepted, rejected,
                                accepted + 1, *stop)
        assert status == "ok" and state[0] > t_end
        t1, y1, f1, h, accepted, rejected, _, y0, _ = state
        steps += 1
        if holds(t1, y0[0], y1[0], f1[0]):
            break
        t, y, f0 = t1, y1, f1
    assert steps > 2
    segment = kernel(*start[:4], *args, 0, 0, 100000, *stop)
    assert repr(segment) == repr((status, *state))


# --- labels of characteristics that start on a face -------------------------------


@pytest.mark.parametrize("name", ["ideal_gas_heat", "product_exact", "ray_form",
                                  "rolling_cylinder"])
def test_transversal_labels_lie_in_the_box_and_on_the_span(name):
    """From every grid point, faces and corners included, in both directions."""
    form = entry(name).form
    box = form.domain
    tv = auto_transversal(form)
    varying = tv.varying_axis()
    lo, hi = box.lows[varying], box.highs[varying]
    span = (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))
    grid = [tuple(float(v) for v in p)
            for p in sampling.box_grid(box.lows, box.highs, 9)]
    labels = 0
    for spec in (tv, TransversalSpec(tv.fixed_axis, tv.value, span)):
        for p in grid:
            for direction in (1, -1):
                status, label = solve_characteristic(
                    form, p, direction, spec, 1e-11, 1e-13)
                if status == "transversal":
                    assert lo <= label <= hi and spec.on_span(label), (p, direction)
                    labels += 1
    assert labels > 81


@pytest.mark.parametrize("name, start", [("product_exact", (1.5, 1.5)),
                                         ("ideal_gas_heat", (2.0, 2.0))])
def test_start_leaving_through_its_face_is_a_boundary_exit(name, start):
    # at the corner the solved coordinate starts on its upper face and the
    # +1 direction moves it out: the curve ends there, unlabeled
    form = entry(name).form
    tv = auto_transversal(form)
    curve = _curve(form, start, 1, tv, rtol=1e-11, atol=1e-13)
    assert (curve.status, curve.label) == ("boundary", None)
    assert all(form.domain.contains(p) for p in curve.points)


def test_transversal_crossed_before_a_face_in_one_step_labels_the_curve():
    # x - theta = 0.49 meets the transversal x = 0.5 at theta = 0.01 and the
    # face x = 1 at theta = 0.51, both inside the one step the straight line
    # takes: the transversal comes first along it
    form = entry("rolling_cylinder").form
    status, label = solve_characteristic(form, (-0.5, -0.99), -1,
                                         TransversalSpec(0, 0.5), 1e-11, 1e-13)
    assert status == "transversal"
    assert label == pytest.approx(0.01, abs=1e-14)
    # so the default transversal x = 0 labels as many grid points as its
    # mirror image theta = 0, whose curves need no such step
    assert (build_potential_2var(form, grid_per_axis=17).evaluated_points
            == build_potential_2var(form, TransversalSpec(1, 0.0), 17).evaluated_points
            == 199)


@pytest.mark.parametrize("scale", ["", "1e155*", "1e200*"])
def test_direction_survives_coefficients_whose_norm_overflows(scale):
    # |F| overflows beyond about 1.34e154: the direction of travel is still
    # set by the sign of the tangent, so both directions are tried
    form = make_form(["x", "y"], [f"{scale}y", f"{scale}x"], Box((0.5, 0.5), (1.5, 1.5)))
    result = build_potential_2var(form, TransversalSpec(1, 1.0), 9)
    assert result.evaluated_points == 54


def test_product_exact_labels_are_true_crossings():
    """xy is constant on the leaves of y dx + x dy: the label is x*y / value."""
    form = entry("product_exact").form
    tv = auto_transversal(form)
    assert (tv.fixed_axis, tv.value) == (1, 1.0)
    labels = 0
    for p in sampling.box_grid(form.domain.lows, form.domain.highs, 9):
        p = tuple(float(v) for v in p)
        for direction in (1, -1):
            status, label = solve_characteristic(
                form, p, direction, tv, 1e-11, 1e-13)
            if status == "transversal":
                assert abs(label - p[0] * p[1] / tv.value) <= 1e-9, (p, direction)
                labels += 1
    assert labels > 60


def test_crossing_at_the_end_of_a_step_is_bracketed():
    # the accepted step ends within rounding of the transversal; an RK4 estimate
    # of its end state lay on the other side, and the search raised "root not
    # bracketed on [0.0, 1.0]"
    start = (1.0118216247002567, 1.4504636963259352)
    value = 1.1358362438707759
    curve = _curve(entry("product_exact").form, start, 1,
                   TransversalSpec(0, value), rtol=1e-11, atol=1e-13)
    assert curve.status == "transversal"
    assert abs(curve.label - start[0] * start[1] / value) <= 1e-12
    assert abs(curve.label - 1.292096938889562) <= 1e-12


def test_step_probe_returns_the_step_ends_exactly():
    kernel = factor._characteristic_kernel(entry("product_exact").form, 1)
    t0, y0, f0, *_ = state = dopri5_start(kernel, 1.0, (1.5,))
    status, (t1, y1, *_) = dopri5_step(kernel, state, 2.0, rtol=1e-11, atol=1e-13)
    assert status == "ok"
    probe = _step_probe(kernel, t0, y0, f0, t1, y1, 1.0, 1e-11, 1e-13)
    assert probe(0.0) is y0 and probe(1.0) is y1
    # inside the step: one whole solve from the step start, whose first
    # attempt spans the interval
    t_mid = t0 + 0.5 * (t1 - t0)
    status, state = dopri5_step(kernel, (t0, y0, f0, t_mid - t0, 0, 0), t_mid,
                                rtol=1e-11, atol=1e-13, whole=True)
    assert (status, state[4], state[5]) == ("ok", 1, 0)
    assert repr(probe(0.5)) == repr(state[1])


def test_step_probe_failure_raises():
    # y' = 1 / (1 - t): a solve across t = 1 collapses its step
    pole = ode.compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = 1.0 / (1.0 - {t})"],
                              stop=factor._STOP)
    probe = _step_probe(pole, 0.0, (0.0,), (1.0,), 2.0, (0.0,), 1.0,
                        1e-9, 1e-12)
    assert probe(0.25)[0] == pytest.approx(-math.log(0.5), rel=1e-8)
    with pytest.raises(factor._ProbeFailed, match="step_rejection"):
        probe(0.75)


# --- crossings located by the Illinois bracket against the secant search ----------


def _factor2_traces(monkeypatch, form, grid):
    """Arguments and results of every trace ``factor2`` makes at ``grid``.

    Those are the traces from the grid points and from every point their
    finite-difference stencils reach, in both directions where the first
    misses the transversal.
    """
    calls = []
    trace = factor.solve_characteristic

    def recording(*args, **kwargs):
        result = trace(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(factor, "solve_characteristic", recording)
    build_potential_2var(form, grid_per_axis=grid)
    monkeypatch.setattr(factor, "solve_characteristic", trace)
    return calls


@pytest.mark.parametrize("grid", [9, 17])
@pytest.mark.parametrize("name", ["ideal_gas_heat", "product_exact", "ray_form",
                                  "rolling_cylinder"])
def test_crossings_match_secant_search(name, grid, monkeypatch):
    """Statuses as the secant search found them, labels within 1e-12."""
    calls = _factor2_traces(monkeypatch, entry(name).form, grid)
    monkeypatch.setattr(factor, "bisect_root", secant_bisect_root)
    labels = 0
    for args, kwargs, (status, label) in calls:
        ref_status, ref_label = solve_characteristic(*args, **kwargs)
        assert status == ref_status
        if ref_label is None:
            assert label is None
        else:
            assert abs(label - ref_label) <= 1e-12
            labels += 1
    assert labels > 4 * grid * grid // 10


@pytest.mark.parametrize("grid", [9, 17])
def test_rolling_cylinder_labels_exact(grid, monkeypatch):
    """Straight characteristics x - theta = c: the label is exact to 1e-14.

    The crossing of the line through p with ``{x_f = v}`` lies at
    ``v + p_g - p_f`` on the varying axis g, whichever axis is fixed.
    """
    form = entry("rolling_cylinder").form
    tv = auto_transversal(form)
    fixed, varying = tv.fixed_axis, tv.varying_axis()
    labels = 0
    for args, _, (status, label) in _factor2_traces(monkeypatch, form, grid):
        if status == "transversal":
            p = args[1]
            assert abs(label - (tv.value + p[varying] - p[fixed])) <= 1e-14
            labels += 1
    assert labels > grid * grid


def test_criterion_5_run_attempt_bound(monkeypatch):
    """The global construction of acceptance criterion 5 stays cheap.

    scaled_exact, free z, grid 9: 5,671 path solves, 5,482 of them ending
    "ok" and 189 as box exits, in 24,762 Dormand-Prince attempts.  With the
    4-point stencil in the verification and mu's own centered difference
    it made 8,709 solves in 36,914 attempts.  Halving the step into the band
    past the box made 41,509 of those, and the stepper without box exits
    449,296 (four solves crawled along the widened bound until the step
    budget ran out).
    """
    attempts, statuses = [], collections.Counter()
    solve = factor._integrate_unit

    def counting(*args):
        status, y, accepted, rejected = solve(*args)
        attempts.append(accepted + rejected)
        statuses[status] += 1
        return status, y, accepted, rejected

    monkeypatch.setattr(factor, "_integrate_unit", counting)
    result = global_factorization(entry("scaled_exact").form, 2, (0.0, 0.0, 0.0),
                                  grid_per_axis=9)
    assert (result.evaluated_points, result.skipped_points) == (541, 188)
    assert statuses == {"ok": 5482, "box_exit": 189}
    assert sum(attempts) <= 40000
