import hashlib
import math

import numpy as np
import pytest

from pfaffian.errors import AnalysisError, ArityError
from pfaffian.forms import Box, make_form
from pfaffian.reach import (
    KIND_CODIM_ONE,
    KIND_FULL,
    KIND_INCONCLUSIVE,
    PivotLostError,
    ReachSample,
    _compile_step,
    constrained_velocity,
    estimate_dimension,
    explore,
    steer_step,
    surrounding_line_scan,
)
from pfaffian.reports import json_text

CONTACT = make_form(["x", "y", "z"], ["-y", "0", "1"], Box((-1,) * 3, (1,) * 3))
EXACT3 = make_form(["x", "y", "z"], ["1", "1", "1"], Box((-1,) * 3, (1,) * 3))
ROLLING = make_form(["x", "theta"], ["1", "-1"], Box((-1, -1), (1, 1)))


def test_constrained_velocity_examples():
    assert constrained_velocity(CONTACT, (0, 0, 0), (1, 0), 2) == (1, 0, 0.0)
    assert constrained_velocity(CONTACT, (0, 1, 0), (1, 0), 2) == (1, 0, 1.0)


@pytest.mark.parametrize("solved_index", [-1, 3])
def test_solved_index_out_of_range(solved_index):
    with pytest.raises(ArityError):
        constrained_velocity(CONTACT, (0, 0.5, 0), (1, 0), solved_index)
    with pytest.raises(ArityError):
        steer_step(CONTACT, (0, 0.5, 0), (1, 0), solved_index, 0.01)


def test_steer_step_stationary():
    nxt, resid = steer_step(CONTACT, (0.1, 0.2, 0.3), (0.0, 0.0), 2, 0.01)
    assert nxt == (0.1, 0.2, 0.3)
    assert resid == 0.0


def test_steer_step_annihilates_form():
    nxt, resid = steer_step(CONTACT, (0.0, 0.5, 0.0), (1.0, 0.0), 2, 0.01)
    assert resid <= 1e-10
    assert nxt[2] == pytest.approx(0.005, rel=1e-6)  # dz = y dx with y ~ 0.5


# --- generated step against the generic per-stage reference ---------------------
#
# The reference is the generic loop the generated straight-line step replaced:
# velocity assembly, RK4 stages and the Simpson residual as separate calls.  The
# generated step must reproduce it bit for bit and raise the same exceptions.


def _ref_velocity(fvals, free_velocity, solved_index, singular_tol):
    n = len(fvals)
    fk = fvals[solved_index]
    if not abs(fk) > singular_tol:
        raise PivotLostError("solved coefficient below tolerance")
    v = [0.0] * n
    acc = 0.0
    vi = iter(free_velocity)
    for i in range(n):
        if i == solved_index:
            continue
        w = next(vi)
        v[i] = w
        acc += fvals[i] * w
    vk = -acc / fk
    if not -1e300 < vk < 1e300:
        raise PivotLostError("constraint solve produced a non-finite velocity")
    v[solved_index] = vk
    return v


def _ref_rk4(coeffs, x, f_x, vfree, k, dt, tol):
    n = len(x)
    k1 = _ref_velocity(f_x, vfree, k, tol)
    s2 = tuple(x[i] + 0.5 * dt * k1[i] for i in range(n))
    f2 = coeffs(*s2)
    k2 = _ref_velocity(f2, vfree, k, tol)
    s3 = tuple(x[i] + 0.5 * dt * k2[i] for i in range(n))
    f3 = coeffs(*s3)
    k3 = _ref_velocity(f3, vfree, k, tol)
    s4 = tuple(x[i] + dt * k3[i] for i in range(n))
    f4 = coeffs(*s4)
    k4 = _ref_velocity(f4, vfree, k, tol)
    x1 = tuple(
        x[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(n)
    )
    f1 = coeffs(*x1)
    fmid = tuple(0.5 * (a + b) for a, b in zip(f2, f3))
    return x1, f1, fmid


def _ref_residual(x0, x1, f0, f1, fmid):
    dx = tuple(b - a for a, b in zip(x0, x1))
    pairing = sum(
        (fa + 4.0 * fm + fb) / 6.0 * d for fa, fm, fb, d in zip(f0, fmid, f1, dx)
    )
    fmag = math.sqrt(sum(v * v for v in f1))
    dxmag = math.sqrt(sum(v * v for v in dx))
    if fmag == 0.0 or dxmag == 0.0:
        return 0.0
    return abs(pairing) / (fmag * dxmag)


def _ref_step(form, x, f_x, vfree, k, dt, tol):
    x1, f1, fmid = _ref_rk4(form.coefficient_tuple_fn, x, f_x, vfree, k, dt, tol)
    return x1, f1, _ref_residual(x, x1, f_x, f1, fmid)


def _outcome(call):
    try:
        return call()
    except (PivotLostError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


# together these use every node kind: exp, log, sin, cos, sqrt, ^ (positive
# and negative exponents), division, negation and a constant coefficient
STEP_FORMS = [
    (["x", "y"], ["exp(x) * y + 2", "-(x / (1 + y^2))"], Box((-0.5,) * 2, (0.5,) * 2)),
    (["x", "y", "z"], ["log(2 + x) * z - 1", "sin(y) - cos(z)", "sqrt(3 + x * y)"],
     Box((-0.5,) * 3, (0.5,) * 3)),
    (["x", "y", "z", "w"],
     ["1.5", "x * y^3 - w", "cos(x + z) / (2 + sin(w))", "exp(-y) + z^2"],
     Box((-0.5,) * 4, (0.5,) * 4)),
    (["x", "y", "z", "u", "v"],
     ["v^-1 + x", "sqrt(4 - y^2) * u", "-log(3 + z)", "sin(x * y) + 0.25",
      "exp(u - v) / (1 + x^2)"],
     Box((-0.5, -0.5, -0.5, -0.5, 0.5), (0.5, 0.5, 0.5, 0.5, 1.5))),
]


@pytest.mark.parametrize("names, texts, box", STEP_FORMS,
                         ids=[f"n{len(f[0])}" for f in STEP_FORMS])
def test_generated_step_bit_identical(names, texts, box):
    form = make_form(names, texts, box)
    tol = 1e-12
    rng = np.random.default_rng(len(names))
    lows, highs = np.asarray(box.lows), np.asarray(box.highs)
    for k in range(form.n):
        step = _compile_step(form, k, tol)
        for _ in range(25):
            x = tuple(float(v) for v in rng.uniform(lows + 0.1, highs - 0.1))
            f_x = form.coefficient_tuple_fn(*x)
            w = rng.standard_normal(form.n - 1)
            vfree = tuple(float(v) for v in w / np.linalg.norm(w))
            dt = float(rng.uniform(0.005, 0.2))
            got = _outcome(lambda: step(x, f_x, vfree, dt))
            want = _outcome(lambda: _ref_step(form, x, f_x, vfree, k, dt, tol))
            assert got == want, (k, x, vfree, dt)


@pytest.mark.parametrize("texts, box, x, k, vfree, dt, tol, raised", [
    # the solved coefficient x drops below tol = 0.5 at the second stage
    (["1", "x"], Box((-1, -1), (1, 1)), (0.6, 0.0), 1, (-1.0,), 0.5, 0.5,
     PivotLostError),
    # a tiny solved coefficient makes the solved velocity overflow 1e300
    (["1", "y"], Box((-1, -1), (1, 1)), (0.0, 1e-305), 1, (1.0,), 0.1, 1e-320,
     PivotLostError),
    # the second stage point has x < 0, where log is undefined
    (["log(x)", "1"], Box((1e-3, -1), (2, 1)), (0.01, 0.0), 1, (-1.0,), 0.1, 1e-12,
     ValueError),
])
def test_generated_step_raises_like_reference(texts, box, x, k, vfree, dt, tol,
                                              raised):
    form = make_form(["x", "y"], texts, box)
    f_x = form.coefficient_tuple_fn(*x)
    step = _compile_step(form, k, tol)
    assert _outcome(lambda: step(x, f_x, vfree, dt)) is raised
    assert _outcome(lambda: _ref_step(form, x, f_x, vfree, k, dt, tol)) is raised


def test_explore_contact_spreads_in_z():
    sample = explore(CONTACT, (0, 0, 0), 0.3, 50000, 7)
    zs = [abs(e[2]) for e in sample.endpoints]
    assert max(zs) > 1e-3
    assert sample.budget_used == 50000
    assert sample.max_residual <= 1e-6


def test_explore_exact_stays_on_level():
    sample = explore(EXACT3, (0, 0, 0), 0.3, 20000, 7)
    worst = max(abs(sum(e)) for e in sample.endpoints)
    assert worst <= 1e-6


def test_explore_zero_budget():
    sample = explore(EXACT3, (0, 0, 0), 0.3, 0, 7)
    assert sample.endpoints == [(0.0, 0.0, 0.0)]
    assert sample.budget_used == 0


def test_explore_endpoints_stay_in_ball_and_box():
    sample = explore(CONTACT, (0.9, 0.0, 0.9), 0.3, 20000, 11)
    for e in sample.endpoints:
        assert math.dist(e, (0.9, 0.0, 0.9)) <= 0.3 * (1 + 1e-9)
        assert CONTACT.domain.contains(e, tol=1e-9)


def test_explore_rejects_singular_base():
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    with pytest.raises(AnalysisError):
        explore(f, (0.0, 0.0), 0.3, 100, 1)


def test_null_curve_fidelity():
    sample = explore(CONTACT, (0, 0, 0), 0.3, 5000, 3, keep_curves=True)
    assert sample.curves
    for curve in sample.curves:
        assert curve.max_residual <= 1e-6
        assert len(curve.points) == len(curve.params)


def test_estimate_dimension_kinds():
    full = explore(CONTACT, (0, 0, 0), 0.3, 100000, 42)
    assert estimate_dimension(full, 0.05).kind == KIND_FULL
    flat = explore(EXACT3, (0, 0, 0), 0.3, 50000, 42)
    verdict = estimate_dimension(flat, 0.05)
    assert verdict.kind == KIND_CODIM_ONE
    assert verdict.transverse_ratio <= 1e-9


def test_estimate_dimension_single_point():
    sample = ReachSample((0.0, 0.0, 0.0), 0.3, [(0.0, 0.0, 0.0)], [0], 0, 0, 0)
    assert estimate_dimension(sample).kind == KIND_INCONCLUSIVE


def test_estimate_dimension_conservation_thickness():
    sample = explore(EXACT3, (0, 0, 0), 0.3, 30000, 5)
    verdict = estimate_dimension(sample, psi_reference=lambda p: sum(p))
    assert verdict.thickness <= 1e-5


def test_explore_determinism_byte_identical():
    a = explore(CONTACT, (0, 0, 0), 0.3, 20000, 42)
    b = explore(CONTACT, (0, 0, 0), 0.3, 20000, 42)
    assert json_text(a.as_report()) == json_text(b.as_report())
    c = explore(CONTACT, (0, 0, 0), 0.3, 20000, 43)
    assert json_text(c.as_report()) != json_text(a.as_report())


# --- surrounding-line scan ------------------------------------------------------


def test_scan_contact_reaches_free_axis():
    report = surrounding_line_scan(CONTACT, (0, 0, 0), 2, 0.3, 100000)
    assert report.fraction_reached >= 31 / 32


def test_scan_rolling_blocked():
    report = surrounding_line_scan(ROLLING, (0, 0), 0, 0.3, 100000)
    assert report.fraction_reached <= 1 / 32
    # the reachable set is the line x = theta; gaps match the distance to it
    for off, gap in zip(report.offsets, report.gaps):
        assert gap <= abs(off) + 1e-9
        assert gap >= abs(off) / math.sqrt(2) - 1e-9


def test_scan_exact_blocked_along_level_normal():
    report = surrounding_line_scan(EXACT3, (0, 0, 0), 2, 0.3, 60000)
    assert report.fraction_reached <= 1 / 32


def test_scan_gap_trend_reported():
    report = surrounding_line_scan(CONTACT, (0, 0, 0), 2, 0.3, 50000)
    assert len(report.gaps_at_half_budget) == len(report.gaps) == 32
    for g, h in zip(report.gaps, report.gaps_at_half_budget):
        assert g <= h + 1e-12  # gaps can only shrink with more budget


# --- exact outputs recorded from the generic per-stage implementation -----------
#
# Curves and scan gaps are otherwise checked only by bounds.  Each case pins
# the SHA-256 of the byte-stable JSON of the output (17 significant digits,
# so equal digests mean equal floats), plus its counts in the clear.


def _digest(obj):
    return hashlib.sha256(json_text(obj).encode()).hexdigest()


@pytest.mark.parametrize("form, base, used, endpoints, curves, max_residual, digest", [
    (CONTACT, (0.0, 0.0, 0.0), 3000, 253, 7, 1.1523095484137337e-15,
     "02525b4bdaae086c779386a2b8240d3e9755e46e8f49b2385dd092a7844224b0"),
    (CONTACT, (0.9, 0.0, 0.9), 3000, 254, 11, 1.9705956404950012e-14,
     "d18e12da054696097077418a4f70d6193e0058fcd3e63b865cbaa92fbb664c07"),
    (ROLLING, (0.0, 0.0), 3000, 253, 10, 0.0,
     "103ab8adcbea20b3799c673e5de007da2c9a024ed525a61239affbc5c2a412e7"),
    (ROLLING, (0.9, -0.9), 3000, 259, 27, 1.7763568394002565e-14,
     "eee8b87eb9da8f8f8ba3612ff837c66a56197df3b7b9df53750d06e704994f24"),
])
def test_explore_curves_match_recorded(form, base, used, endpoints, curves,
                                       max_residual, digest):
    sample = explore(form, base, 0.3, 3000, 5, keep_curves=True)
    assert (sample.budget_used, len(sample.endpoints), len(sample.curves)) == (
        used, endpoints, curves)
    assert sample.max_residual == max_residual
    assert _digest([
        {"points": c.points.tolist(), "params": c.params.tolist(),
         "max_residual": c.max_residual}
        for c in sample.curves
    ]) == digest


@pytest.mark.parametrize("form, base, free_index, budget, used, fraction, digest", [
    (CONTACT, (0.0, 0.0, 0.0), 2, 8000, 7150, 0.375,
     "c17570eff94d6bd0dda6ea9e08a40cd35e0e961005b5d29bdb7a8e8f4d0584d1"),
    (CONTACT, (0.9, 0.0, 0.9), 2, 8000, 7795, 0.0625,
     "6a88c2afa26bab126f8bae9fd0251317883b3c28bc30deb3939253d23d42ca34"),
    (ROLLING, (0.0, 0.0), 0, 4000, 900, 0.0,
     "3481cfd74e81d5549edd4ce52c587b6b82a14a0d9b5b58d5ed682ea173cf7928"),
    (ROLLING, (0.9, -0.9), 0, 4000, 822, 0.0,
     "6072dc95b378547ecda0a5c008a8db94561f6f4bc2397b6e44dd26c1074e10c9"),
])
def test_scan_matches_recorded(form, base, free_index, budget, used, fraction,
                               digest):
    report = surrounding_line_scan(form, base, free_index, 0.3, budget)
    assert report.budget_used == used
    assert report.fraction_reached == fraction
    assert _digest({"gaps": report.gaps,
                    "half": report.gaps_at_half_budget}) == digest
