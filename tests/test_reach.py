import functools
import hashlib
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fold
from pfaffian import expressions as ex
from pfaffian import forms, reach
from pfaffian.catalog import catalog
from pfaffian.errors import AnalysisError, PfaffianError
from pfaffian.forms import DEFAULT_SINGULAR_TOL, MAX_COORDINATE, Box, make_form
from pfaffian.reach import (
    KIND_CODIM_ONE,
    KIND_FULL,
    KIND_INCONCLUSIVE,
    LOST,
    MAX_SEGMENTS,
    SEGMENT_FRACTION,
    STEPS_PER_SEGMENT,
    ReachSample,
    ScanReport,
    _Seeker,
    estimate_dimension,
    explore,
    surrounding_line_scan,
)
from pfaffian.reports import json_text

CONTACT = make_form(["x", "y", "z"], ["-y", "0", "1"], Box((-1,) * 3, (1,) * 3))
EXACT3 = make_form(["x", "y", "z"], ["1", "1", "1"], Box((-1,) * 3, (1,) * 3))
ROLLING = make_form(["x", "theta"], ["1", "-1"], Box((-1, -1), (1, 1)))


class PivotLostError(AnalysisError):
    """Raised by the references where the generated loops lose their pivot:
    the solved coefficient is singular or the solved velocity not finite."""


def _loop_step(form, k, tol):
    """One step of the generated loops: the lines of ``reach._step_lines``,
    written for the singular tolerance ``tol``, in a function of their inputs.

    ``step(x, f_x, vfree, dt)`` sets the step terms as ``reach._term_lines``
    does and returns ``(x1, f1, residual)``, or LOST where the step raised.
    """
    n = form.n
    free = [i for i in range(n) if i != k]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "DEFAULT_SINGULAR_TOL", tol)
        body = reach._step_lines(form, k, "        ", residual=True)
    xs, fs = (ex.python_tuple(f"{v}{i}" for i in range(n)) for v in "xa")
    source = "\n".join([
        "def step(x, fx, vfree, dt):",
        f"    {xs} = x",
        f"    {fs} = fx",
        f"    {ex.python_tuple(f'v{i}' for i in free)} = vfree",
        *reach._term_lines(free, "    "),
        "    try:",
        *body,
        "    except (ValueError, ArithmeticError):",
        f"        return {LOST!r}",
        f"    return ({ex.python_tuple(f'X{i}' for i in range(n))}), "
        f"({ex.python_tuple(f'e{i}' for i in range(n))}), res",
    ])
    return ex.exec_source(source + "\n", "step")["step"]


def test_constrained_velocity_examples():
    # F = (-y, 0, 1) does not change along a step with v_y = 0, so the step
    # is dt times the constrained velocity; dt / 6.0 and its sixfold are exact
    step = _loop_step(CONTACT, 2, DEFAULT_SINGULAR_TOL)
    x1, _, _ = step((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0), 0.75)
    assert x1 == (0.75, 0.0, 0.0)  # velocity (1, 0, 0)
    x1, _, _ = step((0.0, 1.0, 0.0), (-1.0, 0.0, 1.0), (1.0, 0.0), 0.75)
    assert x1 == (0.75, 1.0, 0.75)  # velocity (1, 0, 1)


def test_steer_step_stationary():
    x = (0.1, 0.2, 0.3)
    nxt, _, resid = _loop_step(CONTACT, 2, DEFAULT_SINGULAR_TOL)(
        x, CONTACT.coefficient_tuple_fn(*x), (0.0, 0.0), 0.01)
    assert nxt == (0.1, 0.2, 0.3)
    assert resid == 0.0


def test_steer_step_annihilates_form():
    x = (0.0, 0.5, 0.0)
    nxt, _, resid = _loop_step(CONTACT, 2, DEFAULT_SINGULAR_TOL)(
        x, CONTACT.coefficient_tuple_fn(*x), (1.0, 0.0), 0.01)
    assert resid <= 1e-10
    assert nxt[2] == pytest.approx(0.005, rel=1e-6)  # dz = y dx with y ~ 0.5


# --- generated step against the generic per-stage reference ---------------------
#
# The reference is the generic loop the generated straight-line step replaced:
# velocity assembly, RK4 stages and the Simpson residual as separate calls.  One
# step of the generated loop must reproduce it bit for bit, and end LOST where
# the reference raises.


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
    pairing = fold(
        (fa + 4.0 * fm + fb) / 6.0 * d for fa, fm, fb, d in zip(f0, fmid, f1, dx)
    )
    fmag = math.sqrt(fold(v * v for v in f1))
    dxmag = math.sqrt(fold(v * v for v in dx))
    if fmag == 0.0 or dxmag == 0.0:
        return 0.0
    return abs(pairing) / (fmag * dxmag)


def _ref_step(form, x, f_x, vfree, k, dt, tol):
    x1, f1, fmid = _ref_rk4(form.coefficient_tuple_fn, x, f_x, vfree, k, dt, tol)
    return x1, f1, _ref_residual(x, x1, f_x, f1, fmid)


def _ref_stepper(form, k, tol):
    """``step(x, f_x, vfree, dt)``: :func:`_ref_step` with pivot ``k``."""
    return lambda x, f_x, vfree, dt: _ref_step(form, x, f_x, vfree, k, dt, tol)


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
        step = _loop_step(form, k, tol)
        for _ in range(25):
            x = tuple(float(v) for v in rng.uniform(lows + 0.1, highs - 0.1))
            f_x = form.coefficient_tuple_fn(*x)
            w = rng.standard_normal(form.n - 1)
            vfree = tuple(float(v) for v in w / np.linalg.norm(w))
            dt = float(rng.uniform(0.005, 0.2))
            want = _outcome(lambda: _ref_step(form, x, f_x, vfree, k, dt, tol))
            if isinstance(want, type):
                want = LOST
            assert step(x, f_x, vfree, dt) == want, (k, x, vfree, dt)


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
    assert _loop_step(form, k, tol)(x, f_x, vfree, dt) == LOST
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


def test_explore_ends_after_idle_rollouts(monkeypatch):
    # F_2 overflows to inf off y = 0, so every first step from the center fails
    form = make_form(["x", "y", "z"], ["exp(800*x)", "y*1e300*1e300 + 1", "z"],
                     Box((-1,) * 3, (1,) * 3))
    rollouts = []
    default_rng = np.random.default_rng

    def counting(seed_sequence):
        rollouts.append(seed_sequence.spawn_key)
        return default_rng(seed_sequence)

    monkeypatch.setattr(np.random, "default_rng", counting)
    sample = explore(form, (0.0, 0.0, 0.0), 0.3, 1500, 42)
    assert rollouts == [(r,) for r in range(MAX_SEGMENTS)]
    assert sample.budget_used == 0 and sample.endpoints == [(0.0, 0.0, 0.0)]


def test_explore_endpoints_stay_in_ball_and_box():
    sample = explore(CONTACT, (0.9, 0.0, 0.9), 0.3, 20000, 11)
    for e in sample.endpoints:
        assert math.dist(e, (0.9, 0.0, 0.9)) <= 0.3 * (1 + 1e-9)
        assert CONTACT.domain.contains(e, tol=1e-9)


def test_explore_rejects_singular_base():
    f = make_form(["x", "y"], ["y", "x"], Box((-1, -1), (1, 1)))
    with pytest.raises(AnalysisError):
        explore(f, (0.0, 0.0), 0.3, 100, 1)


@pytest.mark.parametrize("epsilon", [-0.3, 0.0, math.inf, math.nan, 2e150,
                                     5e-324, 1e-200])
def test_explore_and_scan_reject_bad_radius(epsilon):
    # the radii the CLI refuses: not finite, below 1 / MAX_COORDINATE (whose
    # squares are subnormal or zero), or past MAX_COORDINATE
    with pytest.raises(AnalysisError, match="epsilon"):
        explore(EXACT3, (0.0, 0.0, 0.0), epsilon, 200, 1)
    with pytest.raises(AnalysisError, match="epsilon"):
        surrounding_line_scan(CONTACT, (0.0, 0.0, 0.0), 2, epsilon, 320)


def test_explore_and_scan_reject_a_base_their_steps_cannot_move():
    # 0.5 + 1e-20 / 96 == 0.5: every step would leave the base where it is
    for probe in (lambda: explore(CONTACT, (0.5, 0.5, 0.5), 1e-20, 200, 1),
                  lambda: surrounding_line_scan(CONTACT, (0.5, 0.5, 0.5), 2,
                                                1e-20, 320)):
        with pytest.raises(AnalysisError, match="too small for the base point"):
            probe()


def test_smallest_radius_is_accepted_at_the_center():
    sample = explore(CONTACT, (0.0, 0.0, 0.0), 1 / MAX_COORDINATE, 200, 1)
    assert sample.budget_used == 200 and len(sample.endpoints) > 1
    assert any(e != (0.0, 0.0, 0.0) for e in sample.endpoints)
    scan = surrounding_line_scan(CONTACT, (0.0, 0.0, 0.0), 2, 1 / MAX_COORDINATE, 320)
    assert 0 < scan.budget_used <= 320


POLE = make_form(["x", "y", "z"], ["1/x", "0", "1"], Box((-1,) * 3, (1,) * 3))
SADDLE = make_form(["x", "y", "z"], ["y", "x", "z"], Box((-1,) * 3, (1,) * 3))
LINE = make_form(["x"], ["1"], Box((-1,), (1,)))


def _raised(probe):
    with pytest.raises(PfaffianError) as info:
        probe()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("form, base, epsilon", [
    (CONTACT, (5.0, 0.0, 0.0), 0.3),  # outside the box
    (CONTACT, (math.nan, 0.0, 0.0), 0.3),
    (POLE, (0.0, 0.0, 0.0), 0.3),  # F undefined at the base
    (SADDLE, (0.0, 0.0, 0.0), 0.3),  # F = 0 at the base
    (LINE, (0.0,), 0.3),  # one variable
    (CONTACT, (0.0, 0.0, 0.0), 0.0),
    (CONTACT, (0.0, 0.0, 0.0), math.nan),
    (CONTACT, (0.0, 0.0, 0.0), 2 * MAX_COORDINATE),
], ids=["outside", "nan-base", "pole", "singular", "one-variable", "radius-0",
        "radius-nan", "radius-too-large"])
def test_scan_rejects_the_starts_explore_rejects(form, base, epsilon):
    # both probes check their start in one place: the same error, same message
    want = _raised(lambda: explore(form, base, epsilon, 200, 1))
    free_index = form.n - 1
    assert _raised(lambda: surrounding_line_scan(form, base, free_index, epsilon,
                                                 320)) == want


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


def test_estimate_dimension_collinear_cloud_is_inconclusive():
    # a quadratic graph fits a line, and its second spread is zero: neither
    # a full-dimensional nor a hypersurface cloud
    ends = [(0.01 * i, -0.02 * i, 0.03 * i) for i in range(12)]
    sample = ReachSample((0.0, 0.0, 0.0), 0.3, ends, list(range(12)), 0, 0, 0)
    verdict = estimate_dimension(sample)
    assert verdict.kind == KIND_INCONCLUSIVE
    assert verdict.endpoint_count == 12
    assert math.isfinite(verdict.transverse_ratio)
    assert verdict.spectrum[1] <= 1e-12 * verdict.spectrum[0]


def test_estimate_dimension_conservation_thickness():
    sample = explore(EXACT3, (0, 0, 0), 0.3, 30000, 5)
    verdict = estimate_dimension(sample, psi_reference=lambda p: sum(p))
    assert verdict.thickness <= 1e-5


def _sample_bytes(sample):
    """The report head of a sample with its endpoints and step counts."""
    return json_text({**sample.as_report(),
                      "endpoints": [list(e) for e in sample.endpoints],
                      "step_counts": list(sample.step_counts)})


def test_explore_determinism_byte_identical():
    a = explore(CONTACT, (0, 0, 0), 0.3, 20000, 42)
    b = explore(CONTACT, (0, 0, 0), 0.3, 20000, 42)
    assert _sample_bytes(a) == _sample_bytes(b)
    c = explore(CONTACT, (0, 0, 0), 0.3, 20000, 43)
    assert _sample_bytes(c) != _sample_bytes(a)


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


def test_scan_spends_at_most_its_budget():
    # each of the 32 targets gets budget // 32 steps, none below 32 steps
    for budget in range(1, 65):
        report = surrounding_line_scan(CONTACT, (0, 0, 0), 2, 0.3, budget)
        assert report.budget_used <= budget, budget
    # a target with no steps reports its starting gap
    report = surrounding_line_scan(CONTACT, (0, 0, 0), 2, 0.3, 31)
    assert report.budget_used == 0
    assert report.gaps == report.gaps_at_half_budget == tuple(
        forms.distance((0.0, 0.0, 0.0), (0.0, 0.0, off))
        for off in report.offsets)


def test_align_free_norm_adds_left_to_right(rng):
    # the leg length is the distance to the target over the free axes, added
    # as the generated leg adds (Python 3.12's sum rounds some differently)
    lengths = []

    class Recorder(_Seeker):
        def _leg(self, vfree, k, length):
            lengths.append(length)
            return False

    n = 5
    form = SimpleNamespace(n=n, coefficient_tuple_fn=lambda *p: (1.0,) * n)
    for _ in range(300):
        base = tuple(float(v) for v in rng.uniform(-1, 1, n))
        target = tuple(float(v) for v in rng.uniform(-1, 1, n))
        k = int(rng.integers(n))
        assert not Recorder(form, None, base, target, 1.0, 100)._align_free(k)
        delta = [t - b for i, (t, b) in enumerate(zip(target, base)) if i != k]
        assert repr(lengths[-1]) == repr(math.sqrt(fold(d * d for d in delta)))


def test_scan_gap_trend_reported():
    report = surrounding_line_scan(CONTACT, (0, 0, 0), 2, 0.3, 50000)
    assert len(report.gaps_at_half_budget) == len(report.gaps) == 32
    for g, h in zip(report.gaps, report.gaps_at_half_budget):
        assert g <= h + 1e-12  # gaps can only shrink with more budget


# --- exact outputs recorded from the generic per-stage implementation -----------
#
# Endpoints and scan gaps are otherwise checked only by bounds.  Each case pins
# the SHA-256 of the byte-stable JSON of the output (17 significant digits,
# so equal digests mean equal floats), plus its counts in the clear.


def _digest(obj):
    return hashlib.sha256(json_text(obj).encode()).hexdigest()


@pytest.mark.parametrize("form, base, used, endpoints, max_residual, digest", [
    (CONTACT, (0.0, 0.0, 0.0), 3000, 253, 1.1523095484137337e-15,
     "69ab1098927043bd4b468ed5d7059447f00297fe2723f935f96afd95a5d718e7"),
    (CONTACT, (0.9, 0.0, 0.9), 3000, 254, 1.9705956404950012e-14,
     "20c96563ce23d0e31b12e5c083237a46371e62971b60f3a32d1aa250894391ce"),
    (ROLLING, (0.0, 0.0), 3000, 253, 0.0,
     "5bab23e80c0036a334df0e00be18ec3d3b810aa94c26c6084aa4b6a342fb2459"),
    (ROLLING, (0.9, -0.9), 3000, 259, 1.7763568394002565e-14,
     "3def7dddec7d293c88ce8fa77dc50dd7c984d05fce41303d616b25f2de46b170"),
])
def test_explore_curves_match_recorded(form, base, used, endpoints,
                                       max_residual, digest):
    sample = explore(form, base, 0.3, 3000, 5)
    assert (sample.budget_used, len(sample.endpoints)) == (used, endpoints)
    assert sample.max_residual == max_residual
    assert _digest({"endpoints": [list(e) for e in sample.endpoints],
                    "step_counts": list(sample.step_counts)}) == digest


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


# --- generated segment loops against the per-step reference ---------------------
#
# The references are the per-step loops the generated segment and leg loops
# replaced, in pure Python: one reference step, one containment test and one
# bookkeeping update per step, and exits located by bisection on the step
# fraction with the same trial steps.  ``explore`` and the surrounding-line
# scan must reproduce them bit for bit.  Each reference also tallies how its
# steps ended (ball exit, box exit, pivot loss or domain error), so the cases
# can be shown to cover every branch.

_STEP_ERRORS = (PivotLostError, ValueError, ZeroDivisionError, OverflowError)


def _ref_inside(box, center, limit, squared):
    """``inside(q)``: q lies in ``box`` and within ``limit`` of ``center``.

    Within means a squared distance ``<= limit`` when ``squared``, else a
    distance ``<= limit``; the squares add left to right from 0.0.
    """
    def inside(q):
        if not all(lo <= v <= hi for v, lo, hi in zip(q, box.lows, box.highs)):
            return False
        dist2 = fold((v - c) ** 2 for v, c in zip(q, center))
        return (dist2 if squared else math.sqrt(dist2)) <= limit

    return inside


def _ref_bisect(step, x, f_x, vfree, dt, inside):
    """Largest step fraction that stays inside; returns the boundary state.

    Each trial re-steps ``step(x, f_x, vfree, dt * fraction)`` from ``x``;
    a trial that raises ends the bisection with that error.
    """
    lo, hi = 0.0, 1.0
    state_lo = (x, f_x)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        xm, fm, _ = step(x, f_x, vfree, dt * mid)
        if inside(xm):
            lo = mid
            state_lo = (xm, fm)
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return state_lo


def _tally_exit(tally, form, x_new):
    tally["box_exit" if not form.domain.contains(x_new) else "ball_exit"] += 1


def _ref_explore(form, p, epsilon, budget, seed, tally, singular_tol):
    """``explore`` taking one reference step at a time."""
    p = tuple(float(v) for v in p)
    coeffs = form.coefficient_tuple_fn
    n = form.n
    inside = _ref_inside(form.domain, p, epsilon * epsilon, squared=True)
    dt = (epsilon * SEGMENT_FRACTION) / STEPS_PER_SEGMENT
    endpoints = [p]
    step_counts = [0]
    used = 0
    max_resid = 0.0
    rollout = 0
    while used < budget:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rollout,)))
        rollout += 1
        x = p
        f_x = coeffs(*x)
        rollout_steps = 0
        alive = True
        pivot = None
        for _seg in range(MAX_SEGMENTS):
            if not alive or used >= budget:
                break
            k = max(range(n), key=lambda i: abs(f_x[i]))
            if abs(f_x[k]) <= singular_tol:
                break
            if pivot is not None and k != pivot:
                tally["pivot_change"] += 1
            pivot = k
            step = _ref_stepper(form, k, singular_tol)
            vfree = rng.standard_normal(n - 1)
            norm = float(np.linalg.norm(vfree))
            if norm == 0.0:
                tally["zero_row"] += 1
                continue
            vfree = tuple(float(v) / norm for v in vfree)
            for _j in range(STEPS_PER_SEGMENT):
                if used >= budget:
                    tally["budget"] += 1
                    break
                try:
                    x_new, f_new, resid = step(x, f_x, vfree, dt)
                except _STEP_ERRORS as exc:
                    tally[type(exc).__name__] += 1
                    alive = False
                    break
                used += 1
                rollout_steps += 1
                if resid > max_resid:
                    max_resid = resid
                if not inside(x_new):
                    _tally_exit(tally, form, x_new)
                    try:
                        x_cross, _ = _ref_bisect(step, x, f_x, vfree, dt, inside)
                    except _STEP_ERRORS:
                        alive = False
                        break
                    if inside(x_cross):
                        endpoints.append(x_cross)
                        step_counts.append(rollout_steps)
                    alive = False
                    break
                x, f_x = x_new, f_new
            else:
                endpoints.append(x)
                step_counts.append(rollout_steps)
                continue
            break
    return ReachSample(p, float(epsilon), endpoints, step_counts, int(seed),
                       int(budget), used, max_resid)


class _RefSeeker(_Seeker):
    """``_Seeker`` whose legs step and note one reference step at a time, on
    solved coefficients above ``tol``; it runs with ``tol`` as the singular
    tolerance of ``reach``."""

    def __init__(self, tally, inside, tol, form, *args):
        super().__init__(form, *args)
        self.tally = tally
        self.inside = inside
        self.tol = tol
        self.form = form

    def run(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forms, "DEFAULT_SINGULAR_TOL", self.tol)
            return super().run()

    def _leg(self, vfree, k, length):
        step = _ref_stepper(self.form, k, self.tol)
        steps = max(1, int(math.ceil(length / (self.dt))))
        dt = length / steps
        for _ in range(steps):
            if self.used >= self.budget:
                self.tally["budget"] += 1
                return False
            try:
                x_new, f_new, _ = step(self.x, self.f, vfree, dt)
            except _STEP_ERRORS as exc:
                self.tally[type(exc).__name__] += 1
                return False
            self.used += 1
            if not self.inside(x_new):
                _tally_exit(self.tally, self.form, x_new)
                try:
                    x_cross, f_cross = _ref_bisect(step, self.x, self.f, vfree,
                                                   dt, self.inside)
                except _STEP_ERRORS:
                    return False
                self.x, self.f = x_cross, f_cross
                self._note(self.x)
                return False
            self.x, self.f = x_new, f_new
            self._note(self.x)
        return True


def _ref_scan(form, p, free_index, epsilon, budget, tally, singular_tol,
              n_targets=32):
    """``surrounding_line_scan`` through :class:`_RefSeeker`."""
    p = tuple(float(v) for v in p)
    offsets = np.linspace(-epsilon, epsilon, n_targets)
    per_budget = budget // n_targets
    inside = _ref_inside(form.domain, p, epsilon * (1 + 1e-12), squared=False)
    gaps, halves, used_total = [], [], 0
    for off in offsets:
        q = list(p)
        q[free_index] += float(off)
        seeker = _RefSeeker(tally, inside, singular_tol, form, None, p, tuple(q),
                            epsilon, per_budget)
        try:
            gap, half, used = seeker.run()
        except _STEP_ERRORS:
            gap, half, used = seeker.best, seeker.best_at_half, seeker.used
            half = gap if half is None else half
        gaps.append(gap)
        halves.append(half)
        used_total += used
    gap_tol = epsilon * 0.01
    fraction = sum(1 for g in gaps if g <= gap_tol) / len(gaps)
    return ScanReport(free_index, float(epsilon), int(budget), used_total,
                      tuple(float(o) for o in offsets), tuple(gaps),
                      tuple(halves), gap_tol, fraction)


def _sample_bits(sample):
    """Every float of a ReachSample as exact text."""
    return repr((sample.base, sample.epsilon, sample.endpoints,
                 sample.step_counts, sample.seed, sample.budget,
                 sample.budget_used, sample.max_residual))


LOG_EDGE = make_form(["x", "y"], ["log(x) + 3", "1"], Box((1e-3, -1), (2, 1)))
SQRT_EDGE = make_form(["x", "y", "z"], ["sqrt(x)", "1", "y"],
                      Box((0, -1, -1), (1, 1, 1)))
# the step toward x < 0 fails at once: a scan leg's first chunk takes no step
LOG_WALL = make_form(["x", "y"], ["-log(x) - 3", "1"], Box((1e-3, -1), (2, 1)))
PIVOT_DROP = make_form(["x", "y"], ["x", "0.3"], Box((-1, -1), (1, 1)))
CATALOG = {e.name: e.form for e in catalog()}

# (form, base, epsilon, singular_tol): the catalog entries at their box
# centers and near a box corner, and forms whose steps fail mid-segment
LOOP_CASES = [
    *((e.name, e.form, e.form.domain.center, 0.3, DEFAULT_SINGULAR_TOL)
      for e in catalog()),
    *((f"{e.name}-corner", e.form,
       tuple(lo + 0.05 * (hi - lo) for lo, hi in zip(e.box.lows, e.box.highs)),
       0.3, DEFAULT_SINGULAR_TOL)
      for e in catalog()),
    ("log-edge", LOG_EDGE, (0.05, 0.0), 0.3, DEFAULT_SINGULAR_TOL),
    ("log-wall", LOG_WALL, (0.003, 0.0), 0.3, DEFAULT_SINGULAR_TOL),
    ("sqrt-edge", SQRT_EDGE, (0.02, 0.0, 0.0), 0.3, DEFAULT_SINGULAR_TOL),
    ("pivot-drop", PIVOT_DROP, (0.5, 0.0), 0.3, 0.45),
    # a step leaving the box from the base, where no bisection trial stays
    # inside, records the base again when it lies on the face, and nothing
    # when it lies past the face within the tolerance explore allows
    ("contact-face", CATALOG["contact"], (1.0, 0.0, 0.0), 0.3,
     DEFAULT_SINGULAR_TOL),
    ("contact-past-face", CATALOG["contact"], (1.0 + 5e-13, 0.0, 0.0), 0.3,
     DEFAULT_SINGULAR_TOL),
]
EXPLORE_BUDGETS = (1, 7, 1003)  # 7 and 1003 end mid-segment
SCAN_BUDGETS = (32, 100, 1500)  # half-budget checkpoints after 0, 1, 23 steps


def _set_singular_tol(monkeypatch, tol):
    """Run ``explore`` and the scan with the singular tolerance ``tol``."""
    monkeypatch.setattr(forms, "DEFAULT_SINGULAR_TOL", tol)


@functools.cache
def _reference(kind, case, budget, arg):
    """Reference output and its step tally; ``arg`` is the seed or free index."""
    _, form, base, epsilon, tol = LOOP_CASES[case]
    tally = Counter()
    if kind == "explore":
        out = _ref_explore(form, base, epsilon, budget, arg, tally, tol)
    else:
        out = _ref_scan(form, base, arg, epsilon, budget, tally, tol)
    return out, tally


@pytest.mark.parametrize("budget", EXPLORE_BUDGETS)
@pytest.mark.parametrize("case", range(len(LOOP_CASES)),
                         ids=[c[0] for c in LOOP_CASES])
def test_explore_matches_per_step_reference(case, budget, monkeypatch):
    _, form, base, epsilon, tol = LOOP_CASES[case]
    _set_singular_tol(monkeypatch, tol)
    for seed in (1, 2, 3):
        got = explore(form, base, epsilon, budget, seed)
        want, _ = _reference("explore", case, budget, seed)
        assert _sample_bits(got) == _sample_bits(want), seed


class _ZeroRowGenerator:
    """The normal draws of ``rng`` with every third direction row zero, in
    the order of one row per segment, whether drawn row by row or at once."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        rows = out.reshape(-1, out.shape[-1])
        for i in range(len(rows)):
            if (self.rows + i) % 3 == 2:
                rows[i] = 0.0
        self.rows += len(rows)
        return out


def _zero_rows(monkeypatch):
    """Draw directions through :class:`_ZeroRowGenerator`."""
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seeds: _ZeroRowGenerator(default_rng(seeds)))


ZERO_ROW_BUDGET = 1003


@functools.cache
def _zero_row_reference(case, seed):
    """Reference ``explore`` output and tally with every third row zero."""
    _, form, base, epsilon, tol = LOOP_CASES[case]
    tally = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _zero_rows(patch)
        out = _ref_explore(form, base, epsilon, ZERO_ROW_BUDGET, seed, tally, tol)
    return out, tally


@pytest.mark.parametrize("case", range(len(LOOP_CASES)),
                         ids=[c[0] for c in LOOP_CASES])
def test_explore_skips_zero_rows_like_reference(case, monkeypatch):
    # a zero direction row is skipped without a step, inside a rollout that
    # may change its pivot around it
    _, form, base, epsilon, tol = LOOP_CASES[case]
    _set_singular_tol(monkeypatch, tol)
    _zero_rows(monkeypatch)
    got = explore(form, base, epsilon, ZERO_ROW_BUDGET, 1)
    want, _ = _zero_row_reference(case, 1)
    assert _sample_bits(got) == _sample_bits(want)


@pytest.mark.parametrize("budget", SCAN_BUDGETS)
@pytest.mark.parametrize("case", range(len(LOOP_CASES)),
                         ids=[c[0] for c in LOOP_CASES])
def test_scan_matches_per_step_reference(case, budget, monkeypatch):
    _, form, base, epsilon, tol = LOOP_CASES[case]
    _set_singular_tol(monkeypatch, tol)
    for free_index in range(form.n):
        got = surrounding_line_scan(form, base, free_index, epsilon, budget)
        want, _ = _reference("scan", case, budget, free_index)
        assert repr(got) == repr(want), free_index


@pytest.mark.parametrize("kind, budgets, args", [
    ("explore", EXPLORE_BUDGETS, lambda form: (1, 2, 3)),
    ("scan", SCAN_BUDGETS, lambda form: range(form.n)),
])
def test_loop_references_cover_every_ending(kind, budgets, args):
    """The cases above end steps at the budget, ball, box and in errors; the
    rollouts of ``explore`` also change pivot and skip zero rows."""
    tally = Counter()
    for case, (_, form, *_rest) in enumerate(LOOP_CASES):
        for budget in budgets:
            for arg in args(form):
                tally.update(_reference(kind, case, budget, arg)[1])
        if kind == "explore":
            tally.update(_zero_row_reference(case, 1)[1])
    assert tally["budget"] and tally["ball_exit"] and tally["box_exit"], tally
    assert tally["ValueError"] and tally["PivotLostError"], tally
    if kind == "explore":
        assert tally["pivot_change"] and tally["zero_row"], tally
