import math

import numpy as np
import pytest

from conftest import dopri5_start, dopri5_step, fold, secant_bisect_root, start_slope
from pfaffian import expressions as ex
from pfaffian.errors import AnalysisError
from pfaffian.catalog import catalog, entry
from pfaffian.factor import SurfaceField, _characteristic_kernel, _integrate_unit
from pfaffian.forms import DEFAULT_SINGULAR_TOL, Box, make_form
from pfaffian.ode import (
    _A,
    _B5,
    _C,
    _E,
    bisect_root,
    compile_kernel,
)
from pfaffian.sampling import box_grid

# --- generated kernels against the stage-by-stage reference ---------------------
#
# The reference is the generic Dormand-Prince attempt and step loop the
# generated straight-line functions replaced, driven by the right-hand-side
# closures of characteristics and surface paths.  The generated functions must
# reproduce them bit for bit (compared through repr, so -0.0 and NaN count), end
# with the same statuses and raise the same exception classes.  The reference adds the terms of each stage
# combination left to right from 0.0 (``fold``), the rounding the generated
# code spells out; the builtin ``sum`` rounds that way up to Python 3.11 only.


class _RefLeftBounds(Exception):
    """A stage of the reference attempt left the widened bounds."""


def _ref_attempt(rhs, t, y, f0, dt, wide=None, total=fold):
    k = [f0]
    n = len(y)
    for s in range(1, 7):
        ts = t + _C[s] * dt
        ys = tuple(
            y[i] + dt * total(_A[s][j] * k[j][i] for j in range(s))
            for i in range(n)
        )
        if wide is not None and not wide[0] <= ys[0] <= wide[1]:
            raise _RefLeftBounds
        k.append(rhs(ts, ys))
    y1 = tuple(y[i] + dt * total(_B5[j] * k[j][i] for j in range(7)) for i in range(n))
    err = tuple(dt * total(_E[j] * k[j][i] for j in range(7)) for i in range(n))
    for v in y1:
        if not math.isfinite(v):
            raise ArithmeticError("non-finite state")
    return t + dt, y1, err, k[6]


class _RefDopri5:
    """The Dormand-Prince stepper as a Python loop around :func:`_ref_attempt`.

    Step-size control, error norm and step budget as the Python step method
    wrote them before the loop was generated.  With ``bounds = ((lo, hi),
    (wide_lo, wide_hi))`` an attempt whose stage leaves the widened bounds ends
    the solve as a box exit when the last accepted state lies past ``[lo, hi]``
    moving out, and from a state inside ``[lo, hi]`` the next step lands in
    the band past the face its slope moves towards (:meth:`_landing`);
    without ``bounds`` every refused attempt halves the step.
    ``step`` and ``solve`` return the status the generated loop returns:
    "ok", "max_steps", "box_exit" or "step_rejection".  The counts
    ``accepted`` and ``rejected`` run over every call.
    """

    def __init__(self, rhs, t, y, direction=1.0, rtol=1e-9, atol=1e-12,
                 max_steps=100000, h=0.0, bounds=None):
        self.rhs = rhs
        self.t = t
        self.y = tuple(float(v) for v in y)
        self.direction = 1.0 if direction >= 0 else -1.0
        self.rtol, self.atol, self.max_steps = rtol, atol, max_steps
        self._h = h
        self.bounds = bounds
        self.accepted = self.rejected = 0
        self._f0 = rhs(self.t, self.y)

    def state(self):
        """``(t, y, f0, h, accepted, rejected)``, the state ``advance`` returns."""
        return self.t, self.y, self._f0, self._h, self.accepted, self.rejected

    def _error_norm(self, y0, y1, err):
        acc = 0.0
        for e, a, b in zip(err, y0, y1):
            scale = self.atol + self.rtol * max(abs(a), abs(b))
            acc += (e / scale) ** 2
        return math.sqrt(acc / len(err))

    def _box_exit(self):
        (lo, hi), _ = self.bounds
        slope = self._f0[0] * self.direction
        return self.y[0] > hi and slope > 0.0 or self.y[0] < lo and slope < 0.0

    def _landing(self, h, h_floor):
        """The step after a bounds refusal of the step ``h``.

        From a state inside ``[lo, hi]`` with a nonzero slope, the Euler
        step onto the middle of the band between the face the slope moves
        towards and the widened bound, within ``[h_floor, h / 2]``; from
        any other state ``h / 2``.
        """
        (lo, hi), (wide_lo, wide_hi) = self.bounds
        slope = self._f0[0] * self.direction
        if not lo <= self.y[0] <= hi or slope == 0.0:
            return h / 2.0
        middle = 0.5 * (hi + wide_hi) if slope > 0.0 else 0.5 * (lo + wide_lo)
        return min(h / 2.0, max((middle - self.y[0]) / slope, h_floor))

    def step(self, t_limit):
        span = abs(t_limit - self.t)
        if span == 0.0:
            return "ok"
        if self._h == 0.0:
            self._h = min(span, max(1e-6, 0.01 * span))
        h_floor = max(1e-14, 1e-14 * abs(self.t), 1e-12 * span if span < 1 else 1e-14)
        wide = self.bounds[1] if self.bounds else None
        while True:
            if self.accepted + self.rejected >= self.max_steps:
                return "max_steps"
            h = min(self._h, span)
            dt = self.direction * h
            try:
                t1, y1, err, f_last = _ref_attempt(self.rhs, self.t, self.y,
                                                   self._f0, dt, wide)
            except _RefLeftBounds:
                self.rejected += 1
                self._h = h / 2.0
                if self._box_exit():
                    return "box_exit"
                self._h = self._landing(h, h_floor)
                if self._h < h_floor:
                    return "step_rejection"
                continue
            except (ValueError, ZeroDivisionError, OverflowError, ArithmeticError):
                self.rejected += 1
                self._h = h / 2.0
                if self._h < h_floor:
                    return "step_rejection"
                continue
            norm = self._error_norm(self.y, y1, err)
            if norm <= 1.0 or h <= h_floor:
                self.accepted += 1
                self.t, self.y, self._f0 = t1, y1, f_last
                factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
                self._h = h * factor
                return "ok"
            self.rejected += 1
            self._h = max(h * max(0.2, 0.9 * norm ** -0.2), h_floor / 2)
            if self._h < h_floor:
                return "step_rejection"

    def solve(self, t_end):
        while (self.t - t_end) * self.direction < 0:
            status = self.step(t_end)
            if status != "ok":
                return status
        return "ok"


def _drive(step, t_limit, steps=6):
    """``repr`` of ``(status, state)`` after each of up to ``steps`` calls.

    ``step(t_limit) -> (status, state)`` makes one accepted step; a status
    other than "ok" ends the list.
    """
    seen = []
    for _ in range(steps):
        status, state = step(t_limit)
        seen.append(repr((status, state)))
        if status != "ok":
            break
    return seen


def _assert_steppers_match(kernel, params, ref, t, y, dt, bounds=None):
    """Generated and reference steppers agree step by step from ``(t, y)``.

    The generated loop runs one accepted step per ``kernel`` call
    (:func:`dopri5_step`, the limit of one more step).  Both start with step size
    ``|dt|`` in the direction of ``dt``, once with a large step budget and
    once with a budget of three attempts.
    """
    for rtol, atol, budget in ((1e-9, 1e-12, 100000), (1e-11, 1e-13, 3)):
        options = dict(direction=dt, rtol=rtol, atol=atol, max_steps=budget)
        state = dopri5_start(kernel, t, y, params, abs(dt))
        reference = _RefDopri5(ref, t, y, h=abs(dt), bounds=bounds, **options)
        assert repr(state) == repr(reference.state())

        def gen_step(t_limit):
            nonlocal state
            status, state = dopri5_step(kernel, state, t_limit, params=params,
                                        **options)
            return status, state

        def ref_step(t_limit):
            return reference.step(t_limit), reference.state()

        assert _drive(gen_step, t + 2.0 * dt) == _drive(ref_step, t + 2.0 * dt)


def _ref_characteristic_rhs(form, b, singular_tol):
    fns = [ex.compile_scalar(c, form.n) for c in form.coefficients]
    a = 1 - b

    def rhs(t, y):
        p = [0.0, 0.0]
        p[a] = t
        p[b] = y[0]
        fa, fb = fns[a](*p), fns[b](*p)
        if abs(fb) <= singular_tol:
            raise ZeroDivisionError("solved coefficient vanished")
        return (-fa / fb,)

    return rhs


def _ref_path_rhs(field, u0, deltas):
    fns = [ex.compile_scalar(c, field.form.n) for c in field.form.coefficients]
    free = field.free_index
    lo, hi = field._free_bounds

    def rhs(t, y):
        xn = y[0]
        if not lo <= xn <= hi:
            raise ValueError("free coordinate left the box")
        u = tuple(a + t * d for a, d in zip(u0, deltas))
        p = [0.0] * field.form.n
        for idx, val in zip(field.other, u):
            p[idx] = val
        p[free] = xn
        fn_val = fns[free](*p)
        if abs(fn_val) <= DEFAULT_SINGULAR_TOL:
            raise ZeroDivisionError("free coefficient vanished on the path")
        total = 0.0
        for idx, d in zip(field.other, deltas):
            if d != 0.0:
                total += fns[idx](*p) * d
        return (-total / fn_val,)

    return rhs


def _outcome(call):
    try:
        return repr(call())
    except (ValueError, ZeroDivisionError, OverflowError, ArithmeticError) as exc:
        return type(exc)


def _assert_kernel_matches(kernel, params, ref, t, y, dt, bounds=None):
    """The start slope and the step loop of ``kernel`` equal the reference at
    (t, y, dt)."""
    assert (_outcome(lambda: start_slope(kernel, t, y, params))
            == _outcome(lambda: ref(t, y)))
    try:
        ref(t, y)
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    _assert_steppers_match(kernel, params, ref, t, y, dt, bounds)


def _path_bounds(field):
    box = field.form.domain
    free = field.free_index
    return (box.lows[free], box.highs[free]), field._free_bounds


# together these use every node kind: exp, log, sin, cos, sqrt, ^ (positive,
# negative and fractional exponents), division, negation and a constant
CHARACTERISTIC_FORMS = [
    (["exp(x) * y + 2", "-(x / (1 + y^2))"], Box((-0.5, -0.5), (0.5, 0.5))),
    (["log(2 + x) * y - 1", "sin(y) - cos(x) + sqrt(3 + x * y) + y^-1.5"],
     Box((-0.5, 0.5), (0.5, 1.5))),
    (["1.5", "x / y"], Box((1, 1), (2, 2))),
]


@pytest.mark.parametrize("texts, box", CHARACTERISTIC_FORMS,
                         ids=[f"form{i}" for i in range(len(CHARACTERISTIC_FORMS))])
@pytest.mark.parametrize("b", [0, 1])
def test_characteristic_kernel_bit_identical(texts, box, b):
    form = make_form(["x", "y"], texts, box)
    tol = 1e-12
    kernel = _characteristic_kernel(form, b)
    ref = _ref_characteristic_rhs(form, b, tol)
    rng = np.random.default_rng(10 + b)
    lows, highs = np.asarray(box.lows), np.asarray(box.highs)
    a = 1 - b
    for _ in range(40):
        p = rng.uniform(lows + 0.05, highs - 0.05)
        t, y = float(p[a]), (float(p[b]),)
        dt = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.3))
        _assert_kernel_matches(kernel, (), ref, t, y, dt)


PATH_FORMS = [
    (["x", "y"], ["exp(x) * y + 2", "3 + sin(x * y) - sqrt(1 + y^2)"],
     Box((-0.5,) * 2, (0.5,) * 2)),
    (["x", "y", "z"], ["log(2 + x) * z - 1", "sin(y) - cos(z)", "sqrt(3 + x * y) + 2"],
     Box((-0.5,) * 3, (0.5,) * 3)),
    (["x", "y", "z", "w"],
     ["1.5", "x * y^3 - w", "cos(x + z) / (2 + sin(w))", "exp(-y) + z^2 + (w + 2)^-1"],
     Box((-0.5,) * 4, (0.5,) * 4)),
]


def _path_deltas(rng, m):
    """Increments of every shape: general, one axis (staircase), all zero."""
    general = rng.uniform(-0.8, 0.8, m)
    single = np.zeros(m)
    single[rng.integers(m)] = rng.uniform(-0.8, 0.8)
    return [tuple(float(d) for d in v) for v in (general, single, np.zeros(m))]


@pytest.mark.parametrize("names, texts, box", PATH_FORMS,
                         ids=[f"n{len(f[0])}" for f in PATH_FORMS])
def test_path_kernel_bit_identical(names, texts, box):
    form = make_form(names, texts, box)
    rng = np.random.default_rng(len(names))
    lows, highs = np.asarray(box.lows), np.asarray(box.highs)
    for free in range(form.n):
        field = SurfaceField(form, free, box.center)
        other = list(field.other)
        for _ in range(12):
            p = rng.uniform(lows + 0.05, highs - 0.05)
            u0 = tuple(float(p[i]) for i in other)
            for deltas in _path_deltas(rng, len(other)):
                ref = _ref_path_rhs(field, u0, deltas)
                t = float(rng.uniform(0.0, 1.0))
                y = (float(p[free]),)
                dt = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.5))
                _assert_kernel_matches(field.kernel, (*u0, *deltas), ref, t, y, dt,
                                       _path_bounds(field))


def test_two_component_kernel_bit_identical():
    def body(t, ys, ks):
        return [f"{ks[0]} = {ys[1]}", f"{ks[1]} = -{ys[0]} * _exp(0.1 * {t})"]

    kernel = compile_kernel(2, body)

    def ref(t, y):
        return (y[1], -y[0] * math.exp(0.1 * t))

    rng = np.random.default_rng(2)
    for _ in range(20):
        y = tuple(float(v) for v in rng.uniform(-2, 2, 2))
        _assert_kernel_matches(kernel, (), ref, float(rng.uniform(-1, 1)), y,
                               float(rng.uniform(-0.5, 0.5)))


def test_signed_zero_and_infinite_stages_bit_identical():
    # a right-hand side that reads the sign of a zero state: a stage
    # combination adds from 0.0, so the first stage from y = -0.0 lands on
    # +0.0, where a chain of additions from the first term would stay at -0.0
    signed = compile_kernel(
        1, lambda t, ys, ks: [f"{ks[0]} = -0.0 if repr({ys[0]}) == '-0.0' else 1.0"])

    def sign_ref(t, y):
        return (-0.0 if repr(y[0]) == "-0.0" else 1.0,)

    _assert_kernel_matches(signed, (), sign_ref, 0.0, (-0.0,), 0.5)
    # a right-hand side infinite at the first stage only: the zero tableau
    # entries still multiply it, so the attempt turns NaN and is refused
    body = lambda t, ys, ks: [f"{ks[0]} = 1e308 * 10.0 if {t} == 0.25 else 1.0"]  # noqa: E731
    spike = compile_kernel(1, body)

    def ref(t, y):
        return (1e308 * 10.0 if t == 0.25 else 1.0,)

    assert _outcome(lambda: _ref_attempt(ref, 0.0, (0.0,), (1.0,), 1.25)) is ArithmeticError
    _assert_kernel_matches(spike, (), ref, 0.0, (0.0,), 1.25)
    assert _refused_first_attempt(spike, (), 0.0, (0.0,), 1.25)


def test_stage_combinations_add_left_to_right():
    # the right-hand side is 1e16 at t = 0, 1 at t = 0.3 and -1.4e15 at
    # t = 0.8, so that the solution's combination reads 35/384 * 1e16 +
    # 500/1113 * 1 + 125/192 * -1.4e15: its large terms cancel exactly, and
    # added left to right they round the small one to 0.5, where a
    # compensated sum keeps 0.449...
    def ref(t, y):
        return (1e16 if t == 0.0 else 1.0 if t == 0.3
                else -1.4e15 if t == 0.8 else 0.0,)

    kernel = compile_kernel(1, lambda t, ys, ks: [
        f"{ks[0]} = 1e16 if {t} == 0.0 else 1.0 if {t} == 0.3"
        f" else -1.4e15 if {t} == 0.8 else 0.0"])
    f0 = ref(0.0, (0.0,))
    _, y1, _, _ = _ref_attempt(ref, 0.0, (0.0,), f0, 1.0)
    _, compensated, _, _ = _ref_attempt(ref, 0.0, (0.0,), f0, 1.0, total=math.fsum)
    assert y1 == (0.5,) and compensated != y1
    # a huge atol accepts the attempt, whatever its error estimate
    status, t, y, *_ = kernel(0.0, (0.0,), f0, 1.0, 1.0, 1.0, 1e-9, 1e30, 1, 0, 0, 1)
    assert (status, t, y) == ("ok", 1.0, y1)
    _assert_kernel_matches(kernel, (), ref, 0.0, (0.0,), 1.0)


def test_path_terms_with_zero_increment_are_not_evaluated():
    # F_1 = log(y) is undefined below y = 0, but the path never moves in x
    form = make_form(["x", "y"], ["log(y)", "2"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.5))
    u0, deltas = (0.0,), (0.0,)
    assert start_slope(field.kernel, 0.0, (-0.5,), (*u0, *deltas)) == (-0.0,)
    _assert_kernel_matches(field.kernel, (*u0, *deltas),
                           _ref_path_rhs(field, u0, deltas), 0.0, (-0.5,), 0.5,
                           _path_bounds(field))


# --- the same exception classes as the reference --------------------------------
#
# An attempt the reference raises on is refused by the generated stepper: with a
# budget of one attempt, it ends as "max_steps" with that attempt rejected and the
# step halved, or set to ``h_next``.


def _refused_first_attempt(kernel, params, t, y, dt, h_next=None):
    state = dopri5_start(kernel, t, y, params, abs(dt))
    status, (_, _, _, h, accepted, rejected) = dopri5_step(
        kernel, state, t + 2.0 * dt, dt, max_steps=1, params=params)
    expected = abs(dt) / 2.0 if h_next is None else h_next
    return (status, accepted, rejected, h) == ("max_steps", 0, 1, expected)


def test_vanishing_solved_coefficient_raises_like_reference():
    form = make_form(["x", "y"], ["1", "x"], Box((-1, -1), (1, 1)))
    kernel = _characteristic_kernel(form, 1)
    ref = _ref_characteristic_rhs(form, 1, 1e-12)
    f0 = ref(0.1, (0.0,))
    # the first stage lands on x = 0.1 + 0.2 * (-0.5) = 0, where F_2 = x vanishes
    assert _outcome(lambda: _ref_attempt(ref, 0.1, (0.0,), f0, -0.5)) is ZeroDivisionError
    assert _refused_first_attempt(kernel, (), 0.1, (0.0,), -0.5)
    _assert_steppers_match(kernel, (), ref, 0.1, (0.0,), -0.5)
    assert _outcome(lambda: start_slope(kernel, 0.0, (0.3,))) is ZeroDivisionError


def test_free_coordinate_leaving_bounds_raises_like_reference():
    form = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.0))
    u0, deltas = (1.0,), (-2.0,)  # dy/dt = 2: climbs out of the top of the box
    params = (*u0, *deltas)
    ref = _ref_path_rhs(field, u0, deltas)
    y = (0.999,)
    f0 = ref(0.0, y)
    assert _outcome(lambda: _ref_attempt(ref, 0.0, y, f0, 0.1)) is ValueError
    # the next step is the Euler step onto the middle of the band past y = 1
    landing = (0.5 * (1.0 + field._free_bounds[1]) - 0.999) / 2.0
    assert _refused_first_attempt(field.kernel, params, 0.0, y, 0.1, landing)
    _assert_steppers_match(field.kernel, params, ref, 0.0, y, 0.1, _path_bounds(field))
    assert _outcome(lambda: start_slope(field.kernel, 0.0, (1.5,), params)) is ValueError


def test_zero_free_coefficient_raises_like_reference():
    form = make_form(["x", "y"], ["0", "x"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.5, 0.0))
    # y stays put while the path reaches x = 0, where F_free = x vanishes
    u0, deltas = (0.5,), (-0.5,)
    params = (*u0, *deltas)
    ref = _ref_path_rhs(field, u0, deltas)
    assert (_outcome(lambda: start_slope(field.kernel, 1.0, (0.0,), params))
            is ZeroDivisionError)
    assert _outcome(lambda: ref(1.0, (0.0,))) is ZeroDivisionError
    f0 = ref(0.0, (0.0,))
    assert _outcome(lambda: _ref_attempt(ref, 0.0, (0.0,), f0, 1.0)) is ZeroDivisionError
    assert _refused_first_attempt(field.kernel, params, 0.0, (0.0,), 1.0)
    _assert_steppers_match(field.kernel, params, ref, 0.0, (0.0,), 1.0,
                          _path_bounds(field))


@pytest.mark.parametrize("f_free", ["1e-13", "-1e-12", "0"])
def test_singular_free_coefficient_raises_like_a_solved_one(f_free):
    # a surface path divides by F_free where a characteristic divides by its
    # solved coefficient: both refuse the same singular values
    form = make_form(["x", "y"], ["1", f_free], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.0))
    params = (0.0, 0.3)
    ref = _ref_path_rhs(field, params[:1], params[1:])
    assert (_outcome(lambda: start_slope(field.kernel, 0.0, (0.0,), params))
            is ZeroDivisionError)
    assert _outcome(lambda: ref(0.0, (0.0,))) is ZeroDivisionError
    characteristic = _characteristic_kernel(form, 1)
    assert (_outcome(lambda: start_slope(characteristic, 0.0, (0.0,)))
            is ZeroDivisionError)
    with pytest.raises(AnalysisError, match="^surface integration failed"):
        field.value((0.3,), 0.0)


def test_log_of_negative_stage_value_raises_like_reference():
    form = make_form(["x", "y"], ["log(x)", "1"], Box((1e-3, -1), (2, 1)))
    kernel = _characteristic_kernel(form, 1)
    ref = _ref_characteristic_rhs(form, 1, 1e-12)
    f0 = ref(0.01, (0.0,))
    # the first stage lands on x = 0.01 - 0.02 < 0
    assert _outcome(lambda: _ref_attempt(ref, 0.01, (0.0,), f0, -0.1)) is ValueError
    assert _refused_first_attempt(kernel, (), 0.01, (0.0,), -0.1)
    _assert_steppers_match(kernel, (), ref, 0.01, (0.0,), -0.1)


# --- stepper behaviour ----------------------------------------------------------


def _decay():
    return compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = -{ys[0]}"])


def _run(kernel, t0, y0, t1, direction=1.0, **options):
    """``(status, state)`` of a solve from ``(t0, y0)`` to ``t1``, one step per call."""
    status, state = "ok", dopri5_start(kernel, t0, y0)
    while status == "ok" and (state[0] - t1) * direction < 0:
        status, state = dopri5_step(kernel, state, t1, direction, **options)
    return status, state


def test_kernel_source_defines_rhs_and_advance_only(monkeypatch):
    sources = []
    run = ex.exec_source

    def recording(source, label, **extra):
        sources.append(source)
        return run(source, label, **extra)

    monkeypatch.setattr(ex, "exec_source", recording)
    kernel = _decay()
    (source,) = sources
    defs = [line.split("(")[0] for line in source.splitlines()
            if line.startswith("def ")]
    assert defs == ["def advance"]
    assert kernel.__name__ == "advance"


def test_dopri5_exponential_decay():
    status, (t, (y,), _, _, accepted, _) = _run(_decay(), 0.0, (1.0,), 1.0,
                                                rtol=1e-11, atol=1e-13)
    assert (status, t) == ("ok", 1.0)
    assert abs(y - math.exp(-1.0)) <= 1e-9
    assert accepted > 0


def test_dopri5_backward_decay():
    status, (t, (y,), *_) = _run(_decay(), 1.0, (math.exp(-1.0),), 0.0,
                                 direction=-1.0, rtol=1e-11, atol=1e-13)
    assert (status, t) == ("ok", 0.0)
    assert abs(y - 1.0) <= 1e-9


def test_dopri5_step_budget():
    status, (*_, accepted, rejected) = _run(_decay(), 0.0, (1.0,), 100.0,
                                            max_steps=5)
    assert status == "max_steps"
    assert accepted + rejected == 5


def test_dopri5_step_collapses_at_pole():
    pole = compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = 1.0 / (1.0 - {t})"])
    status, (t, *_) = _run(pole, 0.0, (0.0,), 2.0)
    assert status == "step_rejection"
    assert t < 1.0


def test_bisect_root_unbracketed():
    with pytest.raises(AnalysisError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_finds_root():
    assert bisect_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0))


def _probed(fn, lo, hi, xtol, root_finder=bisect_root):
    """``(root, probes)`` of ``root_finder`` on ``fn``, ends included."""
    probes = []

    def counted(x):
        probes.append(x)
        return fn(x)

    return root_finder(counted, lo, hi, xtol=xtol), probes


def _stale_end_bound(lo, hi, xtol):
    """Probes a search may make: the two ends, then at most four per halving."""
    return 2 + 4 * math.ceil(math.log2((hi - lo) / xtol))


# (fn, lo, hi, root, most probes at xtol 1e-12 and 1e-13); the flat cubes,
# where halving a stale value cannot keep up, may use the stale-end bound
ROOT_CASES = {
    "linear": (lambda x: 3.0 * x - 1.0, 0.0, 1.0, 1.0 / 3.0, 4),
    "convex": (lambda x: math.exp(x) - 2.0, 0.0, 1.0, math.log(2.0), 12),
    "convex_wide": (lambda x: math.exp(x) - 2.0, -2.0, 3.0, math.log(2.0), 16),
    "flat": (lambda x: x ** 3, -1.0, 2.0, 0.0, None),
    "flat_shifted": (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3, None),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
@pytest.mark.parametrize("xtol", [1e-12, 1e-13])
def test_bisect_root_probe_counts_and_accuracy(case, xtol):
    fn, lo, hi, root, most = ROOT_CASES[case]
    found, probes = _probed(fn, lo, hi, xtol)
    assert abs(found - root) <= xtol
    assert len(probes) <= (most or _stale_end_bound(lo, hi, xtol))
    assert probes[:2] == [lo, hi] and all(lo < x < hi for x in probes[2:])


def test_bisect_root_beats_the_secant_search():
    # the secant search halves once the secant reaches the root: 57 probes
    # on exp(x) - 2, where the Illinois bracket needs 10; on x^3 over
    # [-1, 2] it never moves the stale end 2 and returns about 1
    _, probes = _probed(lambda x: math.exp(x) - 2.0, 0.0, 1.0, 1e-12)
    _, ref_probes = _probed(lambda x: math.exp(x) - 2.0, 0.0, 1.0, 1e-12,
                            secant_bisect_root)
    assert 3 * len(probes) < len(ref_probes)
    ref_root, _ = _probed(lambda x: x ** 3, -1.0, 2.0, 1e-12, secant_bisect_root)
    assert ref_root > 0.5


def test_bisect_root_sides_from_signs_not_products():
    # values near 1e-200: a product of two of them underflows to zero, which
    # the secant search read as "same sign" and so lost the bracket
    fn = lambda x: 1e-200 * (math.exp(x) - 2.0)  # noqa: E731
    assert abs(bisect_root(fn, 0.0, 1.0, xtol=1e-12) - math.log(2.0)) <= 1e-12
    assert abs(secant_bisect_root(fn, 0.0, 1.0, xtol=1e-12) - math.log(2.0)) > 0.1


@pytest.mark.parametrize("lo, hi, expected", [(0.5, 2.0, 0.5), (-2.0, 0.5, 0.5)])
def test_bisect_root_returns_a_zero_end(lo, hi, expected):
    assert bisect_root(lambda x: x - 0.5, lo, hi) == expected


def test_bisect_root_stops_after_max_iter_probes():
    # a step function has no zero: with xtol 0 the bracket shrinks to two
    # adjacent floats and stays there, and the search ends after 200 probes
    step = lambda x: -1.0 if x < 1.0 / 3.0 else 1.0  # noqa: E731
    root, probes = _probed(step, 0.0, 1.0, 0.0)
    assert len(probes) == 202
    assert root < 1.0 / 3.0 <= math.nextafter(root, 1.0)


# --- whole solves and box exits -------------------------------------------------


def _gen_solve(kernel, t0, y0, t_end, params=(), **options):
    """``(status, state)`` of one whole generated solve from ``(t0, y0)``.

    ``(exception class, None)`` when the right-hand side raises at the start.
    """
    try:
        state = dopri5_start(kernel, t0, y0, params)
    except Exception as exc:  # the exception class is compared, whatever it is
        return type(exc), None
    return dopri5_step(kernel, state, t_end, params=params, whole=True, **options)


def _ref_solve(rhs, t0, y0, t_end, **options):
    """:func:`_gen_solve` run by :class:`_RefDopri5`."""
    try:
        reference = _RefDopri5(rhs, t0, y0, **options)
    except Exception as exc:  # the exception class is compared, whatever it is
        return type(exc), None
    return reference.solve(t_end), reference.state()


def _fiber_args(field, p):
    """``(u0, deltas, y0)`` of the solve from ``p`` back to the base, in floats."""
    p = tuple(float(v) for v in p)
    u_p = tuple(p[i] for i in field.other)
    deltas = tuple(b - a for a, b in zip(field.base_proj, u_p))
    return field.base_proj, deltas, (p[field.free_index],)


def _fiber_solve(field, p, reference=False, bounds=None):
    """``(status, state)`` of the solve from ``p`` back to the base.

    The solve ``fiber_through`` runs.  ``reference`` runs
    :class:`_RefDopri5`, with the box-exit rule when ``bounds`` are given;
    otherwise the generated loop.
    """
    u0, deltas, y0 = _fiber_args(field, p)
    options = dict(direction=-1.0, rtol=field.rtol, atol=field.atol)
    if reference:
        ref = _ref_path_rhs(field, u0, deltas)
        return _ref_solve(ref, 1.0, y0, 0.0, bounds=bounds, **options)
    return _gen_solve(field.kernel, 1.0, y0, 0.0, (*u0, *deltas), **options)


@pytest.mark.parametrize("kernel, ref, t0, y0, t1, max_steps", [
    (_decay(), lambda t, y: (-y[0],), 0.0, (1.0,), 1.0, 100000),
    (_decay(), lambda t, y: (-y[0],), 1.0, (0.5,), -2.0, 100000),
    (_decay(), lambda t, y: (-y[0],), 0.0, (1.0,), 100.0, 5),
    (compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = 1.0 / (1.0 - {t})"]),
     lambda t, y: (1.0 / (1.0 - t),), 0.0, (0.0,), 2.0, 100000),
], ids=["decay", "backward", "budget", "pole"])
def test_whole_solve_matches_reference(kernel, ref, t0, y0, t1, max_steps):
    options = dict(direction=t1 - t0, max_steps=max_steps)
    gen = _gen_solve(kernel, t0, y0, t1, **options)
    assert repr(gen) == repr(_ref_solve(ref, t0, y0, t1, **options))
    # one generated call runs the steps of one call per step
    assert repr(gen) == repr(_run(kernel, t0, y0, t1, **options))
    if max_steps == 100000:
        # a surface path solve, through the same single call
        status, (_, y, _, _, accepted, rejected) = gen
        unit = _integrate_unit(kernel, (), y0, t0, t1, 1e-9, 1e-12)
        assert repr(unit) == repr((status, y, accepted, rejected))


@pytest.mark.parametrize("jump", [0.3, 0.5, 0.7, 0.9])
def test_step_collapse_at_a_jump_matches_reference(jump):
    # y' jumps by 1e9 at t = jump: error-norm rejections shrink the step onto
    # its floor there, and the solve ends as "step_rejection"
    kernel = compile_kernel(
        1, lambda t, ys, ks: [f"{ks[0]} = 0.0 if {t} < {jump!r} else 1e9"])
    gen = _gen_solve(kernel, 0.0, (0.0,), 1.0)
    ref = _ref_solve(lambda t, y: (0.0 if t < jump else 1e9,), 0.0, (0.0,), 1.0)
    assert repr(gen) == repr(ref)
    assert gen[0] == "step_rejection"


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.form.n == 3])
def test_box_exit_rule_on_catalog_grid(name):
    """Every grid-9 point, free variable last, base the box center.

    The generated solve equals the reference stepper with the box-exit rule,
    status and attempt counts included, and ``_integrate_unit`` returns its
    status, state and counts.  It succeeds exactly where the stepper without
    the rule succeeds, with the same state, and the rule ends some failing
    solves early, as box exits.  A box exit lands in the band past the box
    after a few refused attempts: halving the step into the band took 45.2
    per exit on exact_3var (10,858 for 240 exits) and 27.7 on scaled_exact
    and contact (2,216 for 80), where landing takes 2.4 and 2.7.
    """
    form = entry(name).form
    field = SurfaceField(form, form.n - 1, form.domain.center)
    early = exits = refused = 0
    for p in box_grid(form.domain.lows, form.domain.highs, 9):
        gen = _fiber_solve(field, p)
        assert repr(gen) == repr(_fiber_solve(field, p, True, _path_bounds(field)))
        status, state = gen
        if state is not None:
            _, y, _, _, accepted, rejected = state
            u0, deltas, y0 = _fiber_args(field, p)
            unit = _integrate_unit(field.kernel, (*u0, *deltas), y0, 1.0, 0.0,
                                   field.rtol, field.atol)
            assert repr(unit) == repr((status, y, accepted, rejected))
            if status == "box_exit":
                exits += 1
                refused += rejected
        no_rule = _fiber_solve(field, p, True)
        assert (status == "ok") == (no_rule[0] == "ok")
        if status == "ok":
            assert repr(gen) == repr(no_rule)
        elif repr(gen) != repr(no_rule):
            assert status == "box_exit"
            early += 1
    assert early > 0
    assert refused <= 3 * exits


def _climb():
    """dy/dt = -d on [-1, 1]^2 with free y: a path to x = u moves y by -u."""
    form = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    return SurfaceField(form, 1, (0.0, 0.0))


def test_path_ending_inside_the_widening_succeeds():
    field = _climb()
    width = field._free_bounds[1] - 1.0
    # starts past the top of the box, moves further out, ends inside the widening
    start, u = 1.0 + 0.25 * width, -0.5 * width
    end = field.value((u,), start)
    assert 1.0 < end < field._free_bounds[1]
    assert end == pytest.approx(1.0 + 0.75 * width, abs=1e-15)
    ref = _ref_path_rhs(field, (0.0,), (u,))
    reference = _RefDopri5(ref, 0.0, (start,), rtol=field.rtol, atol=field.atol,
                           bounds=_path_bounds(field))
    assert reference.solve(1.0) == "ok"
    assert reference.y == (end,)


def test_path_leaving_the_widening_ends_at_once():
    field = _climb()
    # from y = 1 + width / 4 the path would end at 1 + 1e-8
    u0, deltas = (0.0,), (-1e-8,)
    start = 1.0 + 0.25 * (field._free_bounds[1] - 1.0)
    options = dict(rtol=field.rtol, atol=field.atol, max_steps=2000)
    status, (_, y, _, _, _, rejected) = _gen_solve(field.kernel, 0.0, (start,), 1.0,
                                                   (*u0, *deltas), **options)
    assert (status, rejected) == ("box_exit", 1)
    assert field._free_bounds[0] < y[0] <= field._free_bounds[1]
    with pytest.raises(AnalysisError):
        field.value((-1e-8,), start)
    # without the rule the stepper crawls along the bound with tiny steps, halving
    # every refused attempt, until the step budget runs out
    no_rule = _RefDopri5(_ref_path_rhs(field, u0, deltas), 0.0, (start,), **options)
    assert no_rule.solve(1.0) == "max_steps"
    assert no_rule.accepted > 100 and no_rule.rejected > 100
