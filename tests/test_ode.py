import math

import numpy as np
import pytest

from pfaffian import expressions as ex
from pfaffian.errors import AnalysisError
from pfaffian.factor import SurfaceField, _characteristic_kernel
from pfaffian.forms import Box, make_form
from pfaffian.ode import (
    _A,
    _B5,
    _C,
    _E,
    Dopri5,
    MaxStepsError,
    StepRejectionError,
    bisect_root,
    compile_kernel,
    rk4_step,
)

# --- generated kernels against the stage-by-stage reference ---------------------
#
# The reference is the generic Dormand-Prince attempt and RK4 step the generated
# straight-line functions replaced, driven by the right-hand-side closures of
# characteristics and surface paths.  The generated functions must reproduce them
# bit for bit (compared through repr, so -0.0 and NaN count) and raise the same
# exception classes.


def _ref_attempt(rhs, t, y, f0, dt):
    k = [f0]
    n = len(y)
    for s in range(1, 7):
        ts = t + _C[s] * dt
        ys = tuple(
            y[i] + dt * sum(_A[s][j] * k[j][i] for j in range(s))
            for i in range(n)
        )
        k.append(rhs(ts, ys))
    y1 = tuple(y[i] + dt * sum(_B5[j] * k[j][i] for j in range(7)) for i in range(n))
    err = tuple(dt * sum(_E[j] * k[j][i] for j in range(7)) for i in range(n))
    for v in y1:
        if not math.isfinite(v):
            raise ArithmeticError("non-finite state")
    return t + dt, y1, err, k[6]


def _ref_rk4(rhs, t, y, dt):
    k1 = rhs(t, y)
    n = len(y)
    y2 = tuple(y[i] + 0.5 * dt * k1[i] for i in range(n))
    k2 = rhs(t + 0.5 * dt, y2)
    y3 = tuple(y[i] + 0.5 * dt * k2[i] for i in range(n))
    k3 = rhs(t + 0.5 * dt, y3)
    y4 = tuple(y[i] + dt * k3[i] for i in range(n))
    k4 = rhs(t + dt, y4)
    return tuple(
        y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(n)
    )


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
        if fn_val == 0.0:
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


def _assert_kernel_matches(kernel, params, ref, t, y, dt):
    """rhs, attempt and RK4 of ``kernel`` equal the reference at (t, y, dt)."""
    assert _outcome(lambda: kernel.rhs(t, y, *params)) == _outcome(lambda: ref(t, y))
    assert (_outcome(lambda: kernel.rk4(t, y, dt, *params))
            == _outcome(lambda: _ref_rk4(ref, t, y, dt)))
    try:
        f0 = ref(t, y)
    except (ValueError, ZeroDivisionError, OverflowError):
        return
    assert (_outcome(lambda: kernel.attempt(t, y, f0, dt, *params))
            == _outcome(lambda: _ref_attempt(ref, t, y, f0, dt)))


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
    kernel = _characteristic_kernel(form, b, tol)
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
                _assert_kernel_matches(field.kernel, (u0, deltas), ref, t, y, dt)


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
    # a right-hand side that reads the sign of a zero state: the builtin sum
    # starts from 0, so the first stage from y = -0.0 lands on +0.0, where a
    # plain chain of additions would stay at -0.0
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

    assert _outcome(lambda: spike.attempt(0.0, (0.0,), (1.0,), 1.25)) is ArithmeticError
    _assert_kernel_matches(spike, (), ref, 0.0, (0.0,), 1.25)


def test_path_terms_with_zero_increment_are_not_evaluated():
    # F_1 = log(y) is undefined below y = 0, but the path never moves in x
    form = make_form(["x", "y"], ["log(y)", "2"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.5))
    params = ((0.0,), (0.0,))
    assert field.kernel.rhs(0.0, (-0.5,), *params) == (-0.0,)
    _assert_kernel_matches(field.kernel, params, _ref_path_rhs(field, *params),
                           0.0, (-0.5,), 0.5)


# --- the same exception classes as the reference --------------------------------


def test_vanishing_solved_coefficient_raises_like_reference():
    form = make_form(["x", "y"], ["1", "x"], Box((-1, -1), (1, 1)))
    kernel = _characteristic_kernel(form, 1, 1e-12)
    ref = _ref_characteristic_rhs(form, 1, 1e-12)
    f0 = ref(0.1, (0.0,))
    # the first stage lands on x = 0.1 + 0.2 * (-0.5) = 0, where F_2 = x vanishes
    assert _outcome(lambda: kernel.attempt(0.1, (0.0,), f0, -0.5)) is ZeroDivisionError
    assert _outcome(lambda: _ref_attempt(ref, 0.1, (0.0,), f0, -0.5)) is ZeroDivisionError
    assert _outcome(lambda: kernel.rhs(0.0, (0.3,))) is ZeroDivisionError


def test_free_coordinate_leaving_bounds_raises_like_reference():
    form = make_form(["x", "y"], ["1", "1"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.0, 0.0))
    params = ((1.0,), (-2.0,))  # dy/dt = 2: climbs out of the top of the box
    ref = _ref_path_rhs(field, *params)
    y = (0.999,)
    f0 = ref(0.0, y)
    assert _outcome(lambda: field.kernel.attempt(0.0, y, f0, 0.1, *params)) is ValueError
    assert _outcome(lambda: _ref_attempt(ref, 0.0, y, f0, 0.1)) is ValueError
    assert _outcome(lambda: field.kernel.rhs(0.0, (1.5,), *params)) is ValueError


def test_zero_free_coefficient_raises_like_reference():
    form = make_form(["x", "y"], ["0", "x"], Box((-1, -1), (1, 1)))
    field = SurfaceField(form, 1, (0.5, 0.0))
    # y stays put while the path reaches x = 0, where F_free = x vanishes
    params = ((0.5,), (-0.5,))
    ref = _ref_path_rhs(field, *params)
    assert _outcome(lambda: field.kernel.rhs(1.0, (0.0,), *params)) is ZeroDivisionError
    assert _outcome(lambda: ref(1.0, (0.0,))) is ZeroDivisionError
    f0 = ref(0.0, (0.0,))
    assert (_outcome(lambda: field.kernel.rk4(0.0, (0.0,), 1.0, *params))
            is ZeroDivisionError)
    assert _outcome(lambda: _ref_attempt(ref, 0.0, (0.0,), f0, 1.0)) is ZeroDivisionError
    assert (_outcome(lambda: field.kernel.attempt(0.0, (0.0,), f0, 1.0, *params))
            is ZeroDivisionError)


def test_log_of_negative_stage_value_raises_like_reference():
    form = make_form(["x", "y"], ["log(x)", "1"], Box((1e-3, -1), (2, 1)))
    kernel = _characteristic_kernel(form, 1, 1e-12)
    ref = _ref_characteristic_rhs(form, 1, 1e-12)
    f0 = ref(0.01, (0.0,))
    # the first stage lands on x = 0.01 - 0.02 < 0
    assert _outcome(lambda: kernel.attempt(0.01, (0.0,), f0, -0.1)) is ValueError
    assert _outcome(lambda: _ref_attempt(ref, 0.01, (0.0,), f0, -0.1)) is ValueError
    assert _outcome(lambda: kernel.rk4(0.01, (0.0,), -0.1)) is ValueError


# --- stepper behaviour ----------------------------------------------------------


def _decay():
    return compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = -{ys[0]}"])


def _run(stepper, t1):
    while (stepper.t - t1) * stepper.direction < 0:
        stepper.step(t1)
    return stepper.y


def test_dopri5_exponential_decay():
    stepper = Dopri5(_decay(), 0.0, (1.0,), rtol=1e-11, atol=1e-13)
    (y,) = _run(stepper, 1.0)
    assert stepper.t == 1.0
    assert abs(y - math.exp(-1.0)) <= 1e-9
    assert stepper.stats.accepted > 0


def test_dopri5_backward_decay():
    stepper = Dopri5(_decay(), 1.0, (math.exp(-1.0),), direction=-1.0,
                     rtol=1e-11, atol=1e-13)
    (y,) = _run(stepper, 0.0)
    assert abs(y - 1.0) <= 1e-9


def test_dopri5_step_budget():
    stepper = Dopri5(_decay(), 0.0, (1.0,), max_steps=5)
    with pytest.raises(MaxStepsError):
        _run(stepper, 100.0)
    assert stepper.stats.accepted + stepper.stats.rejected == 5


def test_dopri5_step_collapses_at_pole():
    pole = compile_kernel(1, lambda t, ys, ks: [f"{ks[0]} = 1.0 / (1.0 - {t})"])
    stepper = Dopri5(pole, 0.0, (0.0,))
    with pytest.raises(StepRejectionError):
        _run(stepper, 2.0)
    assert stepper.t < 1.0


def test_rk4_step_calls_generated_rk4():
    kernel = _decay()
    assert rk4_step(kernel, 0.0, (1.0,), 0.1) == kernel.rk4(0.0, (1.0,), 0.1)
    assert rk4_step(kernel, 0.0, (1.0,), 0.1) == _ref_rk4(lambda t, y: (-y[0],),
                                                           0.0, (1.0,), 0.1)


def test_bisect_root_unbracketed():
    with pytest.raises(AnalysisError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_finds_root():
    assert bisect_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0))
