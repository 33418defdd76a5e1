"""Adaptive explicit ODE integration (Dormand-Prince 5(4) embedded pair).

Callers drive the stepper loop themselves, which keeps event detection
(transversal crossings, box exits) in the caller where the geometry lives.
Step rejection below the minimum step size doubles as singularity detection.

The right-hand side of an ODE is not a Python callable but generated source:
:func:`compile_kernel` takes a function that writes the right-hand side as
statements and emits one straight-line Python function for a whole
Dormand-Prince attempt, with that body inlined at each of the six stages,
plus the right-hand side alone and a classical RK4 step.  Each float
operation is the one of the attempt written stage by stage with the tableau
below: the tableau enters as ``repr`` literals with its zero entries kept
(``0.0 * inf`` is NaN), and each stage combination is one builtin ``sum``
over a tuple of the products, as a ``sum`` over a generator would add them.
``tests/test_ode.py`` keeps the stage-by-stage attempt as the reference the
generated one must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expressions as ex
from .errors import AnalysisError

# Dormand-Prince tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


@dataclass(frozen=True)
class OdeKernel:
    """Generated functions of one ODE ``y' = f(t, y, *params)``.

    ``rhs(t, y, *params) -> f`` evaluates the right-hand side;
    ``attempt(t, y, f0, dt, *params) -> (t + dt, y1, err, f1)`` is one
    Dormand-Prince attempt from ``(t, y)`` with ``f0 = f(t, y)``, where
    ``err`` is the embedded error estimate and ``f1`` the right-hand side at
    the last stage; ``rk4(t, y, dt, *params) -> y1`` is one classical RK4
    step.  States and right-hand sides are tuples of floats.
    """

    rhs: object
    attempt: object
    rk4: object


def _combination(coeffs, ks):
    """``_sum((c0 * k0, c1 * k1, ...))`` over every coefficient, zeros too."""
    terms = (f"{ex.python_literal(c)} * {k}" for c, k in zip(coeffs, ks))
    return f"_sum(({ex.python_tuple(terms)}))"


def compile_kernel(dim, body, params=(), prologue=()) -> OdeKernel:
    """Generate the :class:`OdeKernel` of an ODE with ``dim`` state components.

    ``body(t, ys, ks)`` returns the right-hand side as unindented statement
    lines that assign the names ``ks[i]`` from the names ``t`` and ``ys[i]``,
    and raise ValueError, ZeroDivisionError or OverflowError where the ODE
    is undefined.  The generated code uses the names ``t``, ``dt``, ``y``,
    ``f0`` and those of one of the letters t, y, k, Y, E followed by digits
    and underscores; the body's temporaries must be other names.
    ``params`` names the extra arguments of every generated function, and
    the ``prologue`` lines run first in each, so that the body can use
    names they unpack.
    """
    lit = ex.python_literal
    extra = "".join(f", {p}" for p in params)
    top = [f"    {line}" for line in prologue]
    ys = [f"y0_{i}" for i in range(dim)]
    unpack = f"    {ex.python_tuple(ys)} = y"

    def stage(lines, t, ys_, ks_):
        lines.extend(f"    {line}" for line in body(t, ys_, ks_))

    rhs = [f"def rhs(t, y{extra}):", *top, unpack]
    ks = [f"k0_{i}" for i in range(dim)]
    stage(rhs, "t", ys, ks)
    rhs.append(f"    return ({ex.python_tuple(ks)})")

    # Dormand-Prince attempt, stage s at t{s} = t + c_s * dt
    k = [[f"k{s}_{i}" for i in range(dim)] for s in range(7)]
    attempt = [f"def attempt(t, y, f0, dt{extra}):", *top, unpack,
               f"    {ex.python_tuple(k[0])} = f0"]
    for s in range(1, 7):
        y_s = [f"y{s}_{i}" for i in range(dim)]
        attempt.append(f"    t{s} = t + {lit(_C[s])} * dt")
        attempt.extend(
            f"    {y_s[i]} = {ys[i]} + dt * "
            + _combination(_A[s], [k[j][i] for j in range(s)])
            for i in range(dim)
        )
        stage(attempt, f"t{s}", y_s, k[s])
    for i in range(dim):
        column = [k[j][i] for j in range(7)]
        attempt.append(f"    Y{i} = {ys[i]} + dt * {_combination(_B5, column)}")
        attempt.append(f"    E{i} = dt * {_combination(_E, column)}")
    for i in range(dim):
        attempt.extend([f"    if not _isfinite(Y{i}):",
                        "        raise ArithmeticError('non-finite state')"])
    y1 = ex.python_tuple(f"Y{i}" for i in range(dim))
    err = ex.python_tuple(f"E{i}" for i in range(dim))
    attempt.append(f"    return t + dt, ({y1}), ({err}), ({ex.python_tuple(k[6])})")

    # classical RK4 step, stage s at t{s} = t + step from y0 + step * k{s-1}
    k = [[f"k{s}_{i}" for i in range(dim)] for s in range(5)]
    rk4 = [f"def rk4(t, y, dt{extra}):", *top, unpack]
    stage(rk4, "t", ys, k[1])
    for s, step in ((2, "0.5 * dt"), (3, "0.5 * dt"), (4, "dt")):
        y_s = [f"y{s}_{i}" for i in range(dim)]
        rk4.append(f"    t{s} = t + {step}")
        rk4.extend(f"    {y_s[i]} = {ys[i]} + {step} * {k[s - 1][i]}"
                   for i in range(dim))
        stage(rk4, f"t{s}", y_s, k[s])
    rk4.append("    return ({})".format(ex.python_tuple(
        f"{ys[i]} + dt / 6.0 * ({k[1][i]} + 2.0 * {k[2][i]} + 2.0 * {k[3][i]}"
        f" + {k[4][i]})"
        for i in range(dim)
    )))

    source = "\n".join([*rhs, "", *attempt, "", *rk4]) + "\n"
    namespace = ex.exec_source(source, "ode", _sum=sum, _isfinite=math.isfinite)
    return OdeKernel(namespace["rhs"], namespace["attempt"], namespace["rk4"])


class StepRejectionError(AnalysisError):
    """Step size collapsed below the floor: treated as a singularity."""


class MaxStepsError(AnalysisError):
    """Step budget exhausted before reaching the integration target."""


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


@dataclass
class Dopri5:
    """Scalar/sequence ODE stepper; y is a tuple of floats.

    The right-hand side is the generated ``kernel`` (see
    :func:`compile_kernel`), called with the extra arguments ``params``.  It
    may raise to signal leaving the ODE's domain, which surfaces as
    StepRejectionError after the step size collapses.
    """

    kernel: OdeKernel
    t: float
    y: tuple
    direction: float = 1.0
    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 100000
    params: tuple = ()
    stats: StepStats = field(default_factory=StepStats)
    _h: float = 0.0
    _f0: tuple = None

    def __post_init__(self):
        self.y = tuple(float(v) for v in self.y)
        self.direction = 1.0 if self.direction >= 0 else -1.0
        self._f0 = self.kernel.rhs(self.t, self.y, *self.params)

    def _error_norm(self, y0, y1, err):
        acc = 0.0
        for e, a, b in zip(err, y0, y1):
            scale = self.atol + self.rtol * max(abs(a), abs(b))
            acc += (e / scale) ** 2
        return math.sqrt(acc / len(err))

    def step(self, t_limit: float):
        """Advance one accepted step, never beyond ``t_limit``.

        Returns (t_new, y_new).  The step size adapts; the last step is
        clipped exactly onto ``t_limit``.
        """
        span = abs(t_limit - self.t)
        if span == 0.0:
            return self.t, self.y
        if self._h == 0.0:
            self._h = min(span, max(1e-6, 0.01 * span))
        h_floor = max(1e-14, 1e-14 * abs(self.t), 1e-12 * span if span < 1 else 1e-14)
        while True:
            if self.stats.accepted + self.stats.rejected >= self.max_steps:
                raise MaxStepsError("ODE step budget exhausted")
            h = min(self._h, span)
            dt = self.direction * h
            try:
                t1, y1, err, f_last = self.kernel.attempt(
                    self.t, self.y, self._f0, dt, *self.params)
            except (ValueError, ZeroDivisionError, OverflowError, ArithmeticError):
                self.stats.rejected += 1
                self._h = h / 2.0
                if self._h < h_floor:
                    raise StepRejectionError(
                        "step size collapsed (singular right-hand side)"
                    )
                continue
            norm = self._error_norm(self.y, y1, err)
            if norm <= 1.0 or h <= h_floor:
                self.stats.accepted += 1
                self.t, self.y, self._f0 = t1, y1, f_last
                factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
                self._h = h * factor
                return self.t, self.y
            self.stats.rejected += 1
            self._h = max(h * max(0.2, 0.9 * norm ** -0.2), h_floor / 2)
            if self._h < h_floor:
                raise StepRejectionError(
                    "step size collapsed (singular right-hand side)"
                )


def rk4_step(kernel: OdeKernel, t, y, dt, *params):
    """One classical fixed-size Runge-Kutta step of a generated kernel.

    Every step goes through this module-level name, so that steps can be
    counted by wrapping it (``perfbench/tracing.py`` does).
    """
    return kernel.rk4(t, y, dt, *params)


def bisect_root(fn, lo, hi, xtol=1e-13, max_iter=200):
    """Root of a scalar function on a bracketing interval (secant-accelerated)."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise AnalysisError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        # secant candidate, clipped into the bracket; fall back to midpoint
        denom = fhi - flo
        mid = 0.5 * (lo + hi)
        if denom != 0.0:
            cand = lo - flo * (hi - lo) / denom
            if not (lo + 0.1 * xtol < cand < hi - 0.1 * xtol):
                cand = mid
        else:
            cand = mid
        fc = fn(cand)
        if fc == 0.0:
            return cand
        if flo * fc < 0:
            hi, fhi = cand, fc
        else:
            lo, flo = cand, fc
    return 0.5 * (lo + hi)
