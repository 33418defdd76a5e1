"""Explicit integrating-factor construction: delta_xi = mu * d(psi).

Two constructions are provided.  For two-variable forms, psi labels each
characteristic curve (an integral curve of the direction annihilating the
form) by the coordinate where it crosses a fixed axis-parallel transversal;
mu then follows from mu = F_i / (dpsi/dx_i).  For n-variable forms that
passed the tensor test, the level hypersurface through a point is grown from
a base fiber by integrating the solved-coordinate ODE along straight paths
in the projected variables; psi is the base-fiber coordinate of that
hypersurface and mu = F_free * (d x_free / d fiber-coordinate).

Both integrate with generated Dormand-Prince kernels that the form keeps in
``PfaffianForm.ode_kernels``.  All psi/mu evaluators are numerical;
verify_factorization closes the loop by checking the defining identity with
finite differences of psi, and keeps the mu it computed at each grid point;
grid_rows writes the CSV from those.  The two leave out different points:
the statistics need the psi gradient, mu and F to be defined and finite, the
rows only psi and mu, so a point whose gradient stencil fails can still have
a row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import expressions as ex
from .errors import (
    AnalysisError,
    ArityError,
    EvalDomainError,
    UnreachableTransversalError,
)
from .forms import Box, PfaffianForm, pivot, singular, singular_source
from .ode import bisect_root, compile_kernel
from .sampling import box_grid, linspace

METHOD_TWO_VAR = "two_var_characteristic"
METHOD_GLOBAL = "global_base_fiber"

_SWAP_HYSTERESIS = 2.0
MAX_STEPS = 100000  # attempt budget of a solve, and step budget of a characteristic


@dataclass(frozen=True)
class TransversalSpec:
    """Axis-parallel reference segment {x[fixed_axis] = value} inside the box.

    Characteristics are labeled by the coordinate of the varying axis at
    their crossing point.  ``span`` optionally restricts the segment on the
    varying axis (needed when full-width segments would be crossed more
    than once, e.g. closed characteristics); None means the whole box side.
    """

    fixed_axis: int
    value: float
    span: tuple = None

    def varying_axis(self):
        return 1 - self.fixed_axis

    def on_span(self, varying_coord: float) -> bool:
        if self.span is None:
            return True
        lo, hi = self.span
        return lo <= varying_coord <= hi


def auto_transversal(form: PfaffianForm) -> TransversalSpec:
    """Pick the fixed axis whose crossings are best conditioned.

    Crossing {x_a = c} transversally needs the tangent's a-component, which
    is the partner coefficient, to stay away from zero; choose the axis
    whose partner coefficient has the larger low quantile over 128 Halton
    points of the box.
    """
    fns = form.coefficient_tuple_fn
    values = []
    for p in form.domain.samples(128):
        try:
            values.append(fns(*p))
        except ex.UNDEFINED:
            continue
    scores = []
    for axis in range(2):
        mags = [abs(f[1 - axis]) for f in values]
        scores.append(_quantile(mags, 0.05) if mags else 0.0)
    axis = _larger_index(*scores)
    return TransversalSpec(axis, form.domain.center[axis])


def _quantile(values, q):
    """``numpy.quantile(values, q)`` of a nonempty list, with numpy's float
    operations: its linear method (Hyndman & Fan type 7) and ``_lerp``, and
    NaN if any value is NaN."""
    if any(v != v for v in values):
        return math.nan
    ordered = sorted(values)
    last = len(ordered) - 1
    at = last * q
    i = math.floor(at)
    a, b = ordered[i], ordered[min(i + 1, last)]
    g = at - i
    diff = b - a
    return b - diff * (1.0 - g) if g >= 0.5 else a + diff * g


def _larger_index(v0, v1):
    """0 or 1, whichever of ``v0``, ``v1`` is larger, with ``numpy.argmax``'s
    rule: the first wins a tie, and NaN counts as the maximum."""
    return 0 if v0 >= v1 or v0 != v0 else 1


def _tangent(fvals):
    return (fvals[1], -fvals[0])


def _stop_test(t0, ys0, t1, ys1, ks1, t_end):
    """Stop test of a characteristic step, in the stop arguments of :data:`_STOP`.

    True where one of the checks :func:`solve_characteristic` makes after a
    step could fire: an end of the step is not strictly inside ``(stop_lo,
    stop_hi)`` on the solved axis, the step meets ``stop_level`` there (the
    transversal's value when it is fixed on that axis), the step ends within
    ``stop_tol`` of the end ``t_end`` of the solve or its end slope is
    larger than ``stop_slope`` in size.  Each comparison is written as the
    check it stands for, so that it holds wherever that check holds.
    """
    y0, y1 = ys0[0], ys1[0]
    return (f"not (stop_lo < {y0} < stop_hi and stop_lo < {y1} < stop_hi)"
            f" or ({y0} - stop_level) * ({y1} - stop_level) <= 0.0"
            f" or -stop_tol <= {t1} - {t_end} <= stop_tol"
            f" or {ks1[0]} > stop_slope or -{ks1[0]} > stop_slope")


# the stop test of a characteristic kernel (``stop`` of ``compile_kernel``),
# and stop arguments that never stop a solve, for the probes
_STOP = (("stop_lo", "stop_hi", "stop_level", "stop_tol", "stop_slope"), _stop_test)
_NO_STOP = (-math.inf, math.inf, math.nan, 0.0, math.inf)


def _characteristic_kernel(form: PfaffianForm, b: int):
    """ODE kernel of ``dx_b/dx_a = -F_a / F_b`` in the coordinate ``a = 1 - b``.

    Generated once per form and solved axis and kept in
    ``form.ode_kernels`` under ``("characteristic", b)``.  Raises
    ZeroDivisionError where ``F_b`` is singular (``forms.singular_source``).  It
    takes the stop arguments of :func:`_stop_test`.
    """
    key = ("characteristic", b)
    if key in form.ode_kernels:
        return form.ode_kernels[key]
    a = 1 - b
    fa, fb = form.coefficients[a], form.coefficients[b]

    def body(t, ys, ks):
        names = [None, None]
        names[a], names[b] = t, ys[0]
        return [
            f"fa = {ex.python_source(fa, names)}",
            f"fb = {ex.python_source(fb, names)}",
            f"if {singular_source('fb')}:",
            "    raise ZeroDivisionError('solved coefficient vanished')",
            f"{ks[0]} = -fa / fb",
        ]

    kernel = form.ode_kernels[key] = compile_kernel(1, body, stop=_STOP)
    return kernel


def solve_characteristic(form: PfaffianForm, start, direction: int,
                         transversal: TransversalSpec, rtol: float, atol: float,
                         pts=None):
    """``(status, label)`` of the characteristic through ``start``.

    Integrates the curve annihilating a two-variable form, parametrizing by
    whichever variable currently gives the better-conditioned slope
    (swapping roles with 2x hysteresis), until the domain boundary, the
    ``transversal`` (None for none), a singular point of the form, or the
    budget of ``MAX_STEPS`` steps; a step that crosses both the transversal
    and a face ends at the first crossing along it.  ``status`` is
    "transversal", "boundary", "singular" or "max_steps"; ``label`` is the
    varying-axis coordinate of the transversal crossing, else None.  A
    start where the coefficients are undefined is an AnalysisError.  The
    points of the curve, tuples of Python floats from ``start`` along the
    direction of travel, are appended to the list ``pts`` when one is given.

    Each segment between swaps is one call of the step loop of the form's
    kernel for the solved axis (:func:`_characteristic_kernel`), which
    returns only at the steps where one of the checks made after a step
    could fire (:func:`_stop_test`); with ``pts`` it returns after every
    step, so that each point is kept.  Either way the checks see the same
    steps fire as one call per step would.

    The direction of travel is set once, by the tangent of F at the start
    oriented by ``direction``; at a swap of the solved axis it carries over
    as the sign of the slope the step loop computed at the swap point.
    """
    if form.n != 2:
        raise ArityError("characteristics require a two-variable form")
    box = form.domain
    if not box.contains(start, tol=1e-12):
        raise AnalysisError(f"start point {tuple(start)} outside domain")
    x = (float(start[0]), float(start[1]))
    if pts is not None:
        pts.append(x)
    scale = max(box.edges)

    if (
        transversal is not None
        and abs(x[transversal.fixed_axis] - transversal.value) <= 1e-14 * scale
        and transversal.on_span(x[transversal.varying_axis()])
    ):
        return "transversal", x[transversal.varying_axis()]

    try:
        f = form.coefficient_tuple_fn(*x)
    except ex.UNDEFINED:
        raise AnalysisError("coefficients undefined at the start point")
    dependent = pivot(f)  # the larger |F_b| is solved for
    if dependent is None:
        return "singular", None
    # the sign of the tangent's component along the parameter axis, oriented
    # by ``direction``; no norm, so that no size of F can overflow it
    sign = 1.0 if direction >= 0 else -1.0
    sign_a = 1.0 if sign * _tangent(f)[1 - dependent] >= 0 else -1.0
    steps_used = 0
    level = transversal.value if transversal is not None else None

    while True:
        b = dependent
        a = 1 - b
        kernel = _characteristic_kernel(form, b)
        low_b, high_b = box.lows[b], box.highs[b]
        on_b = transversal is not None and transversal.fixed_axis == b

        t_limit = box.highs[a] if sign_a > 0 else box.lows[a]
        hit_transversal_on_a = (
            transversal is not None
            and transversal.fixed_axis == a
            and (level - x[a]) * sign_a > 0
            and (t_limit - level) * sign_a >= 0
        )
        t_target = level if hit_transversal_on_a else t_limit

        # the Dormand-Prince state of this segment; each call returns after
        # one step when the points are kept, else at the first step where a
        # check below could fire (the stop test of the kernel).  The first
        # call evaluates the slope at the segment start (f0 None)
        t, y, f0, h = x[a], (x[b],), None, 0.0
        used, budget, accepted, rejected = steps_used, MAX_STEPS - steps_used, 0, 0
        level_b = level if on_b else math.nan

        while steps_used < MAX_STEPS:
            t_tol = 1e-14 * max(1.0, abs(t_target))
            limit = budget if pts is None else accepted + 1
            try:
                (status, t, y, f0, h, accepted, rejected,
                 prev_t, prev_y, prev_f0) = kernel(
                    t, y, f0, h, t_target, sign_a, rtol, atol, budget, accepted,
                    rejected, limit, low_b, high_b, level_b, t_tol,
                    _SWAP_HYSTERESIS)
            except ex.UNDEFINED:
                if f0 is None:  # undefined at the segment start
                    return "singular", None
                raise
            if status == "max_steps":
                return "max_steps", None
            if status != "ok":
                return "singular", None
            steps_used = used + accepted

            # the first crossing along the step ends the curve.  The
            # transversal's level lies inside the box, so a step that meets
            # it and crosses a face meets it first; a crossing off its span
            # leaves the face to end the curve.  A step across a face ends at
            # the located crossing; a step out from on (or past) a face, as
            # from a start on it, ends where it began
            crossed = None  # (t, y, kind) where the step ends
            try:
                if on_b:
                    g0, g1 = prev_y[0] - level, y[0] - level
                    if g0 * g1 <= 0 and (g0 != 0 or g1 != 0):
                        t_hit, y_hit = _crossing(kernel, prev_t, prev_y, prev_f0,
                                                 t, y, sign_a, rtol, atol, level)
                        if transversal.on_span(t_hit):
                            crossed = (t_hit, y_hit, "transversal")
                if crossed is None:
                    for bound, outward in ((low_b, -1.0), (high_b, 1.0)):
                        g0, g1 = prev_y[0] - bound, y[0] - bound
                        if g0 * g1 < 0:
                            crossed = (*_crossing(kernel, prev_t, prev_y, prev_f0,
                                                  t, y, sign_a, rtol, atol, bound),
                                       "boundary")
                        elif g0 * outward >= 0 and g1 * outward > 0:
                            crossed = (prev_t, prev_y, "boundary")
            except _ProbeFailed:
                # a probe solve stopped short: its step collapsed where the
                # solved coefficient vanishes or is undefined, or its
                # attempts ran out
                return "singular", None

            if crossed is not None:
                t_hit, y_hit, kind = crossed
                p_hit = box.clamp(_point(a, t_hit, y_hit[0]))
                if pts is not None:
                    pts.append(p_hit)
                if kind == "transversal":
                    return "transversal", p_hit[a]
                # boundary hit without reaching the transversal
                return "boundary", None

            x = _point(a, t, y[0])
            if pts is not None:
                pts.append(x)

            if abs(t - t_target) <= t_tol:
                if hit_transversal_on_a:
                    if transversal.on_span(x[b]):
                        return "transversal", x[b]
                    # crossed the transversal line off its segment: keep going
                    hit_transversal_on_a = False
                    t_target = t_limit
                else:
                    return "boundary", None

            # f0 is the slope -F_a / F_b at x, the last stage of the step
            if abs(f0[0]) > _SWAP_HYSTERESIS:
                dependent = a
                sign_a = sign_a if f0[0] > 0 else -sign_a
                break  # re-setup with swapped roles
        else:
            # the step budget is spent, after a step or after a swap on the
            # last step (whose first slope, above, is defined at the swap)
            return "max_steps", None


def _point(a, t, y_b):
    """The point with coordinate ``t`` on axis ``a`` and ``y_b`` on the other."""
    return (t, y_b) if a == 0 else (y_b, t)


def _crossing(kernel, t0, y0, f0, t1, y1, direction, rtol, atol, level):
    """``(t, y)`` where the accepted step from ``(t0, y0)`` to ``(t1, y1)``
    meets ``level`` on the solved axis, bisected over :func:`_step_probe`."""
    probe = _step_probe(kernel, t0, y0, f0, t1, y1, direction, rtol, atol)
    # the probe is exact at the step's ends, which bracket the crossing
    lam = bisect_root(lambda lam: probe(lam)[0] - level, 0.0, 1.0, xtol=1e-14)
    return t0 + lam * (t1 - t0), probe(lam)


class _ProbeFailed(Exception):
    """Raised by a step probe whose solve ends with a status other than "ok"."""


def _step_probe(kernel, t0, y0, f0, t1, y1, direction, rtol, atol):
    """``probe(lam)``: the state at ``t0 + lam * (t1 - t0)`` inside an accepted step.

    The step went from ``(t0, y0)``, where the slope is ``f0``, to ``(t1,
    y1)`` in the sign of ``direction``.  A probe is one whole solve of the
    step loop ``kernel`` that took the step, with the step's tolerances and
    at most ``MAX_STEPS`` attempts, from the step start to the probed time,
    and its first step spans that whole interval: an accepted attempt costs
    six right-hand-side calls.  ``lam`` 0 and 1 return ``y0`` and ``y1``
    themselves.  A solve ending with another status than "ok" raises
    :class:`_ProbeFailed`.
    """

    def probe(lam):
        if lam == 0.0:
            return y0
        if lam == 1.0:
            return y1
        t_end = t0 + lam * (t1 - t0)
        status, _, y, *_ = kernel(t0, y0, f0, abs(t_end - t0), t_end, direction,
                                  rtol, atol, MAX_STEPS, 0, 0, math.inf, *_NO_STOP)
        if status != "ok":
            raise _ProbeFailed(status)
        return y

    return probe


# ---------------------------------------------------------------------------
# finite-difference gradients of evaluator-defined functions
# ---------------------------------------------------------------------------

FD_SCALE = 1e-4


def fd_partial(fn, p, axis, box: Box):
    """Partial derivative of a point evaluator by finite differences.

    The central difference ``(fn(x + h) - fn(x - h)) / 2h`` wherever ``x +-
    h`` lies in the box, else the one-sided second-order rule from ``x``
    inward at a face.  ``h = min(FD_SCALE, 1/8) * edge``, so one of them
    fits at every point of the box.  It is the only finite difference of
    the package: with ``h`` at 1e-4 of the edge and values solved to about
    1e-11, rounding (about 1e-7) outweighs the central difference's
    truncation (about 2e-9), so a higher-order stencil would buy nothing.
    """
    lo, hi = box.lows[axis], box.highs[axis]
    h = min(FD_SCALE * (hi - lo), (hi - lo) / 8.0)
    x = p[axis]

    def at(v):
        q = list(p)
        q[axis] = v
        return fn(tuple(q))

    if x - h >= lo and x + h <= hi:
        return (at(x + h) - at(x - h)) / (2 * h)
    if x + 2 * h <= hi:
        return (-3 * at(x) + 4 * at(x + h) - at(x + 2 * h)) / (2 * h)
    return (3 * at(x) - 4 * at(x - h) + at(x - 2 * h)) / (2 * h)


def fd_gradient(fn, p, box: Box):
    return tuple(fd_partial(fn, p, i, box) for i in range(box.dim))


# ---------------------------------------------------------------------------
# factorization results and verification
# ---------------------------------------------------------------------------


@dataclass
class FactorizationResult:
    """Numerical factorization delta_xi = mu * d(psi) on the usable sub-box.

    ``psi`` and ``mu`` are point evaluators; they raise AnalysisError
    subclasses at points the construction could not cover (those are the
    skipped points of the residual statistics).  ``mu_at`` holds ``(p,
    mu)`` for each point :func:`verify_factorization` was given, in its
    order (see there).
    """

    psi: object
    mu: object
    method: str
    residual_max: float = math.nan
    residual_rms: float = math.nan
    skipped_points: int = 0
    evaluated_points: int = 0
    flags: dict = field(default_factory=dict)
    mu_at: list = field(default_factory=list)


_SKIP_ERRORS = (AnalysisError, EvalDomainError, *ex.UNDEFINED)


def _defined(evaluate, p):
    """``evaluate(p)``, or NaN where it raises one of ``_SKIP_ERRORS``: a
    value that is undefined counts as one that is not finite."""
    try:
        return evaluate(p)
    except _SKIP_ERRORS:
        return math.nan


def grid_rows(result: FactorizationResult):
    """Rows ``[*p, psi(p), mu(p)]`` of the points verification was given, for
    those where both values are defined and finite.

    mu is read from ``result.mu_at`` and evaluated only where verification
    did not reach it; psi is evaluated only where mu is finite.  A point
    whose gradient stencil failed in verification, and so has no residual,
    still has a row where psi and mu are defined there.
    """
    rows = []
    for p, mu_p in result.mu_at:
        if mu_p is None:
            mu_p = _defined(result.mu, p)
        if not math.isfinite(mu_p):
            continue
        psi_p = _defined(result.psi, p)
        if math.isfinite(psi_p):
            rows.append([*p, psi_p, mu_p])
    return rows


def _rms(values, scale):
    """``scale * sqrt(mean((v / scale)^2))``, summed left to right (NaN for no
    value); exactly the plain root mean square with ``scale`` 1.0."""
    acc = 0.0
    for v in values:
        v /= scale
        acc += v * v
    return scale * math.sqrt(acc / len(values)) if values else math.nan


def verify_factorization(form: PfaffianForm, result: FactorizationResult,
                         samples) -> FactorizationResult:
    """Fill the residual statistics of the identity F_i = mu * dpsi/dx_i over
    ``samples`` into ``result``, and return it.

    Residual at p is max_i |F_i(p) - mu(p) * dpsi/dx_i(p)| / max(1, |F_i(p)|),
    with dpsi by finite differences of the psi evaluator.  At each sample
    the gradient is taken first, then mu, then F; a sample where one of them
    raises one of ``_SKIP_ERRORS`` or any value is not finite is counted as
    skipped, never fatal.  Where the squares overflow, the rms is scaled by
    the largest residual.

    ``result.mu_at`` gets ``(p, mu)`` for every sample: the value mu
    returned, NaN where it raised, and None where the gradient raised before
    mu was called.
    """
    fns = form.coefficient_tuple_fn
    box = form.domain
    mu_at = result.mu_at = []
    residuals = []
    for p in samples:
        try:
            grad = fd_gradient(result.psi, p, box)
        except _SKIP_ERRORS:
            mu_at.append((p, None))
            continue
        mu_p = _defined(result.mu, p)
        mu_at.append((p, mu_p))
        try:
            fvals = fns(*p)
        except _SKIP_ERRORS:
            continue
        values = (*grad, mu_p, *fvals)
        if all(map(math.isfinite, values)):
            residuals.append(max(abs(f - mu_p * g) / max(1.0, abs(f))
                                 for f, g in zip(fvals, grad)))
    result.evaluated_points = len(residuals)
    result.skipped_points = len(mu_at) - len(residuals)
    result.residual_max = max(residuals, default=math.nan)
    result.residual_rms = _rms(residuals, 1.0)
    if not math.isfinite(result.residual_rms):  # the squares overflow
        result.residual_rms = _rms(residuals, result.residual_max)
    return result


def _mu_from_gradient(form, p, grad):
    """mu = F_i / grad_i using the best-conditioned axis; cross-checked.

    Returns (mu, disagreement_flagged): flagged when another axis whose
    gradient component is above 1e-12 and 1e-3 of the largest gives a mu
    off by more than 1e-4 relative.  Raises AnalysisError when every
    gradient component is at most 1e-12 in size.
    """
    mags = [abs(g) for g in grad]
    best = max(range(len(grad)), key=lambda i: mags[i])
    if mags[best] <= 1e-12:
        raise AnalysisError("psi gradient numerically zero: mu undefined")
    fvals = form.coefficient_tuple_fn(*p)
    mu = fvals[best] / grad[best]
    flagged = False
    for i, g in enumerate(grad):
        if i == best or mags[i] <= max(1e-12, 1e-3 * mags[best]):
            continue
        other = fvals[i] / g
        if abs(other - mu) > 1e-4 * max(1.0, abs(mu)):
            flagged = True
    return mu, flagged


def build_potential_2var(form: PfaffianForm, transversal: TransversalSpec = None,
                         grid_per_axis: int = 17) -> FactorizationResult:
    """Construct psi and mu for a two-variable form by characteristic shooting.

    psi(p) is the transversal coordinate of the characteristic through p,
    traced with rtol 1e-11 and atol 1e-13; regions whose characteristics
    leave the box before the transversal are reported as skipped.
    """
    if form.n != 2:
        raise ArityError("two-variable construction requires n = 2")
    tv = transversal or auto_transversal(form)
    fns = form.coefficient_tuple_fn
    cache = {}
    flags = {"mu_branch_disagreements": 0, "unreachable_points": 0}

    def psi(p):
        key = tuple(float(v) for v in p)
        if key in cache:
            value = cache[key]
            if value is None:
                raise UnreachableTransversalError(
                    "characteristic does not reach the transversal"
                )
            return value
        # prefer the orientation that moves toward the transversal
        towards = tv.value - key[tv.fixed_axis]
        try:
            tau_a = _tangent(fns(*key))[tv.fixed_axis]
        except ex.UNDEFINED:
            tau_a = 0.0
        first = 1 if towards * tau_a >= 0 else -1
        for direction in (first, -first):
            status, label = solve_characteristic(
                form, key, direction, tv, 1e-11, 1e-13)
            if status == "transversal":
                cache[key] = label
                return label
        cache[key] = None
        flags["unreachable_points"] += 1
        raise UnreachableTransversalError(
            "characteristic does not reach the transversal"
        )

    def mu(p):
        p = tuple(float(v) for v in p)
        grad = fd_gradient(psi, p, form.domain)
        value, flagged = _mu_from_gradient(form, p, grad)
        if flagged:
            flags["mu_branch_disagreements"] += 1
        return value

    result = FactorizationResult(psi=psi, mu=mu, method=METHOD_TWO_VAR,
                                 flags=flags)
    grid = box_grid(form.domain.lows, form.domain.highs, grid_per_axis)
    verify_factorization(form, result, grid)
    flags["transversal"] = {"fixed_axis": tv.fixed_axis, "value": tv.value}
    if tv.span is not None:
        flags["transversal"]["span"] = list(tv.span)
    return result


# ---------------------------------------------------------------------------
# n-variable construction from a base fiber
# ---------------------------------------------------------------------------


class SurfaceField:
    """Level hypersurfaces grown from the base fiber of the free variable.

    ``value(u, s)`` integrates the solved-coordinate ODE along the straight
    segment from the base projection to ``u``, starting the free coordinate
    at fiber position ``s``; it returns the free coordinate above ``u``.
    Every path solve is one call of the generated Dormand-Prince loop of one
    ODE kernel (:func:`_integrate_unit`), whose extra arguments are the
    coordinates of the path start ``u0``, then those of its increment
    ``deltas``.  The free coordinate may leave the box by 1e-9 times its
    edge; a path that is leaving this widened box from past the box proper
    ends at once with the status "box_exit".  A solve that ends with any
    other status but "ok", or whose right-hand side is undefined at the
    start, is an AnalysisError of :meth:`_solve`, which ``value``,
    ``fiber_through`` and the staircase legs call, and which memoizes
    successes only; its point is skipped.  Every field on a form and free
    variable shares one kernel (:meth:`_path_kernel`).
    """

    def __init__(self, form: PfaffianForm, free_index: int, base,
                 rtol=1e-11, atol=1e-13):
        if not 0 <= free_index < form.n:
            raise ArityError("free variable index out of range")
        if not form.domain.contains(base, tol=1e-12):
            raise AnalysisError("base point outside domain")
        self.form = form
        self.free_index = free_index
        self.base = tuple(float(v) for v in base)
        self.rtol = rtol
        self.atol = atol
        self.other = tuple(i for i in range(form.n) if i != free_index)
        self.base_proj = tuple(self.base[i] for i in self.other)
        lo = form.domain.lows[free_index]
        hi = form.domain.highs[free_index]
        self._free_bounds = (lo - 1e-9 * (hi - lo), hi + 1e-9 * (hi - lo))
        self.memo = {}
        self.kernel = self._path_kernel()

    def _path_kernel(self):
        """ODE kernel of the free coordinate along ``u0 + t * deltas``.

        ``dx_free/dt = -sum(F_i * d_i, d_i != 0) / F_free``, summed from 0.0
        in the order of ``other``, terms with a zero increment skipped
        unevaluated.  Raises ValueError once the free coordinate leaves
        ``_free_bounds`` and ZeroDivisionError where ``F_free`` is singular
        (``forms.singular_source``).  A
        solve that is leaving ``_free_bounds`` from past the box proper ends
        at once as a box exit (``bounds`` of :func:`compile_kernel`).  Its
        source depends on the form and the free index only, so it is
        generated once per form and free index and kept in
        ``form.ode_kernels`` under ``("path", free_index)``.  Its extra
        arguments are ``a0, a1, ..``, then ``d0, d1, ..``: the coordinates
        of ``u0`` and of ``deltas``.
        """
        key = ("path", self.free_index)
        if key in self.form.ode_kernels:
            return self.form.ode_kernels[key]
        coeffs = self.form.coefficients
        free, other = self.free_index, self.other
        box = self.form.domain
        params = [f"{name}{j}" for name in "ad" for j in range(len(other))]

        def body(t, ys, ks):
            names = [None] * self.form.n
            names[free] = ys[0]
            lines = []
            for j, idx in enumerate(other):
                names[idx] = f"u{j}"
                lines.append(f"u{j} = a{j} + {t} * d{j}")
            lines += [
                f"fn = {ex.python_source(coeffs[free], names)}",
                f"if {singular_source('fn')}:",
                "    raise ZeroDivisionError('free coefficient vanished on the path')",
                "acc = 0.0",
            ]
            for j, idx in enumerate(other):
                lines += [f"if d{j} != 0.0:",
                          f"    acc += ({ex.python_source(coeffs[idx], names)}) * d{j}"]
            lines.append(f"{ks[0]} = -acc / fn")
            return lines

        bounds = ((box.lows[free], box.highs[free]), self._free_bounds)
        kernel = self.form.ode_kernels[key] = compile_kernel(1, body, params, bounds)
        return kernel

    def _solve(self, u0, u1, xn, t0, t1):
        """Free coordinate at ``t1`` on the path from ``u0`` to ``u1``.

        Starts from ``xn`` at ``t0``.  Raises AnalysisError when the
        right-hand side is undefined at the start or the solve ends with any
        status but "ok".  Successes are kept in ``memo``, keyed by the
        arguments.
        """
        key = (u0, u1, xn, t0, t1)
        if key in self.memo:
            return self.memo[key]
        deltas = tuple(b - a for a, b in zip(u0, u1))
        try:
            status, y, _, _ = _integrate_unit(self.kernel, (*u0, *deltas),
                                              (float(xn),), t0, t1,
                                              self.rtol, self.atol)
        except ex.UNDEFINED as exc:
            raise AnalysisError(f"surface integration failed: {exc}") from exc
        if status != "ok":
            raise AnalysisError(f"surface integration failed: {status}")
        self.memo[key] = y[0]
        return y[0]

    def value(self, u, s) -> float:
        """Free coordinate of the surface through (base_proj, s) above u."""
        lo, hi = self._free_bounds
        if not lo <= s <= hi:
            raise AnalysisError("fiber coordinate outside the box")
        return self._solve(self.base_proj, tuple(float(v) for v in u), float(s),
                           0.0, 1.0)

    def fiber_through(self, p) -> float:
        """Fiber coordinate s of the surface passing through the point p.

        Computed by integrating the same path ODE from p back to the base
        projection; equals the root of value(proj(p), s) = p_free.
        """
        p = tuple(float(v) for v in p)
        return self._solve(self.base_proj, tuple(p[i] for i in self.other),
                           p[self.free_index], 1.0, 0.0)


def _integrate_unit(kernel, params, y0, t0, t1, rtol, atol):
    """One whole solve from ``(t0, y0)`` to ``t1``: one call of ``kernel``.

    Returns ``(status, y, accepted, rejected)``: the status of the solve
    ("ok", "box_exit", "step_rejection" or "max_steps" after ``MAX_STEPS``
    attempts), its last accepted state and its attempt counts.  The
    right-hand side at the start, which the call evaluates, may raise an
    error of ``ex.UNDEFINED``.
    """
    status, _, y, _, _, accepted, rejected = kernel(
        t0, y0, None, 0.0, t1, 1.0 if t1 > t0 else -1.0, rtol, atol, MAX_STEPS,
        0, 0, math.inf, *params)
    return status, y, accepted, rejected


def global_factorization(form: PfaffianForm, free_index: int, base,
                         grid_per_axis: int = 9,
                         require_integrable: bool = True) -> FactorizationResult:
    """Construct psi and mu for an n-variable form from a base fiber.

    psi(p) is the fiber coordinate of the level hypersurface through p;
    mu(p) = F_free(p) * d x_free / d psi, the fiber derivative by
    :func:`fd_partial` over the box's free axis.  Points whose surfaces
    leave the box are skipped.  The monotonicity of the fiber map is
    spot-checked and violations flagged.
    With ``require_integrable``, a form :func:`integrability.classify`
    calls non_integrable at its default tolerance is an AnalysisError.
    """
    if require_integrable:
        from .integrability import CLASS_NON_INTEGRABLE, classify

        verdict = classify(form)
        if verdict.classification == CLASS_NON_INTEGRABLE:
            raise AnalysisError(
                "form classified non_integrable; pass require_integrable=False "
                "to force the construction"
            )
    field_ = SurfaceField(form, free_index, base)
    _require_transversal_fiber(form, free_index, field_.base)
    box = form.domain
    fiber = Box((box.lows[free_index],), (box.highs[free_index],))
    flags = {
        "free_index": free_index,
        "base": list(field_.base),
        "monotone_violations": 0,
    }

    def mu(p):
        p = tuple(float(v) for v in p)
        u_p = tuple(p[i] for i in field_.other)
        dxn_ds = fd_partial(lambda q: field_.value(u_p, q[0]),
                            (field_.fiber_through(p),), 0, fiber)
        return form.coefficient_tuple_fn(*p)[free_index] * dxn_ds

    result = FactorizationResult(psi=field_.fiber_through, mu=mu,
                                 method=METHOD_GLOBAL, flags=flags)
    grid = box_grid(box.lows, box.highs, grid_per_axis)
    verify_factorization(form, result, grid)

    flags["monotone_violations"] = _monotonicity_violations(field_)
    return result


def _require_transversal_fiber(form: PfaffianForm, free_index, base):
    """AnalysisError unless ``F_free(base)`` is finite and not singular
    (``forms.singular``).

    Where the free coefficient vanishes the base fiber is not transversal
    to the leaves, and no path solve can leave it.
    """
    try:
        value = form.coefficient_tuple_fn(*base)[free_index]
    except ex.UNDEFINED:
        value = math.nan
    if not math.isfinite(value) or singular((value,)):
        name = form.var_names[free_index]
        state = "zero" if math.isfinite(value) else "undefined"
        raise AnalysisError(
            f"free coefficient F_{name} is {state} at the base "
            f"{list(base)}: the fiber of {name} is not transversal to the "
            f"leaves; choose another free variable or base point"
        )


def _monotonicity_violations(field_: SurfaceField) -> int:
    """Count fiber-map monotonicity failures over a small deterministic grid.

    7 fiber positions, above the base projection and the projections of 5
    Halton points.
    """
    box = field_.form.domain
    free = field_.free_index
    lo, hi = box.lows[free], box.highs[free]
    pad = 0.05 * (hi - lo)
    s_grid = linspace(lo + pad, hi - pad, 7)
    u_targets = [field_.base_proj]
    for p in box.samples(5):
        u_targets.append(tuple(p[i] for i in field_.other))
    violations = 0
    for u in u_targets:
        seen = []
        for s in s_grid:
            try:
                seen.append(field_.value(u, s))
            except AnalysisError:
                pass
        for v0, v1 in zip(seen, seen[1:]):
            if not v1 > v0:
                violations += 1
    return violations


def staircase_defect(form: PfaffianForm, free_index: int, base):
    """Path-dependence diagnostic for the surface construction.

    Integrates the solved-coordinate ODE (rtol 1e-9, atol 1e-12) along two
    axis-ordered staircase paths to each target projection and reports the
    disagreement of the resulting free coordinates.  The targets are the
    corners of the projected box, pulled to 0.9 of the way from its center.
    Integrable forms agree to solver tolerance;
    a disagreement well above it is the numerical shadow of a nonzero
    integrability tensor.  A target whose path solve fails (a solver
    failure, or a right-hand side undefined on the path) gets the defect
    None and does not count toward the maximum, which is None where no
    target has a defect.
    """
    field_ = SurfaceField(form, free_index, base, rtol=1e-9, atol=1e-12)
    box = form.domain
    spans = [(box.lows[i], box.highs[i]) for i in field_.other]
    center = [0.5 * (lo + hi) for lo, hi in spans]
    targets = [
        tuple(c + 0.9 * (v - c) for v, c in zip(corner, center))
        for corner in itertools.product(*spans)
    ]
    per_target = []
    worst = None
    for u_target in targets:
        try:
            a = _staircase_value(field_, u_target, reversed_order=False)
            b = _staircase_value(field_, u_target, reversed_order=True)
        except AnalysisError:
            per_target.append({"target": list(u_target), "defect": None})
            continue
        defect = abs(a - b)
        per_target.append({"target": list(u_target), "defect": defect})
        worst = defect if worst is None else max(worst, defect)
    return worst, per_target


def _staircase_value(field_: SurfaceField, u_target, reversed_order: bool):
    order = list(range(len(field_.other)))
    if reversed_order:
        order.reverse()
    u = list(field_.base_proj)
    xn = field_.base[field_.free_index]
    for axis_pos in order:
        u_next = list(u)
        u_next[axis_pos] = u_target[axis_pos]
        if u_next == u:
            continue
        xn = field_._solve(tuple(u), tuple(u_next), xn, 0.0, 1.0)
        u = u_next
    return xn
