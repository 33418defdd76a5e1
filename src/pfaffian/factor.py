"""Explicit integrating-factor construction: delta_xi = mu * d(psi).

Two constructions are provided.  For two-variable forms, psi labels each
characteristic curve (an integral curve of the direction annihilating the
form) by the coordinate where it crosses a fixed axis-parallel transversal;
mu then follows from mu = F_i / (dpsi/dx_i).  For n-variable forms that
passed the tensor test, the level hypersurface through a point is grown from
a base fiber by integrating the solved-coordinate ODE along straight paths
in the projected variables; psi is the base-fiber coordinate of that
hypersurface and mu = F_free * (d x_free / d fiber-coordinate).

All psi/mu evaluators are numerical; verify_factorization closes the loop by
checking the defining identity with finite differences of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import (
    AnalysisError,
    ArityError,
    BracketFailureError,
    EvalDomainError,
    UnreachableTransversalError,
)
from .forms import DEFAULT_SINGULAR_TOL, Box, PfaffianForm
from .ode import (
    Dopri5,
    MaxStepsError,
    StepRejectionError,
    bisect_root,
    compile_kernel,
    rk4_step,
)

METHOD_TWO_VAR = "two_var_characteristic"
METHOD_GLOBAL = "global_base_fiber"

_SWAP_HYSTERESIS = 2.0


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


def auto_transversal(form: PfaffianForm, probes: int = 128) -> TransversalSpec:
    """Pick the fixed axis whose crossings are best conditioned.

    Crossing {x_a = c} transversally needs the tangent's a-component, which
    is the partner coefficient, to stay away from zero; choose the axis
    whose partner coefficient has the larger low quantile over the box.
    """
    pts = form.domain.samples(probes)
    fns = form.coefficient_fns
    scores = []
    for axis in range(2):
        partner = 1 - axis
        mags = []
        for p in pts:
            try:
                mags.append(abs(fns[partner](*p)))
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
        scores.append(np.quantile(mags, 0.05) if mags else 0.0)
    axis = int(np.argmax(scores))
    return TransversalSpec(axis, form.domain.center[axis])


@dataclass
class CharacteristicCurve:
    params: np.ndarray  # cumulative arc length, monotone
    points: np.ndarray  # m x 2
    label: float = None  # varying-axis coordinate at the transversal crossing
    status: str = "boundary"  # 'transversal' | 'boundary' | 'singular' | 'max_steps'
    truncated: bool = False


def _tangent(fvals):
    return (fvals[1], -fvals[0])


def _unit_tangent(fvals, sign=1.0):
    """``sign * _tangent(fvals) / |fvals|``.

    The norm is the plain ``sqrt(F_2^2 + F_1^2)``: it overflows to inf for
    coefficients beyond about 1e154, and the tangent then reads 0 or NaN.
    """
    norm = math.sqrt(fvals[1] * fvals[1] + fvals[0] * fvals[0])
    return (sign * fvals[1] / norm, sign * -fvals[0] / norm)


def _characteristic_kernel(form: PfaffianForm, b: int, singular_tol):
    """ODE kernel of ``dx_b/dx_a = -F_a / F_b`` in the coordinate ``a = 1 - b``.

    Raises ZeroDivisionError where ``|F_b| <= singular_tol``.
    """
    a = 1 - b
    fa, fb = form.coefficients[a], form.coefficients[b]
    tol = ex.python_literal(singular_tol)

    def body(t, ys, ks):
        names = [None, None]
        names[a], names[b] = t, ys[0]
        return [
            f"fa = {ex.python_source(fa, names)}",
            f"fb = {ex.python_source(fb, names)}",
            f"if abs(fb) <= {tol}:",
            "    raise ZeroDivisionError('solved coefficient vanished')",
            f"{ks[0]} = -fa / fb",
        ]

    return compile_kernel(1, body)


class CharacteristicKernels(dict):
    """Characteristic ODE kernels of one two-variable form, by solved axis.

    Each kernel is generated on first use; share one instance between the
    :func:`solve_characteristic` calls on a form so that none is built per
    curve.
    """

    def __init__(self, form: PfaffianForm,
                 singular_tol: float = DEFAULT_SINGULAR_TOL):
        super().__init__()
        self.form = form
        self.singular_tol = singular_tol

    def __missing__(self, b):
        kernel = self[b] = _characteristic_kernel(self.form, b, self.singular_tol)
        return kernel


def solve_characteristic(form: PfaffianForm, start, direction: int = 1,
                         transversal: TransversalSpec = None,
                         rtol: float = 1e-9, atol: float = 1e-12,
                         max_steps: int = 100000,
                         singular_tol: float = DEFAULT_SINGULAR_TOL,
                         kernels: CharacteristicKernels = None
                         ) -> CharacteristicCurve:
    """Trace the characteristic of a two-variable form through ``start``.

    Integrates the curve annihilating the form, parametrizing by whichever
    variable currently gives the better-conditioned slope (swapping roles
    with 2x hysteresis), until the domain boundary, the transversal, a
    singular point of the form, or the step budget.  ``kernels`` are the
    generated right-hand sides to reuse, built for ``form`` and
    ``singular_tol``; by default this call builds its own.
    """
    if form.n != 2:
        raise ArityError("characteristics require a two-variable form")
    if kernels is None:
        kernels = CharacteristicKernels(form, singular_tol)
    elif kernels.form is not form or kernels.singular_tol != singular_tol:
        raise AnalysisError("kernels were built for another form or tolerance")
    box = form.domain
    if not box.contains(start, tol=1e-12):
        raise AnalysisError(f"start point {tuple(start)} outside domain")
    fns = form.coefficient_fns
    x = (float(start[0]), float(start[1]))
    pts = [x]
    params = [0.0]
    scale = max(box.edges)

    if (
        transversal is not None
        and abs(x[transversal.fixed_axis] - transversal.value) <= 1e-14 * scale
        and transversal.on_span(x[transversal.varying_axis()])
    ):
        return CharacteristicCurve(np.array(params), np.array(pts),
                                   label=x[transversal.varying_axis()],
                                   status="transversal")

    def coeffs(p):
        return (fns[0](*p), fns[1](*p))

    try:
        f = coeffs(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise AnalysisError("coefficients undefined at the start point")
    if max(abs(f[0]), abs(f[1])) <= singular_tol:
        return CharacteristicCurve(np.array(params), np.array(pts),
                                   status="singular", truncated=True)
    tau = _unit_tangent(f, 1.0 if direction >= 0 else -1.0)

    dependent = int(np.argmax([abs(f[0]), abs(f[1])]))
    steps_used = 0
    status = "running"
    label = None

    def finish(status_, truncated=False):
        return CharacteristicCurve(np.asarray(params), np.asarray(pts),
                                   label=label, status=status_,
                                   truncated=truncated)

    while status == "running":
        if steps_used >= max_steps:
            return finish("max_steps", truncated=True)
        b = dependent
        a = 1 - b
        sign_a = 1.0 if tau[a] >= 0 else -1.0
        kernel = kernels[b]

        t_limit = box.highs[a] if sign_a > 0 else box.lows[a]
        hit_transversal_on_a = (
            transversal is not None
            and transversal.fixed_axis == a
            and (transversal.value - x[a]) * sign_a > 0
            and (t_limit - transversal.value) * sign_a >= 0
        )
        t_target = transversal.value if hit_transversal_on_a else t_limit

        try:
            stepper = Dopri5(kernel, x[a], (x[b],), direction=sign_a,
                             rtol=rtol, atol=atol,
                             max_steps=max_steps - steps_used)
        except (ValueError, ZeroDivisionError, OverflowError):
            status = "singular"
            return finish(status, truncated=True)

        while True:
            prev_t, prev_y = stepper.t, stepper.y
            try:
                t_new, y_new = stepper.step(t_target)
            except StepRejectionError:
                status = "singular"
                return finish(status, truncated=True)
            except MaxStepsError:
                status = "max_steps"
                return finish(status, truncated=True)
            steps_used += 1

            crossed = None  # (lam, kind)
            # dependent-axis box exit
            for bound, kind in ((box.lows[b], "boundary"), (box.highs[b], "boundary")):
                g0, g1 = prev_y[0] - bound, y_new[0] - bound
                if g0 * g1 < 0:
                    lam = _locate(kernel, prev_t, prev_y, t_new - prev_t, bound)
                    crossed = (lam, kind)
            # transversal crossing on the dependent axis
            if (
                crossed is None
                and transversal is not None
                and transversal.fixed_axis == b
            ):
                g0 = prev_y[0] - transversal.value
                g1 = y_new[0] - transversal.value
                if g0 * g1 <= 0 and (g0 != 0 or g1 != 0):
                    lam = _locate(kernel, prev_t, prev_y, t_new - prev_t,
                                  transversal.value)
                    t_cross = prev_t + lam * (t_new - prev_t)
                    if transversal.on_span(t_cross):
                        crossed = (lam, "transversal")

            if crossed is not None:
                lam, kind = crossed
                t_hit = prev_t + lam * (t_new - prev_t)
                y_hit = _interior_state(kernel, prev_t, prev_y, t_new - prev_t, lam)
                p_hit = [0.0, 0.0]
                p_hit[a], p_hit[b] = t_hit, y_hit[0]
                p_hit = box.clamp(p_hit)
                params.append(params[-1] + _dist(pts[-1], p_hit))
                pts.append(tuple(p_hit))
                if kind == "transversal":
                    label = p_hit[a]
                    status = "transversal"
                else:
                    status = "boundary"
                    # boundary hit without reaching the transversal
                return finish(status, truncated=(kind == "boundary"))

            p_new = [0.0, 0.0]
            p_new[a], p_new[b] = t_new, y_new[0]
            p_new = tuple(p_new)
            params.append(params[-1] + _dist(pts[-1], p_new))
            pts.append(p_new)
            x = p_new

            try:
                f = coeffs(x)
            except (ValueError, ZeroDivisionError, OverflowError):
                status = "singular"
                return finish(status, truncated=True)
            if max(abs(f[0]), abs(f[1])) <= singular_tol:
                status = "singular"
                return finish(status, truncated=True)
            tau_new = _unit_tangent(f)
            if tau_new[0] * tau[0] + tau_new[1] * tau[1] < 0:
                tau_new = (-tau_new[0], -tau_new[1])
            tau = tau_new

            if abs(t_new - t_target) <= 1e-14 * max(1.0, abs(t_target)):
                if hit_transversal_on_a:
                    if transversal.on_span(x[b]):
                        label = x[b]
                        status = "transversal"
                        return finish(status)
                    # crossed the transversal line off its segment: keep going
                    hit_transversal_on_a = False
                    t_target = t_limit
                else:
                    status = "boundary"
                    return finish(status)

            if abs(f[a]) > _SWAP_HYSTERESIS * abs(f[b]):
                dependent = a
                break  # re-setup with swapped roles

            if steps_used >= max_steps:
                status = "max_steps"
                return finish(status, truncated=True)

    return finish(status)


def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _interior_state(kernel, t0, y0, dt_total, lam):
    """Approximate the state inside an accepted step with two RK4 substeps."""
    dt = lam * dt_total
    if dt == 0.0:
        return tuple(y0)
    y_mid = rk4_step(kernel, t0, y0, dt / 2.0)
    return rk4_step(kernel, t0 + dt / 2.0, y_mid, dt / 2.0)


def _locate(kernel, t0, y0, dt_total, level):
    """Crossing fraction lam in [0,1] where the interpolated state hits level."""

    def g(lam):
        return _interior_state(kernel, t0, y0, dt_total, lam)[0] - level

    return bisect_root(g, 0.0, 1.0, xtol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference gradients of evaluator-defined functions
# ---------------------------------------------------------------------------

FD_SCALE = 1e-4


def fd_partial(fn, p, axis, box: Box, scale: float = FD_SCALE):
    """Partial derivative of a point evaluator by finite differences.

    Uses the 4th-order central stencil where the box leaves room, a plain
    central difference when only +-h fits, and a one-sided second-order
    stencil at the boundary.  ``h = scale * edge`` per the construction's
    step policy.
    """
    lo, hi = box.lows[axis], box.highs[axis]
    h = min(scale * (hi - lo), (hi - lo) / 8.0)
    x = float(p[axis])

    def at(v):
        q = list(p)
        q[axis] = v
        return fn(tuple(q))

    if x - 2 * h >= lo and x + 2 * h <= hi:
        return (at(x - 2 * h) - 8 * at(x - h) + 8 * at(x + h) - at(x + 2 * h)) / (12 * h)
    if x - h >= lo and x + h <= hi:
        return (at(x + h) - at(x - h)) / (2 * h)
    if x + 2 * h <= hi:
        return (-3 * at(x) + 4 * at(x + h) - at(x + 2 * h)) / (2 * h)
    if x - 2 * h >= lo:
        return (3 * at(x) - 4 * at(x - h) + at(x - 2 * h)) / (2 * h)
    raise AnalysisError("box too small for the finite-difference stencil")


def fd_gradient(fn, p, box: Box, scale: float = FD_SCALE):
    return tuple(fd_partial(fn, p, i, box, scale) for i in range(box.dim))


# ---------------------------------------------------------------------------
# factorization results and verification
# ---------------------------------------------------------------------------


@dataclass
class ResidualStats:
    residual_max: float
    residual_rms: float
    evaluated_points: int
    skipped_points: int


@dataclass
class FactorizationResult:
    """Numerical factorization delta_xi = mu * d(psi) on the usable sub-box.

    ``psi`` and ``mu`` are point evaluators; they raise AnalysisError
    subclasses at points the construction could not cover (those are the
    skipped points of the residual statistics).
    """

    psi: object
    mu: object
    method: str
    residual_max: float = math.nan
    residual_rms: float = math.nan
    skipped_points: int = 0
    evaluated_points: int = 0
    flags: dict = field(default_factory=dict)


_SKIP_ERRORS = (
    AnalysisError,
    EvalDomainError,
    ValueError,
    ZeroDivisionError,
    OverflowError,
)


def verify_factorization(form: PfaffianForm, result: FactorizationResult,
                         samples, fd_scale: float = FD_SCALE) -> ResidualStats:
    """Residual statistics of the identity F_i = mu * dpsi/dx_i over samples.

    Residual at p is max_i |F_i(p) - mu(p) * dpsi/dx_i(p)| / max(1, |F_i(p)|),
    with dpsi by finite differences of the psi evaluator.  Failures at a
    sample are counted as skipped, never fatal.
    """
    fns = form.coefficient_fns
    box = form.domain
    worst = 0.0
    acc = 0.0
    used = 0
    skipped = 0
    for p in samples:
        p = tuple(float(v) for v in p)
        try:
            grad = fd_gradient(result.psi, p, box, fd_scale)
            mu_p = result.mu(p)
            fvals = [fn(*p) for fn in fns]
        except _SKIP_ERRORS:
            skipped += 1
            continue
        if not all(math.isfinite(v) for v in (*grad, mu_p, *fvals)):
            skipped += 1
            continue
        r = max(
            abs(f - mu_p * g) / max(1.0, abs(f)) for f, g in zip(fvals, grad)
        )
        worst = max(worst, r)
        acc += r * r
        used += 1
    rms = math.sqrt(acc / used) if used else math.nan
    return ResidualStats(worst if used else math.nan, rms, used, skipped)


def _mu_from_gradient(form, p, grad, grad_tol=1e-12, disagreement_tol=1e-4):
    """mu = F_i / grad_i using the best-conditioned axis; cross-checked.

    Returns (mu, disagreement_flagged).  Raises AnalysisError when every
    gradient component is below ``grad_tol``.
    """
    fns = form.coefficient_fns
    mags = [abs(g) for g in grad]
    best = max(range(len(grad)), key=lambda i: mags[i])
    if mags[best] <= grad_tol:
        raise AnalysisError("psi gradient numerically zero: mu undefined")
    mu = fns[best](*p) / grad[best]
    flagged = False
    for i, g in enumerate(grad):
        if i == best or mags[i] <= max(grad_tol, 1e-3 * mags[best]):
            continue
        other = fns[i](*p) / g
        if abs(other - mu) > disagreement_tol * max(1.0, abs(mu)):
            flagged = True
    return mu, flagged


def build_potential_2var(form: PfaffianForm, transversal: TransversalSpec = None,
                         grid_per_axis: int = 17, rtol: float = 1e-11,
                         atol: float = 1e-13, fd_scale: float = FD_SCALE
                         ) -> FactorizationResult:
    """Construct psi and mu for a two-variable form by characteristic shooting.

    psi(p) is the transversal coordinate of the characteristic through p;
    regions whose characteristics leave the box before the transversal are
    reported as skipped.
    """
    if form.n != 2:
        raise ArityError("two-variable construction requires n = 2")
    tv = transversal or auto_transversal(form)
    fns = form.coefficient_fns
    kernels = CharacteristicKernels(form)
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
            f = (fns[0](*key), fns[1](*key))
            tau_a = _tangent(f)[tv.fixed_axis]
        except (ValueError, ZeroDivisionError, OverflowError):
            tau_a = 0.0
        first = 1 if towards * tau_a >= 0 else -1
        for direction in (first, -first):
            curve = solve_characteristic(form, key, direction, transversal=tv,
                                         rtol=rtol, atol=atol, kernels=kernels)
            if curve.status == "transversal":
                cache[key] = curve.label
                return curve.label
        cache[key] = None
        flags["unreachable_points"] += 1
        raise UnreachableTransversalError(
            "characteristic does not reach the transversal"
        )

    def mu(p):
        p = tuple(float(v) for v in p)
        grad = fd_gradient(psi, p, form.domain, fd_scale)
        value, flagged = _mu_from_gradient(form, p, grad)
        if flagged:
            flags["mu_branch_disagreements"] += 1
        return value

    result = FactorizationResult(psi=psi, mu=mu, method=METHOD_TWO_VAR,
                                 flags=flags)
    grid = _grid(form.domain, grid_per_axis)
    stats = verify_factorization(form, result, grid, fd_scale)
    result.residual_max = stats.residual_max
    result.residual_rms = stats.residual_rms
    result.skipped_points = stats.skipped_points
    result.evaluated_points = stats.evaluated_points
    flags["transversal"] = {"fixed_axis": tv.fixed_axis, "value": tv.value}
    return result


def _grid(box: Box, per_axis: int):
    from .sampling import box_grid

    return [tuple(p) for p in box_grid(box.lows, box.highs, per_axis)]


# ---------------------------------------------------------------------------
# n-variable construction from a base fiber
# ---------------------------------------------------------------------------


class SurfaceField:
    """Level hypersurfaces grown from the base fiber of the free variable.

    ``value(u, s)`` integrates the solved-coordinate ODE along the straight
    segment from the base projection to ``u``, starting the free coordinate
    at fiber position ``s``; it returns the free coordinate above ``u``.
    Every path solve runs through one generated ODE kernel, whose extra
    arguments are the path start ``u0`` and increment ``deltas``.
    """

    def __init__(self, form: PfaffianForm, free_index: int, base,
                 rtol=1e-11, atol=1e-13, box_tol=1e-9):
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
        self._free_bounds = (lo - box_tol * (hi - lo), hi + box_tol * (hi - lo))
        self.memo = {}
        self._fibers = {}
        self.kernel = self._path_kernel()

    def _path_kernel(self):
        """ODE kernel of the free coordinate along ``u0 + t * deltas``.

        ``dx_free/dt = -sum(F_i * d_i, d_i != 0) / F_free``, summed from 0.0
        in the order of ``other``, terms with a zero increment skipped
        unevaluated.  Raises ValueError once the free coordinate leaves
        ``_free_bounds`` and ZeroDivisionError where ``F_free == 0``.
        """
        coeffs = self.form.coefficients
        free, other = self.free_index, self.other
        lo, hi = (ex.python_literal(v) for v in self._free_bounds)
        m = len(other)
        prologue = [
            f"{ex.python_tuple(f'a{j}' for j in range(m))} = u0",
            f"{ex.python_tuple(f'd{j}' for j in range(m))} = deltas",
        ] if m else []

        def body(t, ys, ks):
            names = [None] * self.form.n
            names[free] = ys[0]
            lines = [f"if not {lo} <= {ys[0]} <= {hi}:",
                     "    raise ValueError('free coordinate left the box')"]
            for j, idx in enumerate(other):
                names[idx] = f"u{j}"
                lines.append(f"u{j} = a{j} + {t} * d{j}")
            lines += [
                f"fn = {ex.python_source(coeffs[free], names)}",
                "if fn == 0.0:",
                "    raise ZeroDivisionError('free coefficient vanished on the path')",
                "acc = 0.0",
            ]
            for j, idx in enumerate(other):
                lines += [f"if d{j} != 0.0:",
                          f"    acc += ({ex.python_source(coeffs[idx], names)}) * d{j}"]
            lines.append(f"{ks[0]} = -acc / fn")
            return lines

        return compile_kernel(1, body, ("u0", "deltas"), prologue)

    def _solve(self, u0, u1, xn, t0, t1):
        """Free coordinate at ``t1`` on the path from ``u0`` to ``u1``.

        Starts from ``xn`` at ``t0``; ODE failures propagate.
        """
        deltas = tuple(b - a for a, b in zip(u0, u1))
        y, _ = _integrate_unit(self.kernel, (u0, deltas), (xn,), t0, t1,
                               self.rtol, self.atol)
        return y[0]

    def value(self, u, s) -> float:
        """Free coordinate of the surface through (base_proj, s) above u."""
        key = (tuple(float(v) for v in u), float(s))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        lo, hi = self._free_bounds
        if not lo <= s <= hi:
            raise AnalysisError("fiber coordinate outside the box")
        try:
            xn = self._solve(self.base_proj, key[0], s, 0.0, 1.0)
        except (StepRejectionError, MaxStepsError, ValueError,
                ZeroDivisionError, OverflowError) as exc:
            raise AnalysisError(f"surface integration failed: {exc}") from exc
        self.memo[key] = xn
        return xn

    def fiber_through(self, p) -> float:
        """Fiber coordinate s of the surface passing through the point p.

        Computed by integrating the same path ODE from p back to the base
        projection; equals the root of value(proj(p), s) = p_free.  Successes
        are memoized per point.
        """
        p = tuple(float(v) for v in p)
        hit = self._fibers.get(p)
        if hit is not None:
            return hit
        u_p = tuple(p[i] for i in self.other)
        try:
            s = self._solve(self.base_proj, u_p, p[self.free_index], 1.0, 0.0)
        except (StepRejectionError, MaxStepsError, ValueError,
                ZeroDivisionError, OverflowError) as exc:
            raise AnalysisError(f"surface integration failed: {exc}") from exc
        lo, hi = self._free_bounds
        if not lo <= s <= hi:
            raise BracketFailureError(
                "surface through the point meets the base fiber outside the box"
            )
        self._fibers[p] = s
        return s

    def fiber_by_rootfind(self, p, expand=1.5, max_expand=60) -> float:
        """Root-finding variant of :meth:`fiber_through` (cross-check path)."""
        p = tuple(float(v) for v in p)
        u_p = tuple(p[i] for i in self.other)
        target = p[self.free_index]
        lo, hi = self._free_bounds

        def g(s):
            return self.value(u_p, s) - target

        half = max(1e-6, 1e-3 * (hi - lo))
        center = min(max(target, lo), hi)
        for _ in range(max_expand):
            s_lo = max(lo, center - half)
            s_hi = min(hi, center + half)
            try:
                if g(s_lo) * g(s_hi) <= 0:
                    return bisect_root(g, s_lo, s_hi, xtol=1e-13)
            except AnalysisError:
                pass
            if s_lo == lo and s_hi == hi:
                break
            half *= expand
        raise BracketFailureError("could not bracket the fiber coordinate")


def _integrate_unit(kernel, params, y0, t0, t1, rtol, atol, max_steps=100000):
    stepper = Dopri5(kernel, t0, y0, direction=1.0 if t1 > t0 else -1.0,
                     rtol=rtol, atol=atol, max_steps=max_steps, params=params)
    while (stepper.t - t1) * stepper.direction < 0:
        stepper.step(t1)
    return stepper.y, stepper.stats


def global_factorization(form: PfaffianForm, free_index: int, base,
                         grid_per_axis: int = 9, rtol: float = 1e-11,
                         atol: float = 1e-13, fd_scale: float = FD_SCALE,
                         require_integrable: bool = True,
                         classify_tol: float = 1e-8) -> FactorizationResult:
    """Construct psi and mu for an n-variable form from a base fiber.

    psi(p) is the fiber coordinate of the level hypersurface through p;
    mu(p) = F_free(p) * d x_free / d psi, the fiber derivative by centered
    difference.  Points whose surfaces leave the box are skipped.  The
    monotonicity of the fiber map is spot-checked and violations flagged.
    """
    if require_integrable:
        from .integrability import CLASS_NON_INTEGRABLE, classify

        verdict = classify(form, tol=classify_tol)
        if verdict.classification == CLASS_NON_INTEGRABLE:
            raise AnalysisError(
                "form classified non_integrable; pass require_integrable=False "
                "to force the construction"
            )
    field_ = SurfaceField(form, free_index, base, rtol=rtol, atol=atol)
    box = form.domain
    edge_n = box.edges[free_index]
    delta = fd_scale * edge_n
    flags = {
        "free_index": free_index,
        "base": list(field_.base),
        "monotone_violations": 0,
        "mu_branch_disagreements": 0,
    }

    def psi(p):
        return field_.fiber_through(p)

    def mu(p):
        p = tuple(float(v) for v in p)
        s = field_.fiber_through(p)
        u_p = tuple(p[i] for i in field_.other)
        lo, hi = field_._free_bounds
        s_lo, s_hi = s - delta, s + delta
        if s_lo < lo or s_hi > hi:
            shift = max(lo - s_lo, 0.0) - max(s_hi - hi, 0.0)
            s_lo += shift
            s_hi += shift
        dxn_ds = (field_.value(u_p, s_hi) - field_.value(u_p, s_lo)) / (s_hi - s_lo)
        return form.coefficient_fns[free_index](*p) * dxn_ds

    result = FactorizationResult(psi=psi, mu=mu, method=METHOD_GLOBAL, flags=flags)
    grid = _grid(box, grid_per_axis)
    stats = verify_factorization(form, result, grid, fd_scale)
    result.residual_max = stats.residual_max
    result.residual_rms = stats.residual_rms
    result.skipped_points = stats.skipped_points
    result.evaluated_points = stats.evaluated_points

    flags["monotone_violations"] = _monotonicity_violations(field_)
    return result


def _monotonicity_violations(field_: SurfaceField, fibers: int = 7,
                             targets: int = 5) -> int:
    """Count fiber-map monotonicity failures over a small deterministic grid."""
    box = field_.form.domain
    free = field_.free_index
    lo, hi = box.lows[free], box.highs[free]
    pad = 0.05 * (hi - lo)
    s_grid = np.linspace(lo + pad, hi - pad, fibers)
    u_targets = [field_.base_proj]
    samples = box.samples(targets)
    for p in samples:
        u_targets.append(tuple(p[i] for i in field_.other))
    violations = 0
    for u in u_targets:
        values = []
        for s in s_grid:
            try:
                values.append(field_.value(u, float(s)))
            except AnalysisError:
                values.append(None)
        seen = [(s, v) for s, v in zip(s_grid, values) if v is not None]
        for (_, v0), (_, v1) in zip(seen, seen[1:]):
            if not v1 > v0:
                violations += 1
    return violations


def staircase_defect(form: PfaffianForm, free_index: int, base,
                     targets=None, rtol: float = 1e-9, atol: float = 1e-12):
    """Path-dependence diagnostic for the surface construction.

    Integrates the solved-coordinate ODE along two axis-ordered staircase
    paths to each target projection and reports the disagreement of the
    resulting free coordinates.  Integrable forms agree to solver tolerance;
    a disagreement well above it is the numerical shadow of a nonzero
    integrability tensor.
    """
    field_ = SurfaceField(form, free_index, base, rtol=rtol, atol=atol)
    box = form.domain
    if targets is None:
        targets = []
        spans = [
            (box.lows[i], box.highs[i]) for i in field_.other
        ]
        from itertools import product

        center = [0.5 * (lo + hi) for lo, hi in spans]
        for corner in product(*[(lo, hi) for lo, hi in spans]):
            targets.append(tuple(
                c + 0.9 * (v - c) for v, c in zip(corner, center)
            ))
    per_target = []
    worst = 0.0
    for u_target in targets:
        try:
            a = _staircase_value(field_, u_target, reversed_order=False)
            b = _staircase_value(field_, u_target, reversed_order=True)
        except (AnalysisError, StepRejectionError, MaxStepsError):
            per_target.append({"target": list(u_target), "defect": None})
            continue
        defect = abs(a - b)
        per_target.append({"target": list(u_target), "defect": defect})
        worst = max(worst, defect)
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
