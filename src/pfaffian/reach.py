"""Empirical reachability of points by curves annihilating the form.

Null curves are steered by fixing n-1 free velocity components and solving
the remaining one from the constraint sum(F_i v_i) = 0, re-solving at every
integrator stage.  Random exploration from a base point yields an endpoint
cloud; the dimension of that cloud separates forms whose reachable set fills
a neighborhood (non-integrable) from forms confined to a level hypersurface.
The surrounding-line scan steers deterministically toward targets obtained
by freeing one coordinate, reporting per-target closest-approach gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import AnalysisError, ArityError
from .forms import DEFAULT_SINGULAR_TOL, PfaffianForm

KIND_FULL = "full_dimensional"
KIND_CODIM_ONE = "codimension_one_like"
KIND_INCONCLUSIVE = "inconclusive"

SEGMENT_FRACTION = 0.125  # segment length as a fraction of epsilon
STEPS_PER_SEGMENT = 12
MAX_SEGMENTS = 48


class PivotLostError(AnalysisError):
    """Solved coefficient dropped below tolerance; caller must re-pivot."""


# ---------------------------------------------------------------------------
# single-step steering
# ---------------------------------------------------------------------------


def constrained_velocity(form: PfaffianForm, p, free_velocity, solved_index,
                         singular_tol=DEFAULT_SINGULAR_TOL):
    """Velocity with the given free components and the solved one from the form."""
    if len(free_velocity) != form.n - 1:
        raise ArityError("free velocity must have n-1 components")
    if not 0 <= solved_index < form.n:
        raise ArityError("solved index out of range")
    fvals = form.coefficient_tuple_fn(*p)
    fk = fvals[solved_index]
    if not abs(fk) > singular_tol:
        raise PivotLostError("solved coefficient below tolerance")
    v = [0.0] * form.n
    acc = 0.0
    vi = iter(free_velocity)
    for i in range(form.n):
        if i == solved_index:
            continue
        w = next(vi)
        v[i] = w
        acc += fvals[i] * w
    vk = -acc / fk
    if not -1e300 < vk < 1e300:
        raise PivotLostError("constraint solve produced a non-finite velocity")
    v[solved_index] = vk
    return tuple(v)


def steer_step(form: PfaffianForm, p, free_velocity, solved_index, dt,
               singular_tol=DEFAULT_SINGULAR_TOL):
    """One fixed-size RK4 step of the constrained velocity field.

    The constraint is re-solved at every internal stage.  Returns
    ``(next_point, residual)`` where the residual is the Simpson estimate of
    the form paired with the step chord, normalized by |F| |dx|.  Raises
    PivotLostError when the solved coefficient degenerates mid-step.
    """
    if len(free_velocity) != form.n - 1:
        raise ArityError("free velocity must have n-1 components")
    if not 0 <= solved_index < form.n:
        raise ArityError("solved index out of range")
    step = _compile_step(form, solved_index, singular_tol)
    f0 = form.coefficient_tuple_fn(*p)
    x1, _, residual = _rk4_constrained(step, p, f0, free_velocity, dt)
    return x1, residual


def _rk4_constrained(step, x, f_x, vfree, dt):
    """One constrained RK4 step ``(x1, F(x1), residual)`` of a generated stepper.

    Every step, bisection trials included, goes through this module-level
    name, so that per-step counts can be taken by wrapping it
    (``perfbench/tracing.py`` does).
    """
    return step(x, f_x, vfree, dt)


def _compile_function(lines, name):
    namespace = ex.kernel_namespace()
    namespace.update(_sum=sum, _sqrt=math.sqrt, _Lost=PivotLostError)
    source = "\n".join(lines) + "\n"
    exec(  # noqa: S102 - source is generated from our own AST
        compile(source, f"<pfaffian-{name}>", "exec"), namespace
    )
    return namespace[name]


def _compile_step(form: PfaffianForm, k, tol):
    """Straight-line constrained RK4 step of ``form`` with pivot ``k``.

    ``step(x, f_x, vfree, dt) -> (x1, f1, residual)``, with f1 = F(x1) and
    the residual of :func:`steer_step`.  The coefficient bodies are inlined
    at the three stage points and at the end point.  Each float operation is
    that of the RK4 step written stage by stage, in the same order: the
    solved velocity is ``-(0.0 + sum of F_i v_i) / F_k``, and the residual
    sums go through ``sum``.  ``tests/test_reach.py`` keeps that stage-by-
    stage form as the reference the generated step must match bit for bit.
    Raises PivotLostError when the solved coefficient is not above ``tol``
    or the solved velocity is not within (-1e300, 1e300); coefficient domain
    errors propagate as ValueError, ZeroDivisionError or OverflowError.
    """
    n = form.n
    free = [i for i in range(n) if i != k]
    tol = ex.python_literal(tol)
    lines = [
        "def step(x, fx, vfree, dt):",
        f"    {ex.python_tuple(f'x{i}' for i in range(n))} = x",
        f"    {ex.python_tuple(f'a{i}' for i in range(n))} = fx",
    ]
    if free:
        lines.append(f"    {ex.python_tuple(f'v{i}' for i in free)} = vfree")
    lines.append("    h = 0.5 * dt")

    def solve(f, p):
        acc = "".join(f" + {f}{i} * v{i}" for i in free)
        lines.extend([
            f"    if not abs({f}{k}) > {tol}:",
            "        raise _Lost('solved coefficient below tolerance')",
            f"    {p} = -(0.0{acc}) / {f}{k}",
            f"    if not -1e300 < {p} < 1e300:",
            "        raise _Lost('constraint solve produced a non-finite velocity')",
        ])

    def coefficients(f, names):
        for i, c in enumerate(form.coefficients):
            lines.append(f"    {f}{i} = {ex.python_source(c, names)}")

    # stage points: free components move with vfree, the pivot with the
    # solved velocity of the previous stage, so stages 2 and 3 differ only
    # in the pivot component
    solve("a", "p1")
    lines.extend(f"    y{i} = x{i} + h * v{i}" for i in free)
    lines.append(f"    y{k} = x{k} + h * p1")
    coefficients("b", [f"y{i}" for i in range(n)])
    solve("b", "p2")
    lines.append(f"    z{k} = x{k} + h * p2")
    coefficients("c", [f"z{i}" if i == k else f"y{i}" for i in range(n)])
    solve("c", "p3")
    lines.extend(f"    u{i} = x{i} + dt * v{i}" for i in free)
    lines.append(f"    u{k} = x{k} + dt * p3")
    coefficients("d", [f"u{i}" for i in range(n)])
    solve("d", "p4")
    lines.append("    q = dt / 6.0")
    lines.extend(f"    X{i} = x{i} + q * (v{i} + 2.0 * v{i} + 2.0 * v{i} + v{i})"
                 for i in free)
    lines.append(f"    X{k} = x{k} + q * (p1 + 2.0 * p2 + 2.0 * p3 + p4)")
    coefficients("e", [f"X{i}" for i in range(n)])
    # Simpson residual of the form paired with the step chord
    lines.extend(f"    D{i} = X{i} - x{i}" for i in range(n))
    pairing = ex.python_tuple(
        f"(a{i} + 4.0 * (0.5 * (b{i} + c{i})) + e{i}) / 6.0 * D{i}"
        for i in range(n)
    )
    fsq = ex.python_tuple(f"e{i} * e{i}" for i in range(n))
    dsq = ex.python_tuple(f"D{i} * D{i}" for i in range(n))
    x1 = ex.python_tuple(f"X{i}" for i in range(n))
    f1 = ex.python_tuple(f"e{i}" for i in range(n))
    lines.extend([
        f"    pairing = _sum(({pairing}))",
        f"    fmag = _sqrt(_sum(({fsq})))",
        f"    dxmag = _sqrt(_sum(({dsq})))",
        "    if fmag == 0.0 or dxmag == 0.0:",
        f"        return ({x1}), ({f1}), 0.0",
        f"    return ({x1}), ({f1}), abs(pairing) / (fmag * dxmag)",
    ])
    return _compile_function(lines, "step")


class _Steppers(dict):
    """Generated steps of one form by pivot index, each built on first use."""

    def __init__(self, form: PfaffianForm, tol):
        super().__init__()
        self.form = form
        self.tol = tol

    def __missing__(self, k):
        step = self[k] = _compile_step(self.form, k, self.tol)
        return step


def _compile_inside(box, center, limit, squared):
    """Generated ``inside(q)``: q lies in ``box`` and near ``center``.

    Near means a squared distance ``<= limit`` when ``squared``, else a
    distance ``<= limit``; both sum the squared differences with ``sum``.
    """
    n = len(center)
    lit = ex.python_literal
    in_box = " and ".join(
        f"{lit(lo)} <= q{i} <= {lit(hi)}"
        for i, (lo, hi) in enumerate(zip(box.lows, box.highs))
    )
    dist2 = "_sum(({}))".format(ex.python_tuple(
        f"(q{i} - {lit(c)}) ** 2" for i, c in enumerate(center)
    ))
    near = f"{dist2} <= {lit(limit)}" if squared else f"_sqrt({dist2}) <= {lit(limit)}"
    lines = [
        "def inside(q):",
        f"    {ex.python_tuple(f'q{i}' for i in range(n))} = q",
        f"    return {in_box} and {near}",
    ]
    return _compile_function(lines, "inside")


# ---------------------------------------------------------------------------
# random exploration
# ---------------------------------------------------------------------------


@dataclass
class NullCurve:
    params: np.ndarray
    points: np.ndarray
    max_residual: float


@dataclass
class ReachSample:
    base: tuple
    epsilon: float
    endpoints: list
    step_counts: list
    seed: int
    budget: int
    budget_used: int
    max_residual: float = 0.0
    curves: list = field(default_factory=list)

    def as_report(self):
        return {
            "base": list(self.base),
            "epsilon": self.epsilon,
            "seed": self.seed,
            "budget": self.budget,
            "budget_used": self.budget_used,
            "endpoint_count": len(self.endpoints),
            "max_step_residual": self.max_residual,
            "endpoints": [list(e) for e in self.endpoints],
            "step_counts": list(self.step_counts),
        }


def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _bisect_step_fraction(step, x, f_x, vfree, dt, inside):
    """Largest step fraction that stays inside; returns the boundary state.

    ``inside(point) -> bool``; bisection on the step fraction, each trial
    re-stepping from the segment start so the located point lies on the
    integrated curve.
    """
    lo, hi = 0.0, 1.0
    state_lo = (x, f_x)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        xm, fm, _ = _rk4_constrained(step, x, f_x, vfree, dt * mid)
        if inside(xm):
            lo = mid
            state_lo = (xm, fm)
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return state_lo


def explore(form: PfaffianForm, p, epsilon, budget, seed,
            steps_per_segment=STEPS_PER_SEGMENT, max_segments=MAX_SEGMENTS,
            segment_fraction=SEGMENT_FRACTION, keep_curves=False,
            singular_tol=DEFAULT_SINGULAR_TOL) -> ReachSample:
    """Grow piecewise null curves from p with random free-velocity segments.

    Deterministic for a given seed: each rollout draws from its own
    spawn-keyed stream, so results do not depend on scheduling.  Endpoints
    are recorded at every segment end inside the closed epsilon-ball; curves
    that exit the ball or the box are truncated at the crossing (located by
    re-stepping bisection) and the rollout restarts from p.
    """
    if form.n < 2:
        raise ArityError("exploration requires at least 2 variables")
    p = tuple(float(v) for v in p)
    if not form.domain.contains(p, tol=1e-12):
        raise AnalysisError("base point outside domain")
    coeffs = form.coefficient_tuple_fn
    from .forms import is_singular_at

    if is_singular_at(form, p, singular_tol):
        raise AnalysisError("base point is singular for the form")

    n = form.n
    steppers = _Steppers(form, singular_tol)
    inside = _compile_inside(form.domain, p, epsilon * epsilon, squared=True)
    dt = (epsilon * segment_fraction) / steps_per_segment
    endpoints = [p]
    step_counts = [0]
    curves = []
    used = 0
    max_resid = 0.0
    rollout = 0

    while used < budget:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rollout,)))
        rollout += 1
        x = p
        f_x = coeffs(*x)
        rollout_steps = 0
        curve_pts = [x]
        curve_resid = 0.0
        alive = True
        for _seg in range(max_segments):
            if not alive or used >= budget:
                break
            k = max(range(n), key=lambda i: abs(f_x[i]))
            if abs(f_x[k]) <= singular_tol:
                break
            step = steppers[k]
            vfree = rng.standard_normal(n - 1)
            norm = float(np.linalg.norm(vfree))
            if norm == 0.0:
                continue
            vfree = tuple(float(v) / norm for v in vfree)
            for _j in range(steps_per_segment):
                if used >= budget:
                    break
                try:
                    x_new, f_new, resid = _rk4_constrained(step, x, f_x, vfree, dt)
                except (PivotLostError, ValueError, ZeroDivisionError,
                        OverflowError):
                    alive = False
                    break
                used += 1
                rollout_steps += 1
                if resid > curve_resid:
                    curve_resid = resid
                if resid > max_resid:
                    max_resid = resid
                if not inside(x_new):
                    try:
                        x_cross, _ = _bisect_step_fraction(
                            step, x, f_x, vfree, dt, inside
                        )
                    except (PivotLostError, ValueError, ZeroDivisionError,
                            OverflowError):
                        alive = False
                        break
                    if inside(x_cross):
                        endpoints.append(x_cross)
                        step_counts.append(rollout_steps)
                        curve_pts.append(x_cross)
                    alive = False
                    break
                x, f_x = x_new, f_new
                curve_pts.append(x)
            else:
                # segment completed inside the ball: record its endpoint
                endpoints.append(x)
                step_counts.append(rollout_steps)
                continue
            break
        if keep_curves and len(curve_pts) > 1:
            arr = np.asarray(curve_pts)
            seg_len = np.linalg.norm(np.diff(arr, axis=0), axis=1)
            params = np.concatenate([[0.0], np.cumsum(seg_len)])
            curves.append(NullCurve(params, arr, curve_resid))
    return ReachSample(p, float(epsilon), endpoints, step_counts, int(seed),
                       int(budget), used, max_resid, curves)


# ---------------------------------------------------------------------------
# dimension estimate
# ---------------------------------------------------------------------------


@dataclass
class ReachabilityVerdict:
    kind: str
    spectrum: tuple  # RMS singular values of the centered cloud / epsilon
    transverse_ratio: float  # residual thickness after a quadratic graph fit
    thickness: float
    endpoint_count: int
    threshold: float

    def as_report(self):
        return {
            "kind": self.kind,
            "spectrum": list(self.spectrum),
            "transverse_ratio": self.transverse_ratio,
            "thickness": self.thickness,
            "endpoint_count": self.endpoint_count,
            "threshold": self.threshold,
        }


def estimate_dimension(sample: ReachSample, threshold: float = 0.05,
                       psi_reference=None) -> ReachabilityVerdict:
    """Classify the endpoint cloud as hypersurface-like or space-filling.

    The singular-value spectrum of the centered cloud (scaled by 1/epsilon)
    is reported.  The transverse thickness used for the decision is the RMS
    residual of the last principal coordinate after fitting a quadratic
    graph over the leading ones: a cloud confined to a smooth level
    hypersurface collapses under that fit regardless of its curvature, while
    a space-filling cloud cannot be fit by any graph.  ``psi_reference`` (a
    point evaluator) replaces the thickness report with the conservation gap
    max |psi(endpoint) - psi(base)|.
    """
    n = len(sample.base)
    pts = np.asarray(sorted({tuple(e) for e in sample.endpoints}))
    if pts.ndim != 2 or pts.shape[0] < n + 1:
        return ReachabilityVerdict(KIND_INCONCLUSIVE, (), math.nan, math.nan,
                                   0 if pts.ndim != 2 else pts.shape[0],
                                   threshold)
    x = (pts - pts.mean(axis=0)) / sample.epsilon
    _, svals, vt = np.linalg.svd(x, full_matrices=False)
    rms = svals / math.sqrt(pts.shape[0])
    coords = x @ vt.T
    lead = coords[:, : n - 1]
    perp = coords[:, n - 1]
    cols = [np.ones(len(perp))]
    for i in range(n - 1):
        cols.append(lead[:, i])
    for i in range(n - 1):
        for j in range(i, n - 1):
            cols.append(lead[:, i] * lead[:, j])
    design = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(design, perp, rcond=None)
    resid = perp - design @ sol
    t_rms = float(np.sqrt(np.mean(resid * resid)))
    leading = float(rms[0]) if rms[0] > 0 else math.nan
    ratio_t = t_rms / leading if leading else math.nan
    second_ratio = float(rms[n - 2] / rms[0]) if n >= 2 and rms[0] > 0 else math.nan

    if not math.isfinite(ratio_t):
        kind = KIND_INCONCLUSIVE
    elif ratio_t > threshold:
        kind = KIND_FULL
    elif second_ratio > threshold:
        kind = KIND_CODIM_ONE
    else:
        kind = KIND_INCONCLUSIVE

    if psi_reference is not None:
        base_val = psi_reference(sample.base)
        thickness = max(
            abs(psi_reference(tuple(e)) - base_val) for e in sample.endpoints
        )
    else:
        thickness = ratio_t
    return ReachabilityVerdict(kind, tuple(float(v) for v in rms), ratio_t,
                               float(thickness), pts.shape[0], threshold)


# ---------------------------------------------------------------------------
# surrounding-line scan
# ---------------------------------------------------------------------------


@dataclass
class ScanReport:
    free_index: int
    epsilon: float
    budget: int
    budget_used: int
    offsets: tuple
    gaps: tuple
    gaps_at_half_budget: tuple
    gap_tolerance: float
    fraction_reached: float

    def as_report(self):
        return {
            "free_index": self.free_index,
            "epsilon": self.epsilon,
            "budget": self.budget,
            "budget_used": self.budget_used,
            "gap_tolerance": self.gap_tolerance,
            "fraction_reached": self.fraction_reached,
            "targets": [
                {"offset": o, "gap": g, "gap_at_half_budget": h}
                for o, g, h in zip(self.offsets, self.gaps,
                                   self.gaps_at_half_budget)
            ],
        }


def surrounding_line_scan(form: PfaffianForm, p, free_index, epsilon, budget,
                          n_targets: int = 32, gap_fraction: float = 0.01,
                          singular_tol=DEFAULT_SINGULAR_TOL) -> ScanReport:
    """Probe reachability of targets on the line freeing one coordinate.

    Places ``n_targets`` targets with |offset| <= epsilon along the free
    coordinate through p and steers toward each deterministically: straight
    legs match the non-pivot coordinates, and where the geometry permits
    (n >= 3) closed loops in two free directions move the pivot coordinate
    by their enclosed area.  On integrable forms such loops return to the
    starting level, so blocked targets keep honest gaps; budget-halving
    checkpoints record whether gaps persist as effort grows.
    """
    if not 0 <= free_index < form.n:
        raise ArityError("free variable index out of range")
    p = tuple(float(v) for v in p)
    offsets = np.linspace(-epsilon, epsilon, n_targets)
    per_budget = max(1, budget // n_targets)
    steppers = _Steppers(form, singular_tol)
    inside = _compile_inside(form.domain, p, epsilon * (1 + 1e-12),
                             squared=False)
    gaps = []
    halves = []
    used_total = 0
    for off in offsets:
        q = list(p)
        q[free_index] += float(off)
        gap, gap_half, used = _seek_target(form, steppers, inside, p, tuple(q),
                                           epsilon, per_budget)
        gaps.append(gap)
        halves.append(gap_half)
        used_total += used
    gap_tol = epsilon * gap_fraction
    fraction = sum(1 for g in gaps if g <= gap_tol) / len(gaps)
    return ScanReport(free_index, float(epsilon), int(budget), used_total,
                      tuple(float(o) for o in offsets), tuple(gaps),
                      tuple(halves), gap_tol, fraction)


class _Seeker:
    """Deterministic steering toward one target inside the epsilon-ball."""

    def __init__(self, form, steppers, inside, base, target, epsilon, budget):
        self.steppers = steppers
        self.inside = inside
        self.n = form.n
        self.base = base
        self.target = target
        self.eps = epsilon
        self.budget = budget
        self.tol = steppers.tol
        # seekers report gaps, not curves: coarser steps than explore are fine
        self.dt = (epsilon * SEGMENT_FRACTION) / 3.0
        self.used = 0
        self.x = base
        self.f = form.coefficient_tuple_fn(*base)
        self.best = _dist(base, target)
        self.best_at_half = None

    def _note(self, q):
        d = _dist(q, self.target)
        if d < self.best:
            self.best = d
        if self.best_at_half is None and self.used >= self.budget // 2:
            self.best_at_half = self.best

    def _leg(self, vfree, k, length):
        """Steer along a fixed free velocity; False when blocked/truncated."""
        step = self.steppers[k]
        steps = max(1, int(math.ceil(length / (self.dt))))
        dt = length / steps
        for _ in range(steps):
            if self.used >= self.budget:
                return False
            try:
                x_new, f_new, _ = _rk4_constrained(step, self.x, self.f, vfree, dt)
            except (PivotLostError, ValueError, ZeroDivisionError,
                    OverflowError):
                return False
            self.used += 1
            if not self.inside(x_new):
                try:
                    x_cross, f_cross = _bisect_step_fraction(
                        step, self.x, self.f, vfree, dt, self.inside
                    )
                except (PivotLostError, ValueError, ZeroDivisionError,
                        OverflowError):
                    return False
                self.x, self.f = x_cross, f_cross
                self._note(self.x)
                return False
            self.x, self.f = x_new, f_new
            self._note(self.x)
        return True

    def _free_axes(self, k):
        return [i for i in range(self.n) if i != k]

    def _align_free(self, k):
        """Straight legs driving the non-pivot coordinates onto the target."""
        free = self._free_axes(k)
        for _ in range(8):
            delta = [self.target[i] - self.x[i] for i in free]
            norm = math.sqrt(sum(d * d for d in delta))
            if norm <= 1e-11 * max(1.0, self.eps):
                return True
            vfree = tuple(d / norm for d in delta)
            if not self._leg(vfree, k, norm):
                return False
            if self.used >= self.budget:
                return False
        return True

    def _square_loop(self, k, i, j, a, orient):
        """Closed loop of side a in the (i, j) free plane; returns completion."""
        free = self._free_axes(k)
        pos_i, pos_j = free.index(i), free.index(j)
        start_free = [self.x[idx] for idx in free]
        legs = [(pos_i, a), (pos_j, a * orient), (pos_i, -a), (pos_j, -a * orient)]
        for pos, signed in legs:
            vfree = [0.0] * (self.n - 1)
            vfree[pos] = 1.0 if signed > 0 else -1.0
            if not self._leg(tuple(vfree), k, abs(signed)):
                return False
        # free coordinates return by construction; guard against drift
        drift = max(
            abs(self.x[idx] - s) for idx, s in zip(free, start_free)
        )
        return drift <= 1e-9 * max(1.0, self.eps)

    def _loop_room(self):
        slack2 = self.eps * self.eps - _dist(self.x, self.base) ** 2
        if slack2 <= 0:
            return 0.0
        return 0.8 * math.sqrt(slack2 / 2.0)

    def run(self):
        gap_tol = self.eps / 300.0
        kappa = None
        stalls = 0
        for _round in range(120):
            if self.used >= self.budget or self.best <= gap_tol:
                break
            k = max(range(self.n), key=lambda i: abs(self.f[i]))
            if abs(self.f[k]) <= self.tol:
                break
            if not self._align_free(k):
                break
            r = self.target[k] - self.x[k]
            if abs(r) <= gap_tol:
                break
            if self.n < 3:
                break  # no loop plane: the level constraint cannot be beaten
            free = self._free_axes(k)
            i, j = free[0], free[1]
            room = self._loop_room()
            if room <= 1e-6 * self.eps:
                break
            if kappa is None:
                a = min(room, self.eps / 4.0)
                before = self.x[k]
                if not self._square_loop(k, i, j, a, 1.0):
                    continue
                delta = self.x[k] - before
                if abs(delta) < max(1e-12, 1e-7 * a * a):
                    stalls += 1
                    if stalls >= 2:
                        break
                    continue
                kappa = delta / (a * a)
                continue
            area_needed = r / kappa
            a = min(room, math.sqrt(abs(area_needed)))
            orient = 1.0 if area_needed > 0 else -1.0
            before = self.x[k]
            if not self._square_loop(k, i, j, a, orient):
                kappa = None
                continue
            delta = self.x[k] - before
            if abs(delta) < max(1e-12, 1e-7 * a * a):
                stalls += 1
                kappa = None
                if stalls >= 3:
                    break
                continue
            kappa = delta / (orient * a * a)
        self._polish()
        if self.best_at_half is None:
            self.best_at_half = self.best
        return self.best, self.best_at_half, self.used

    def _polish(self):
        """Greedy coordinate-descent along free axes with shrinking legs."""
        length = self.eps / 8.0
        for _ in range(6):
            if self.used >= self.budget:
                return
            improved = False
            try:
                k = max(range(self.n), key=lambda i: abs(self.f[i]))
            except ValueError:
                return
            if abs(self.f[k]) <= self.tol:
                return
            for pos in range(self.n - 1):
                for sign in (1.0, -1.0):
                    before_best = self.best
                    before_state = (self.x, self.f)
                    vfree = [0.0] * (self.n - 1)
                    vfree[pos] = sign
                    self._leg(tuple(vfree), k, length)
                    if self.best < before_best - 1e-15:
                        improved = True
                    else:
                        self.x, self.f = before_state
            if not improved:
                length *= 0.5


def _seek_target(form, steppers, inside, base, target, epsilon, budget):
    seeker = _Seeker(form, steppers, inside, base, target, epsilon, budget)
    try:
        return seeker.run()
    except (PivotLostError, ValueError, ZeroDivisionError, OverflowError):
        best = seeker.best
        half = seeker.best_at_half if seeker.best_at_half is not None else best
        return best, half, seeker.used
