"""Empirical reachability of points by curves annihilating the form.

Null curves are steered by fixing n-1 free velocity components and solving
the remaining one from the constraint sum(F_i v_i) = 0, re-solving at every
integrator stage.  Random exploration from a base point yields an endpoint
cloud; the dimension of that cloud separates forms whose reachable set fills
a neighborhood (non-integrable) from forms confined to a level hypersurface.
The surrounding-line scan steers deterministically toward targets obtained
by freeing one coordinate, reporting per-target closest-approach gaps.

Steps run in generated loops, one per pivot and built on first use.  An
exploration rollout is one call, which picks the pivot and normalizes the
direction row of each segment itself and returns to Python only where the
pivot changes, for the other pivot's loop to go on, or where the rollout
ends.  A leg of the scan is one call per chunk of steps.  Where a step
leaves the ball or the box, the loop locates the crossing by bisection on
the step fraction, re-stepping through its one copy of the step body.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import expressions as ex
from .errors import AnalysisError, ArityError
from .forms import (
    MAX_COORDINATE,
    PfaffianForm,
    coefficient_vector,
    distance,
    pivot,
    singular_source,
)
from .sampling import linspace

KIND_FULL = "full_dimensional"
KIND_CODIM_ONE = "codimension_one_like"
KIND_INCONCLUSIVE = "inconclusive"

# The radii both probes accept lie in [MIN_RADIUS, MAX_COORDINATE]: epsilon
# squared is then a finite, normal float
MIN_RADIUS = 1.0 / MAX_COORDINATE
SEGMENT_FRACTION = 0.125  # segment length as a fraction of epsilon
STEPS_PER_SEGMENT = 12
MAX_SEGMENTS = 48


# ---------------------------------------------------------------------------
# generated steering loops
# ---------------------------------------------------------------------------


def _step_lines(form: PfaffianForm, k, pad, residual):
    """Source lines of one constrained RK4 step of ``form`` with pivot ``k``.

    The step goes from the state ``x<i>`` with ``a<i> = F(x)`` to ``X<i>``
    with ``e<i> = F(X)``, reading the free velocity ``v<i>``, the step
    ``dt`` and the step terms of :func:`_term_lines`.  The coefficient
    bodies are inlined at the three stage points and at the end point.  With
    ``residual`` it also sets ``res``, the Simpson estimate of the form
    paired with the step chord, normalized by |F(X)| |X - x|.  Each line is
    indented by ``pad``.  A stage raises ZeroDivisionError where the solved
    coefficient is singular (``forms.singular_source``) and ArithmeticError
    where the solved velocity is not within (-1e300, 1e300), which a NaN
    coefficient fails: the pivot is lost, and like an undefined operation
    that is an error of ``ex.UNDEFINED``.
    """
    n = form.n
    free = [i for i in range(n) if i != k]
    lines = []

    def solve(f, p):
        acc = "".join(f" + {f}{i} * v{i}" for i in free)
        lines.extend([
            f"if {singular_source(f'{f}{k}')}:",
            "    raise ZeroDivisionError('solved coefficient below tolerance')",
            f"{p} = -(0.0{acc}) / {f}{k}",
            f"if not -1e300 < {p} < 1e300:",
            "    raise ArithmeticError('constraint solve gave a non-finite velocity')",
        ])

    def coefficients(f, names):
        # one text per stage: a subtree shared by two coefficients is
        # computed once, in the line of the first (the lines run in order)
        texts = ex.python_sources(form.coefficients, names)
        lines.extend(f"{f}{i} = {t}" for i, t in enumerate(texts))

    # stage points: free components move with vfree, the pivot with the
    # solved velocity of the previous stage, so stages 2 and 3 differ only
    # in the pivot component
    solve("a", "p1")
    lines.extend(f"y{i} = x{i} + hv{i}" for i in free)
    lines.append(f"y{k} = x{k} + h * p1")
    coefficients("b", [f"y{i}" for i in range(n)])
    solve("b", "p2")
    lines.append(f"z{k} = x{k} + h * p2")
    coefficients("c", [f"z{i}" if i == k else f"y{i}" for i in range(n)])
    solve("c", "p3")
    lines.extend(f"u{i} = x{i} + dv{i}" for i in free)
    lines.append(f"u{k} = x{k} + dt * p3")
    coefficients("d", [f"u{i}" for i in range(n)])
    solve("d", "p4")
    lines.extend(f"X{i} = x{i} + qv{i}" for i in free)
    lines.append(f"X{k} = x{k} + q * (p1 + 2.0 * p2 + 2.0 * p3 + p4)")
    coefficients("e", [f"X{i}" for i in range(n)])
    if residual:
        # Simpson residual of the form paired with the step chord
        lines.extend(f"D{i} = X{i} - x{i}" for i in range(n))
        pairing = ex.python_sum(
            f"(a{i} + 4.0 * (0.5 * (b{i} + c{i})) + e{i}) / 6.0 * D{i}"
            for i in range(n)
        )
        fsq = ex.python_sum(f"e{i} * e{i}" for i in range(n))
        dsq = ex.python_sum(f"D{i} * D{i}" for i in range(n))
        lines.extend([
            f"pairing = {pairing}",
            f"fmag = _sqrt({fsq})",
            f"dxmag = _sqrt({dsq})",
            "if fmag == 0.0 or dxmag == 0.0:",
            "    res = 0.0",
            "else:",
            "    res = abs(pairing) / (fmag * dxmag)",
        ])
    return [pad + line for line in lines]


def _term_lines(free, pad):
    """Source lines setting the step terms :func:`_step_lines` reads.

    They are ``h = 0.5 * dt``, ``q = dt / 6.0`` and, per free component,
    ``hv<i> = h * v<i>``, ``dv<i> = dt * v<i>`` and ``qv<i> = q * (v<i> +
    2.0 * v<i> + 2.0 * v<i> + v<i>)``: the float operations of the step
    written stage by stage that depend only on ``dt`` and ``v``, evaluated
    once per step size.  Each line is indented by ``pad``.
    """
    lines = ["h = 0.5 * dt", "q = dt / 6.0"]
    for i in free:
        lines.extend([
            f"hv{i} = h * v{i}",
            f"dv{i} = dt * v{i}",
            f"qv{i} = q * (v{i} + 2.0 * v{i} + 2.0 * v{i} + v{i})",
        ])
    return [pad + line for line in lines]


# statuses of the generated leg loop
DONE = "done"  # all m steps taken, every one inside
EXIT = "exit"  # the last step counted left the ball or the box
LOST = "lost"  # a step raised: pivot lost or a coefficient domain error
CUT = "cut"  # the last step counted left, and a bisection trial raised


def _compile_loop(form: PfaffianForm, k, center, epsilon, kind):
    """Generated loop of constrained RK4 steps with pivot ``k``.

    Each step is that of :func:`_step_lines`, followed by the containment
    test: the end point lies in ``form.domain`` and in the ball of radius
    ``epsilon`` about ``center``.  A rollout tests a squared distance ``<=
    epsilon * epsilon``, a leg a distance ``<= epsilon * (1 + 1e-12)``.  A
    step that raises an error of ``ex.UNDEFINED``, a lost pivot (see
    :func:`_step_lines`) or an undefined operation, is not counted and ends
    the loop.

    Where a counted step leaves, the same loop locates the crossing by
    bisection on the fraction of the step: each trial re-steps from the last
    state inside with ``dt = step * fraction``, the step terms of
    :func:`_term_lines` recomputed, through the function's one copy of the
    step body.  The halving stops when the bracket is narrower than 1e-12,
    after 40 trials, the fractions being exact.  The crossing is the state
    of the largest fraction that stayed inside, or the last state inside
    when no trial did; a trial that raises leaves no crossing.

    Each float operation is that of the RK4 step written stage by stage, in
    the same order: the solved velocity is ``-(0.0 + sum of F_i v_i) /
    F_k``, and the sums of the residual and of the containment test add
    their terms left to right from ``0.0`` (:func:`ex.python_sum`), as the
    builtin ``sum`` does up to Python 3.11.  ``tests/test_reach.py`` keeps
    that stage-by-stage form, and loops that take one step per iteration in
    Python, as the references the loop must match bit for bit.

    ``kind`` "rollout" gives ``rollout(x, fx, rows, r, steps, left, rmax,
    step, ends, counts)``, one rollout of :func:`explore` from ``(x, fx)``.
    It runs a segment of ``STEPS_PER_SEGMENT`` steps of size ``step`` per
    direction row of ``rows``, from row ``r`` on, while ``left`` steps of
    the budget remain.  At each segment start it picks the pivot as
    ``forms.pivot`` does; the rollout ends where there is none, and where
    it is not ``k`` the loop returns, for the other pivot's loop to go on
    from the same state.  A row is normalized by ``sqrt(row.dot(row))``, the
    norm ``np.linalg.norm`` computes for a 1-D row, and skipped when that is
    0.  A completed segment appends its end to ``ends`` and the rollout's
    step count ``steps`` to ``counts``.  A segment cut short by the budget,
    a lost step or an exit ends the rollout; an exit appends its crossing
    when the fraction is positive or the crossing lies in the box.  Returns
    ``(pivot, r, steps, left, rmax, x, fx)``: the new pivot, or None when
    the rollout ended; the next row; the rollout's steps; the steps left;
    the largest of ``rmax`` and the residuals of the counted steps; and, at
    a pivot change, the state to go on from.

    ``kind`` "leg" gives ``leg(x, fx, vfree, step, m, target, best)`` for the
    surrounding-line scan: up to ``m >= 1`` steps of size ``step`` with the
    free velocity ``vfree``.  Returns ``(status, steps, best, x, fx)``:
    ``status`` is DONE, LOST, EXIT, where ``x, fx`` is the crossing, or CUT,
    where it is the last state inside; ``steps`` counts the steps taken, the
    one that left included; ``best`` is the smallest of ``best`` and the
    distances (``forms.distance``) to ``target`` of the states inside.  The
    crossing's distance is not in it: the caller notes that after an EXIT
    (``_Seeker._note``).
    """
    n = form.n
    free = [i for i in range(n) if i != k]
    rollout = kind == "rollout"
    lit = ex.python_literal

    def point(name):
        return ex.python_tuple(f"{name}{i}" for i in range(n))

    def in_box(name):
        return " and ".join(
            f"{lit(lo)} <= {name}{i} <= {lit(hi)}"
            for i, (lo, hi) in enumerate(zip(form.domain.lows, form.domain.highs)))

    # The squares stay powers, as forms.distance writes them: on glibc 2.36
    # ``d ** 2 != d * d`` for 2,676 of 3,000,000 uniform draws of d in
    # [-1, 1], and a square one ulp off can move a step across the sphere.
    dist2 = ex.python_sum(f"(X{i} - {lit(c)}) ** 2" for i, c in enumerate(center))
    state = f"({point('x')}), ({point('a')})"
    if rollout:
        near = f"{dist2} <= {lit(epsilon * epsilon)}"
        ended = "return None, r, steps + s, left - s, rmax, x, fx"
        lost = [ended]
        done = [
            "steps += s",
            "left -= s",
            f"if s == {STEPS_PER_SEGMENT}:",
            f"    ends.append(({point('x')}))",
            "    counts.append(steps)",
            "break",
        ]
        crossing = [
            f"if lo > 0.0 or {in_box('w')}:",
            f"    ends.append(({point('w')}))",
            "    counts.append(steps + s)",
            ended,
        ]
        gap = []
    else:
        near = f"_sqrt({dist2}) <= {lit(epsilon * (1 + 1e-12))}"
        lost = [f"return {CUT!r} if bis else {LOST!r}, s, best, {state}"]
        done = [f"return {DONE!r}, s, best, {state}"]
        crossing = [f"return {EXIT!r}, s, best, ({point('w')}), ({point('g')})"]
        # forms.distance of the new state to the target
        gap = [
            f"dist = _sqrt({ex.python_sum(f'(x{i} - t{i}) ** 2' for i in range(n))})",
            "if dist < best:",
            "    best = dist",
        ]
    # One pass of the outer loop per step size: the step terms, then steps
    # while the size holds.  s counts the steps taken; once one leaves, bis
    # is set and each step is a bisection trial of the fraction mid of the
    # step, in (lo, hi), with w, g the state at the fraction lo.
    loop = [
        *_term_lines(free, ""),
        "while True:",
        "    try:",
        *_step_lines(form, k, "        ", residual=rollout),
        "    except _UNDEFINED:",
        *("        " + line for line in lost),
        f"    inside = {in_box('X')} and {near}",
        "    if bis:",
        "        if inside:",
        "            lo = mid",
        f"            {point('w')}, {point('g')} = {point('X')}, {point('e')}",
        "        else:",
        "            hi = mid",
        "    else:",
        "        s += 1",
        *(["        if res > rmax:", "            rmax = res"] if rollout else []),
        "        if inside:",
        f"            {point('x')}, {point('a')} = {point('X')}, {point('e')}",
        *("            " + line for line in gap),
        "            if s < m:",
        "                continue",
        *("            " + line for line in done),
        "        bis = True",
        "        lo, hi = 0.0, 1.0",
        f"        {point('w')}, {point('g')} = {point('x')}, {point('a')}",
        "    if hi - lo < 1e-12:",
        *("        " + line for line in crossing),
        "    mid = 0.5 * (lo + hi)",
        "    dt = step * mid",
        "    break",
    ]
    vfree = ex.python_tuple(f"v{i}" for i in free)
    if rollout:
        # The row norm stays numpy's ``row.dot(row)``, the norm explore has
        # always drawn its directions with: with numpy 2.4.6 it differs from
        # a left-to-right sum of the squares on 16-27% of the rows of 2 to 6
        # components.
        lines = [
            "def rollout(x, fx, rows, r, steps, left, rmax, step, ends, counts):",
            f"    {point('x')} = x",
            f"    {point('a')} = fx",
            "    bis = False",
            "    while True:",
            "        if not bis:",
            "            s = 0",
            "            big = abs(a0)",
            "            j = 0",
        ]
        for i in range(1, n):
            lines.extend([f"            if abs(a{i}) > big:",
                          f"                big, j = abs(a{i}), {i}"])
        lines.extend([
            "            if r == len(rows) or left <= 0 or "
            f"{singular_source('big')}:",
            f"                {ended}",
            f"            if j != {k}:",
            f"                return j, r, steps, left, rmax, {state}",
            "            row = rows[r]",
            "            r += 1",
            "            norm = _sqrt(row.dot(row))",
            "            if norm == 0.0:",
            "                continue",
            f"            {vfree} = row.tolist()",
            *(f"            v{i} = v{i} / norm" for i in free),
            f"            m = min({STEPS_PER_SEGMENT}, left)",
            "            dt = step",
            *("        " + line for line in loop),
        ])
    else:
        lines = [
            "def leg(x, fx, vfree, step, m, target, best):",
            f"    {point('t')} = target",
            f"    {point('x')} = x",
            f"    {point('a')} = fx",
            *([f"    {vfree} = vfree"] if free else []),
            "    dt = step",
            "    s = 0",
            "    bis = False",
            "    while True:",
            *("        " + line for line in loop),
        ]
    return ex.exec_source("\n".join(lines) + "\n", kind)[kind]


# ---------------------------------------------------------------------------
# random exploration
# ---------------------------------------------------------------------------


@dataclass
class ReachSample:
    """The endpoint cloud of :func:`explore`: ``endpoints[i]`` was reached
    after ``step_counts[i]`` steps of its rollout, and ``max_residual`` is the
    largest step residual of all rollouts."""

    base: tuple
    epsilon: float
    endpoints: list
    step_counts: list
    seed: int
    budget: int
    budget_used: int
    max_residual: float = 0.0

    def as_report(self):
        """The head of the ``reach`` report; the endpoints and their step
        counts go to its ``--csv`` file instead."""
        return {
            "base": list(self.base),
            "epsilon": self.epsilon,
            "budget": self.budget,
            "budget_used": self.budget_used,
            "seed": self.seed,
            "endpoint_count": len(self.endpoints),
            "max_step_residual": self.max_residual,
        }


def _probe_start(form: PfaffianForm, p, epsilon):
    """The start ``(p, F(p), k)`` of both probes, ``p`` as floats, ``k`` the pivot.

    Checks, in order: the form has at least 2 variables (else ArityError);
    ``epsilon`` is at least ``MIN_RADIUS`` and at most ``MAX_COORDINATE``,
    the radii the CLI accepts; ``p`` lies in the box within 1e-12; a step of
    :func:`explore` moves every coordinate of ``p`` (``p_i + dt != p_i``);
    F is defined at ``p`` (:func:`coefficient_vector` raises EvalDomainError
    otherwise); and F is not singular at ``p``, so it has a pivot.  The
    other failures are AnalysisErrors.
    """
    if form.n < 2:
        raise ArityError("exploration requires at least 2 variables")
    if not MIN_RADIUS <= epsilon <= MAX_COORDINATE:  # false for NaN too
        raise AnalysisError(f"epsilon must be at least {MIN_RADIUS:g} and at most "
                            f"{MAX_COORDINATE:g}, got {epsilon!r}")
    p = tuple(float(v) for v in p)
    if not form.domain.contains(p, tol=1e-12):
        raise AnalysisError("base point outside domain")
    dt = (epsilon * SEGMENT_FRACTION) / STEPS_PER_SEGMENT  # explore's step
    if any(v + dt == v for v in p):
        raise AnalysisError(f"epsilon {epsilon!r} is too small for the base point: "
                            f"a step of {dt!r} leaves a coordinate unchanged")
    f_p = coefficient_vector(form, p)
    k = pivot(f_p)
    if k is None:
        raise AnalysisError("base point is singular for the form")
    return p, f_p, k


def explore(form: PfaffianForm, p, epsilon, budget, seed) -> ReachSample:
    """Grow piecewise null curves from p with random free-velocity segments.

    Deterministic for a given seed: each rollout draws from its own
    spawn-keyed stream, so results do not depend on scheduling.  A rollout
    has up to ``MAX_SEGMENTS`` segments of ``STEPS_PER_SEGMENT`` steps,
    each ``SEGMENT_FRACTION`` of epsilon long.  Endpoints are recorded at
    every segment end inside the closed epsilon-ball; curves that exit the
    ball or the box are truncated at the crossing (located by re-stepping
    bisection) and the rollout restarts from p.  Exploration
    ends when the step budget is used up, or after ``MAX_SEGMENTS``
    rollouts in a row that took no step (every first step from p failed),
    which would otherwise repeat without end.  Only the endpoints are kept,
    not the curves between them.  :func:`_probe_start` checks the start.
    """
    import numpy as np

    p, f_p, k_p = _probe_start(form, p, epsilon)
    n = form.n
    rollouts = functools.cache(lambda k: _compile_loop(form, k, p, epsilon, "rollout"))
    dt = (epsilon * SEGMENT_FRACTION) / STEPS_PER_SEGMENT
    endpoints = [p]
    step_counts = [0]
    left = budget
    max_resid = 0.0
    rollout = 0
    idle = 0  # rollouts in a row that took no step

    while left > 0 and idle < MAX_SEGMENTS:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rollout,)))
        rollout += 1
        # one draw fills the rows in the order of one draw per segment
        directions = rng.standard_normal((MAX_SEGMENTS, n - 1))
        k, r, steps, x, f_x = k_p, 0, 0, p, f_p
        while k is not None:  # a pivot change: the other pivot's loop goes on
            k, r, steps, left, max_resid, x, f_x = rollouts(k)(
                x, f_x, directions, r, steps, left, max_resid, dt, endpoints,
                step_counts)
        idle = 0 if steps else idle + 1
    return ReachSample(p, float(epsilon), endpoints, step_counts, int(seed),
                       int(budget), budget - left, max_resid)


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
        """Report dict; a ratio or thickness that is not finite is ``None``."""
        return {
            "kind": self.kind,
            "spectrum": list(self.spectrum),
            "transverse_ratio": _finite_or_none(self.transverse_ratio),
            "thickness": _finite_or_none(self.thickness),
            "endpoint_count": self.endpoint_count,
            "threshold": self.threshold,
        }


def _finite_or_none(value):
    return value if math.isfinite(value) else None


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
    import numpy as np

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


def surrounding_line_scan(form: PfaffianForm, p, free_index, epsilon,
                          budget) -> ScanReport:
    """Probe reachability of targets on the line freeing one coordinate.

    Places 32 evenly spaced targets with |offset| <= epsilon along the free
    coordinate through p, each with ``budget // 32`` steps, and steers
    toward each deterministically: straight legs match the non-pivot
    coordinates, and where the geometry permits (n >= 3) closed loops in two
    free directions move the pivot coordinate by their enclosed area.  A
    target with no steps keeps its starting gap.  On integrable forms such
    loops return to the starting level, so blocked targets keep honest gaps;
    budget-halving checkpoints record whether gaps persist as effort grows.
    A target counts as reached when its gap is at most 0.01 epsilon.  The
    start is checked as :func:`explore` checks it (:func:`_probe_start`).
    """
    if not 0 <= free_index < form.n:
        raise ArityError("free variable index out of range")
    p = _probe_start(form, p, epsilon)[0]
    offsets = linspace(-epsilon, epsilon, 32)
    per_budget = budget // 32
    legs = functools.cache(lambda k: _compile_loop(form, k, p, epsilon, "leg"))
    gaps = []
    halves = []
    used_total = 0
    for off in offsets:
        q = list(p)
        q[free_index] += off
        gap, gap_half, used = _Seeker(form, legs, p, tuple(q), epsilon,
                                      per_budget).run()
        gaps.append(gap)
        halves.append(gap_half)
        used_total += used
    gap_tol = epsilon * 0.01
    fraction = sum(1 for g in gaps if g <= gap_tol) / len(gaps)
    return ScanReport(free_index, float(epsilon), int(budget), used_total,
                      tuple(offsets), tuple(gaps),
                      tuple(halves), gap_tol, fraction)


class _Seeker:
    """Deterministic steering toward one target inside the epsilon-ball, by the
    leg loops ``legs(k)`` of pivot k (``forms.pivot``).  Nothing here raises:
    a leg loop ends at a lost step or an undefined value itself, and every
    square taken is of a difference of points in the box or the ball."""

    def __init__(self, form, legs, base, target, epsilon, budget):
        self.legs = legs
        self.n = form.n
        self.base = base
        self.target = target
        self.eps = epsilon
        self.budget = budget
        self.half = budget // 2
        # seekers report gaps, not curves: coarser steps than explore are fine
        self.dt = (epsilon * SEGMENT_FRACTION) / 3.0
        self.used = 0
        self.x = base
        self.f = form.coefficient_tuple_fn(*base)
        self.best = distance(base, target)
        self.best_at_half = None

    def _note(self, q):
        d = distance(q, self.target)
        if d < self.best:
            self.best = d
        if self.best_at_half is None and self.used >= self.half:
            self.best_at_half = self.best

    def _leg(self, vfree, k, length):
        """Steer along a fixed free velocity; False when blocked/truncated.

        The leg runs in chunks of the generated loop.  While the half-budget
        gap is unset, a chunk ends where ``used`` reaches half the budget, or
        after one step when ``used`` is already there, so the gap is read
        after the same step as when every step was noted.  A chunk that
        leaves ends at the crossing, which is noted; where a bisection trial
        raised, nothing more is.
        """
        leg = self.legs(k)
        left = max(1, int(math.ceil(length / (self.dt))))
        dt = length / left
        while left:
            m = min(left, self.budget - self.used)
            if m <= 0:
                return False
            if self.best_at_half is None:
                m = min(m, max(1, self.half - self.used))
            status, taken, self.best, self.x, self.f = leg(
                self.x, self.f, vfree, dt, m, self.target, self.best)
            self.used += taken
            left -= taken
            if status == EXIT:
                self._note(self.x)
                return False
            if status == CUT:
                return False
            if taken and self.best_at_half is None and self.used >= self.half:
                self.best_at_half = self.best
            if status == LOST:
                return False
        return True

    def _free_axes(self, k):
        return [i for i in range(self.n) if i != k]

    def _align_free(self, k):
        """Straight legs driving the non-pivot coordinates onto the target."""
        free = self._free_axes(k)
        for _ in range(8):
            delta = [self.target[i] - self.x[i] for i in free]
            norm2 = 0.0  # left to right, as forms.distance adds
            for d in delta:
                norm2 += d * d
            norm = math.sqrt(norm2)
            if norm <= 1e-11 * max(1.0, self.eps):
                return True
            vfree = tuple(d / norm for d in delta)
            if not self._leg(vfree, k, norm):
                return False
            if self.used >= self.budget:
                return False
        return True

    def _square_loop(self, k, a, orient):
        """Closed loop of side a on the first two free axes; returns completion."""
        free = self._free_axes(k)
        start_free = [self.x[idx] for idx in free]
        legs = [(0, a), (1, a * orient), (0, -a), (1, -a * orient)]
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
        slack2 = self.eps * self.eps - distance(self.x, self.base) ** 2
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
            k = pivot(self.f)
            if k is None:
                break
            if not self._align_free(k):
                break
            r = self.target[k] - self.x[k]
            if abs(r) <= gap_tol:
                break
            if self.n < 3:
                break  # no loop plane: the level constraint cannot be beaten
            room = self._loop_room()
            if room <= 1e-6 * self.eps:
                break
            # a loop measures kappa while it is unknown, else kappa sizes it
            if kappa is None:
                a, orient, stall_limit = min(room, self.eps / 4.0), 1.0, 2
            else:
                area_needed = r / kappa
                a, stall_limit = min(room, math.sqrt(abs(area_needed))), 3
                orient = 1.0 if area_needed > 0 else -1.0
            before = self.x[k]
            if not self._square_loop(k, a, orient):
                kappa = None
                continue
            delta = self.x[k] - before
            if abs(delta) < max(1e-12, 1e-7 * a * a):
                stalls += 1
                kappa = None
                if stalls >= stall_limit:
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
            k = pivot(self.f)
            if k is None:
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

