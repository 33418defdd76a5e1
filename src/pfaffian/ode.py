"""Adaptive explicit ODE integration (Dormand-Prince 5(4) embedded pair).

The right-hand side of an ODE is not a Python callable but generated source:
:func:`compile_kernel` takes a function that writes the right-hand side as
statements and emits one straight-line Python function, the Dormand-Prince
step loop, with that body inlined at the start and at each of the six
stages of an attempt.  That loop is the kernel: callers call it and read
the status it returns.  It holds the step-size control of Hairer, Norsett
& Wanner, *Solving ODEs I*, section II.4 (the error norm, the step growth
and shrink factors, the step-size floor and the step budget) and counts
the accepted and rejected attempts.  A call runs one step, or a whole
solve (surface paths, and the probes that locate a characteristic's
crossing inside an accepted step); a kernel compiled with a stop test also
returns after any accepted step where that test holds, so a characteristic
runs each segment in one call and returns only at the steps where one of
its events could fire.

A call without a start slope evaluates it first and raises an error of
``expressions.UNDEFINED`` where the ODE is undefined there; an attempt
that raises such an error is refused and the step halved.  A step size
collapsing below its floor ends the solve with the status
``"step_rejection"``, which doubles as singularity detection.  A kernel
compiled with ``bounds`` ends a solve with ``"box_exit"`` where state
component 0 is leaving a widened box (see :func:`compile_kernel`), and an
exhausted step budget ends it with ``"max_steps"``.

Each float operation is the one of the step loop and attempt written stage by
stage with the tableau below: the tableau enters as ``repr`` literals with
its zero entries kept (``0.0 * inf`` is NaN), and each stage combination
adds its products left to right from ``0.0``, as ``(0.0 + (c0 * k0) +
(c1 * k1) + ...)``.  Up to Python 3.11 that is what the builtin ``sum``
does; Python 3.12 compensates the rounding inside ``sum``, so spelling the
additions out keeps the results independent of the Python version and
saves a call per combination.  ``min``, ``max`` and ``abs`` of floats in
the attempt and in the step-size control that runs at every step are
written as the conditional expressions they evaluate, comparison for
comparison.
``tests/test_ode.py`` keeps the stage-by-stage attempt and the Python step
loop as the reference the generated loop must match bit for bit.
"""

from __future__ import annotations

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


class _LeftBounds(Exception):
    """Raised inside the step loop when a stage leaves the widened bounds."""


def _combination(coeffs, ks):
    """``(0.0 + (c0 * k0) + (c1 * k1) + ...)`` over every coefficient, zeros too.

    The products are added left to right from 0.0 (:func:`ex.python_sum`).
    """
    return ex.python_sum(f"{ex.python_literal(c)} * {k}" for c, k in zip(coeffs, ks))


def compile_kernel(dim, body, params=(), bounds=None, stop=None):
    """Generate the Dormand-Prince step loop of an ODE ``y' = f(t, y, *params)``
    with ``dim`` state components,

        kernel(t, y, f0, h, t_end, direction, rtol, atol, max_steps,
               accepted, rejected, limit, *stop_args, *params)
            -> (status, t, y, f0, h, accepted, rejected)

    from ``(t, y)`` with the slope ``f0 = f(t, y)``, or None for the loop
    to evaluate it first (raising where ``f`` is undefined there), and next
    step size ``h`` (0.0 to let the loop choose the first step) towards
    ``t_end``.  It takes accepted steps until ``t_end`` or until the
    accepted count reaches ``limit`` (status "ok"), so ``accepted + 1`` runs
    one step and ``math.inf`` a whole solve.  It stops early when the
    attempt count ``accepted + rejected`` reaches ``max_steps``
    ("max_steps"), when the step size collapses ("step_rejection") or on a
    box exit ("box_exit").  It returns the last accepted state, its slope,
    the next step size and the counts.  States and slopes are tuples of
    floats.

    ``body(t, ys, ks)`` returns the right-hand side as unindented statement
    lines that assign the names ``ks[i]`` from the names ``t`` and ``ys[i]``,
    and raise an error of ``expressions.UNDEFINED`` where the ODE is
    undefined.  The generated code uses the names ``t``, ``dt``, ``y``,
    ``f0``, those of one of the letters t, y, k, Y, E followed by digits
    and underscores, and those that start with ``dp_``; the body's
    temporaries must be other names.  ``params`` names the last arguments
    of the kernel, which the body may read.  Stage combinations add their
    products left to right from ``0.0`` (:func:`_combination`), never
    through the builtin ``sum``, whose rounding depends on the Python
    version.

    ``bounds = ((lo, hi), (wide_lo, wide_hi))`` confines state component 0
    to the box ``[lo, hi]`` widened to ``[wide_lo, wide_hi]``: every
    evaluation of the right-hand side first raises outside the widened box.
    An attempt refused that way ends the solve as a box exit when the last
    accepted state lies past ``[lo, hi]`` and its slope, signed by the
    direction of integration, points further out.  When that state lies
    inside ``[lo, hi]`` and its slope is not zero, the next step is the
    Euler step onto the middle of the band between the face it moves
    towards and the widened bound, but at most half the refused step and at
    least the step-size floor: the path lands in the band, where the next
    refusal ends it, instead of halving its step towards the band tens of
    times (Shampine & Thompson, "Event location for ordinary differential
    equations", 2000).  Every other refused attempt halves the step.

    ``stop = (names, test)`` gives the kernel the stop arguments ``names``,
    after ``limit`` and before ``params``, and a stop test: ``test(t0, ys0,
    t1, ys1, ks1, t_end)`` returns a Python expression in the names of the
    step's start time and state, end time and state, the slope at the end
    and the end of the solve, and the stop arguments.  After each accepted
    step where it is true, the kernel returns "ok".  A kernel with a stop
    test returns three more values, ``t, y, f0`` at the start of the last
    accepted step (those of the call when it accepted none).
    """
    lit = ex.python_literal
    extra = "".join(f", {p}" for p in params)
    ys = [f"y0_{i}" for i in range(dim)]
    unpack = f"    {ex.python_tuple(ys)} = y"

    def stage(lines, t, ys_, ks_, indent, raise_):
        if bounds is not None:
            wide_lo, wide_hi = (lit(v) for v in bounds[1])
            lines += [f"{indent}if not {wide_lo} <= {ys_[0]} <= {wide_hi}:",
                      f"{indent}    {raise_}"]
        lines.extend(f"{indent}{line}" for line in body(t, ys_, ks_))

    # Dormand-Prince step loop: the slope at the start where the call gives
    # none, then the outer loop runs one accepted step per pass, the inner
    # loop one attempt, stage s at t{s} = t + c_s * dt
    k = [[f"k{s}_{i}" for i in range(dim)] for s in range(7)]
    first = ["    if f0 is None:"]
    stage(first, "t", ys, k[0], " " * 8, "raise ValueError('state left its bounds')")
    first += ["    else:", f"        {ex.python_tuple(k[0])} = f0"]
    state = (f"t, ({ex.python_tuple(ys)}), ({ex.python_tuple(k[0])}), dp_h, "
             "dp_accepted, dp_rejected")
    stop_args = "".join(f", {name}" for name in stop[0]) if stop else ""
    # with a stop test, the start of the last accepted step: dp_t0, dp_y0_i, dp_k0_i
    start = [f"dp_y0_{i}" for i in range(dim)]
    start_f = [f"dp_k0_{i}" for i in range(dim)]
    keep_start = (f"dp_t0, {', '.join(start)}, {', '.join(start_f)} = "
                  f"t, {', '.join(ys)}, {', '.join(k[0])}")
    if stop:
        state += (f", dp_t0, ({ex.python_tuple(start)}), "
                  f"({ex.python_tuple(start_f)})")
    advance = [
        "def advance(t, y, f0, dp_h, dp_end, dp_dir, dp_rtol, dp_atol, "
        f"dp_budget, dp_accepted, dp_rejected, dp_limit{stop_args}{extra}):",
        unpack, *first,
        *([f"    {keep_start}"] if stop else []),
        "    while True:",
        "        dp_span = dp_end - t",
        "        if dp_span == 0.0:",
        "            break",
        "        if dp_span < 0.0:",
        "            dp_span = -dp_span",
        "        if dp_h == 0.0:",
        "            dp_h = min(dp_span, max(1e-6, 0.01 * dp_span))",
        # max(1e-14, 1e-14 * abs(t), 1e-12 * dp_span if dp_span < 1 else 1e-14)
        "        dp_floor = 1e-14 * (t if t >= 0.0 else -t)",
        "        if not dp_floor > 1e-14:",
        "            dp_floor = 1e-14",
        "        if dp_span < 1.0 and 1e-12 * dp_span > dp_floor:",
        "            dp_floor = 1e-12 * dp_span",
        "        while True:",
        "            if dp_accepted + dp_rejected >= dp_budget:",
        f"                return 'max_steps', {state}",
        "            dp_step = dp_span if dp_span < dp_h else dp_h",
        "            dt = dp_dir * dp_step",
        "            try:",
    ]
    inner = " " * 16
    for s in range(1, 7):
        y_s = [f"y{s}_{i}" for i in range(dim)]
        advance.append(f"{inner}t{s} = t + {lit(_C[s])} * dt")
        advance.extend(
            f"{inner}{y_s[i]} = {ys[i]} + dt * "
            + _combination(_A[s], [k[j][i] for j in range(s)])
            for i in range(dim)
        )
        stage(advance, f"t{s}", y_s, k[s], inner, "raise _LeftBounds")
    for i in range(dim):
        column = [k[j][i] for j in range(7)]
        advance.append(f"{inner}Y{i} = {ys[i]} + dt * {_combination(_B5, column)}")
        advance.append(f"{inner}E{i} = dt * {_combination(_E, column)}")
    for i in range(dim):
        advance.extend([f"{inner}if not _isfinite(Y{i}):",
                        f"{inner}    raise ArithmeticError('non-finite state')"])
    refused = [
        "                dp_rejected += 1",
        "                dp_h = dp_step / 2.0",
    ]
    collapse = [
        "                if dp_h < dp_floor:",
        f"                    return 'step_rejection', {state}",
        "                continue",
    ]
    # error norm; ``b if b > a else a`` is ``max(a, b)``, comparison for comparison
    norm = []
    for i in range(dim):
        norm += [f"            dp_a = {ys[i]} if {ys[i]} >= 0.0 else -{ys[i]}",
                 f"            dp_b = Y{i} if Y{i} >= 0.0 else -Y{i}",
                 f"            dp_sq += (E{i} / (dp_atol + dp_rtol"
                 " * (dp_b if dp_b > dp_a else dp_a))) ** 2"]
    if bounds is not None:
        (lo_v, hi_v), (wide_lo_v, wide_hi_v) = bounds
        lo, hi = lit(lo_v), lit(hi_v)
        # the middles of the bands past the box
        mid_lo, mid_hi = lit(0.5 * (lo_v + wide_lo_v)), lit(0.5 * (hi_v + wide_hi_v))
        advance += [
            "            except _LeftBounds:",
            *refused,
            f"                if ({ys[0]} > {hi} and {k[0][0]} * dp_dir > 0.0"
            f" or {ys[0]} < {lo} and {k[0][0]} * dp_dir < 0.0):",
            f"                    return 'box_exit', {state}",
            f"                dp_v = {k[0][0]} * dp_dir",
            f"                if {lo} <= {ys[0]} <= {hi} and dp_v != 0.0:",
            f"                    dp_land = (({mid_hi} if dp_v > 0.0 else {mid_lo})"
            f" - {ys[0]}) / dp_v",
            "                    if dp_land < dp_floor:",
            "                        dp_land = dp_floor",
            "                    if dp_land < dp_h:",
            "                        dp_h = dp_land",
            *collapse,
        ]
    done = "dp_accepted >= dp_limit or (t - dp_end) * dp_dir >= 0.0"
    if stop:
        test = stop[1]("dp_t0", start, "t", ys, k[0], "dp_end")
        done += f" or ({test})"
    advance += [
        "            except _UNDEFINED:",
        *refused,
        *collapse,
        "            dp_sq = 0.0",
        *norm,
        f"            dp_norm = _sqrt(dp_sq / {dim})",
        "            if dp_norm <= 1.0 or dp_step <= dp_floor:",
        "                break",
        "            dp_rejected += 1",
        "            dp_h = max(dp_step * max(0.2, 0.9 * dp_norm ** -0.2),"
        " dp_floor / 2)",
        "            if dp_h < dp_floor:",
        f"                return 'step_rejection', {state}",
        "        dp_accepted += 1",
        *([f"        {keep_start}"] if stop else []),
        "        t = t + dt",
        f"        {ex.python_tuple(ys)} = {ex.python_tuple(f'Y{i}' for i in range(dim))}",
        f"        {ex.python_tuple(k[0])} = {ex.python_tuple(k[6])}",
        # dp_step * (5.0 if dp_norm == 0.0
        #            else min(5.0, max(0.2, 0.9 * dp_norm ** -0.2)))
        "        if dp_norm == 0.0:",
        "            dp_h = dp_step * 5.0",
        "        else:",
        "            dp_g = 0.9 * dp_norm ** -0.2",
        "            if not dp_g > 0.2:",
        "                dp_g = 0.2",
        "            dp_h = dp_step * (dp_g if dp_g < 5.0 else 5.0)",
        f"        if {done}:",
        "            break",
        f"    return 'ok', {state}",
    ]

    source = "\n".join(advance) + "\n"
    return ex.exec_source(source, "ode", _LeftBounds=_LeftBounds)["advance"]


def bisect_root(fn, lo, hi, xtol=1e-13):
    """Root of a scalar function on a bracketing interval ``[lo, hi]``.

    The Illinois variant of regula falsi (Dowell & Jarratt, *BIT* 11,
    1971).  Each probe is the regula-falsi point of the bracket, or its
    midpoint when that point is not strictly inside, and replaces the end
    whose value has its sign, so the bracket always holds a sign change.
    When the same end survives two probes in a row, the value stored there
    is halved, which pushes the next regula-falsi point past the root; a
    simple root then takes a few probes where plain regula falsi never
    moves its stale end.  After three survivals in a row the probes are
    midpoints until the surviving end moves, so a stale end costs at most
    three probes that do not halve the bracket; this is what converges at
    a triple root, where the halving alone cannot keep up.

    Returns a probe whose value is exactly zero, an end whose value is
    zero, or ``0.5 * (lo + hi)`` once ``hi - lo <= xtol`` or after
    200 probes.  Raises AnalysisError when ``fn(lo)`` and
    ``fn(hi)`` have the same sign.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise AnalysisError(f"root not bracketed on [{lo}, {hi}]")
    lo_negative = flo < 0.0
    kept = 0  # probes in a row that hi (> 0) or lo (< 0) survived
    for _ in range(200):
        if hi - lo <= xtol:
            break
        cand = lo - flo * (hi - lo) / (fhi - flo)
        if not (-3 < kept < 3 and lo < cand < hi):
            cand = 0.5 * (lo + hi)
        fc = fn(cand)
        if fc == 0.0:
            return cand
        if (fc < 0.0) == lo_negative:
            lo, flo = cand, fc
            kept = max(kept, 0) + 1
            if kept > 1:
                fhi *= 0.5
        else:
            hi, fhi = cand, fc
            kept = min(kept, 0) - 1
            if kept < -1:
                flo *= 0.5
    return 0.5 * (lo + hi)
