"""Per-layer spans and counts, recorded from outside the package.

A :class:`Tracer` rebinds the layer entry points of ``pfaffian`` at every
import site (each ``pfaffian.*`` module attribute bound to the original
function, including the names ``cli`` imports directly), wraps the
``PfaffianForm`` cached evaluator properties and ``Dopri5.step``, and
restores everything on :meth:`Tracer.uninstall`.

Coarse layer calls become stored spans (name, start, end, parent, job).
Hot calls -- compiled coefficient evaluations, ODE steps, surface solves --
are timed or counted in aggregate only, so the trace stays small.  Every
frame accumulates the time of its children, so each layer's self time is
its span time minus its child spans, and the self times of one job sum to
the job's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, keep individual spans, collapse recursion)
_SPANS = (
    ("expressions", "parse_expression", "expressions.parse", True, False),
    ("expressions", "simplify", "expressions.simplify", True, True),
    ("expressions", "differentiate", "expressions.differentiate", True, True),
    ("expressions", "compile_scalar", "expressions.compile", True, False),
    ("expressions", "compile_tuple", "expressions.compile", True, False),
    ("forms", "load_form", "forms.load", True, False),
    ("integrability", "classify", "integrability.classify", True, False),
    ("integrability", "invariance_check", "integrability.invariance", True, False),
    ("factor", "build_potential_2var", "factor.build2", True, False),
    ("factor", "global_factorization", "factor.global", True, False),
    ("factor", "verify_factorization", "factor.verify", True, False),
    ("factor", "staircase_defect", "factor.staircase", True, False),
    ("reach", "explore", "reach.explore", True, False),
    ("reach", "estimate_dimension", "reach.estimate_dimension", True, False),
    ("reach", "surrounding_line_scan", "reach.scan", True, False),
    ("reports", "json_text", "reports.serialize", True, False),
    ("reports", "csv_text", "reports.serialize", True, False),
    ("reports", "write_text", "reports.serialize", True, False),
)

# (module, attribute, count name): calls counted, time left to the caller
_COUNTS = (
    ("expressions", "evaluate", "expressions.evaluate_calls"),
    ("expressions", "compile_scalar", "expressions.compile_calls"),
    ("expressions", "compile_tuple", "expressions.compile_calls"),
    ("ode", "rk4_step", "ode.rk4_calls"),
    ("ode", "bisect_root", "ode.bisect_calls"),
    ("factor", "solve_characteristic", "factor.characteristics"),
)

# PfaffianForm cached properties holding compiled evaluators
_EVALUATORS = (
    ("coefficient_fns", "forms.coeff", 1),
    ("coefficient_tuple_fn", "forms.coeff", 0),
    ("derivative_fns", "forms.deriv", 2),
)

ROOT = "cli"


class Tracer:
    """In-memory spans, self times and counts for one benchmark process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[ROOT, 0.0, 0.0, None, None]]  # name, start, child, id, parent
        self.spans = []  # (job, name, start, end, parent span id)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self.job = None
        self._undo = []
        self._bisect_depth = 0

    # -- recording ---------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self.spans.append(None)
        self.stack[:] = [[ROOT, self.clock(), 0.0, len(self.spans) - 1, None]]

    def end_job(self):
        root = self.stack[0]
        end = self.clock()
        self.self_s[ROOT] += end - root[1] - root[2]
        self.spans[root[3]] = (self.job, ROOT, root[1], end, None)

    def span(self, name, fn, keep=True, flat=False, after=None):
        """Wrap ``fn`` so each call is a frame named ``name``."""
        stack, clock, self_s, spans = self.stack, self.clock, self.self_s, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if flat and top[0] == name:  # recursion within one layer call
                return fn(*args, **kwargs)
            sid = None
            if keep:
                spans.append(None)
                sid = len(spans) - 1
            frame = [name, clock(), 0.0, sid, top[3] if top[3] is not None else top[4]]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[name] += dur - frame[2]
                stack[-1][2] += dur
                if keep:
                    spans[sid] = (tracer.job, name, frame[1], end, frame[4])
            if after is not None:
                after(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        """Time and count a hot call without storing a span."""
        stack, clock, self_s, counts = self.stack, self.clock, self.self_s, self.counts
        calls = name + "_calls"

        def call(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stack[-1][2] += dt
                self_s[name] += dt
                counts[calls] += 1

        return call

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def in_span(self, name):
        return any(frame[0] == name for frame in self.stack)

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch the loaded ``pfaffian`` modules; undone by :meth:`uninstall`."""
        mods = {name: sys.modules.get(f"pfaffian.{name}")
                for name in ("expressions", "forms", "integrability", "ode",
                             "factor", "reach", "reports", "cli")}
        for mod_name, attr, name in _COUNTS:
            self._wrap(mods, mod_name, attr, lambda fn, n=name: self.counter(n, fn))
        after = self._after_hooks()
        for mod_name, attr, name, keep, flat in _SPANS:
            self._wrap(mods, mod_name, attr,
                       lambda fn, n=name, k=keep, f=flat: self.span(
                           n, fn, keep=k, flat=f, after=after.get(n)))
        self._wrap(mods, "reach", "_rk4_constrained", self._rk4_counter)
        self._wrap(mods, "reach", "_bisect_step_fraction", self._bisect_marker)
        self._wrap(mods, "factor", "_integrate_unit", self._solve_counter)
        self._patch_dopri5(mods.get("ode"))
        self._patch_evaluators(mods.get("forms"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, mods, mod_name, attr, make):
        mod = mods.get(mod_name)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if name != "pfaffian" and not name.startswith("pfaffian."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def _after_hooks(self):
        """Counts read from the results of layer calls, by span name."""
        counts = self.counts

        def classified(verdict):
            counts["integrability.samples_used"] += verdict.samples_used

        def factored(result, global_=False):
            counts["factor.evaluated_points"] += result.evaluated_points
            counts["factor.grid_points"] += (result.evaluated_points
                                             + result.skipped_points)
            if global_:
                counts["factor.global_grid_points"] += (result.evaluated_points
                                                        + result.skipped_points)

        def explored(sample):
            counts["reach.explore_steps"] += sample.budget_used

        def scanned(scan):
            counts["reach.scan_steps"] += scan.budget_used

        def serialized(text):
            if isinstance(text, str):
                counts["reports.bytes"] += len(text.encode("utf-8"))

        return {
            "integrability.classify": classified,
            "integrability.invariance": classified,
            "factor.build2": factored,
            "factor.global": lambda r: factored(r, global_=True),
            "reach.explore": explored,
            "reach.scan": scanned,
            "reports.serialize": serialized,
        }

    def _rk4_counter(self, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args):
            if tracer._bisect_depth:
                counts["reach.bisect_rk4_steps"] += 1
            else:
                counts["reach.rk4_steps"] += 1
            return fn(*args)

        return wrapper

    def _bisect_marker(self, fn):
        tracer = self

        def wrapper(*args):
            tracer._bisect_depth += 1
            try:
                return fn(*args)
            finally:
                tracer._bisect_depth -= 1

        return wrapper

    def _solve_counter(self, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts["factor.surface_solves"] += 1
            if tracer.in_span("factor.global"):
                counts["factor.global_solves"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_dopri5(self, ode):
        cls = getattr(ode, "Dopri5", None)
        if cls is None or not hasattr(cls, "step"):
            self.missing.append("ode.Dopri5.step")
            return
        original = cls.__dict__["step"]
        timed = self.span("ode.dopri5", original, keep=False)
        counts = self.counts

        def step(stepper, *args, **kwargs):
            stats = stepper.stats
            accepted, rejected = stats.accepted, stats.rejected
            try:
                return timed(stepper, *args, **kwargs)
            finally:
                counts["ode.dopri5_accepted"] += stats.accepted - accepted
                counts["ode.dopri5_rejected"] += stats.rejected - rejected

        cls.step = step
        self._undo.append((cls, "step", original))

    def _patch_evaluators(self, forms):
        cls = getattr(forms, "PfaffianForm", None)
        for attr, name, depth in _EVALUATORS:
            prop = vars(cls).get(attr) if cls is not None else None
            if not isinstance(prop, functools.cached_property):
                self.missing.append(f"forms.PfaffianForm.{attr}")
                continue
            wrapped = functools.cached_property(
                self._evaluator_getter(prop.func, name, depth))
            wrapped.__set_name__(cls, attr)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, prop))

    def _evaluator_getter(self, getter, name, depth):
        leaf = self.leaf

        def wrap(value, level):
            if level == 0:
                return leaf(name, value)
            return tuple(wrap(v, level - 1) for v in value)

        def get(form):
            return wrap(getter(form), depth)

        return get

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Copy of the cumulative self times and counts."""
        return dict(self.self_s), dict(self.counts)
