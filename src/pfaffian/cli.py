"""Command-line front end.

Subcommands: check, factor2, factor-global, reach, foliate, invariance,
catalog.  Machine output is JSON (17-significant-digit floats, byte-stable
across runs); point clouds and polylines are CSV.  Exit codes: 0 success,
1 analysis failure (e.g. an --expect mismatch), 2 input error.

At module level this imports only the standard library and the error
classes.  Each handler imports the analysis modules it uses when it runs, so
a run loads only what its subcommand needs (``python -X importtime -m
pfaffian.cli <subcommand> ...`` lists it).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .errors import AnalysisError, ExpressionError, FormError, PfaffianError


def _finite_float(text):
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text):
    """argparse type: a finite float greater than zero."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _radius(text):
    """argparse type: a ball radius, at least the reciprocal of the
    coordinate bound and at most the bound."""
    from .forms import MAX_COORDINATE
    from .reach import MIN_RADIUS

    value = _positive_float(text)
    if value < MIN_RADIUS:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_RADIUS:g}, got {text!r}")
    if value > MAX_COORDINATE:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_COORDINATE:g}, got {text!r}")
    return value


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _seed(text):
    """argparse type: an integer in [0, 2^64), as numpy seeds take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {text!r}")
    return value


def _emit(text, path):
    if path:
        from .reports import write_text

        write_text(path, text)
    else:
        sys.stdout.write(text)


def _parse_point(text, n, what="point"):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise FormError(f"{what} needs {n} comma-separated coordinates")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise FormError(f"bad {what}: {exc}") from exc


def _box_point(form, text, what):
    """The point ``text`` of ``form``'s box; FormError outside it."""
    point = _parse_point(text, form.n, what)
    if not form.domain.contains(point, tol=1e-12):
        raise FormError(f"{what} {text!r} outside the domain")
    return point


def _catalog_entry(name):
    """The catalog entry ``name``; FormError for an unknown name."""
    from .catalog import entry

    try:
        return entry(name)
    except KeyError as exc:
        raise FormError(exc.args[0]) from None


def _var_index(form, name):
    if name not in form.var_names:
        raise FormError(
            f"unknown variable {name!r}; form variables: {', '.join(form.var_names)}"
        )
    return form.var_names.index(name)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check(args):
    from .forms import load_form
    from .integrability import CLASS_INCONCLUSIVE, classify
    from .reports import json_text

    form = load_form(args.form_file, needs_jet=True)
    verdict = classify(form, args.samples, tol=args.tol)
    _emit(json_text(verdict.as_report()), args.out)
    if args.expect:
        if verdict.classification != args.expect:
            print(
                f"analysis error: expected class {args.expect!r}, "
                f"got {verdict.classification!r}",
                file=sys.stderr,
            )
            return 1
    elif verdict.classification == CLASS_INCONCLUSIVE and args.strict:
        print("analysis error: classification inconclusive", file=sys.stderr)
        return 1
    return 0


def _factor_report(result, extra=None):
    absent = result.evaluated_points == 0  # no residual without a point
    report = {
        "method": result.method,
        "residual_max": None if absent else result.residual_max,
        "residual_rms": None if absent else result.residual_rms,
        "evaluated_points": result.evaluated_points,
        "skipped_points": result.skipped_points,
        "flags": result.flags,
    }
    if extra:
        report.update(extra)
    return report


def _factor_csv(form, result):
    """The CSV of ``result`` over the grid its verification was given."""
    from .factor import grid_rows
    from .reports import csv_text

    header = [*("{}".format(v) for v in form.var_names), "psi", "mu"]
    return csv_text(header, grid_rows(result))


def _cmd_factor2(args):
    from .factor import TransversalSpec, auto_transversal, build_potential_2var
    from .forms import load_form
    from .reports import json_text, write_text

    form = load_form(args.form_file)
    if form.n != 2:
        raise AnalysisError("factor2 requires a two-variable form")
    if args.transversal_axis:
        axis = _var_index(form, args.transversal_axis)
        value = (
            args.transversal_value
            if args.transversal_value is not None
            else form.domain.center[axis]
        )
        if not form.domain.lows[axis] <= value <= form.domain.highs[axis]:
            raise FormError(f"transversal value {value!r} outside the domain")
        span = None
        if args.transversal_span:
            span = _parse_point(args.transversal_span, 2, "transversal span")
            if not (all(math.isfinite(v) for v in span) and span[0] <= span[1]):
                raise FormError("transversal span needs finite lo <= hi")
        tv = TransversalSpec(axis, value, span)
    elif args.transversal_value is not None or args.transversal_span:
        raise FormError(
            "--transversal-value and --transversal-span need --transversal-axis")
    else:
        tv = auto_transversal(form)
    result = build_potential_2var(form, transversal=tv, grid_per_axis=args.grid)
    _emit(json_text(_factor_report(result, {"grid_per_axis": args.grid})), args.out)
    if args.csv:
        write_text(args.csv, _factor_csv(form, result))
    return 0


def _cmd_factor_global(args):
    from .factor import global_factorization, staircase_defect
    from .forms import load_form
    from .reports import json_text, write_text

    form = load_form(args.form_file)
    free_index = _var_index(form, args.free_var)
    base = (
        _box_point(form, args.base, "base")
        if args.base
        else form.domain.center
    )
    result = global_factorization(
        form, free_index, base, grid_per_axis=args.grid,
        require_integrable=not args.force,
    )
    extra = {"grid_per_axis": args.grid}
    if args.staircase:
        worst, per_target = staircase_defect(form, free_index, base)
        extra["staircase"] = {"max_disagreement": worst, "targets": per_target}
    _emit(json_text(_factor_report(result, extra)), args.out)
    if args.csv:
        write_text(args.csv, _factor_csv(form, result))
    return 0


def _cmd_reach(args):
    from . import expressions as ex
    from .forms import load_form
    from .reach import estimate_dimension, explore, surrounding_line_scan
    from .reports import csv_text, json_text, write_text

    form = load_form(args.form_file)
    point = (
        _box_point(form, args.point, "point") if args.point else form.domain.center
    )
    free_index = _var_index(form, args.free_var) if args.free_var else None
    psi_fn = None
    if args.psi:
        # undefined or non-finite values are EvalDomainError: a form error
        raw = ex.compile_tuple(
            [ex.parse_expression(args.psi, form.var_names)], form.n)
        psi_fn = lambda p: ex.call_checked(raw, p, form.n)[0]  # noqa: E731
    sample = explore(form, point, args.epsilon, args.budget, args.seed)
    verdict = estimate_dimension(sample, args.threshold, psi_reference=psi_fn)
    report = sample.as_report()
    report["verdict"] = verdict.as_report()
    if free_index is not None:
        scan = surrounding_line_scan(form, point, free_index, args.epsilon,
                                     args.budget)
        report["surrounding_line_scan"] = scan.as_report()
    _emit(json_text(report), args.out)
    if args.csv:
        header = [*form.var_names, "steps"]
        rows = [
            [*e, c] for e, c in zip(sample.endpoints, sample.step_counts)
        ]
        write_text(args.csv, csv_text(header, rows))
    return 0


def _cmd_foliate(args):
    from .factor import auto_transversal, solve_characteristic
    from .forms import distance, load_form
    from .reports import csv_text
    from .sampling import linspace

    form = load_form(args.form_file)
    if form.n != 2:
        raise AnalysisError("foliate requires a two-variable form")
    tv = auto_transversal(form)
    vary = tv.varying_axis()
    lo, hi = form.domain.lows[vary], form.domain.highs[vary]
    pad = 0.02 * (hi - lo)
    rows = []
    for curve_id, s in enumerate(linspace(lo + pad, hi - pad, args.curves)):
        start = [0.0, 0.0]
        start[tv.fixed_axis] = tv.value
        start[vary] = s
        back, ahead = [], []
        try:
            for direction, pts in ((-1, back), (1, ahead)):
                solve_characteristic(form, tuple(start), direction, None, 1e-9,
                                     1e-12, pts)
        except AnalysisError:
            continue  # coefficients undefined at the start: no curve, no rows
        merged = back[::-1] + ahead[1:]
        t = 0.0
        for prev, p in zip([merged[0]] + merged, merged):
            t += distance(prev, p)
            rows.append([curve_id, t, *p])
    header = ["curve_id", "t", *form.var_names]
    _emit(csv_text(header, rows), args.out)
    return 0


def _cmd_invariance(args):
    from .forms import (
        load_form,
        make_substitution,
        mild_nonlinear_substitution,
        parse_box,
        random_linear_substitution,
    )
    from .integrability import invariance_check
    from .reports import json_text

    form = load_form(args.form_file, needs_jet=True)
    if args.map:
        if not (args.new_vars and args.new_domain):
            raise FormError("--map requires --new-vars and --new-domain")
        new_names = tuple(v.strip() for v in args.new_vars.split(","))
        texts = [t.strip() for t in args.map.split(";") if t.strip()]
        box = parse_box(args.new_domain)
        if box.dim != len(new_names):
            raise FormError(f"domain needs {len(new_names)} intervals")
        base = (
            _parse_point(args.base, len(new_names), "base")
            if args.base
            else tuple([0.0] * len(new_names))
        )
        sub = make_substitution(new_names, texts, base, box)
    elif args.nonlinear:
        sub = mild_nonlinear_substitution(form)
    else:
        sub = random_linear_substitution(form, args.seed)
    report = invariance_check(form, sub, tol=args.tol)
    _emit(json_text(report.as_report()), args.out)
    return 0


def _cmd_catalog(args):
    from .catalog import catalog
    from .forms import format_form_file
    from .reports import json_text, write_text

    if args.list:
        for e in catalog():
            sys.stdout.write(e.name + "\n")
        return 0
    if args.write_form:
        name, path = args.write_form
        e = _catalog_entry(name)
        write_text(path, format_form_file(e.form))
        return 0
    if args.show:
        e = _catalog_entry(args.show)
        report = {
            "name": e.name,
            "vars": list(e.var_names),
            "coefficients": list(e.coefficient_texts),
            "domain": [[lo, hi] for lo, hi in zip(e.box.lows, e.box.highs)],
            "expected_class": e.expected_class,
            "psi0": e.psi0_text,
            "mu0": e.mu0_text,
            "note": e.note,
        }
        _emit(json_text(report), args.out)
        return 0
    width = max(len(e.name) for e in catalog())
    for e in catalog():
        sys.stdout.write(
            f"{e.name:<{width}}  {e.expected_class:<19}  {e.note}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="pfaffian",
        description="Integrability analysis of Pfaffian forms on boxes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a form file")
    p.add_argument("form_file")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--samples", type=_positive_int, default=64,
                   help="Halton points scanned after the box center and "
                   "corners; the verdict covers only the samples_used points "
                   "of this plan, and a defect narrower than their spacing "
                   "can hide")
    p.add_argument("--expect", choices=[
        "exact", "locally_integrable", "non_integrable", "inconclusive"])
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the classification is inconclusive")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("factor2", help="two-variable integrating factor")
    p.add_argument("form_file")
    p.add_argument("--grid", type=_positive_int, default=17)
    p.add_argument("--transversal-axis")
    p.add_argument("--transversal-value", type=_finite_float)
    p.add_argument("--transversal-span",
                   help="lo,hi bounds on the varying axis of the transversal")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_factor2)

    p = sub.add_parser("factor-global", help="n-variable integrating factor")
    p.add_argument("form_file")
    p.add_argument("--free-var", required=True)
    p.add_argument("--base")
    p.add_argument("--grid", type=_positive_int, default=9)
    p.add_argument("--staircase", action="store_true",
                   help="include the two-path disagreement diagnostic")
    p.add_argument("--force", action="store_true",
                   help="skip the integrability gate")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_factor_global)

    p = sub.add_parser("reach", help="null-curve reachability probe")
    p.add_argument("form_file")
    p.add_argument("--point")
    p.add_argument("--epsilon", type=_radius, default=0.3)
    p.add_argument("--budget", type=_positive_int, default=200000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--threshold", type=_positive_float, default=0.05)
    p.add_argument("--free-var", help="also scan the surrounding line")
    p.add_argument("--psi", help="reference level function (conservation oracle)")
    p.add_argument("--csv", help="write the endpoint cloud")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_reach)

    p = sub.add_parser("foliate", help="emit characteristic polylines as CSV")
    p.add_argument("form_file")
    p.add_argument("--curves", type=_positive_int, default=9)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_foliate)

    p = sub.add_parser("invariance", help="tensor nullity under substitution")
    p.add_argument("form_file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--nonlinear", action="store_true",
                   help="use the mild quadratic substitution")
    p.add_argument("--new-vars")
    p.add_argument("--map", help="semicolon-separated old-variable expressions")
    p.add_argument("--base")
    p.add_argument("--new-domain")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_invariance)

    p = sub.add_parser("catalog", help="named example forms")
    p.add_argument("--list", action="store_true")
    p.add_argument("--show", metavar="NAME")
    p.add_argument("--write-form", nargs=2, metavar=("NAME", "PATH"))
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (FormError, ExpressionError) as exc:
        print(f"form error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except PfaffianError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
