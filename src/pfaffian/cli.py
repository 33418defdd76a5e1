"""Command-line front end.

Subcommands: check, factor2, factor-global, reach, foliate, invariance,
catalog.  Machine output is JSON (17-significant-digit floats, byte-stable
across runs); point clouds and polylines are CSV.  Exit codes: 0 success,
1 analysis failure (e.g. an --expect mismatch), 2 input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import expressions as ex
from .catalog import catalog, entry
from .errors import AnalysisError, ExpressionError, FormError, PfaffianError
from .factor import (
    CharacteristicKernels,
    TransversalSpec,
    auto_transversal,
    build_potential_2var,
    global_factorization,
    solve_characteristic,
    staircase_defect,
)
from .forms import (
    Box,
    load_form,
    make_substitution,
    mild_nonlinear_substitution,
    random_linear_substitution,
)
from .integrability import (
    CLASS_INCONCLUSIVE,
    SamplerConfig,
    classify,
    invariance_check,
)
from .reach import estimate_dimension, explore, surrounding_line_scan
from .reports import csv_text, json_text, write_text


@dataclass
class RunConfig:
    """Validated run-wide settings shared by the subcommands."""

    tol: float = 1e-8
    samples: int = 64
    seed: int = 0
    out_path: str = None
    csv_path: str = None

    def __post_init__(self):
        if not self.tol > 0:
            raise AnalysisError("tolerance must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise AnalysisError("seed must be a 64-bit unsigned value")
        if self.samples < 1:
            raise AnalysisError("sampler size must be at least 1")


def _positive_float(text):
    """argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
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


def _emit(text, path):
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _parse_point(text, n, what="point"):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise AnalysisError(f"{what} needs {n} comma-separated coordinates")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise AnalysisError(f"bad {what}: {exc}") from exc


def _var_index(form, name):
    if name not in form.var_names:
        raise AnalysisError(
            f"unknown variable {name!r}; form variables: {', '.join(form.var_names)}"
        )
    return form.var_names.index(name)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check(args):
    form = load_form(args.form_file)
    cfg = RunConfig(tol=args.tol, samples=args.samples, out_path=args.out)
    verdict = classify(form, SamplerConfig(points=cfg.samples), tol=cfg.tol)
    _emit(json_text(verdict.as_report()), cfg.out_path)
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
    report = {
        "method": result.method,
        "residual_max": result.residual_max,
        "residual_rms": result.residual_rms,
        "evaluated_points": result.evaluated_points,
        "skipped_points": result.skipped_points,
        "flags": result.flags,
    }
    if extra:
        report.update(extra)
    return report


def _factor_csv(form, result, per_axis):
    from .sampling import box_grid

    rows = []
    for p in box_grid(form.domain.lows, form.domain.highs, per_axis):
        p = tuple(float(v) for v in p)
        try:
            psi = result.psi(p)
            mu = result.mu(p)
        except (AnalysisError, ExpressionError, ValueError, ZeroDivisionError,
                OverflowError):
            continue
        rows.append([*p, psi, mu])
    header = [*("{}".format(v) for v in form.var_names), "psi", "mu"]
    return csv_text(header, rows)


def _cmd_factor2(args):
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
        span = None
        if args.transversal_span:
            span = _parse_point(args.transversal_span, 2, "transversal span")
        tv = TransversalSpec(axis, value, span)
    else:
        tv = auto_transversal(form)
    result = build_potential_2var(form, transversal=tv, grid_per_axis=args.grid)
    _emit(json_text(_factor_report(result, {"grid_per_axis": args.grid})), args.out)
    if args.csv:
        write_text(args.csv, _factor_csv(form, result, args.grid))
    return 0


def _cmd_factor_global(args):
    form = load_form(args.form_file)
    free_index = _var_index(form, args.free_var)
    base = (
        _parse_point(args.base, form.n, "base")
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
        write_text(args.csv, _factor_csv(form, result, args.grid))
    return 0


def _cmd_reach(args):
    form = load_form(args.form_file)
    cfg = RunConfig(seed=args.seed, out_path=args.out, csv_path=args.csv)
    point = (
        _parse_point(args.point, form.n) if args.point else form.domain.center
    )
    psi_fn = None
    if args.psi:
        psi_expr = ex.parse_expression(args.psi, form.var_names)
        raw = ex.compile_scalar(psi_expr, form.n)
        psi_fn = lambda p: raw(*p)  # noqa: E731
    sample = explore(form, point, args.epsilon, args.budget, cfg.seed)
    verdict = estimate_dimension(sample, args.threshold, psi_reference=psi_fn)
    report = {
        "base": list(sample.base),
        "epsilon": sample.epsilon,
        "budget": sample.budget,
        "budget_used": sample.budget_used,
        "seed": sample.seed,
        "endpoint_count": len(sample.endpoints),
        "max_step_residual": sample.max_residual,
        "verdict": verdict.as_report(),
    }
    if args.free_var:
        free_index = _var_index(form, args.free_var)
        scan = surrounding_line_scan(form, point, free_index, args.epsilon,
                                     args.budget)
        report["surrounding_line_scan"] = scan.as_report()
    _emit(json_text(report), cfg.out_path)
    if cfg.csv_path:
        header = [*form.var_names, "steps"]
        rows = [
            [*e, c] for e, c in zip(sample.endpoints, sample.step_counts)
        ]
        write_text(cfg.csv_path, csv_text(header, rows))
    return 0


def _cmd_foliate(args):
    form = load_form(args.form_file)
    if form.n != 2:
        raise AnalysisError("foliate requires a two-variable form")
    tv = auto_transversal(form)
    vary = tv.varying_axis()
    lo, hi = form.domain.lows[vary], form.domain.highs[vary]
    pad = 0.02 * (hi - lo)
    seeds = np.linspace(lo + pad, hi - pad, args.curves)
    kernels = CharacteristicKernels(form)
    rows = []
    curve_id = 0
    for s in seeds:
        start = [0.0, 0.0]
        start[tv.fixed_axis] = tv.value
        start[vary] = float(s)
        pieces = []
        for direction in (-1, 1):
            curve = solve_characteristic(form, tuple(start), direction,
                                         kernels=kernels)
            pts = curve.points[::-1] if direction == -1 else curve.points
            pieces.append(pts)
        merged = np.vstack([pieces[0], pieces[1][1:]])
        deltas = np.linalg.norm(np.diff(merged, axis=0), axis=1)
        t = np.concatenate([[0.0], np.cumsum(deltas)])
        for ti, p in zip(t, merged):
            rows.append([curve_id, float(ti), float(p[0]), float(p[1])])
        curve_id += 1
    header = ["curve_id", "t", *form.var_names]
    _emit(csv_text(header, rows), args.out)
    return 0


def _cmd_invariance(args):
    form = load_form(args.form_file)
    if args.map:
        if not (args.new_vars and args.new_domain):
            raise AnalysisError("--map requires --new-vars and --new-domain")
        new_names = tuple(v.strip() for v in args.new_vars.split(","))
        texts = [t.strip() for t in args.map.split(";") if t.strip()]
        box = _parse_domain(args.new_domain, len(new_names))
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


def _parse_domain(text, n):
    import re as _re

    intervals = _re.findall(r"\[\s*([^,\]]+)\s*,\s*([^\]]+?)\s*\]", text)
    if len(intervals) != n:
        raise AnalysisError(f"domain needs {n} intervals")
    lows = tuple(float(a) for a, _ in intervals)
    highs = tuple(float(b) for _, b in intervals)
    return Box(lows, highs)


def _cmd_catalog(args):
    if args.list:
        for e in catalog():
            sys.stdout.write(e.name + "\n")
        return 0
    if args.write_form:
        name, path = args.write_form
        from .forms import format_form_file

        e = entry(name)
        write_text(path, format_form_file(e.form))
        return 0
    if args.show:
        e = entry(args.show)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pfaffian",
        description="Integrability analysis of Pfaffian forms on boxes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a form file")
    p.add_argument("form_file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--expect", choices=[
        "exact", "locally_integrable", "non_integrable", "inconclusive"])
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the classification is inconclusive")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("factor2", help="two-variable integrating factor")
    p.add_argument("form_file")
    p.add_argument("--grid", type=int, default=17)
    p.add_argument("--transversal-axis")
    p.add_argument("--transversal-value", type=float)
    p.add_argument("--transversal-span",
                   help="lo,hi bounds on the varying axis of the transversal")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_factor2)

    p = sub.add_parser("factor-global", help="n-variable integrating factor")
    p.add_argument("form_file")
    p.add_argument("--free-var", required=True)
    p.add_argument("--base")
    p.add_argument("--grid", type=int, default=9)
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
    p.add_argument("--epsilon", type=_positive_float, default=0.3)
    p.add_argument("--budget", type=_positive_int, default=200000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--free-var", help="also scan the surrounding line")
    p.add_argument("--psi", help="reference level function (conservation oracle)")
    p.add_argument("--csv", help="write the endpoint cloud")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_reach)

    p = sub.add_parser("foliate", help="emit characteristic polylines as CSV")
    p.add_argument("form_file")
    p.add_argument("--curves", type=int, default=9)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_foliate)

    p = sub.add_parser("invariance", help="tensor nullity under substitution")
    p.add_argument("form_file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nonlinear", action="store_true",
                   help="use the mild quadratic substitution")
    p.add_argument("--new-vars")
    p.add_argument("--map", help="semicolon-separated old-variable expressions")
    p.add_argument("--base")
    p.add_argument("--new-domain")
    p.add_argument("--tol", type=float, default=1e-8)
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
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1
    except PfaffianError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


run_command = main


if __name__ == "__main__":
    sys.exit(main())
