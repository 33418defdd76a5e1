"""Inputs, job lists and output checks of the three benchmark workloads.

Every workload is a fixed list of CLI invocations (one *pass*) built from
the workload seed.  The inputs are plain form files written by this module;
the program under test sees only those files and the argv of each job.

- ``classify-sweep``: ``check --expect <class>`` on 63 seed-generated dense
  polynomial forms in 3-5 variables, plus one ``invariance`` run per class
  on one of those files (one job in 22).  Expression building dominates.
- ``reach-probe``: one ``reach`` job per catalog entry at the CLI's default
  epsilon and threshold, with a reduced step budget.  Constrained RK4
  steering through the compiled kernel dominates.
- ``factor-build``: ``factor2`` on the four two-variable entries and
  ``factor-global --staircase`` on two three-variable entries, on reduced
  grids.  Adaptive Dormand-Prince solves dominate.

Every job is kept under about a second, most under 0.3 s, so that a run
repeats each job 10 to 20 times and can take its median over passes of
times scaled by the host slowdown of each pass (see ``run.py``).

This module imports nothing from the package under test, so the generated
inputs do not depend on the code being measured.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

WORKLOADS = ("classify-sweep", "reach-probe", "factor-build")

# classify-sweep shape: forms per (class, variable count) cell, and one
# invariance job per class on a form of INVARIANCE_VARS variables (on
# 4-variable forms one invariance job took up to 1 s, a third of a pass)
SWEEP_CLASSES = ("exact", "locally_integrable", "non_integrable")
SWEEP_VARS = (3, 4, 5)
SWEEP_PER_CELL = 7
INVARIANCE_VARS = 3

# reach-probe settings: the CLI's default epsilon and threshold, spelled out
# so that a change of a default does not silently change the workload.  The
# default budget of 200000 steps makes a 3 to 5 s job; 10000 steps keep each
# job near 0.2 s.  contact gets SCAN_BUDGET, because the surrounding-line
# scan shares the budget among its 32 targets, and contact reaches at least
# 31 of them only with about 1000 steps each (24000 steps reached 30).
REACH_ARGS = ("--epsilon", "0.3", "--threshold", "0.05")
REACH_BUDGET = 10000
SCAN_BUDGET = 32000
REACH_FREE_VAR = {"contact": "z", "rolling_cylinder": "x"}

# factor-build grids, below the CLI defaults (17 and 9): at grid 9,
# factor-global on scaled_exact takes about 11 s, nearly all of it in a few
# surface solves that exhaust the 100000-step Dopri5 budget; at these grids
# no job takes more than about 0.5 s
FACTOR2_GRID = "9"
GLOBAL_GRID = "5"
GLOBAL_ENTRIES = ("exact_3var", "scaled_exact")
# Only exact_3var takes a seed-drawn --base.  scaled_exact keeps the CLI
# default base (the box center): at grid 9 its cost is a step function of
# the base, since each surface solve that exhausts the 100000-step Dopri5
# budget adds about 100k rejected attempts, and 1 to 4 such solves occur
# depending on the base.  A seed-drawn base would make the seed, not the
# code, set its cost.
SEEDED_BASE = ("exact_3var",)

CHECK_KEYS = {"class", "tolerance", "samples_used", "witness", "per_triple_max"}
WITNESS_KEYS = {"point", "triple", "value"}


@dataclass(frozen=True)
class Entry:
    """A named example form (a copy of the package catalog, kept fixed here)."""

    name: str
    var_names: tuple
    coefficients: tuple
    lows: tuple
    highs: tuple
    expected_class: str
    psi0: str = None


ENTRIES = (
    Entry("exact_3var", ("x", "y", "z"), ("1", "1", "1"),
          (-1, -1, -1), (1, 1, 1), "exact", "x+y+z"),
    Entry("product_exact", ("x", "y"), ("y", "x"),
          (0.5, 0.5), (1.5, 1.5), "exact", "x*y"),
    Entry("scaled_exact", ("x", "y", "z"), ("exp(z)*y", "exp(z)*x", "exp(z)"),
          (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), "locally_integrable", "x*y+z"),
    Entry("contact", ("x", "y", "z"), ("-y", "0", "1"),
          (-1, -1, -1), (1, 1, 1), "non_integrable"),
    Entry("ideal_gas_heat", ("T", "V"), ("1.5", "T/V"),
          (1, 1), (2, 2), "locally_integrable", "1.5*log(T)+log(V)"),
    Entry("rolling_cylinder", ("x", "theta"), ("1", "-1"),
          (-1, -1), (1, 1), "exact", "x-theta"),
    Entry("ray_form", ("x", "y"), ("y", "-x"),
          (1, 1), (2, 2), "locally_integrable", "x/y"),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple
    kind: str  # check | invariance | reach | factor2 | factor-global
    label: str  # entry name or form file stem
    expect: str = None  # promised class for check jobs
    csv_path: str = None


# ---------------------------------------------------------------------------
# form files
# ---------------------------------------------------------------------------


def form_text(var_names, coefficients, lows, highs, comment=None) -> str:
    lines = [f"# {comment}"] if comment else []
    lines.append("vars: " + ", ".join(var_names))
    lines.extend(f"F[{i}] = {c}" for i, c in enumerate(coefficients, start=1))
    lines.append("domain: " + " x ".join(
        f"[{float(lo)!r},{float(hi)!r}]" for lo, hi in zip(lows, highs)))
    return "\n".join(lines) + "\n"


def _monomials(n, degree):
    """Exponent tuples of total degree 1..degree in n variables."""
    monos = []
    for total in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), total):
            expo = [0] * n
            for v in combo:
                expo[v] += 1
            monos.append(tuple(expo))
    return monos


def _poly_text(terms):
    """Sum of (coefficient, exponent tuple) terms in the form-file grammar."""
    parts = []
    for coef, expo in terms:
        factors = [f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}"
                   for v, e in enumerate(expo) if e]
        body = "*".join([repr(abs(coef))] + factors)
        if not parts:
            parts.append(body if coef >= 0 else "-" + body)
        else:
            parts.append((" + " if coef >= 0 else " - ") + body)
    return "".join(parts) if parts else "0"


def _rounded(rng, lo, hi):
    """Uniform draw rounded to three decimals, never zero."""
    while True:
        c = round(float(rng.uniform(lo, hi)), 3)
        if c != 0.0:
            return c


def _gradient_texts(rng, n, degree=3):
    """Texts of dP/dx_i for a dense random polynomial P of the given degree.

    Each coefficient of P is rounded first and then multiplied by its
    integer exponent, so that dF_i/dx_j = dF_j/dx_i holds exactly in floats.
    Rounding after the multiply would leave asymmetric defects near 1e-6.
    """
    monos = _monomials(n, degree)
    coeffs = [_rounded(rng, -1.0, 1.0) for _ in monos]
    texts = []
    for i in range(n):
        terms = []
        for c, expo in zip(coeffs, monos):
            if expo[i]:
                lowered = list(expo)
                lowered[i] -= 1
                terms.append((c * expo[i], tuple(lowered)))
        texts.append(_poly_text(terms))
    return texts


def sweep_form(rng, klass, n) -> list:
    """Coefficient texts of one classify-sweep form of the promised class."""
    grad = _gradient_texts(rng, n)
    if klass == "exact":
        return grad
    if klass == "locally_integrable":
        quad = [(_rounded(rng, -0.5, 0.5), expo) for expo in _monomials(n, 2)]
        factor = _poly_text(quad)
        return [f"exp({factor})*({g})" for g in grad]
    # contact-like twist: dF_a/dx_b - dF_b/dx_a = -s is constant and nonzero
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    s = _rounded(rng, 0.5, 1.5)
    grad[a] = f"{grad[a]} - {s!r}*x{b + 1}"
    return grad


def _sweep_jobs(rng, workdir, seed):
    # a balanced design: every (class, variable count) cell holds the same
    # number of forms, so the seed changes coefficients and order, not the mix
    cells = [(klass, n) for klass in SWEEP_CLASSES for n in SWEEP_VARS]
    cells *= SWEEP_PER_CELL
    files = {}
    jobs = []
    pending_invariance = set(SWEEP_CLASSES)
    for k, idx in enumerate(rng.permutation(len(cells))):
        klass, n = cells[int(idx)]
        names = tuple(f"x{i + 1}" for i in range(n))
        texts = sweep_form(rng, klass, n)
        path = os.path.join(workdir, f"sweep{k:03d}.pfaff")
        files[path] = form_text(names, texts, (-1,) * n, (1,) * n,
                                f"classify-sweep seed {seed} form {k}: {klass}")
        stem = os.path.basename(path)
        jobs.append(Job(("check", path, "--expect", klass), "check", stem,
                        expect=klass))
        if n == INVARIANCE_VARS and klass in pending_invariance:
            pending_invariance.discard(klass)
            sub_seed = str(int(rng.integers(0, 2**31)))
            jobs.append(Job(("invariance", path, "--seed", sub_seed),
                            "invariance", stem))
    return files, jobs


def _entry_file(workdir, e):
    path = os.path.join(workdir, f"{e.name}.pfaff")
    return path, form_text(e.var_names, e.coefficients, e.lows, e.highs, e.name)


def _reach_jobs(rng, workdir, seed):
    files = {}
    jobs = []
    for e in ENTRIES:
        path, text = _entry_file(workdir, e)
        files[path] = text
        csv_path = os.path.join(workdir, f"{e.name}.reach.csv")
        budget = SCAN_BUDGET if e.name == "contact" else REACH_BUDGET
        argv = ["reach", path, *REACH_ARGS, "--budget", str(budget),
                "--seed", str(seed), "--csv", csv_path]
        if e.psi0 is not None:
            argv += ["--psi", e.psi0]
        if e.name in REACH_FREE_VAR:
            argv += ["--free-var", REACH_FREE_VAR[e.name]]
        jobs.append(Job(tuple(argv), "reach", e.name, csv_path=csv_path))
    return files, jobs


def _factor_jobs(rng, workdir, seed):
    files = {}
    jobs = []
    for e in ENTRIES:
        path, text = _entry_file(workdir, e)
        csv_path = os.path.join(workdir, f"{e.name}.factor.csv")
        if len(e.var_names) == 2:
            argv = ("factor2", path, "--grid", FACTOR2_GRID, "--csv", csv_path)
            kind = "factor2"
        elif e.name in GLOBAL_ENTRIES:
            argv = ("factor-global", path, "--free-var", "z", "--staircase",
                    "--grid", GLOBAL_GRID, "--csv", csv_path)
            if e.name in SEEDED_BASE:
                argv += (f"--base={_central_point(rng, e)}",)
            kind = "factor-global"
        else:
            continue
        files[path] = text
        jobs.append(Job(argv, kind, e.name, csv_path=csv_path))
    return files, jobs


def _central_point(rng, e):
    """A point drawn from the central half of the entry's box."""
    return ",".join(
        repr(round(float(rng.uniform(0.75 * lo + 0.25 * hi,
                                     0.25 * lo + 0.75 * hi)), 3))
        for lo, hi in zip(e.lows, e.highs))


_BUILDERS = {
    "classify-sweep": _sweep_jobs,
    "reach-probe": _reach_jobs,
    "factor-build": _factor_jobs,
}


def build(workload: str, seed: int, workdir: str):
    """Form-file texts (path -> text) and the job list of one pass."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(WORKLOADS.index(workload),)))
    return _BUILDERS[workload](rng, workdir, seed)


def write_files(files):
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# output checks (the acceptance bounds)
# ---------------------------------------------------------------------------

_ENTRY = {e.name: e for e in ENTRIES}


def check_output(job: Job, code: int, stdout: str, csv_bytes) -> str:
    """Reason the job's output is wrong, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    try:
        return _CHECKS[job.kind](job, report, csv_bytes)
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc!r}"


def _check_class(job, report, _csv):
    if set(report) != CHECK_KEYS or set(report["witness"]) != WITNESS_KEYS:
        return f"check key set {sorted(report)} differs from the contract"
    if report["class"] != job.expect:
        return f"class {report['class']} != promised {job.expect}"
    return None


def _check_invariance(_job, report, _csv):
    if report["nullity_preserved"] is not True:
        return "nullity not preserved"
    return None


def _csv_rows(csv_bytes):
    if csv_bytes is None:
        return None
    return csv_bytes.count(b"\n") - 1


def _check_reach(job, report, csv_bytes):
    e = _ENTRY[job.label]
    verdict = report["verdict"]
    full = verdict["kind"] == "full_dimensional"
    if full != (e.expected_class == "non_integrable"):
        return f"verdict {verdict['kind']} for a {e.expected_class} form"
    if e.psi0 is not None and not _at_most(verdict["thickness"], 1e-5):
        return f"thickness {verdict['thickness']} above 1e-5"
    if e.name in REACH_FREE_VAR:
        frac = report["surrounding_line_scan"]["fraction_reached"]
        if e.name == "contact" and not frac >= 31 / 32:
            return f"contact scan fraction {frac} below 31/32"
        if e.name == "rolling_cylinder" and not frac <= 1 / 32:
            return f"rolling_cylinder scan fraction {frac} above 1/32"
    if _csv_rows(csv_bytes) != report["endpoint_count"]:
        return "endpoint CSV rows do not match endpoint_count"
    return None


def _check_factor(job, report, csv_bytes):
    if not _at_most(report["residual_max"], 1e-5):
        return f"residual_max {report['residual_max']} above 1e-5"
    if job.label == "scaled_exact":
        stair = report["staircase"]["max_disagreement"]
        if not _at_most(stair, 1e-6):
            return f"staircase disagreement {stair} above 1e-6"
    if not _csv_rows(csv_bytes):
        return "factor CSV has no rows"
    return None


def _at_most(value, bound):
    return isinstance(value, (int, float)) and math.isfinite(value) and value <= bound


_CHECKS = {
    "check": _check_class,
    "invariance": _check_invariance,
    "reach": _check_reach,
    "factor2": _check_factor,
    "factor-global": _check_factor,
}
