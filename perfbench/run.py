"""Benchmark of the pfaffian CLI: one client, jobs run back to back in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 35 --trace 0

Each job is one ``pfaffian.cli.main(argv)`` call on a form file generated
from ``--seed``; stdout is captured and CSV reports go to files, as a user's
command would write them.  A *pass* is the workload's whole job list; the
run repeats whole passes while the next one fits in ``--seconds`` (at least
one).  Every job's output is checked against the acceptance bounds, and the
SHA-256 digest of each pass's stdout and CSV bytes must be identical across
passes.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run (see
``tracing.py``).  ``setup_s`` is the median wall time of fresh interpreters
that import the package and generate and write the inputs, one after each
pass.

Each job's time is its median over the run's passes of its wall time
divided by the host slowdown of that pass, which ``reference.py`` measures
between the pass's jobs; each set-up time is divided by the slowdown of the
pass before it.  On a shared host other tenants slow this process by up
to a half, in bursts whose density drifts over minutes: unscaled, the
quartile spread of ten runs of the same code reached 57 percent.  The
unscaled values and the slowdowns are printed before the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_TIMEOUT_S = 60

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _import_package():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pfaffian", "cli.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    from pfaffian import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: pfaffian imported from {cli.__file__}")
    return cli


def _setup(workload, seed, workdir):
    cli = _import_package()
    os.makedirs(workdir, exist_ok=True)
    files, jobs = workloads.build(workload, seed, workdir)
    workloads.write_files(files)
    return cli, jobs


def _time_setup(args, target):
    """Wall time of a fresh process doing the whole set-up into ``target``."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", target]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(target, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
    return elapsed


def _run_job(cli, job):
    """(exit code, seconds, stdout, error text) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a traceback is a failed job, never the end of the run
        code = None
        error = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), error or err.getvalue()


def _read_csv(job):
    if job.csv_path is None:
        return None
    try:
        with open(job.csv_path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


class Run:
    """Job times, failures and per-pass digests of one benchmark run."""

    def __init__(self, cli, jobs, tracer=None, time_setup=None):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        self.time_setup = time_setup  # times one fresh set-up, after each pass
        self.setup_times = []
        self.times = []
        self.failures = []  # (pass, job index, label, reason)
        self.digests = []
        self.pass_layers = []  # per pass: (self times, counts)
        self.attempted = 0
        self.slowdowns = []  # host slowdown of each pass

    def one_pass(self, index):
        digest = hashlib.sha256()
        reference = Reference()
        before = self.tracer.snapshot() if self.tracer else None
        for j, job in enumerate(self.jobs):
            if job.csv_path and os.path.exists(job.csv_path):
                os.remove(job.csv_path)
            if self.tracer:
                self.tracer.begin_job(j)
            code, elapsed, stdout, error = _run_job(self.cli, job)
            if self.tracer:
                self.tracer.end_job()
            reference.sample(elapsed)
            self.attempted += 1
            self.times.append(elapsed)
            csv_bytes = _read_csv(job)
            if code is None:
                reason = "traceback: " + error.strip().splitlines()[-1]
            else:
                reason = workloads.check_output(job, code, stdout, csv_bytes)
            if reason is not None and error and code is not None:
                reason += f" ({error.strip().splitlines()[-1]})"
            if reason is not None:
                self.failures.append((index, j, job.label, reason))
            for chunk in (stdout.encode("utf-8"), csv_bytes or b""):
                digest.update(len(chunk).to_bytes(8, "little"))
                digest.update(chunk)
        self.digests.append(digest.hexdigest())
        self.slowdowns.append(reference.slowdown())
        if self.tracer:
            self.pass_layers.append(_diff(before, self.tracer.snapshot()))

    def run(self, seconds):
        start = time.perf_counter()
        passes = 0
        while True:
            self.one_pass(passes)
            if self.time_setup:
                self.setup_times.append(self.time_setup())
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes > seconds:
                return passes


def _diff(before, after):
    times = {k: v - before[0].get(k, 0.0) for k, v in after[0].items()}
    counts = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
    return times, counts


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _completed(run):
    return run.attempted - len(run.failures)


def _job_times(run, scaled=True):
    """One time per job of the pass: its median over the run's passes, each
    divided by the host slowdown of its pass when ``scaled``."""
    n = len(run.jobs)
    per_pass = [run.times[p * n:(p + 1) * n] for p in range(len(run.slowdowns))]
    if scaled:
        per_pass = [[t / s for t in ts] for ts, s in zip(per_pass, run.slowdowns)]
    return [statistics.median(ts[j] for ts in per_pass) for j in range(n)]


def _jobs_per_s(run, per_job):
    """Completed jobs per second of a pass at the given job times."""
    return _completed(run) / run.attempted * len(per_job) / sum(per_job)


def end_to_end_metrics(run, scaled=True):
    setups = run.setup_times
    if scaled:
        setups = [t / s for t, s in zip(setups, run.slowdowns)]
    completed = _completed(run)
    per_job = _job_times(run, scaled)
    return {
        "jobs_per_s": _jobs_per_s(run, per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": _p90(per_job),
        "completed_frac": completed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def _exact(value):
    """Counts as integers when every pass made the same count."""
    return int(value) if float(value).is_integer() else value


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer time metric -> self-time key of the tracer
LAYER_TIMES = {
    "expressions.parse_s": "expressions.parse",
    "expressions.simplify_s": "expressions.simplify",
    "expressions.differentiate_s": "expressions.differentiate",
    "expressions.compile_s": "expressions.compile",
    "forms.load_s": "forms.load",
    "integrability.classify_s": "integrability.classify",
    "integrability.invariance_s": "integrability.invariance",
    "ode.dopri5_self_s": "ode.dopri5",
    "factor.build2_s": "factor.build2",
    "factor.global_s": "factor.global",
    "factor.verify_s": "factor.verify",
    "factor.staircase_s": "factor.staircase",
    "reach.explore_s": "reach.explore",
    "reach.estimate_dimension_s": "reach.estimate_dimension",
    "reach.scan_s": "reach.scan",
    "reports.serialize_s": "reports.serialize",
    "cli.self_s": "cli",
}
LAYER_COUNTS = (
    "expressions.compile_calls",
    "expressions.evaluate_calls",
    "forms.coeff_calls",
    "forms.deriv_calls",
    "integrability.samples_used",
    "ode.dopri5_accepted",
    "ode.dopri5_rejected",
    "ode.rk4_calls",
    "ode.bisect_calls",
    "factor.characteristics",
    "factor.surface_solves",
    "reach.rk4_steps",
    "reach.bisect_rk4_steps",
    "reach.scan_steps",
    "reports.bytes",
)


def per_layer_metrics(run, passes):
    """Per-pass means of layer self times and counts, plus derived ratios."""
    times, counts = defaultdict(float), defaultdict(int)
    for pass_times, pass_counts in run.pass_layers:
        for k, v in pass_times.items():
            times[k] += v
        for k, v in pass_counts.items():
            counts[k] += v

    def t(key):
        return times[key] / passes

    def c(key):
        return counts[key] / passes

    metrics = {name: (t(key), "s") for name, key in LAYER_TIMES.items()}
    metrics["forms.eval_self_s"] = (t("forms.coeff") + t("forms.deriv"), "s")
    metrics.update({name: (_exact(c(name)), "count") for name in LAYER_COUNTS})
    accepted, rejected = c("ode.dopri5_accepted"), c("ode.dopri5_rejected")
    reach_steps = c("reach.rk4_steps") + c("reach.bisect_rk4_steps")
    explore_total = _explore_inclusive_s(run.tracer) / passes
    metrics.update({
        "ode.dopri5_accept_ratio": (_ratio(accepted, accepted + rejected), "ratio"),
        "factor.solves_per_point": (
            _ratio(c("factor.global_solves"), c("factor.global_grid_points")),
            "ratio"),
        "factor.evaluated_ratio": (
            _ratio(c("factor.evaluated_points"), c("factor.grid_points")), "ratio"),
        "reach.useful_step_ratio": (
            _ratio(c("reach.explore_steps") + c("reach.scan_steps"), reach_steps),
            "ratio"),
        "reach.steps_per_s": (_ratio(c("reach.explore_steps"), explore_total), "1/s"),
        "trace.jobs_per_s": (_jobs_per_s(run, _job_times(run)), "1/s"),
    })
    return {k: metrics[k] for k in sorted(metrics)}


def _explore_inclusive_s(tracer):
    return sum(end - start for _, name, start, end, _ in tracer.spans
               if name == "reach.explore")


def _write_trace(path, run, args, passes):
    """Dump the stored spans and per-pass layer totals as JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "jobs": [" ".join(j.argv) for j in run.jobs],
        "missing_hooks": run.tracer.missing,
        "pass_layers": [{"self_s": t, "counts": c} for t, c in run.pass_layers],
        "spans": [
            {"job": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in run.tracer.spans
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:
        _setup(args.workload, args.seed, args.setup_only)
        return 0
    _import_package()  # fail fast, before any set-up work, without the source
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        cli, jobs = _setup(args.workload, args.seed, os.path.join(workdir, "forms"))
        time_setup = None if args.trace else (
            lambda: _time_setup(args, os.path.join(workdir, "setup")))
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            run = Run(cli, jobs, tracer, time_setup)
            passes = run.run(args.seconds)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    same_digest = len(set(run.digests)) == 1
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} jobs in {passes} passes of {len(jobs)}, "
          f"{len(run.failures)} failed")
    print(f"report digest sha256:{run.digests[0]} "
          f"({'identical across passes' if same_digest else 'DIFFERS between passes'})")
    for p, j, label, reason in run.failures[:20]:
        print(f"failed: pass {p} job {j} ({label}): {reason}")
    if args.trace:
        if any(c != run.pass_layers[0][1] for _, c in run.pass_layers):
            print("per-layer counts differ between passes")
        if tracer.missing:
            print("untraced (not found): " + ", ".join(tracer.missing))
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        _write_trace(trace_path, run, args, passes)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = per_layer_metrics(run, passes)
    else:
        unscaled = end_to_end_metrics(run, scaled=False)
        print(f"host slowdown: median {statistics.median(run.slowdowns):.4f} over "
              f"the passes (range {min(run.slowdowns):.4f} to "
              f"{max(run.slowdowns):.4f}); unscaled: "
              + ", ".join(f"{k}={unscaled[k]:.6g}"
                          for k in ("jobs_per_s", "job_p50_s", "job_p90_s", "setup_s")))
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end_metrics(run).items()}
    result = {
        "correct": not run.failures and same_digest,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
