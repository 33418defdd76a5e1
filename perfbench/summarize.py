"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/summarize.py --workload reach-probe --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  ``--out`` also writes the raw results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_LIMIT = 1000


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or len(seeds) > SEED_LIMIT or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    return seeds


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["log"] = lines[:-1]
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        summary[name] = {"unit": first["unit"], **summarize(values)}
        s = summary[name]
        print(f"{name:30s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} {s['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": int(args.trace),
                       "seconds": args.seconds, "summary": summary,
                       "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
