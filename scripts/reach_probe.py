#!/usr/bin/env python3
"""Reachability experiment on a catalog entry with budget-doubling trends.

Explores null curves from the center of the entry's box at several budgets,
reporting the dimension verdict at each, and (optionally) scans the
surrounding line of a freed variable.  Persistent gaps under doubling
budgets are the empirical signature of unreachability.

Usage: python scripts/reach_probe.py contact --free-var z
"""

import argparse
import sys

from pfaffian.catalog import entry
from pfaffian.reach import estimate_dimension, explore, surrounding_line_scan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("name", help="catalog entry name")
    ap.add_argument("--epsilon", type=float, default=0.3)
    ap.add_argument("--budget", type=int, default=200000)
    ap.add_argument("--doublings", type=int, default=2,
                    help="also run at budget/2^k for k=doublings..1")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--threshold", type=float, default=0.05)
    ap.add_argument("--free-var", help="scan the surrounding line of this variable")
    args = ap.parse_args(argv)

    e = entry(args.name)
    psi_fn = e.psi0_fn()
    budgets = [args.budget // (2 ** k) for k in range(args.doublings, 0, -1)]
    budgets.append(args.budget)
    print(f"{e.name}: probe {e.box.center}, epsilon {args.epsilon}, seed {args.seed}")
    for budget in budgets:
        sample = explore(e.form, e.box.center, args.epsilon, budget, args.seed)
        verdict = estimate_dimension(sample, args.threshold, psi_reference=psi_fn)
        spectrum = ", ".join(f"{s:.4f}" for s in verdict.spectrum)
        print(f"  budget {budget:>8}: kind={verdict.kind:<22} "
              f"transverse={verdict.transverse_ratio:.3e} "
              f"thickness={verdict.thickness:.3e} spectrum=[{spectrum}]")
    if args.free_var:
        idx = e.var_names.index(args.free_var)
        scan = surrounding_line_scan(e.form, e.box.center, idx, args.epsilon,
                                     args.budget)
        print(f"  surrounding line of {args.free_var}: fraction reached "
              f"{scan.fraction_reached:.4f} (gap tolerance {scan.gap_tolerance:.2e})")
        worst = max(scan.gaps)
        trend = sum(1 for g, h in zip(scan.gaps, scan.gaps_at_half_budget)
                    if g < h - 1e-12)
        print(f"  worst gap {worst:.3e}; {trend}/{len(scan.gaps)} targets "
              f"still improving in the second budget half")
    return 0


if __name__ == "__main__":
    sys.exit(main())
