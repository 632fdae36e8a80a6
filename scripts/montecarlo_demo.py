#!/usr/bin/env python3
"""Monte Carlo balance estimation demo on the sixteen-tribe network.

Because the whole network fits in a sample, the estimator reproduces the
exact ratios; shrink --sample-size to watch genuine sampling noise appear.
"""

import argparse
import sys

from cyclebalance.datasets import load_gahuku_gama
from cyclebalance.engine import balance_table, cycle_census
from cyclebalance.montecarlo import MonteCarloConfig, convergence_loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--batches", type=int, default=8)
    ap.add_argument("--sample-size", type=int, default=12)
    ap.add_argument("--max-length", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--target", type=float, default=0.02)
    ap.add_argument("--cap", type=int, default=20_000)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    g = load_gahuku_gama()
    cfg = MonteCarloConfig(args.samples, args.batches,
                           max(args.sample_size, args.max_length),
                           args.max_length, master_seed=args.seed)

    def progress(done, snapshot):
        worst = max((v for v in snapshot.values() if v is not None),
                    default=None)
        print(f"  {done} samples, worst 2-sigma = "
              f"{'-' if worst is None else f'{worst:.4f}'}", flush=True)

    report = convergence_loop(g, cfg, args.target, args.cap,
                              workers=args.workers, progress=progress)
    exact = balance_table(cycle_census(g, args.max_length))
    print("len  estimate   2-sigma    exact      cycles-seen")
    for row, seen in zip(report.rows, report.cycles_found):
        est, ex = row.ratio_negative, exact.row(row.length).ratio_negative
        print(f"{row.length:3d}  "
              f"{'-' if est is None else f'{est:.4f}':>8}  "
              f"{'-' if row.stderr is None else f'{row.stderr:.4f}':>8}  "
              f"{'-' if ex is None else f'{float(ex):.4f}':>8}  "
              f"{seen:10d}")
    if report.failed_lengths:
        print(f"not converged at lengths {list(report.failed_lengths)} "
              f"(cap {args.cap})")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
