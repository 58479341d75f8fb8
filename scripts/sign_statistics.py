#!/usr/bin/env python3
"""Print the sign/magnitude statistics of contraction weights per site count.

Contracting two shadow representations multiplies one weight from
{5/2, 1/4 (x4), -2} per qubit, so products swing in sign and magnitude.
This tabulates the Monte-Carlo negative-weight fraction against the
closed form (1 - (2/3)^N)/2 and the mean log-magnitude against its
exact value.
"""

import argparse

import numpy as np

from procshadow.shadow_algebra import weight_sign_statistics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-sites", type=int, default=10)
    ap.add_argument("--samples", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for flag, value in (("--max-sites", args.max_sites), ("--samples", args.samples)):
        if value < 1:
            ap.error(f"{flag} must be at least 1, got {value}")

    rng = np.random.default_rng(args.seed)
    print(f"{'N':>3} {'p_neg':>8} {'p_neg exact':>12} {'mean log|w|':>12} "
          f"{'exact':>8} {'std log|w|':>11}")
    for n in range(1, args.max_sites + 1):
        s = weight_sign_statistics(n, args.samples, rng)
        print(f"{n:>3} {s.p_negative:>8.4f} {s.p_negative_exact:>12.4f} "
              f"{s.mean_log_abs:>12.4f} {s.mean_log_abs_exact:>8.4f} "
              f"{s.std_log_abs:>11.4f}")


if __name__ == "__main__":
    main()
