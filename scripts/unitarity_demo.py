#!/usr/bin/env python3
"""Estimate channel purity from shadows and classify unitarity.

Acquires process shadows for a handful of single-qubit channels and
prints the purity estimate (trace of the squared Choi matrix, d^2 for
a unitary), the bootstrap interval, and the resulting verdict.
"""

import argparse

import numpy as np

from procshadow.applications import MIN_BOOTSTRAP_RECORDS, unitarity_verdict
from procshadow.channels import channel_from_spec
from procshadow.process_shadows import acquire_process_shadow

DEFAULT_CHANNELS = [
    "identity",
    "hadamard",
    "random-unitary:5",
    "dephasing:0.3",
    "amplitude-damping:0.5",
    "depolarizing:1.0",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("channels", nargs="*", default=DEFAULT_CHANNELS)
    ap.add_argument("--records", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.records < MIN_BOOTSTRAP_RECORDS:
        ap.error(f"--records must be at least {MIN_BOOTSTRAP_RECORDS}, got {args.records}")

    print(f"{'channel':<24} {'purity':>7} {'interval':>18} {'verdict':>12}")
    for spec in args.channels:
        ch = channel_from_spec(spec, 1)
        rng = np.random.default_rng(args.seed)
        ps = acquire_process_shadow(ch, args.records, "pauli", "pauli", rng)
        v = unitarity_verdict(ps, rng=np.random.default_rng(args.seed))
        lo, hi = v.interval
        print(f"{spec:<24} {v.purity:>7.3f} [{lo:>7.3f}, {hi:>7.3f}] {v.verdict:>12}")


if __name__ == "__main__":
    main()
