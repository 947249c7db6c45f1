#!/usr/bin/env python3
"""Scan exact drift bounds and Monte Carlo estimates across the built-in
groups; prints one CSV row per (group, n)."""

import argparse
import sys

from groupwalk import group_from_id, srw
from groupwalk.drift import drift_exact_partial, drift_monte_carlo
from groupwalk.sampler import SamplerConfig
from groupwalk.wordmetric import norm_evaluator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups",
                    default="zd:1,zd:2,free:2,lamplighter,heisenberg")
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--trajectories", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("group,n,a_n_over_n,mc_mean,mc_ci_half")
    for gid in args.groups.split(","):
        group = group_from_id(gid.strip())
        mu = srw(group)
        norm_fn = norm_evaluator(group)
        exact = drift_exact_partial(mu, norm_fn, args.n_max)
        for n, a in zip(exact.ns, exact.a_values):
            print(f"{gid},{n},{float(a) / n:.6f},,")
        mc = drift_monte_carlo(mu, SamplerConfig(
            seed=args.seed, trajectories=args.trajectories,
            steps=args.steps))
        for cp, mean, ci in zip(mc.checkpoints, mc.means, mc.ci_half_widths):
            print(f"{gid},{cp},,{mean:.6f},{ci:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
