#!/usr/bin/env python3
"""Hunting the phase change at the golden threshold.

The product bound scales a distribution's entropy budget by a level beta
and asks the scaled budget to stay above the golden-rate line.  Above
beta = (sqrt(5)-1)/2 ~ 0.618 the bound holds for every distribution; any
lower and explicit two-point counterexamples appear.  The threshold is
not an artifact of loose estimates, it is exactly where the adversarial
family crosses zero.

This demo first exhibits the adversarial family by hand, watching its
worst margin flip sign as beta crosses the threshold, then runs the
packaged threshold scan over a fine band and prints its per-level table.
"""

import dataclasses

import numpy as np

from entroset.distribution import FiniteDistribution
from entroset.kernel import GOLDEN_THRESHOLD
from entroset.scans import (
    CHECKS,
    product_bound_margin,
    threshold_exploration,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def adversarial_worst(beta: float, points: int = 2000) -> tuple[float, float]:
    """Worst unenforced margin over two-point families with mean beta.

    Each family puts weight beta/v at value v and the rest at zero, so its
    mean is pinned at beta while the value slides freely above it.
    """
    worst, worst_v = np.inf, np.nan
    for v in np.linspace(beta + 1e-6, 1.0 - 1e-9, points):
        w = beta / v
        d = FiniteDistribution([(w, float(v)), (1.0 - w, 0.0)])
        m = product_bound_margin(d, beta, enforce_threshold=False)
        if m < worst:
            worst, worst_v = m, float(v)
    return worst, worst_v


def main() -> None:
    print(f"golden threshold: {GOLDEN_THRESHOLD:.12f}")

    section("The adversarial family, by hand")
    print("  weight beta/v at value v, remainder at zero; mean = beta exactly.")
    print(f"  {'beta':>10s} {'worst margin':>14s} {'at v':>8s}  verdict")
    for beta in (0.550, 0.580, 0.600, 0.610, 0.615, 0.618,
                 GOLDEN_THRESHOLD, 0.619, 0.625, 0.650, 0.700):
        worst, v = adversarial_worst(beta)
        verdict = "violated" if worst < -1e-12 else "holds"
        print(f"  {beta:10.6f} {worst:14.6e} {v:8.4f}  {verdict}")
    print("  The sign flips within a tenth of a percent of the golden")
    print("  threshold; the counterexamples die exactly where the theory")
    print("  says the bound starts to be true.")

    section("The packaged threshold scan, fine band")
    cfg = dataclasses.replace(
        CHECKS["threshold"].cfg,
        range_lo=0.60,
        range_hi=0.64,
        grid_step=0.004,
    )
    rep = threshold_exploration(cfg)
    print(f"  swept {rep.points_checked} two-point families "
          f"({len(rep.details['rows'])} betas)")
    print(f"  {'beta':>10s} {'min margin':>14s} {'points':>7s}  above golden?")
    for row in rep.details["rows"]:
        print(f"  {row['beta']:10.6f} {row['min_margin']:14.6e} "
              f"{row['points']:7d}  {row['above_golden']}")
    print("  The scan never judges this report pass or fail; the point of")
    print("  the exercise is the shape of the table, genuinely negative")
    print(f"  margins below {GOLDEN_THRESHOLD:.6f} and float-noise zeros above.")


if __name__ == "__main__":
    main()
