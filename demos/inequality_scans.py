#!/usr/bin/env python3
"""Sweeping the expectation inequalities and replaying their worst cases.

Every inequality in the package runs through the same scan harness: a
scan walks a grid or a seeded random sample, records the smallest margin
it saw and the exact point where it happened, and packages both into a
report.  The witness is the important part.  A report is not "trust me,
it passed"; anyone can take the witness point, re-evaluate the margin
with the scalar functions, and get the recorded minimum back to the
last bit.

This demo runs every registered check at modest sizes, replays each
witness, and then unpacks one product bound chain to show where the
slack lives.
"""

import dataclasses

from entroset.distribution import FiniteDistribution
from entroset.report import ScanConfig
from entroset.scans import (
    CHECKS,
    product_bound_chain,
    reevaluate_witness,
    run_named_scan,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def shrink(cfg: ScanConfig | None) -> ScanConfig | None:
    """Keep the demo quick: coarser grids, fewer random draws."""
    if cfg is None:
        return None
    return dataclasses.replace(
        cfg,
        grid_step=max(cfg.grid_step, 1e-3),
        random_samples=min(cfg.random_samples, 5000),
    )


def main() -> None:
    section("All registered checks at demo scale")
    print(f"  {'check':18s} {'points':>8s} {'min margin':>13s} "
          f"{'tolerance':>10s} {'replay diff':>12s}")
    for name, check in CHECKS.items():
        rep = run_named_scan(name, shrink(check.cfg))
        replay = reevaluate_witness(rep)
        print(f"  {name:18s} {rep.points_checked:8d} {rep.min_margin:13.4e} "
              f"{rep.tolerance:10.0e} {abs(replay - rep.min_margin):12.1e}"
              f"  {'ok' if rep.passed else 'FAIL'}")
    print("  Every replay reproduces the recorded minimum exactly, because")
    print("  the scan certifies its argmin with the scalar code path.")

    section("Where the union bound is tightest")
    rep = run_named_scan("union-bound", shrink(CHECKS["union-bound"].cfg))
    print(f"  worst witness: {rep.argmin_witness}")
    print(f"  margin there:  {rep.min_margin:.6e}")
    print("  The bound collapses to equality on single-atom distributions,")
    print("  so random scans hover near zero without ever crossing it.")

    section("Unpacking one product bound chain")
    d = FiniteDistribution([(0.3, 0.72), (0.4, 0.85), (0.3, 0.95)])
    beta = 0.68
    chain = product_bound_chain(d, beta)
    print(f"  distribution: {d.atoms}")
    print(f"  scale beta = {beta} (above the golden threshold, below the mean)")
    print(f"  moments: t = {chain.t:.9f}, u = {chain.u:.9f}")
    print(f"  certified single-atom value v = {chain.v:.9f}")
    print(f"  joint entropy   {chain.joint:.9f}")
    print(f"  optimum         {chain.optimum:.9f}")
    print("  the three slack terms, each provably non-negative:")
    print(f"    joint   -> optimum : {chain.step_optimum:.6e}")
    print(f"    optimum -> scaled  : {chain.step_scaled:.6e}")
    print(f"    scaled  -> golden  : {chain.step_golden:.6e}")
    print(f"  identity residual (decomposition check): "
          f"{chain.identity_residual:.1e}")
    print(f"  total margin: {chain.margin:.6e}")
    print("  The margin is the sum of the steps; when one step goes negative")
    print("  the scan has found a counterexample, and none ever has.")


if __name__ == "__main__":
    main()
