"""Acceptance suite: ten end-to-end checks of the package's core claims.

Each test runs one check at full scale, records a single verdict line
(replayed in the terminal summary by conftest), and then asserts.  The
tolerances are the package's published contracts; none are loosened here.
"""

import itertools
import math
import time
from dataclasses import replace

import pytest

from conftest import record_criterion

from entroset.distribution import FiniteDistribution
from entroset.kernel import GOLDEN_THRESHOLD
from entroset.report import ScanConfig
from entroset.scans import (
    CHECKS,
    bridge_gap_scan,
    entropy_sq_ratio,
    golden_anchor_check,
    kernel_roundtrip_scan,
    merge_property_scan,
    optimum_search_scan,
    product_bound_margin,
    reduction_consistency_scan,
    run_named_scan,
    family_sweep_scan,
    level_scans,
    subset_entropy_scan,
    uniform_bridge_scan,
)
from entroset.setfamily import enumerate_union_closed


def test_criterion_1_golden_anchor():
    started = time.perf_counter()
    ratio_residual = abs(entropy_sq_ratio(GOLDEN_THRESHOLD) - 1.0)
    single = FiniteDistribution([(1.0, GOLDEN_THRESHOLD)])
    atom_margin = product_bound_margin(single, GOLDEN_THRESHOLD)
    report = golden_anchor_check()
    ok = ratio_residual <= 1e-12 and abs(atom_margin) <= 1e-9 and report.passed
    line = record_criterion(
        1, ok,
        f"H(b^2)/H(b) - 1 = {ratio_residual:.3e} (<= 1e-12), single-atom "
        f"product margin {atom_margin:.3e} (|.| <= 1e-9), anchor report "
        f"min_margin {report.min_margin:.3e} [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_2_kernel_round_trip():
    started = time.perf_counter()
    report = kernel_roundtrip_scan()  # 999 x-points at 1e-9, 20001 y-points
    ok = report.passed and report.points_checked == 21_000
    line = record_criterion(
        2, ok,
        f"|g(f(x))-x| <= 1e-9 on 999 points and |f(g(y))-y| <= 1e-10*max(1,y) "
        f"for y in [0,20] step 1e-3; worst margin {report.min_margin:.3e} at "
        f"{report.argmin_witness!r} [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_3_merge_properties():
    started = time.perf_counter()
    report = merge_property_scan(
        ScanConfig(random_samples=100_000, seed=42, tolerance=1e-9)
    )
    d = report.details
    ok = (
        report.passed
        and d["max_mean_residual"] <= 1e-10
        and d["max_entropy_residual"] <= 1e-10
        and d["max_weight_excess"] <= 1e-12
        and report.min_margin >= -1e-9
    )
    line = record_criterion(
        3, ok,
        f"1e5 quadruples: conservation residuals {d['max_mean_residual']:.2e}/"
        f"{d['max_entropy_residual']:.2e} (<= 1e-10), weight excess "
        f"{d['max_weight_excess']:.2e} (<= 1e-12), worst inequality margin "
        f"{report.min_margin:.3e} (>= -1e-9 over the 21-point z-grid and the "
        f"squared form) [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_4_reduction_vs_closed_form():
    started = time.perf_counter()
    report = reduction_consistency_scan(
        ScanConfig(random_samples=1000, seed=42, tolerance=0.0)
    )
    ok = report.passed and report.min_margin >= 0.0
    line = record_criterion(
        4, ok,
        f"1e3 reductions (2..20 atoms): endpoint matches the two-point "
        f"certificate within 1e-7 and joint entropy is non-increasing within "
        f"1e-8 per step; tightest slack {report.min_margin:.3e} "
        f"[{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_5_optimum_not_beaten():
    started = time.perf_counter()
    report = optimum_search_scan(
        ScanConfig(random_samples=200_000, seed=42, tolerance=0.0), pairs=100
    )
    d = report.details
    ok = report.passed and d["qualified_candidates"] > 0
    line = record_criterion(
        5, ok,
        f"100 pairs x 2e5 candidates, {d['qualified_candidates']} matching "
        f"within 1e-3: none beats the certificate at its own moments by the "
        f"1e-4 slack (worst {report.min_margin:.3e}) "
        f"[{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_6_curve_scans():
    started = time.perf_counter()
    reports = {
        "sq-ratio": run_named_scan("sq-ratio"),  # step 1e-4
        "sq-ratio-scaled": run_named_scan("sq-ratio-scaled"),  # step 1e-5
        "rate-convexity": run_named_scan(
            "rate-convexity",
            replace(CHECKS["rate-convexity"].cfg, grid_step=1e-4),
        ),
        "tail-rate": run_named_scan("tail-rate"),  # step 1e-4
    }
    ok = all(r.passed for r in reports.values())
    worst = ", ".join(
        f"{name} {r.min_margin:.2e}" for name, r in reports.items()
    )
    line = record_criterion(
        6, ok,
        f"monotonicity/convexity grids at tolerance 1e-6, worst margins: "
        f"{worst} [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_7_expectation_inequalities_at_scale():
    started = time.perf_counter()
    union, product = level_scans([
        (name, replace(CHECKS[name].cfg, random_samples=1_000_000))
        for name in ("union-bound", "product-bound")
    ])
    bridge = bridge_gap_scan(ScanConfig(random_samples=10_000, seed=42, tolerance=1e-12))
    ok = union.passed and product.passed and bridge.passed
    line = record_criterion(
        7, ok,
        f"1e6 draws each: union-bound min {union.min_margin:.3e}, "
        f"product-bound min {product.min_margin:.3e} (>= -1e-9); complement "
        f"bridge gap within 1e-12 on 1e4 pairs (tightest slack "
        f"{bridge.min_margin:.3e}) [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_8_subset_entropy_randomized():
    started = time.perf_counter()
    report = subset_entropy_scan(
        ScanConfig(random_samples=100_000, seed=42, tolerance=1e-9), ground_n=4
    )
    ok = report.passed and report.min_margin >= -1e-9
    line = record_criterion(
        8, ok,
        f"1e5 subset distributions on 4 elements with marginals at or below "
        f"the level: min margin {report.min_margin:.3e} (>= -1e-9) "
        f"[{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_9_exhaustive_family_sweep():
    started = time.perf_counter()
    reports = {n: family_sweep_scan(n) for n in (1, 2, 3, 4)}
    ok = all(r.passed and r.details["exact_bound_holds"] for r in reports.values())
    # independent recount for n = 3: plain pairwise filter over all
    # nonempty subsets of the power set
    subsets = list(range(8))
    brute = 0
    for r in range(1, 9):
        for combo in itertools.combinations(subsets, r):
            if all(a | b in set(combo) for a in combo for b in combo):
                brute += 1
    enumerated = sum(1 for _ in enumerate_union_closed(3))
    ok = ok and brute == enumerated == 121
    counts = ", ".join(f"n={n}: {r.points_checked}" for n, r in reports.items())
    line = record_criterion(
        9, ok,
        f"every union-closed family on up to 4 elements clears the bound in "
        f"exact integer arithmetic ({counts}; worst margin "
        f"{reports[4].min_margin:.6f}); n=3 census {enumerated} matches the "
        f"independent filter ({brute}) [{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line


def test_criterion_10_uniform_entropy_bridge():
    started = time.perf_counter()
    report = uniform_bridge_scan(3)
    ok = report.passed and report.min_margin >= 0.0
    line = record_criterion(
        10, ok,
        f"H(union) <= H(single) + 1e-12 for the uniform distribution on every "
        f"family with up to 3 elements ({report.points_checked} families, "
        f"tightest slack {report.min_margin:.3e}) "
        f"[{time.perf_counter() - started:.2f}s]",
    )
    assert ok, line
