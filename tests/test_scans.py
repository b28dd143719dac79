"""Tests for the scan engines, curve families, and expectation inequalities."""

import json
import math
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import scans
from entroset.distribution import FiniteDistribution, random_distribution
from entroset.kernel import (
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    KERNEL_TOL,
    DomainError,
    binary_entropy,
    entropy_rate_arr,
    inverse_entropy_rate,
    inverse_entropy_rate_arr,
)
from entroset.report import (
    PreconditionError,
    ScanConfig,
    make_report,
    report_csv_header,
    report_csv_row,
    report_from_json,
    report_to_json,
)
from entroset.scans import (
    BRIDGE_TOL,
    CHECKS,
    SCAN_NAMES,
    bridge_gap_scan,
    complement_bridge_gap,
    composed_rate,
    composed_rate_slope,
    entropy_sq_ratio,
    entropy_sq_ratio_arr,
    entropy_sq_ratio_scaled,
    entropy_sq_ratio_scaled_arr,
    golden_anchor_check,
    kernel_roundtrip_scan,
    merge_property_scan,
    merge_quadruple_margin,
    optimum_search_scan,
    product_bound_chain,
    product_bound_margin,
    reduction_consistency_scan,
    reevaluate_witness,
    run_named_scan,
    run_named_scans,
    _Consumer,
    _worst_rows,
    scan_rate_convexity,
    subset_entropy_scan,
    tail_rate,
    tail_rate_arr,
    threshold_exploration,
    union_bound_margin,
)

from test_samplers import report_text

PHI = (math.sqrt(5.0) + 1.0) / 2.0


def small_cfg(name: str, **overrides) -> ScanConfig | None:
    """The check's registry configuration at test scale; None if it has none."""
    from dataclasses import replace

    shrink = {"sq-ratio": 1e-3, "sq-ratio-scaled": 1e-4, "rate-convexity": 5e-3,
              "tail-rate": 1e-3, "threshold": 0.02}
    cfg = CHECKS[name].cfg
    if cfg is None:
        return None
    kw = {}
    if name in shrink:
        kw["grid_step"] = shrink[name]
    if cfg.random_samples:
        kw["random_samples"] = 100 if name == "reduction" else 2000
    kw.update(overrides)
    return replace(cfg, **kw)


class TestCurveFamilies:
    def test_sq_ratio_anchors_and_limits(self):
        assert entropy_sq_ratio(0.0) == 0.0
        assert entropy_sq_ratio(1.0) == 2.0
        assert entropy_sq_ratio(GOLDEN_THRESHOLD) == 1.0
        # The limit at 1 is 2, approached only logarithmically; what can
        # be checked tightly is the series branch against high precision.
        import mpmath as mp

        mp.mp.dps = 50
        for x in (1.0 - 1e-9, 1.0 - 1e-12):
            xm = mp.mpf(x)

            def h(t):
                return -(t * mp.log(t, 2) + (1 - t) * mp.log(1 - t, 2))

            expected = float(h(xm * xm) / h(xm))
            assert entropy_sq_ratio(x) == pytest.approx(expected, rel=1e-9)
            assert expected < 2.0

    def test_sq_ratio_increasing(self):
        xs = np.linspace(1e-4, 1.0 - 1e-4, 2000)
        vals = entropy_sq_ratio_arr(xs)
        assert np.all(np.diff(vals) > 0.0)

    def test_sq_ratio_series_branch_is_continuous(self):
        # The series takes over below complement 1e-8; the two branches
        # must agree to well under the scan tolerance at the switch.
        lo = entropy_sq_ratio(1.0 - 1.0000001e-8)
        hi = entropy_sq_ratio(1.0 - 0.9999999e-8)
        assert abs(hi - lo) < 1e-7

    def test_scaled_ratio_anchors(self):
        assert entropy_sq_ratio_scaled(0.0) == 2.0
        assert entropy_sq_ratio_scaled(1.0) == 2.0
        assert entropy_sq_ratio_scaled(GOLDEN_THRESHOLD) == pytest.approx(
            PHI, abs=5e-16
        )

    def test_scaled_ratio_increasing_above_golden(self):
        xs = np.linspace(GOLDEN_THRESHOLD, 1.0 - 1e-6, 5000)
        vals = np.array([entropy_sq_ratio_scaled(float(x)) for x in xs])
        assert np.all(np.diff(vals) >= 0.0)

    def test_tail_rate_anchors(self):
        assert tail_rate(0.0) == 1.0
        assert tail_rate(1.0) == 0.0
        assert tail_rate(0.5) == math.log(2.0)

    def test_tail_rate_series_agreement_for_tiny_z(self):
        z = 1e-12
        series = 1.0 - z / 2.0 - z * z / 6.0
        assert tail_rate(z) == pytest.approx(series, abs=1e-15)

    def test_tail_rate_decreasing(self):
        zs = np.linspace(0.0, 1.0, 2001)
        vals = [tail_rate(float(z)) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_composed_rate_convex_and_increasing(self):
        xs = np.linspace(0.1, 8.0, 80)
        vals = [composed_rate(0.5, float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        second = [a - 2.0 * b + c for a, b, c in zip(vals, vals[2:], vals[1:])]
        # disc = vals[i] - 2 vals[i+2]? keep explicit below instead
        second = [
            vals[i] - 2.0 * vals[i + 1] + vals[i + 2] for i in range(len(vals) - 2)
        ]
        assert all(s >= -1e-9 for s in second)

    def test_composed_rate_slope_matches_finite_difference(self):
        for alpha in (0.2, 0.5, 0.8):
            for x in (0.3, 1.0, 3.0, 7.0):
                h = 1e-5
                fd = (
                    composed_rate(alpha, x + h) - composed_rate(alpha, x - h)
                ) / (2.0 * h)
                assert composed_rate_slope(alpha, x) == pytest.approx(fd, rel=1e-5)

    def test_composed_rate_slope_limits(self):
        assert composed_rate_slope(0.5, 0.0) == 0.0
        assert composed_rate_slope(0.5, 30.0) == pytest.approx(1.0, abs=1e-3)

    def test_composed_rate_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                composed_rate(alpha, 1.0)
            with pytest.raises(DomainError):
                composed_rate_slope(alpha, 1.0)


class TestExpectationInequalities:
    def test_union_margin_zero_at_single_atom_level(self):
        d = FiniteDistribution([(1.0, FREQUENCY_BOUND)])
        assert union_bound_margin(d, FREQUENCY_BOUND) == pytest.approx(0.0, abs=1e-12)

    def test_union_margin_positive_for_interior_draws(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            alpha = float(rng.uniform(0.05, FREQUENCY_BOUND))
            vals = rng.uniform(0.0, alpha, size=3)
            w = rng.dirichlet(np.ones(3))
            d = FiniteDistribution(zip(w.tolist(), vals.tolist()))
            assert union_bound_margin(d, alpha) >= -1e-9

    def test_union_margin_preconditions(self):
        d = FiniteDistribution([(1.0, 0.2)])
        with pytest.raises(PreconditionError):
            union_bound_margin(d, 0.5)  # level beyond the frequency bound
        with pytest.raises(PreconditionError):
            union_bound_margin(d, 0.1)  # mean above the level

    def test_product_margin_zero_at_golden_single_atom(self):
        d = FiniteDistribution([(1.0, GOLDEN_THRESHOLD)])
        assert product_bound_margin(d, GOLDEN_THRESHOLD) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_product_margin_positive_above_golden(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            beta = float(rng.uniform(GOLDEN_THRESHOLD, 0.98))
            vals = rng.uniform(beta, 1.0, size=3)
            w = rng.dirichlet(np.ones(3))
            d = FiniteDistribution(zip(w.tolist(), vals.tolist()))
            assert product_bound_margin(d, beta) >= -1e-9

    def test_product_margin_preconditions(self):
        d = FiniteDistribution([(1.0, 0.9)])
        with pytest.raises(PreconditionError):
            product_bound_margin(d, 0.5)  # level below golden
        with pytest.raises(PreconditionError):
            product_bound_margin(FiniteDistribution([(1.0, 0.3)]), 0.7)
        with pytest.raises(PreconditionError):
            product_bound_margin(d, 1.0)

    def test_product_margin_fails_below_golden_when_unenforced(self):
        # Two-point families (beta/v at v, rest at 0) break the inequality
        # below the golden threshold; that is exactly why the threshold
        # is where it is.
        beta = 0.55
        margins = []
        for v in np.linspace(0.56, 0.999, 300):
            w = beta / v
            d = FiniteDistribution([(w, float(v)), (1.0 - w, 0.0)])
            margins.append(product_bound_margin(d, beta, enforce_threshold=False))
        assert min(margins) < -1e-5

    def test_bridge_gap_is_float_noise(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            beta = float(rng.uniform(GOLDEN_THRESHOLD, 0.95))
            vals = rng.uniform(beta, 1.0, size=4)
            w = rng.dirichlet(np.ones(4))
            d = FiniteDistribution(zip(w.tolist(), vals.tolist()))
            assert complement_bridge_gap(d, beta) <= 1e-12

    def test_chain_steps_and_recomposition(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            beta = float(rng.uniform(GOLDEN_THRESHOLD, 0.95))
            vals = rng.uniform(beta, 1.0, size=3)
            w = rng.dirichlet(np.ones(3))
            d = FiniteDistribution(zip(w.tolist(), vals.tolist()))
            chain = product_bound_chain(d, beta)
            assert chain.step_optimum >= -1e-9
            assert chain.step_scaled >= -1e-9
            assert chain.step_golden >= -1e-9
            assert abs(chain.identity_residual) <= 1e-12
            recomposed = (
                chain.step_optimum
                + chain.identity_residual
                + chain.step_scaled
                + chain.step_golden
            )
            assert chain.margin == pytest.approx(recomposed, abs=1e-10)
            assert chain.margin == product_bound_margin(d, beta)

    def test_chain_preconditions(self):
        # beta = 1, beta below the golden threshold, and a mean below beta
        for mean, beta, message in [
            (0.9, 1.0, "strictly below 1"),
            (0.9, 0.5, "must be at least"),
            (0.7, 0.8, "is below beta"),
        ]:
            d = FiniteDistribution([(1.0, mean)])
            with pytest.raises(PreconditionError, match=message) as chain_err:
                product_bound_chain(d, beta)
            with pytest.raises(PreconditionError) as margin_err:
                product_bound_margin(d, beta)
            assert str(chain_err.value) == str(margin_err.value)


def threshold_case(rng: np.random.Generator, beta: float) -> FiniteDistribution:
    """A distribution of 1 to 6 atoms with mean at least beta, up to
    rounding: random atoms, or half the time a two-point family
    {(beta/v, v), (1 - beta/v, 0)} with its two atoms split and moved a
    little, which fails below the golden threshold.  A mean below beta is
    lifted onto it by v -> 1 - (1 - v) (1 - beta) / (1 - mean)."""
    k = int(rng.integers(1, 7))
    if k > 1 and rng.random() < 0.5:
        top = beta / rng.uniform(beta, 1.0)
        near = int(rng.integers(1, k))
        spread = 10.0 ** rng.uniform(-7.0, -1.0)
        values = np.concatenate([beta / top + spread * rng.standard_normal(near),
                                 spread * rng.random(k - near)])
        weights = np.concatenate([top * rng.dirichlet(np.ones(near)),
                                  (1.0 - top) * rng.dirichlet(np.ones(k - near))])
        values = np.clip(values, 0.0, 1.0)
    else:
        values, weights = rng.random(k), rng.exponential(size=k)
    weights = weights / weights.sum()
    mean = float(weights @ values)
    if mean < beta:
        values = 1.0 - (1.0 - values) * ((1.0 - beta) / (1.0 - mean))
    return FiniteDistribution(zip(weights.tolist(), values.tolist()))


def threshold_bound(d: FiniteDistribution, beta: float) -> tuple[float, float, float]:
    """``(margin, bound, v)``: the product-bound margin of d at beta below
    the golden threshold too, and beta u [S(v) - S(beta)] at the v of the
    optimum certificate, max(rate^-1(u / t), t), as BoundChain takes it."""
    t, u = d.mean(), d.expected_entropy()
    v = max(inverse_entropy_rate(u / t), t) if u > 0.0 else 1.0
    bound = beta * u * (entropy_sq_ratio_scaled(v) - entropy_sq_ratio_scaled(beta))
    return product_bound_margin(d, beta, enforce_threshold=False), bound, v


def two_point_margin(beta: float, v: float) -> float:
    q = min(beta / v, 1.0)
    d = FiniteDistribution([(q, v), (1.0 - q, 0.0)])
    return product_bound_margin(d, beta, enforce_threshold=False)


class TestThresholdFamily:
    """What threshold's sampled rows used to look for, as the proof gives
    it: a distribution fails the product bound only where the two-point
    family at its own v fails too, so the two-point sweep decides every
    threshold row."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.55, 0.70), st.integers(0, 2**32 - 1))
    def test_margin_is_at_least_the_two_point_bound(self, beta, seed):
        d = threshold_case(np.random.default_rng(seed), beta)
        margin, bound, v = threshold_bound(d, beta)
        # 1e-9 is BoundChain's step bound
        assert margin >= bound - 1e-9
        if margin < -1e-9:
            assert two_point_margin(beta, v) < 0.0

    def test_negative_margins_occur_and_need_a_failing_two_point_family(self):
        rng = np.random.default_rng(20)
        negative = 0
        for _ in range(2000):
            beta = float(rng.uniform(0.55, 0.70))
            d = threshold_case(rng, beta)
            margin, bound, v = threshold_bound(d, beta)
            assert margin >= bound - 1e-9
            if margin < -1e-9:
                negative += 1
                assert two_point_margin(beta, v) < 0.0
        assert negative >= 20


class TestScanReports:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(grid_step=0.0)
        with pytest.raises(ValueError):
            ScanConfig(range_lo=0.9, range_hi=0.1)
        with pytest.raises(ValueError):
            ScanConfig(random_samples=-1)

    def test_seed_must_be_nonnegative(self):
        # NumPy refuses a negative seed only once a check draws, so the
        # config refuses it before any check runs
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ScanConfig(seed=-1)
        assert ScanConfig(seed=0).seed == 0

    def test_make_report_pass_logic(self):
        r = make_report("demo", 10, -1e-7, (0.5,), 1e-6)
        assert r.passed
        r2 = make_report("demo", 10, -1e-5, (0.5,), 1e-6)
        assert not r2.passed
        # a scan that checked nothing fails, whatever its margin
        assert not make_report("demo", 0, math.inf, (), 1e-6).passed

    def test_empty_report_writes_standard_json(self):
        r = bridge_gap_scan(ScanConfig(random_samples=0, seed=42, tolerance=BRIDGE_TOL))
        assert not r.passed
        text = json.dumps(report_to_json(r), allow_nan=False)
        assert json.loads(text)["min_margin"] is None
        assert report_from_json(json.loads(text)).min_margin == math.inf

    def test_json_round_trip(self):
        r = run_named_scan("tail-rate", small_cfg("tail-rate"))
        doc = report_to_json(r)
        again = report_from_json(doc)
        assert again == r

    def test_csv_row_matches_header(self):
        r = run_named_scan("tail-rate", small_cfg("tail-rate"))
        header = report_csv_header()
        row = report_csv_row(r)
        assert len(header) == len(row)
        assert row[0] == "tail-rate"


class TestScanEngines:
    @pytest.mark.parametrize("name", SCAN_NAMES)
    def test_named_scans_pass_and_witnesses_replay(self, name):
        report = run_named_scan(name, small_cfg(name))
        assert report.passed
        # the reported margin is the replay's own output, bit for bit
        assert reevaluate_witness(report) == report.min_margin

    @pytest.mark.parametrize("name", ["sq-ratio", "union-bound", "threshold"])
    def test_deterministic_for_fixed_seed(self, name):
        a = run_named_scan(name, small_cfg(name))
        b = run_named_scan(name, small_cfg(name))
        assert a == b

    def test_unknown_scan_name_rejected(self):
        with pytest.raises(ValueError):
            run_named_scan("nope")

    @pytest.mark.parametrize("runs", [
        [("sq-ratio", {"grid_step": 1e-2}), ("sq-ratio", {"grid_step": 1e-3})],
        [("union-bound", {}), ("product-bound", {}), ("union-bound", {"seed": 7})],
    ], ids=["grid-check", "shared-level-pass"])
    def test_repeated_check_is_refused(self, runs):
        # configs are keyed by name, so every copy would run with the last
        # copy's config
        runs = [(name, small_cfg(name, **kw)) for name, kw in runs]
        with pytest.raises(ValueError, match=f"{runs[0][0]!r} is listed more than once"):
            list(run_named_scans(runs))

    @pytest.mark.parametrize("tol", [math.inf, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["golden-anchor", "kernel-roundtrip", "family-sweep", "union-bound"])
    def test_tolerance_must_be_finite_and_nonnegative(self, name, tol):
        # the checks without a config take tol as it is given, so the rule
        # of ScanConfig is applied to it before any check runs
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            run_named_scan(name, tol=tol)

    @pytest.mark.parametrize("alpha", [2.0, 0.0, math.nan])
    def test_alpha_is_refused_before_any_check_runs(self, alpha):
        # sq-ratio does not read alpha; it must not run either
        runs = [(name, small_cfg(name)) for name in ("sq-ratio", "rate-convexity")]
        with pytest.raises(ValueError, match=r"alpha must lie strictly inside \(0, 1\)"):
            next(run_named_scans(runs, alpha=alpha))

    def test_rate_convexity_alpha_is_recorded(self):
        r = scan_rate_convexity(0.25, small_cfg("rate-convexity"))
        assert r.config["alpha"] == 0.25
        assert r.passed

    def test_threshold_structure(self):
        from dataclasses import replace

        cfg = replace(
            CHECKS["threshold"].cfg,
            range_lo=0.56, range_hi=0.68, grid_step=0.02,
        )
        r = threshold_exploration(cfg)
        assert r.passed  # exploration never fails the suite
        rows = r.details["rows"]
        below = [row for row in rows if not row["above_golden"]]
        above = [row for row in rows if row["above_golden"]]
        assert below and above
        assert min(row["min_margin"] for row in below) < -1e-6
        assert all(row["min_margin"] >= -1e-9 for row in above)

    def test_merge_property_scan_details(self):
        r = merge_property_scan(ScanConfig(random_samples=5000, seed=1, tolerance=1e-9))
        assert r.passed
        d = r.details
        assert d["max_mean_residual"] <= d["mean_residual_bound"]
        assert d["max_weight_excess"] <= d["weight_excess_bound"]
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-12)
        assert merge_quadruple_margin(*r.argmin_witness) == pytest.approx(
            r.min_margin, abs=1e-12
        )

    def test_reduction_scan_replays(self):
        r = reduction_consistency_scan(
            ScanConfig(random_samples=100, seed=2, tolerance=0.0)
        )
        assert r.passed
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-12)

    def test_optimum_search_scan_replays(self):
        r = optimum_search_scan(
            ScanConfig(random_samples=20_000, seed=3, tolerance=0.0), pairs=10
        )
        assert r.passed
        assert r.details["qualified_candidates"] > 0
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-12)

    def test_bridge_gap_scan(self):
        r = bridge_gap_scan(ScanConfig(random_samples=2000, seed=4, tolerance=BRIDGE_TOL))
        assert r.passed
        assert r.min_margin >= 0.0
        assert r.details["bound"] == BRIDGE_TOL
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-15)

    def test_kernel_roundtrip_scan_replays(self):
        r = kernel_roundtrip_scan()
        assert r.passed
        assert r.points_checked == 21_000
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-15)

    def test_golden_anchor_check_replays(self):
        r = golden_anchor_check()
        assert r.passed
        assert reevaluate_witness(r) == pytest.approx(r.min_margin, abs=1e-15)

    def test_golden_anchor_replay_recomputes_the_identity(self):
        from dataclasses import replace

        r = golden_anchor_check()
        tag = r.argmin_witness[0]
        forged = replace(r, min_margin=-1.0, details={**r.details, tag: -1.0})
        assert reevaluate_witness(forged) == r.min_margin

    def test_subset_entropy_witness_is_not_a_point_mass(self):
        r = subset_entropy_scan(
            ScanConfig(random_samples=2000, seed=42, tolerance=1e-9), ground_n=4
        )
        level, probs, masks = r.argmin_witness
        assert len(probs) == len(masks) >= 2
        assert r.min_margin > 0.0
        assert reevaluate_witness(r) == r.min_margin

    def test_worst_rows_keeps_the_first_minimum(self):
        # three batches: the second ties the first's minimum, the third
        # beats it; within a batch the first of two equal rows wins
        batches = iter([
            (np.array([True, True, False]), np.array([5.0, 2.0, 0.0])),
            (np.array([True, False]), np.array([2.0, -9.0])),
            (np.array([False, True, True, True]), np.array([-9.0, 1.0, 1.0, 7.0])),
        ])
        rows = iter(range(100))

        def draw():
            keep, vals = next(batches)
            return keep.size, keep, vals, np.array([next(rows) for _ in vals])

        def select(keep, vals, tags):
            kept = np.flatnonzero(keep)
            return kept, vals[kept]

        [(best, row, checked, drawn)] = _worst_rows(
            draw, [_Consumer(6, lambda batch, kept, vals: vals, select)])
        assert (best, row[2]) == (1.0, 6)
        assert (checked, drawn) == (6, 9)

    def test_random_scans_respect_mean_level_preconditions(self):
        # every witness stored by the randomized expectation scans must
        # itself satisfy the hypothesis, so replay cannot raise
        for name in ("union-bound", "product-bound"):
            r = run_named_scan(name, small_cfg(name))
            level, ws, vs = r.argmin_witness
            d = FiniteDistribution(zip(ws, vs))
            if name == "union-bound":
                assert d.mean() <= level + 1e-12
            else:
                assert d.mean() >= level - 1e-12


# ----------------------------------------------------------------------
# work units on a pool of forked workers
# ----------------------------------------------------------------------

def refuse(cfg, alpha, tol):
    raise PreconditionError("no data for this check")


class TestWorkUnits:
    """``run_named_scans`` runs each check, or the shared level pass, as one
    unit; with more than one worker the units run on a forked pool."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """Set the worker count, whatever this host's CPU count."""
        def use(n):
            monkeypatch.setattr(scans, "_workers", lambda units: n)
        return use

    def test_any_worker_count_yields_the_same_reports_in_order(self, workers):
        # the shared level pass is listed apart and in reverse, so its two
        # reports still come in the caller's places
        names = ["product-bound", *(n for n in SCAN_NAMES if "-bound" not in n), "union-bound"]
        runs = [(name, small_cfg(name)) for name in names]
        got = {}
        for n in (1, 2):
            workers(n)
            results = list(run_named_scans(runs))
            assert [r.name for r, _ in results] == names
            assert all(seconds > 0.0 for _, seconds in results)
            assert results[0][1] == results[-1][1]
            got[n] = [report_text(r) for r, _ in results]
            for report, _ in results:
                assert reevaluate_witness(report) == report.min_margin
        assert got[1] == got[2]
        assert multiprocessing.active_children() == []

    def test_units_and_their_workers(self):
        # one check runs in this process
        units, n = scans._spread([("sq-ratio", None)], 0.5, None)
        assert (len(units), n) == (1, 1)
        units, n = scans._spread([(name, None) for name in SCAN_NAMES], 0.5, None)
        # union-bound and product-bound share one unit
        assert len(units) == len(SCAN_NAMES) - 1
        assert n == min(len(os.sched_getaffinity(0)), len(units))

    def test_a_process_with_threads_runs_in_itself(self):
        # fork copies the calling thread alone, so with another thread
        # running the units stay in this process
        runs = [(name, None) for name in SCAN_NAMES]
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(60,))
        waiting.start()
        try:
            assert scans._spread(runs, 0.5, None)[1] == 1
        finally:
            release.set()
            waiting.join(60)
        assert not waiting.is_alive()

    def test_a_workers_exception_follows_the_earlier_reports(self, workers, monkeypatch):
        workers(2)
        monkeypatch.setitem(CHECKS, "threshold", replace(CHECKS["threshold"], run=refuse))
        got = []
        with pytest.raises(PreconditionError, match="^no data for this check$"):
            for report, _ in run_named_scans([(n, small_cfg(n)) for n in SCAN_NAMES]):
                got.append(report.name)
        assert got == list(SCAN_NAMES[:SCAN_NAMES.index("threshold")])
        assert multiprocessing.active_children() == []

    def test_closing_the_run_early_stops_its_workers(self, workers):
        workers(2)
        run = run_named_scans([(n, small_cfg(n)) for n in SCAN_NAMES])
        report, _ = next(run)
        assert report.name == SCAN_NAMES[0]
        run.close()
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the curve scans against their whole-grid oracles
# ----------------------------------------------------------------------

def oracle_pair_scan(name, cfg, curve_arr):
    """The pair scan over the whole grid at once."""
    xs = scans._grid(cfg)
    vals = curve_arr(xs)
    diffs = vals[1:] - vals[:-1]
    i = int(np.argmin(diffs))
    return scans._certified(
        name, xs.size, float(diffs[i]), (float(xs[i]), float(xs[i + 1])),
        cfg.tolerance, scans._config_dict(cfg), {},
    )


def oracle_rate_convexity(alpha, cfg):
    xs = scans._grid(cfg)
    vals = scans._composed_rate_arr(alpha, xs)
    d2 = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    i = int(np.argmin(d2))
    witness = (float(xs[i]), float(xs[i + 1]), float(xs[i + 2]))
    return scans._certified(
        "rate-convexity", xs.size, float(d2[i]), witness, cfg.tolerance,
        scans._config_dict(cfg, alpha=alpha), {},
    )


def oracle_tail_rate(cfg):
    zs = scans._grid(cfg)
    vals = tail_rate_arr(zs)
    diffs = vals[:-1] - vals[1:]
    i = int(np.argmin(diffs))
    pointwise = -zs - np.log1p(-np.minimum(zs, 1.0 - 1e-16))
    j = int(np.argmin(pointwise))
    if float(diffs[i]) <= float(pointwise[j]):
        witness = (float(zs[i]), float(zs[i + 1]))
        vector_min = float(diffs[i])
    else:
        witness = (float(zs[j]),)
        vector_min = float(pointwise[j])
    details = {
        "min_pair_margin": float(diffs[i]),
        "min_pointwise_margin": float(pointwise[j]),
    }
    return scans._certified(
        "tail-rate", zs.size, vector_min, witness, cfg.tolerance,
        scans._config_dict(cfg), details,
    )


def oracle_kernel_roundtrip(x_tol=1e-9, rate_tol=KERNEL_TOL):
    xs = scans._grid(scans._ROUNDTRIP_GRID)
    back = inverse_entropy_rate_arr(entropy_rate_arr(xs))
    m_x = x_tol - np.abs(back - xs)
    i = int(np.argmin(m_x))
    ys = np.linspace(0.0, 20.0, 20001)
    resid = np.abs(entropy_rate_arr(inverse_entropy_rate_arr(ys)) - ys)
    m_y = rate_tol * np.maximum(1.0, ys) - resid
    j = int(np.argmin(m_y))
    if float(m_x[i]) <= float(m_y[j]):
        witness = ("roundtrip-x", float(xs[i]))
        vector_min = float(m_x[i])
    else:
        witness = ("roundtrip-rate", float(ys[j]))
        vector_min = float(m_y[j])
    details = {
        "x_tol": x_tol,
        "rate_tol": rate_tol,
        "min_x_margin": float(m_x[i]),
        "min_rate_margin": float(m_y[j]),
    }
    return scans._certified(
        "kernel-roundtrip", xs.size + ys.size, vector_min, witness, 0.0,
        scans._config_dict(scans._ROUNDTRIP_GRID), details,
    )


CURVE_ORACLES = {
    "sq-ratio": lambda cfg: oracle_pair_scan("sq-ratio", cfg, entropy_sq_ratio_arr),
    "sq-ratio-scaled": lambda cfg: oracle_pair_scan(
        "sq-ratio-scaled", cfg, entropy_sq_ratio_scaled_arr),
    "rate-convexity": lambda cfg: oracle_rate_convexity(0.5, cfg),
    "tail-rate": oracle_tail_rate,
}


def curve_cfg(name: str, points: int) -> ScanConfig:
    """The check's registry configuration on a grid of ``points`` points."""
    cfg = CHECKS[name].cfg
    cfg = replace(cfg, grid_step=(cfg.range_hi - cfg.range_lo) / (points - 1))
    assert cfg.grid_points() == points
    return cfg


class TestBlockedGridScans:
    """The curve scans and kernel-roundtrip find their minima block by
    block; every report must be the whole-grid oracle's, byte for byte,
    on the default block and on blocks of 5 and 7 margins."""

    @pytest.fixture(params=[None, 5, 7], ids=["default", "block5", "block7"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(scans, "_GRID_BLOCK", request.param)
        return scans._GRID_BLOCK

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("name,span", [
        ("sq-ratio", 1), ("sq-ratio-scaled", 1), ("rate-convexity", 2),
        ("tail-rate", 0), ("tail-rate", 1),
    ])
    def test_curve_reports_are_the_oracle(self, name, span, offset, block):
        # margins of this span one below, at and one above a block multiple
        cfg = curve_cfg(name, 3 * block + offset + span)
        got = run_named_scan(name, cfg)
        assert report_text(got) == report_text(CURVE_ORACLES[name](cfg))
        assert reevaluate_witness(got) == got.min_margin

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_kernel_roundtrip_is_the_oracle(self, tol, block):
        want = oracle_kernel_roundtrip() if tol is None else oracle_kernel_roundtrip(tol, tol)
        assert report_text(run_named_scan("kernel-roundtrip", tol=tol)) == report_text(want)

    def test_equal_minima_across_a_block_edge_keep_the_first(self, block, monkeypatch):
        # the rises at points block - 1 and block are the least, and equal;
        # the first lies in the first block, the second in the next
        points = 2 * block + 3
        cfg = replace(CHECKS["sq-ratio"].cfg, range_lo=0.0, range_hi=1.0,
                      grid_step=1.0 / (points - 1))

        def curve(x):
            k = np.rint(x * (points - 1))
            return np.where(k < block, 0.0, np.where(k > block + 1, k, block - k - 1.0))

        monkeypatch.setattr(scans, "entropy_sq_ratio_arr", curve)
        got = scans.scan_sq_ratio(cfg)
        xs = scans._grid(cfg)
        assert got.argmin_witness == (float(xs[block - 1]), float(xs[block]))
        assert got.details["vector_min_margin"] == -1.0
        assert report_text(got) == report_text(oracle_pair_scan("sq-ratio", cfg, curve))

    @pytest.mark.parametrize("name", list(CURVE_ORACLES))
    def test_curve_scan_holds_the_grid_and_one_block(self, name):
        # about 10^6 points: the grid is 8 MB, and a whole-grid scan held
        # several more temporaries of that size
        cfg = curve_cfg(name, 1_000_001)
        tracemalloc.start()
        try:
            run_named_scan(name, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * cfg.grid_points() + 4 * 2**20
