"""The randomized engines against the slow paths they replaced.

The engines in ``scans`` work through each drawn batch in row blocks, hand
on only the rows that pass their tests, and build pair matrices over each
row's live atoms.  The oracles below are the same engines done the slow
way: whole batches, rows zero-padded to six atoms, boolean gathers, and a
matrix product for the subset marginals.  They make the same RNG calls,
so every kept row, margin and report must come out the same, bit for bit.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import kernel, scans
from entroset.kernel import (
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    binary_entropy,
    entropy_of_square,
    inverse_entropy_rate_arr,
)
from entroset.report import ScanConfig, make_report, report_to_json
from entroset.scans import CHECKS

from test_kernel import (
    assert_same_bits,
    oracle_binary_entropy_arr,
    oracle_entropy_of_square_arr,
)

H = oracle_binary_entropy_arr


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def oracle_sample_batch(rng, m, kmax=6):
    """``(weights, values)`` for m distributions, zero-padded to kmax."""
    counts = rng.integers(1, kmax + 1, size=m)
    live = np.arange(kmax)[None, :] < counts[:, None]
    raw = rng.exponential(size=(m, kmax))
    raw *= live
    weights = raw / raw.sum(axis=1, keepdims=True)
    values = rng.uniform(size=(m, kmax))
    values *= live
    return weights, values


def oracle_union_margins(w, v, alpha):
    hv = H(v)
    u = np.einsum("ij,ij->i", w, hv)
    a = v[:, :, None]
    b = v[:, None, :]
    pair = np.clip(a + b - a * b, 0.0, 1.0)
    lhs = np.einsum("ni,nj,nij->n", w, w, H(pair))
    mix = np.clip(alpha * (2.0 - alpha), 0.0, 1.0)
    ratio = H(mix) / H(alpha)
    return lhs - ratio * u


def oracle_product_margins(w, v, beta):
    hv = H(v)
    u = np.einsum("ij,ij->i", w, hv)
    pair = v[:, :, None] * v[:, None, :]
    lhs = np.einsum("ni,nj,nij->n", w, w, H(pair))
    ratio = oracle_entropy_of_square_arr(beta) / H(beta)
    return lhs - ratio * u


def oracle_worst_rows(needed, draw, margins):
    """``draw()`` returns ``(keep, *columns)`` over the whole batch."""
    best = math.inf
    row = ()
    checked = 0
    drawn = 0
    while checked < needed:
        keep, *columns = draw()
        drawn += keep.size
        if not keep.any():
            continue
        take = min(int(np.count_nonzero(keep)), needed - checked)
        kept = [c[keep][:take] for c in columns]
        m = margins(*kept)
        i = int(np.argmin(m))
        if float(m[i]) < best:
            best = float(m[i])
            row = tuple(c[i] for c in kept)
        checked += take
    return best, row, checked, drawn


def oracle_level_stream(rng, batch):
    """The level stream, a whole batch at a time: ``(w, v, mean, u)``."""

    def draw():
        w, v = oracle_sample_batch(rng, batch)
        u = rng.uniform(size=batch)
        return w, v, np.einsum("ij,ij->i", w, v), u

    return draw


def oracle_levels(batch, lo, hi, below):
    """``(keep, w, v, level)`` of a level-stream batch at levels from lo to
    hi, each row's level drawn from [a, b], the levels its mean admits,
    then kept off the open end of the range."""
    w, v, mean, u = batch
    admitted = np.clip(mean, lo, hi)
    if below:
        a, b = admitted, hi
        level = np.maximum(b - (b - a) * u, np.nextafter(lo, hi))
        return mean <= level, w, v, level
    a, b = lo, admitted
    level = np.minimum(a + (b - a) * u, np.nextafter(hi, lo))
    return mean >= level, w, v, level


def oracle_level_draw(rng, lo, hi, below, batch):
    stream = oracle_level_stream(rng, batch)
    return lambda: oracle_levels(stream(), lo, hi, below)


def oracle_level_witness(row):
    if not row:
        return ()
    w, v, level = row
    return (float(level), *scans._witness_atoms(w, v))


def oracle_level_scan(name, cfg, batch):
    below = name == "union-bound"
    rng = np.random.default_rng(cfg.seed)
    draw = oracle_level_draw(rng, cfg.range_lo, cfg.range_hi, below, batch)
    margins = oracle_union_margins if below else oracle_product_margins
    best, row, checked, drawn = oracle_worst_rows(cfg.random_samples, draw, margins)
    return scans._certified(
        name, checked, best, oracle_level_witness(row), cfg.tolerance,
        scans._config_dict(cfg), {"raw_draws": drawn},
    )


def oracle_pair_filter(w, v, t, u):
    """One optimum-search pair's candidates, computed over the whole batch."""
    means = np.einsum("ij,ij->i", w, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(t / means, 1.0 / np.maximum(v, 1e-300).max(axis=1))
    v = v * scale[:, None]
    means = np.einsum("ij,ij->i", w, v)
    ents = np.einsum("ij,ij->i", w, H(v))
    keep = (np.abs(means - t) <= 1e-3) & (np.abs(ents - u) <= 1e-3)
    return w[keep], v[keep], means[keep], ents[keep]


def oracle_optimum_search(cfg, pairs):
    """One whole batch drawn first, then every pair filters all of it."""
    rng = np.random.default_rng(cfg.seed)
    best = math.inf
    best_witness = ()
    qualified = 0
    w, v = oracle_sample_batch(rng, cfg.random_samples, kmax=3)
    for _ in range(pairs):
        t = float(rng.uniform(0.05, 0.95))
        u = float((1.0 - rng.uniform()) * binary_entropy(t))
        w2, v2, m2, e2 = oracle_pair_filter(w, v, t, u)
        if not w2.shape[0]:
            continue
        pair = v2[:, :, None] * v2[:, None, :]
        joints = np.einsum("ni,nj,nij->n", w2, w2, H(pair))
        qualified += int(w2.shape[0])
        own_v = np.maximum(inverse_entropy_rate_arr(e2 / m2), m2)
        own_opt = m2 * m2 * oracle_entropy_of_square_arr(own_v) / (own_v * own_v)
        margins = joints - (own_opt - 1e-4)
        i = int(np.argmin(margins))
        if float(margins[i]) < best:
            best = float(margins[i])
            best_witness = (t, u, *scans._witness_atoms(w2[i], v2[i]))
    details = {
        "pairs": pairs,
        "qualified_candidates": qualified,
        "slack": 1e-4,
        "raw_draws": pairs * cfg.random_samples,
    }
    return scans._certified(
        "optimum-search", qualified, best, best_witness, 0.0,
        scans._config_dict(cfg), details,
    )


def oracle_threshold(cfg):
    """The threshold report: at each beta, the two-point family's sweep,
    with the whole-array kernels."""
    rows = []
    global_best = math.inf
    global_witness = ()
    for beta in scans._grid(cfg):
        beta = float(beta)
        ratio = entropy_of_square(beta) / binary_entropy(beta)
        vs = np.linspace(beta, 1.0 - 1e-6, 2001)
        q = beta / vs
        two_point = q * q * oracle_entropy_of_square_arr(vs) - ratio * q * H(vs)
        vstar = float(vs[int(np.argmin(two_point))])
        qstar = beta / vstar
        row_witness = (
            beta,
            (qstar, 1.0 - qstar) if qstar < 1.0 else (1.0,),
            (vstar, 0.0) if qstar < 1.0 else (vstar,),
        )
        certified = scans._threshold_margin(row_witness)
        rows.append({
            "beta": beta,
            "min_margin": certified,
            "points": vs.size,
            "above_golden": beta >= GOLDEN_THRESHOLD - 1e-15,
        })
        if certified < global_best:
            global_best = certified
            global_witness = row_witness
    report = make_report(
        "threshold", sum(r["points"] for r in rows), global_best, global_witness,
        cfg.tolerance, config=scans._config_dict(cfg, random_samples=0), details={"rows": rows},
    )
    return replace(report, passed=True)


def oracle_bridge_gap(samples, seed, bound, batch):
    rng = np.random.default_rng(seed)

    def margins(w, v, beta):
        return np.array([scans._bridge_margin(bound, oracle_level_witness(row))
                         for row in zip(w, v, beta)])

    best, row, checked, drawn = oracle_worst_rows(
        samples, oracle_level_draw(rng, GOLDEN_THRESHOLD, 1.0, False, batch), margins
    )
    return make_report(
        "bridge-gap", checked, best, oracle_level_witness(row), 0.0,
        config={"random_samples": samples, "seed": seed},
        details={"bound": bound, "raw_draws": drawn},
    )


def oracle_subset_entropy(cfg, ground_n=4):
    n_masks = 1 << ground_n
    masks = np.arange(n_masks)
    bits = ((masks[:, None] >> np.arange(ground_n)[None, :]) & 1).astype(float)
    popcount = bits.sum(axis=1)
    uni = np.bitwise_or.outer(masks, masks)
    scatter = np.zeros((n_masks, n_masks, n_masks))
    ii, jj = np.meshgrid(masks, masks, indexing="ij")
    scatter[ii, jj, uni] = 1.0
    rng = np.random.default_rng(cfg.seed)
    batch = 16384

    def draw():
        raw = rng.exponential(size=(batch, n_masks))
        style = rng.integers(0, 3, size=batch)
        raw = np.where((style == 1)[:, None], raw * 3.0 ** -popcount[None, :], raw)
        keep_mask = rng.uniform(size=(batch, n_masks)) < 0.25
        keep_mask[:, 0] = True
        raw = np.where((style == 2)[:, None], raw * keep_mask, raw)
        probs = raw / raw.sum(axis=1, keepdims=True)
        alpha = FREQUENCY_BOUND * (1.0 - rng.uniform(size=batch))
        keep = ((probs @ bits).max(axis=1) <= alpha) & (probs.max(axis=1) < 1.0)
        return keep, probs, alpha

    def margins(p, a):
        pun = np.einsum("nab,abm->nm", np.einsum("na,nb->nab", p, p), scatter)
        ratio = H(a * a) / H(a)
        return scans._shannon_rows(pun) - ratio * scans._shannon_rows(p)

    best, row, checked, drawn = oracle_worst_rows(cfg.random_samples, draw, margins)
    witness = ()
    if row:
        p, a = row
        sel = p > 0.0
        witness = (float(a), tuple(float(x) for x in p[sel]),
                   tuple(int(m) for m in masks[sel]))
    return scans._certified(
        "subset-entropy", checked, best, witness, cfg.tolerance,
        {"random_samples": cfg.random_samples, "seed": cfg.seed},
        {"raw_draws": drawn, "ground_n": ground_n},
    )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

SEEDS = [0, 42, 2024]


@pytest.fixture(params=[None, 5, 7], ids=["default", "blocks5", "blocks7"])
def blocks(request, monkeypatch):
    """Default blocks, or kernel and row blocks of 5 or 7 with 1,000-row
    batches, so that every block loop meets its edges."""
    if request.param is None:
        return scans._BATCH
    monkeypatch.setattr(kernel, "_BLOCK", request.param)
    monkeypatch.setattr(scans, "_ROWS", request.param)
    monkeypatch.setattr(scans, "_BATCH", 1000)
    return 1000


def report_text(report) -> str:
    return json.dumps(report_to_json(report))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kmax, m", [(6, 65536), (3, 20_000), (6, 4097), (3, 1), (6, 0)])
def test_sample_batch_is_the_oracle(seed, kmax, m):
    counts, w, v = scans._draw_rows(np.random.default_rng(seed), m, kmax)
    means = scans._finish_rows(counts, w, v)
    want_w, want_v = oracle_sample_batch(np.random.default_rng(seed), m, kmax)
    assert_same_bits(w, want_w)
    assert_same_bits(v, want_v)
    assert_same_bits(means, np.einsum("ij,ij->i", want_w, want_v))
    assert np.array_equal(counts, np.random.default_rng(seed).integers(1, kmax + 1, size=m))
    assert np.array_equal(np.count_nonzero(v, axis=1) <= counts, np.ones(m, bool))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("below", [True, False], ids=["union", "product"])
def test_kept_level_rows_and_margins_are_the_oracle(seed, below, blocks):
    lo, hi = (0.0, FREQUENCY_BOUND) if below else (GOLDEN_THRESHOLD, 1.0)
    draw = scans._draw_levels(np.random.default_rng(seed))
    select = scans._level_select(lo, hi, below)
    want_draw = oracle_level_draw(np.random.default_rng(seed), lo, hi, below, blocks)
    for _ in range(2):
        drawn, *batch = draw()
        rows, level = select(*batch)
        counts, w, v, _, _ = batch
        keep, ow, ov, olevel = want_draw()
        assert drawn == keep.size == blocks
        assert rows.size and np.all(np.count_nonzero(w[rows], axis=1) <= counts[rows])
        assert np.array_equal(rows, np.flatnonzero(keep))
        for got, want in ((w[rows], ow[keep]), (v[rows], ov[keep]), (level, olevel[keep])):
            assert_same_bits(got, want)
        if below:
            got = scans._union_margins_arr(batch, rows, level)
            want = oracle_union_margins(ow[keep], ov[keep], olevel[keep])
        else:
            got = scans._product_margins_arr(batch, rows, level)
            want = oracle_product_margins(ow[keep], ov[keep], olevel[keep])
        assert_same_bits(got, want)


@st.composite
def level_cases(draw):
    """A level range lo < hi, and rows whose means sit on, next to or
    between its ends, with u near 0, near 1 or anywhere in [0, 1)."""
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    ends = [lo, hi, np.nextafter(lo, 1.0), np.nextafter(lo, 0.0),
            np.nextafter(hi, 1.0), np.nextafter(hi, 0.0), 0.0, 1.0]
    n = draw(st.integers(1, 30))
    mean = draw(st.lists(st.sampled_from(ends) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    u = draw(st.lists(st.sampled_from([0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-9])
                      | st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    return lo, hi, np.array(mean), np.array(u)


@settings(max_examples=500, deadline=None)
@given(level_cases(), st.booleans())
def test_kept_levels_admit_their_rows(case, below):
    lo, hi, mean, u = case
    unread = np.zeros((mean.size, 1))
    rows, level = scans._level_select(lo, hi, below)(unread, unread, unread, mean, u)
    kept = mean[rows]
    if below:
        assert np.all((kept <= level) & (level <= hi) & (level > lo))
    else:
        assert np.all((lo <= level) & (level <= kept) & (level < hi))
    # a row whose mean is at the admitting end of the range is kept
    assert set(np.flatnonzero(mean == (lo if below else hi))) <= set(rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_optimum_pair_candidates_are_the_oracle(seed, blocks):
    # every pair reads the one batch, which its screen leaves as it was
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = scans._search_batch(*scans._draw_rows(rng, 6000, 3))
    w, v = oracle_sample_batch(oracle_rng, 6000, kmax=3)
    found = 0
    for _ in range(4):
        t = float(rng.uniform(0.05, 0.95))
        u = float((1.0 - rng.uniform()) * binary_entropy(t))
        oracle_rng.uniform(size=2)
        got = scans._pair_candidates(batch, t, u)
        want = oracle_pair_filter(w, v, t, u)
        for g, o in zip(got, want):
            assert_same_bits(g, o)
        found += got[0].shape[0]
    assert found > 0


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("union_first", [True, False], ids=["union-done-first", "product-done-first"])
def test_shared_level_pass_is_the_oracle(seed, union_first, blocks):
    # one consumer reaches its quota batches before the other, and each
    # report is the oracle's for its check alone
    small, large = 150, 4 * blocks // 10
    quotas = (small, large) if union_first else (large, small)
    runs = [(name, replace(CHECKS[name].cfg, seed=seed, random_samples=n))
            for name, n in zip(("union-bound", "product-bound"), quotas)]
    got = scans.level_scans(runs)
    for (name, cfg), report in zip(runs, got):
        assert report_text(report) == report_text(oracle_level_scan(name, cfg, blocks))
    drawn = [r.details["raw_draws"] for r in got]
    assert (drawn[0] < drawn[1]) == union_first


def test_level_checks_at_two_seeds_run_apart():
    # only one seed makes one stream: at two seeds each check runs alone
    runs = [(name, replace(CHECKS[name].cfg, seed=seed, random_samples=300))
            for name, seed in (("union-bound", 42), ("product-bound", 7))]
    got = list(scans.run_named_scans(runs))
    assert [r.name for r, _ in got] == ["union-bound", "product-bound"]
    for (name, cfg), (report, _) in zip(runs, got):
        assert report_text(report) == report_text(scans.run_named_scan(name, cfg))
    with pytest.raises(ValueError):
        scans.level_scans(runs)


@st.composite
def screen_cases(draw):
    """A small raw batch of up to three atoms per row and a search pair
    (t, u), with one row placed within 1e-12 of the edge of a matching
    window, or a single-atom group exactly on the edge of its test."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    counts, w, v = scans._draw_rows(rng, m, 3)
    # zero values, and rows whose live values are all zero
    v[rng.random(size=v.shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    if draw(st.booleans()):
        v[rng.integers(0, m)] = 0.0
    t = draw(st.floats(0.05, 0.95))
    i = draw(st.integers(0, m - 1))
    k = draw(st.integers(1, 3))
    counts[i] = k
    delta = draw(st.floats(-1e-12, 1e-12))
    edge = draw(st.sampled_from(["mean", "entropy", "single"] if k > 1 else ["entropy", "single"]))
    live = np.arange(3) < k
    wi, vi = w[i] * live / (w[i] * live).sum(), v[i] * live
    top = max(vi.max(), 1e-300)
    if edge == "mean" and vi.max() > 0.0:
        # the mean is capped at mean / top, just under t - 1e-3
        t = min(float(wi @ vi) / top + 1e-3 + delta, 0.999)
    scale = min(t / float(wi @ vi), 1.0 / top) if wi @ vi > 0.0 else 1.0 / top
    ent = float(wi @ H(vi * scale))
    if edge == "single":
        u = binary_entropy(t) + draw(st.sampled_from([-1e-3, 1e-3]))
    else:
        u = ent + draw(st.sampled_from([-1.0, 1.0])) * (1e-3 + delta)
    # the row must pass the screen when it lies within 1e-12 of both windows
    mean = float(wi @ (vi * scale))
    edge_row = abs(mean - t) <= 1e-3 + 1e-12 and abs(ent - u) <= 1e-3 + 1e-12
    return counts, w, v, t, u, i if edge_row else None, edge


@settings(max_examples=300, deadline=None)
@given(screen_cases())
def test_screen_never_drops_a_row_the_exact_route_keeps(case):
    counts, w, v, t, u, i, edge = case
    finished = [c.copy() for c in (counts, w, v)]
    scans._finish_rows(*finished)
    batch = scans._search_batch(counts, w, v)
    # the batch is the finished rows, reordered
    assert sorted(batch.order) == list(range(counts.size))
    assert_same_bits(batch.w, finished[1][batch.order])
    assert_same_bits(batch.v, finished[2][batch.order])
    rows = scans._screen_candidates(batch, t, u)
    drawn = batch.order[rows]
    assert np.all(np.diff(drawn) > 0)
    if edge == "single":
        assert set(np.flatnonzero(counts == 1)) <= set(drawn)
    elif i is not None:
        assert i in drawn
    want = scans._matching_candidates(finished[1], finished[2], t, u)
    got = scans._matching_candidates(np.take(batch.w, rows, axis=0),
                                     np.take(batch.v, rows, axis=0), t, u)
    for g, o in zip(got, want):
        assert_same_bits(g, o)


SMALL = {
    "union-bound": 3000,
    "product-bound": 3000,
    "threshold": 0,
    "optimum-search": 4000,
    "subset-entropy": 1500,
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_sampled_reports_are_the_oracle(name, seed, blocks, monkeypatch):
    cfg = replace(CHECKS[name].cfg, seed=seed, random_samples=SMALL[name])
    if name == "threshold":
        # threshold samples nothing: its sweep against the oracle's
        cfg = replace(cfg, grid_step=0.05)
        got, want = scans.threshold_exploration(cfg), oracle_threshold(cfg)
    elif name == "optimum-search":
        got = scans.optimum_search_scan(cfg, pairs=8)
        want = oracle_optimum_search(cfg, pairs=8)
        assert got.points_checked > 0
    elif name == "subset-entropy":
        got, want = scans.subset_entropy_scan(cfg), oracle_subset_entropy(cfg)
    else:
        got, want = scans.run_named_scan(name, cfg), oracle_level_scan(name, cfg, blocks)
    assert report_text(got) == report_text(want)
    assert scans.reevaluate_witness(got) == got.min_margin


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("ground_n", [1, 2, 3])
def test_subset_entropy_union_law_at_every_ground_size(ground_n, seed):
    # ground_n = 4, the registry's size, is test_sampled_reports_are_the_oracle's
    cfg = replace(CHECKS["subset-entropy"].cfg, seed=seed,
                  random_samples=SMALL["subset-entropy"])
    got = scans.subset_entropy_scan(cfg, ground_n)
    assert got.points_checked > 0
    assert report_text(got) == report_text(oracle_subset_entropy(cfg, ground_n))


def test_threshold_draws_no_rows(monkeypatch):
    # at its registry config threshold is its two-point sweep over 16 betas
    calls = []
    draw_rows = scans._draw_rows
    monkeypatch.setattr(scans, "_draw_rows",
                        lambda rng, m, kmax: calls.append(m) or draw_rows(rng, m, kmax))
    cfg = CHECKS["threshold"].cfg
    report = scans.threshold_exploration(cfg)
    assert calls == []
    assert cfg.random_samples == report.config["random_samples"] == 0
    assert [r["points"] for r in report.details["rows"]] == [2001] * 16
    assert report.points_checked == 16 * 2001
    assert report_text(report) == report_text(oracle_threshold(cfg))
    # a budget it is given changes nothing, the budget its report records included
    budgeted = scans.threshold_exploration(replace(cfg, random_samples=500))
    assert report_text(budgeted) == report_text(report)


@pytest.mark.parametrize("seed", [42, 7])
def test_bridge_gap_report_is_the_oracle(seed, blocks):
    got = scans.bridge_gap_scan(
        ScanConfig(random_samples=300, seed=seed, tolerance=scans.BRIDGE_TOL))
    want = oracle_bridge_gap(300, seed, scans.BRIDGE_TOL, blocks)
    assert report_text(got) == report_text(want)
