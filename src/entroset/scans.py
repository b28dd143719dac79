"""Every scan engine, and the registry of the sixteen checks they serve.

This module is the verification lab.  It knows four curve families, two
expectation inequalities, the pipeline audits of ``distribution``, and the
set-family checks built on ``setfamily``.  For each it provides a scalar
margin function (the contract) plus a scan that sweeps a grid, a seeded
random sample or an exhaustive enumeration and reports the worst margin
seen.

Curves, all in bits unless noted:

* ``entropy_sq_ratio``        R(x) = H(x^2) / H(x), increasing on (0, 1);
  defined in :mod:`entroset.kernel` and re-exported here
* ``entropy_sq_ratio_scaled`` S(x) = R(x) / x, increasing past the golden
  threshold
* ``composed_rate``           x -> f(a * g(x)), convex for 0 < a < 1
* ``tail_rate``               z -> -(1 - z) ln(1 - z) / z in NATS, decreasing

Expectation inequalities over finite distributions:

* ``union_bound_margin``      pairwise-union entropy vs ``union_ratio(a)``
  = H(2a - a^2)/H(a) times the expected entropy, for means at most
  a <= FREQUENCY_BOUND
* ``product_bound_margin``    pairwise-product entropy vs R(b) times the
  expected entropy, for means at least b >= GOLDEN_THRESHOLD

The subset form (``subset-entropy``) reads R(alpha).  Each constant is
written once, in the kernel, as a scalar and array pair.

The two are images of each other under value complement (w = 1 - v,
b = 1 - a); ``complement_bridge_gap`` measures how closely the two code
paths agree on paired instances.

``CHECKS`` registers all sixteen checks, each once: its group, its default
configuration, how to run it and how to replay its witness.  The replay is
the only scalar statement of a check's margin.  A scan with a vector route
only locates its worst point; it then builds a draft report at that point
and takes the certified ``min_margin`` from its check's replay, so
re-evaluating the witness reproduces it bit for bit.  The vector figure
and the route disagreement are kept in ``details``.

Witness layouts by scan name:

* grid pair scans: ``(x_left, x_right)``
* ``rate-convexity``: ``(x_left, x_mid, x_right)`` with alpha in config
* ``tail-rate`` pointwise check: ``(z,)``
* ``union-bound`` / ``product-bound`` / ``threshold`` / ``bridge-gap``:
  ``(param, weights, values)``
* ``merge-properties``: ``(p1, x1, p2, x2)``
* ``reduction``: ``(weights, values)``
* ``optimum-search``: ``(t, u, weights, values)``
* ``kernel-roundtrip`` / ``golden-anchor``: tagged tuples
* ``subset-entropy``: ``(alpha, probabilities, masks)``
* ``family-sweep``: ``(family_code, max_count, family_size)``
* ``entropy-bridge``: ``(ground_n, family_code)``
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .distribution import (
    FiniteDistribution,
    joint_entropy_optimum,
    random_distribution,
    reduce_steps,
    scaled_entropy_margin,
    squared_merge_margin,
)
from .kernel import (
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    KERNEL_TOL,
    DomainError,
    as_prob,
    binary_entropy,
    binary_entropy_arr,
    entropy_of_square,
    entropy_of_square_arr,
    entropy_rate,
    entropy_rate_arr,
    entropy_sq_ratio,
    entropy_sq_ratio_arr,
    inverse_entropy_rate,
    inverse_entropy_rate_arr,
    union_ratio,
    union_ratio_arr,
)
from .report import PreconditionError, ScanConfig, ScanReport, make_report
from .setfamily import (
    MAX_ENUM_GROUND,
    SetFamily,
    SetFamilyError,
    SubsetDistribution,
    enumerate_union_closed,
    family_census,
    family_code,
    family_from_code,
    frequency_bound_margin,
    union_distribution,
    union_entropy_margin,
)

__all__ = [
    "entropy_sq_ratio",
    "entropy_sq_ratio_scaled",
    "entropy_sq_ratio_arr",
    "entropy_sq_ratio_scaled_arr",
    "tail_rate",
    "tail_rate_arr",
    "composed_rate",
    "composed_rate_slope",
    "union_bound_margin",
    "product_bound_margin",
    "complement_bridge_gap",
    "BoundChain",
    "product_bound_chain",
    "merge_quadruple_margin",
    "reduction_consistency_margin",
    "optimum_candidate_margin",
    "scan_sq_ratio",
    "scan_sq_ratio_scaled",
    "scan_rate_convexity",
    "scan_tail_rate",
    "level_scans",
    "bridge_gap_scan",
    "threshold_exploration",
    "merge_property_scan",
    "reduction_consistency_scan",
    "optimum_search_scan",
    "kernel_roundtrip_scan",
    "golden_anchor_check",
    "subset_entropy_scan",
    "family_sweep_scan",
    "uniform_bridge_scan",
    "reevaluate_witness",
    "run_named_scan",
    "run_named_scans",
    "Check",
    "CHECKS",
    "SCAN_NAMES",
]

#: Rows per batch of the level stream (:func:`_draw_levels`).  Its RNG
#: calls are made batch by batch, in a fixed order and with fixed shapes,
#: so this size is part of the byte-stability of every report that reads
#: the stream.  optimum-search draws all its rows in one batch instead,
#: and subset-entropy in batches of its own.
_BATCH = 65536

#: Rows per block when an engine works through a drawn batch, so that the
#: temporaries of each step stay in cache.  Every row is computed on its
#: own, so the block size changes no result.
_ROWS = 4096

#: Margins per block of a curve scan (:func:`_grid_min`), so that the
#: curve's values, differences and kernel temporaries exist for one block
#: at a time, about 128 KiB each.  Every margin is computed on its own, so
#: the block size changes no result.
_GRID_BLOCK = 16384

#: Shared z-grid for the scaled-merge margin family.
_Z_GRID = tuple(i / 20.0 for i in range(21))

#: Mean-conservation bound for a single merge (should be exact in practice).
MERGE_CONSERVATION_TOL = 1e-10

#: Merged weight may exceed the input weight sum by at most this much.
MERGE_WEIGHT_TOL = 1e-12

#: Drift bounds for a full reduction pipeline.
REDUCTION_DRIFT_TOL = 1e-8

#: Final reduced atom vs the closed-form certificate.
REDUCTION_CERT_TOL = 1e-7

#: Paired complement instances must agree on their margins this closely.
BRIDGE_TOL = 1e-12


# ----------------------------------------------------------------------
# curve families
# ----------------------------------------------------------------------

def entropy_sq_ratio_scaled(x: float) -> float:
    """S(x) = H(x^2) / (x H(x)) with limits S(0) = S(1) = 2.

    Increasing on [GOLDEN_THRESHOLD, 1]; S at the golden threshold is
    (sqrt(5) + 1) / 2.
    """
    x = as_prob(x)
    if x == 0.0:
        return 2.0
    return entropy_sq_ratio(x) / x


def entropy_sq_ratio_scaled_arr(x: np.ndarray) -> np.ndarray:
    """Vector mirror of :func:`entropy_sq_ratio_scaled`."""
    x = np.asarray(x, dtype=float)
    ratio = entropy_sq_ratio_arr(x)
    out = np.where(x > 0.0, ratio / np.where(x > 0.0, x, 1.0), 2.0)
    return out


def tail_rate(z: float) -> float:
    """m(z) = -(1 - z) ln(1 - z) / z in nats, with m(0) = 1 and m(1) = 0.

    Strictly decreasing on [0, 1]; m(1/2) = ln 2 exactly in floats.
    """
    z = as_prob(z, "z")
    if z == 0.0:
        return 1.0
    if z == 1.0:
        return 0.0
    return -(1.0 - z) * math.log1p(-z) / z


def tail_rate_arr(z: np.ndarray) -> np.ndarray:
    """Vector mirror of :func:`tail_rate`."""
    z = np.asarray(z, dtype=float)
    safe = np.where((z > 0.0) & (z < 1.0), z, 0.5)
    core = -(1.0 - safe) * np.log1p(-safe) / safe
    return np.where(z == 0.0, 1.0, np.where(z == 1.0, 0.0, core))


def _rate_alpha(alpha: float) -> float:
    """``alpha`` as a float, checked to lie strictly inside (0, 1)."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return alpha


def composed_rate(alpha: float, x: float) -> float:
    """The map x -> f(alpha * g(x)): rescale the rate's preimage by alpha.

    Defined for 0 < alpha < 1 and x >= 0.  Convex and increasing in x, and
    asymptotically affine with unit slope as x grows.
    """
    return entropy_rate(_rate_alpha(alpha) * inverse_entropy_rate(x))


def composed_rate_slope(alpha: float, x: float) -> float:
    """Closed-form derivative of :func:`composed_rate` in x.

    Writing s = g(x), the chain rule collapses to
    log(1 - alpha s) / (alpha log(1 - s)); the log base cancels.
    """
    alpha = _rate_alpha(alpha)
    s = inverse_entropy_rate(x)
    if s == 1.0:
        return 0.0
    return math.log1p(-alpha * s) / (alpha * math.log1p(-s))


def _composed_rate_arr(alpha: float, x: np.ndarray) -> np.ndarray:
    return entropy_rate_arr(alpha * inverse_entropy_rate_arr(x))


# ----------------------------------------------------------------------
# expectation inequalities (scalar contracts)
# ----------------------------------------------------------------------

def _pair_union(a: float, b: float) -> float:
    v = a + b - a * b
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


def union_bound_margin(d: FiniteDistribution, alpha: float) -> float:
    """Margin of the pairwise-union entropy bound at level ``alpha``.

    For mean(d) <= alpha <= FREQUENCY_BOUND, the expected entropy of
    independent pairwise unions dominates ``union_ratio(alpha)`` =
    H(2 alpha - alpha^2) / H(alpha) times the expected entropy.  Returns
    left side minus right side; nonnegative means the bound holds.

    Raises :class:`PreconditionError` when (d, alpha) violates the
    hypothesis, since a margin computed there certifies nothing.
    """
    alpha = as_prob(alpha, "alpha")
    if not (0.0 < alpha <= FREQUENCY_BOUND + 1e-15):
        raise PreconditionError(
            f"alpha must lie in (0, {FREQUENCY_BOUND}], got {alpha!r}"
        )
    mean = d.mean()
    if mean > alpha + 1e-12:
        raise PreconditionError(
            f"mean {mean!r} exceeds alpha {alpha!r}; the bound needs mean <= alpha"
        )
    return d.expected_pair_entropy(_pair_union) - union_ratio(alpha) * d.expected_entropy()


def product_bound_margin(
    d: FiniteDistribution, beta: float, enforce_threshold: bool = True
) -> float:
    """Margin of the pairwise-product entropy bound at level ``beta``.

    For mean(d) >= beta >= GOLDEN_THRESHOLD, the expected joint entropy
    dominates R(beta) = H(beta^2) / H(beta) times the expected entropy.
    Returns left side minus right side.

    ``enforce_threshold=False`` drops both hypothesis checks so the same
    margin can be explored below the golden threshold, where it does fail.
    """
    beta = as_prob(beta, "beta")
    if beta == 1.0:
        raise PreconditionError("beta must be strictly below 1")
    if enforce_threshold:
        if beta < GOLDEN_THRESHOLD - 1e-15:
            raise PreconditionError(
                f"beta must be at least {GOLDEN_THRESHOLD}, got {beta!r}"
            )
        mean = d.mean()
        if mean < beta - 1e-12:
            raise PreconditionError(
                f"mean {mean!r} is below beta {beta!r}; the bound needs mean >= beta"
            )
    elif beta == 0.0:
        raise PreconditionError("beta must be positive")
    return d.expected_joint_entropy() - entropy_sq_ratio(beta) * d.expected_entropy()


def complement_bridge_gap(d: FiniteDistribution, beta: float) -> float:
    """Disagreement between the product and union margins on complements.

    ``d`` holds the product-side values w with mean(d) >= beta; the union
    side sees values 1 - w at level 1 - beta.  The two margins are equal
    in exact arithmetic; the return value is their absolute float gap.
    """
    pm = product_bound_margin(d, beta)
    comp = FiniteDistribution((w, 1.0 - v) for w, v in d.atoms)
    um = union_bound_margin(comp, 1.0 - beta)
    return abs(pm - um)


@dataclass(frozen=True)
class BoundChain:
    """Step-by-step decomposition of the product bound's proof route.

    The route: joint >= closed-form optimum = t u S(v) >= t u S(t)
    = u R(t) >= u R(beta) = bound.  Each ``step_*`` field is one link's
    margin; ``identity_residual`` is the float error in rewriting the
    optimum as t u S(v), which vanishes in exact arithmetic.
    """

    t: float
    u: float
    v: float
    joint: float
    optimum: float
    step_optimum: float
    step_scaled: float
    step_golden: float
    identity_residual: float
    margin: float


def product_bound_chain(d: FiniteDistribution, beta: float) -> BoundChain:
    """Decompose :func:`product_bound_margin` into its three proof steps.

    Every step margin should clear -1e-9 on valid inputs, and the steps
    plus the identity residual recompose the total margin.  The hypothesis
    checks and ``margin`` are those of :func:`product_bound_margin`.
    """
    margin = product_bound_margin(d, beta)
    t = d.mean()
    u = d.expected_entropy()
    joint = d.expected_joint_entropy()
    v = inverse_entropy_rate(u / t) if u > 0.0 else 1.0
    if v < t:
        v = t
    optimum = t * t * entropy_of_square(v) / (v * v)
    s_v = entropy_sq_ratio_scaled(v)
    s_t = entropy_sq_ratio_scaled(t)
    r_t = entropy_sq_ratio(t)
    r_beta = entropy_sq_ratio(beta)
    return BoundChain(
        t=t,
        u=u,
        v=v,
        joint=joint,
        optimum=optimum,
        step_optimum=joint - optimum,
        step_scaled=t * u * (s_v - s_t),
        step_golden=u * (r_t - r_beta),
        identity_residual=optimum - t * u * s_v,
        margin=margin,
    )


# ----------------------------------------------------------------------
# scalar margins for the pipeline consistency engines
# ----------------------------------------------------------------------

def merge_quadruple_margin(p1: float, x1: float, p2: float, x2: float) -> float:
    """Worst inequality margin for one merge: scaled family plus squares.

    Minimum over the shared z-grid of the scaled-entropy margin, together
    with the squared-merge margin.  Conservation residuals are checked
    separately; this function is only the inequality side.
    """
    worst = squared_merge_margin(p1, x1, p2, x2)
    for z in _Z_GRID:
        m = scaled_entropy_margin(p1, x1, p2, x2, z)
        if m < worst:
            worst = m
    return worst


def reduction_consistency_margin(d: FiniteDistribution) -> float:
    """Worst margin across every reduction consistency check for ``d``.

    Families folded into the minimum: mean and expected-entropy drift
    (bound REDUCTION_DRIFT_TOL), per-step monotonicity of the expected
    joint entropy (same bound), and the final atom against the
    closed-form certificate (bound REDUCTION_CERT_TOL).
    """
    t = d.mean()
    u = d.expected_entropy()
    worst = math.inf
    prev_joint = d.expected_joint_entropy()
    final = d
    for step in reduce_steps(d):
        j = step.expected_joint_entropy()
        worst = min(worst, REDUCTION_DRIFT_TOL - (j - prev_joint))
        prev_joint = j
        final = step
    worst = min(worst, REDUCTION_DRIFT_TOL - abs(final.mean() - t))
    worst = min(worst, REDUCTION_DRIFT_TOL - abs(final.expected_entropy() - u))
    if 0.0 < t < 1.0 and u > 0.0:
        cert = joint_entropy_optimum(t, min(u, binary_entropy(t)))
        nz = final.nonzero_atoms()
        if len(nz) == 1:
            (w, y) = nz[0]
            worst = min(worst, REDUCTION_CERT_TOL - abs(y - cert.v))
            worst = min(worst, REDUCTION_CERT_TOL - abs(w - cert.t / cert.v))
        worst = min(
            worst,
            REDUCTION_CERT_TOL - abs(final.expected_joint_entropy() - cert.optimum),
        )
    return worst


def optimum_candidate_margin(
    t: float, u: float, weights: tuple, values: tuple
) -> float:
    """Candidate joint entropy minus (optimum - 1e-4) for the search scan.

    The optimum is evaluated at the candidate's OWN mean and expected
    entropy, which is the certificate's actual claim.  Comparing against
    the optimum at the search pair (t, u) instead is falsifiable: the
    optimum moves by up to ~1e-3 across the matching box, an order beyond
    the 1e-4 slack.  (t, u) are kept to locate the witness in its search.
    """
    cand = FiniteDistribution(zip(weights, values))
    cert = joint_entropy_optimum(cand.mean(), cand.expected_entropy())
    return cand.expected_joint_entropy() - (cert.optimum - 1e-4)


# ----------------------------------------------------------------------
# shared scan plumbing
# ----------------------------------------------------------------------

def _config_dict(cfg: ScanConfig, **extra) -> dict:
    doc = {
        "grid_step": cfg.grid_step,
        "random_samples": cfg.random_samples,
        "seed": cfg.seed,
        "range_lo": cfg.range_lo,
        "range_hi": cfg.range_hi,
    }
    doc.update(extra)
    return doc


def _grid(cfg: ScanConfig) -> np.ndarray:
    return np.linspace(cfg.range_lo, cfg.range_hi, cfg.grid_points())


def _certified(
    name: str,
    points: int,
    vector_min: float,
    witness: tuple,
    tolerance: float,
    config: dict,
    details: dict,
) -> ScanReport:
    """The report of a scan whose vector route found ``witness``.

    A draft report at the vector minimum goes through the check's registry
    replay, and the scalar margin that comes back is the reported
    ``min_margin``.  The vector figure and the gap between the routes are
    added to ``details``.  A scan that kept no point has no witness, and
    reports its vector figure as it is.
    """
    certified, gap = vector_min, 0.0
    if witness:
        draft = make_report(name, points, vector_min, witness, tolerance,
                            config=config, details=details)
        certified = CHECKS[name].replay(draft)
        gap = abs(certified - vector_min)
    details["vector_min_margin"] = vector_min
    details["route_gap"] = gap
    return make_report(name, points, certified, witness, tolerance,
                       config=config, details=details)


@dataclass(frozen=True)
class _Consumer:
    """One reader of a sampled stream in :func:`_worst_rows`.

    It keeps ``needed`` rows.  ``select(*batch)`` gives ``(rows, level)``:
    the indices in a drawn batch of the rows it keeps, in the order drawn,
    and a level for each.  ``margins(batch, rows, level)`` gives the margin
    of each kept row, read straight from the batch, so no row is copied
    before its margin needs it.
    """

    needed: int
    margins: Callable[..., np.ndarray]
    select: Callable[..., tuple]


def _worst_rows(
    draw: Callable[[], tuple], consumers: list[_Consumer]
) -> list[tuple[float, tuple, int, int]]:
    """Rejection-sample rows for each consumer until it has kept its
    ``needed``, tracking the worst.

    ``draw()`` returns one batch as ``(drawn, *batch)``: the number of rows
    drawn, then the batch's columns.  Each batch is drawn once and read by
    every consumer still short of rows, so consumers of one stream share
    its draws: union-bound and product-bound read the level stream of
    :func:`_draw_levels` this way.  A consumer that has its rows reads no
    more batches, and its figures are those it would have alone.

    Returns ``(best, row, checked, drawn)`` per consumer: the least margin,
    that row's entry in each of the batch's columns, then its level (``()``
    when nothing was kept), the rows checked and the rows drawn while it
    read.  Ties go to the row drawn first.
    """
    # per consumer: best, row, checked, drawn
    tallies = [[math.inf, (), 0, 0] for _ in consumers]
    while True:
        reading = [(c, t) for c, t in zip(consumers, tallies) if t[2] < c.needed]
        if not reading:
            return [tuple(t) for t in tallies]
        batch_drawn, *batch = draw()
        for c, t in reading:
            t[3] += batch_drawn
            _read_batch(c, t, batch)
        # dropped before the next draw, so one batch is alive at a time
        del batch


def _read_batch(c: _Consumer, tally: list, batch: list) -> None:
    """Update a consumer's ``[best, row, checked, drawn]`` tally with the
    rows it keeps of one batch.  What it selected goes when this returns,
    before the next consumer selects its own."""
    rows, level = c.select(*batch)
    take = min(rows.size, c.needed - tally[2])
    if not take:
        return
    rows, level = rows[:take], level[:take]
    m = c.margins(batch, rows, level)
    i = int(np.argmin(m))
    if float(m[i]) < tally[0]:
        tally[0] = float(m[i])
        # copies: a view would keep the batch alive
        tally[1] = (*(col[rows[i]].copy() for col in batch), level[i].copy())
    tally[2] += take


# ----------------------------------------------------------------------
# grid scans
# ----------------------------------------------------------------------

def _grid_min(
    name: str, xs: np.ndarray, margins: Callable[[np.ndarray], np.ndarray],
    span: int = 0,
) -> tuple[float, int]:
    """The least margin over the grid ``xs``, and the first index where it
    occurs.

    ``margins(x)`` maps a run of consecutive grid points to the margin at
    each of its first ``len(x) - span`` points: a pointwise margin for
    ``span`` 0, one on each point and its right neighbour for 1, one on
    each point and the two after it for 2.  The grid is read
    ``_GRID_BLOCK`` margins at a time, each block of points overlapping the
    next by ``span``, so the curve's values and temporaries exist for one
    block at a time; the grid itself is the caller's one array, where the
    witness is read.  Each margin comes out as over the whole grid, and
    ties go to the first index, as ``np.argmin`` does.

    A grid of ``span`` points or fewer has no margin, and raises ValueError
    naming the check ``name``.
    """
    n = xs.size - span
    if n < 1:
        raise ValueError(
            f"{name} needs a grid of at least {span + 1} points, got {xs.size}; "
            "take a smaller grid step"
        )
    mins, firsts = [], []
    for lo in range(0, n, _GRID_BLOCK):
        m = margins(xs[lo:min(lo + _GRID_BLOCK, n) + span])
        i = int(np.argmin(m))
        mins.append(m[i])
        firsts.append(lo + i)
    # the first block holding the least margin holds its first index
    k = int(np.argmin(mins))
    return float(mins[k]), firsts[k]


def _pair_scan(name: str, cfg: ScanConfig, curve_arr) -> ScanReport:
    """Worst increase of ``curve_arr`` between consecutive grid points,
    found block by block (:func:`_grid_min`)."""
    def rises(x: np.ndarray) -> np.ndarray:
        vals = curve_arr(x)
        return vals[1:] - vals[:-1]

    xs = _grid(cfg)
    worst, i = _grid_min(name, xs, rises, span=1)
    return _certified(
        name, xs.size, worst, (float(xs[i]), float(xs[i + 1])),
        cfg.tolerance, _config_dict(cfg), {},
    )


def scan_sq_ratio(cfg: ScanConfig) -> ScanReport:
    """Check that R(x) = H(x^2)/H(x) increases across the grid.

    Holds the grid (8 bytes a point) and one block of curve values.
    """
    return _pair_scan("sq-ratio", cfg, entropy_sq_ratio_arr)


def scan_sq_ratio_scaled(cfg: ScanConfig) -> ScanReport:
    """Check that S(x) = H(x^2)/(x H(x)) increases past the golden threshold.

    Holds the grid (8 bytes a point) and one block of curve values.
    """
    if cfg.range_lo < GOLDEN_THRESHOLD - 1e-12:
        raise PreconditionError(
            "the scaled ratio is only monotone from the golden threshold up"
        )
    return _pair_scan("sq-ratio-scaled", cfg, entropy_sq_ratio_scaled_arr)


def scan_rate_convexity(alpha: float, cfg: ScanConfig) -> ScanReport:
    """Check convexity of x -> f(alpha g(x)) by second central differences.

    The differences are found block by block (:func:`_grid_min`), so the
    scan holds the grid (8 bytes a point) and one block of rate values.
    """
    alpha = _rate_alpha(alpha)
    if cfg.range_lo <= 0.0:
        raise PreconditionError("the convexity grid must stay strictly positive")

    def bends(x: np.ndarray) -> np.ndarray:
        vals = _composed_rate_arr(alpha, x)
        return vals[:-2] - 2.0 * vals[1:-1] + vals[2:]

    xs = _grid(cfg)
    worst, i = _grid_min("rate-convexity", xs, bends, span=2)
    witness = (float(xs[i]), float(xs[i + 1]), float(xs[i + 2]))
    return _certified(
        "rate-convexity", xs.size, worst, witness, cfg.tolerance,
        _config_dict(cfg, alpha=alpha), {},
    )


def scan_tail_rate(cfg: ScanConfig) -> ScanReport:
    """Check that the nats tail rate decreases, plus ln(1-z) <= -z pointwise.

    Both minima are found block by block (:func:`_grid_min`), so the scan
    holds the grid (8 bytes a point) and one block of margins.
    """
    def falls(z: np.ndarray) -> np.ndarray:
        vals = tail_rate_arr(z)
        return vals[:-1] - vals[1:]

    zs = _grid(cfg)
    pair_min, i = _grid_min("tail-rate", zs, falls, span=1)
    point_min, j = _grid_min(
        "tail-rate", zs, lambda z: -z - np.log1p(-np.minimum(z, 1.0 - 1e-16))
    )
    if pair_min <= point_min:
        witness: tuple = (float(zs[i]), float(zs[i + 1]))
        vector_min = pair_min
    else:
        witness = (float(zs[j]),)
        vector_min = point_min
    details = {
        "min_pair_margin": pair_min,
        "min_pointwise_margin": point_min,
    }
    return _certified(
        "tail-rate", zs.size, vector_min, witness, cfg.tolerance,
        _config_dict(cfg), details,
    )


# ----------------------------------------------------------------------
# randomized expectation scans
# ----------------------------------------------------------------------

def _draw_rows(rng: np.random.Generator, m: int, kmax: int):
    """The raw rows of m random distributions of 1 to kmax atoms:
    ``(counts, weights, values)``, with kmax weights and values per row.

    The three RNG calls are made each for the whole batch and in this
    order: counts, exponential weights, uniform values.  That order and
    those shapes are part of every sampled report's byte-stability.
    """
    counts = rng.integers(1, kmax + 1, size=m)
    weights = rng.exponential(size=(m, kmax))
    values = rng.random(size=(m, kmax))
    return counts, weights, values


def _finish_rows(counts, w, v) -> np.ndarray:
    """Zero the padded atoms of raw rows and normalize their weights, in
    place and in row blocks; returns each row's mean.

    The weight sums are column-wise adds, the same bits as
    ``sum(axis=1)``, which adds in order below 8 columns.  Every row is
    finished on its own, so finishing some rows of a batch gives them the
    bits they get when the whole batch is finished.
    """
    kmax = w.shape[1]
    # row k of the table is the live-atom mask, as 0/1, of a k-atom row
    table = (np.arange(kmax) < np.arange(kmax + 1)[:, None]).astype(float)
    means = np.empty(counts.size)
    for b in _row_blocks(counts.size):
        wb = w[b]
        vb = v[b]
        live = np.take(table, counts[b], axis=0)
        wb *= live
        vb *= live
        wb /= _column_sum(wb)[:, None]
        means[b] = np.einsum("ij,ij->i", wb, vb)
    return means


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most ``_ROWS`` rows that cover ``range(n)``; one empty
    slice when n = 0, so that the columns kept from it are empty but keep
    their shapes."""
    return [slice(i, i + _ROWS) for i in range(0, max(n, 1), _ROWS)]


def _column_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, adding its columns from left to right."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _column_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array, column by column."""
    top = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


def _witness_atoms(w: np.ndarray, v: np.ndarray) -> tuple[tuple, tuple]:
    keep = w > 0.0
    return (
        tuple(float(x) for x in w[keep]),
        tuple(float(x) for x in v[keep]),
    )


def _draw_levels(rng: np.random.Generator):
    """The level stream, as a ``draw`` for :func:`_worst_rows`: batches of
    ``(counts, w, v, mean, u)``, with one uniform draw u per row, for
    distributions of 1 to 6 atoms.

    union-bound, product-bound and bridge-gap read this one stream.  Each
    maps the shared u, given the row's mean, to a level of its own
    (:func:`_level_select`), so at equal seeds one pass of
    :func:`_worst_rows` serves several: verify-all draws each batch once
    for union-bound and product-bound.  A sampler that changes this stream
    must keep one shared u per row, or drop the sharing on purpose.

    Per batch the RNG calls are those of :func:`_draw_rows` for ``_BATCH``
    rows of up to six atoms, then one uniform u per row.
    """

    def draw():
        counts, w, v = _draw_rows(rng, _BATCH, 6)
        mean = _finish_rows(counts, w, v)
        return _BATCH, counts, w, v, mean, rng.random(size=_BATCH)

    return draw


def _level_select(lo: float, hi: float, below: bool):
    """A consumer's ``select`` on the level stream: ``(rows, level)``, the
    indices of the rows, in the order drawn, whose mean is at most their
    level, taken from (lo, hi] (``below``), or at least their level, taken
    from [lo, hi), and those levels.

    Each row's level is drawn given its mean, from the part of the range
    the mean allows: with m the mean clipped to [lo, hi], the union side
    takes hi - (hi - m) u and the product side lo + (m - lo) u, from the
    row's shared u.  So a row is kept whenever some level in the range
    admits it, and its level is uniform over those that do.  A level that
    rounds onto the open end is moved one float inside.
    """

    def select(counts, w, v, mean, u):
        m = np.clip(mean, lo, hi)
        if below:
            level = np.maximum(hi - (hi - m) * u, np.nextafter(lo, hi))
            keep = np.flatnonzero(mean <= level)
        else:
            level = np.minimum(lo + (m - lo) * u, np.nextafter(hi, lo))
            keep = np.flatnonzero(mean >= level)
        return keep, np.take(level, keep)

    return select


def _union_pairs(v: np.ndarray) -> np.ndarray:
    a = v[:, :, None]
    b = v[:, None, :]
    return np.clip(a + b - a * b, 0.0, 1.0)


def _product_pairs(v: np.ndarray) -> np.ndarray:
    return v[:, :, None] * v[:, None, :]


def _pair_margins(batch, rows, ratio, pairs) -> np.ndarray:
    """``lhs - ratio * u`` per kept row of a level-stream batch, where u is
    the expected entropy and lhs the expected entropy of ``pairs(v)`` over
    two independent draws.

    The kept rows ``rows`` are grouped by their atom count k, and each
    group is gathered from the batch once, as its k live columns, to build
    its k x k pair matrix.  A padded atom has weight zero, so over the
    padded columns it adds only exact zeros, in the same order: the result
    is the bits of the padded computation.
    """
    counts, w, v, *_ = batch
    kept_counts = np.take(counts, rows)
    out = np.empty(rows.size)
    for k in range(1, w.shape[1] + 1):
        at = np.flatnonzero(kept_counts == k)
        if at.size:
            src = np.take(rows, at)
            wk = w[src, :k]
            vk = v[src, :k]
            u = np.einsum("ij,ij->i", wk, binary_entropy_arr(vk))
            lhs = np.einsum("ni,nj,nij->n", wk, wk, binary_entropy_arr(pairs(vk)))
            out[at] = lhs - np.take(ratio, at) * u
    return out


def _union_margins_arr(batch, rows, alpha) -> np.ndarray:
    return _pair_margins(batch, rows, union_ratio_arr(alpha), _union_pairs)


def _product_margins_arr(batch, rows, beta) -> np.ndarray:
    return _pair_margins(batch, rows, entropy_sq_ratio_arr(beta), _product_pairs)


def _level_witness(row: tuple) -> tuple:
    """``(level, weights, values)`` of a kept level-stream row, as
    :func:`_worst_rows` returns it, and ``()`` for the empty row of a scan
    that kept none."""
    if not row:
        return ()
    _, w, v, _, _, level = row
    return (float(level), *_witness_atoms(w, v))


def _union_consumer(cfg: ScanConfig) -> _Consumer:
    if not (0.0 <= cfg.range_lo < cfg.range_hi <= FREQUENCY_BOUND + 1e-15):
        raise PreconditionError(
            f"alpha range must sit inside (0, {FREQUENCY_BOUND}]"
        )
    select = _level_select(cfg.range_lo, cfg.range_hi, below=True)
    return _Consumer(cfg.random_samples, _union_margins_arr, select)


def _product_consumer(cfg: ScanConfig) -> _Consumer:
    if not (GOLDEN_THRESHOLD - 1e-15 <= cfg.range_lo < cfg.range_hi <= 1.0):
        raise PreconditionError(
            f"beta range must sit inside [{GOLDEN_THRESHOLD}, 1)"
        )
    select = _level_select(cfg.range_lo, cfg.range_hi, below=False)
    return _Consumer(cfg.random_samples, _product_margins_arr, select)


#: The checks that read the level stream, each with its consumer.
_LEVEL_CHECKS = {"union-bound": _union_consumer, "product-bound": _product_consumer}


def level_scans(runs: list[tuple[str, ScanConfig]]) -> list[ScanReport]:
    """The reports of level checks that read one level stream.

    ``runs`` lists ``(name, cfg)`` pairs of union-bound and product-bound
    with one seed.  One pass draws each batch once for all of them; every
    report is the one its check makes alone, byte for byte.
    """
    if len({cfg.seed for _, cfg in runs}) != 1:
        raise ValueError("the level checks share a stream only at one seed")
    consumers = [_LEVEL_CHECKS[name](cfg) for name, cfg in runs]
    rng = np.random.default_rng(runs[0][1].seed)
    tallies = _worst_rows(_draw_levels(rng), consumers)
    return [
        _certified(name, checked, best, _level_witness(row), cfg.tolerance,
                   _config_dict(cfg), {"raw_draws": drawn})
        for (name, cfg), (best, row, checked, drawn) in zip(runs, tallies)
    ]


def _bridge_margin(bound: float, witness: tuple) -> float:
    """``bound`` minus the complement gap at a ``(beta, weights, values)`` witness."""
    return bound - complement_bridge_gap(*_at_level(witness))


def bridge_gap_scan(cfg: ScanConfig) -> ScanReport:
    """Check the complement bridge on paired random instances.

    Margin convention: ``cfg.tolerance`` minus the gap per pair, so the
    report passes at tolerance zero iff every pair agrees within it.  Every
    pair goes through the scalar route; there is no vector route to certify.
    """
    rng = np.random.default_rng(cfg.seed)

    def margins(batch, rows, level):
        _, w, v, *_ = batch
        return np.array([_bridge_margin(cfg.tolerance, (float(b), *_witness_atoms(w[r], v[r])))
                         for r, b in zip(rows, level)])

    select = _level_select(GOLDEN_THRESHOLD, 1.0, below=False)
    [(best, row, checked, drawn)] = _worst_rows(
        _draw_levels(rng), [_Consumer(cfg.random_samples, margins, select)]
    )
    return make_report(
        "bridge-gap", checked, best, _level_witness(row), 0.0,
        config={"random_samples": cfg.random_samples, "seed": cfg.seed},
        details={"bound": cfg.tolerance, "raw_draws": drawn},
    )


def _threshold_margin(witness: tuple) -> float:
    """Product-bound margin at a ``(beta, weights, values)`` witness, below
    the golden threshold too."""
    return product_bound_margin(*_at_level(witness), enforce_threshold=False)


def threshold_exploration(cfg: ScanConfig) -> ScanReport:
    """Map the product bound's margin across a band of thresholds.

    For each beta on the grid this sweeps the two-point family
    {(beta/v, v), (1 - beta/v, 0)} over 2,001 values v in [beta, 1) and
    records the worst margin per beta WITHOUT enforcing the golden
    threshold; the minimiser is the row's witness.  No other distribution
    can fail where the family does not: the family's margin at v is
    (beta/v) beta H(v) [S(v) - S(beta)], and one with mean t >= beta and
    expected entropy u has margin >= beta u [S(v) - S(beta)] at
    v = max(rate^-1(u / t), t), by the optimum certificate
    (:func:`product_bound_chain`).  Nothing is drawn, so the report's
    config records ``random_samples`` 0 whatever ``cfg`` holds.

    Exploratory: the report always passes; negative margins below the
    threshold are the interesting output, not a failure.
    """
    rows = []
    global_best = math.inf
    global_witness: tuple = ()
    for beta in (float(b) for b in _grid(cfg)):
        ratio = entropy_sq_ratio(beta)
        vs = np.linspace(beta, 1.0 - 1e-6, 2001)
        q = beta / vs
        two_point = q * q * entropy_of_square_arr(vs) - ratio * q * binary_entropy_arr(vs)
        vstar = float(vs[int(np.argmin(two_point))])
        qstar = beta / vstar
        row_witness: tuple = (
            beta,
            (qstar, 1.0 - qstar) if qstar < 1.0 else (1.0,),
            (vstar, 0.0) if qstar < 1.0 else (vstar,),
        )
        certified = _threshold_margin(row_witness)
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
        cfg.tolerance, config=_config_dict(cfg, random_samples=0), details={"rows": rows},
    )
    # exploration never fails: the negative margins below the golden
    # threshold are its findings, not defects
    return replace(report, passed=True)


# ----------------------------------------------------------------------
# pipeline consistency engines
# ----------------------------------------------------------------------

def merge_property_scan(cfg: ScanConfig) -> ScanReport:
    """Randomized audit of one merge step: conservation plus both margins.

    Draws quadruples (p1, x1, p2, x2), recomputes the merge vectorized,
    and checks mean and entropy conservation, the weight cap, the scaled
    inequality on the shared z-grid, and the squared inequality.  The
    reported min_margin covers the two inequality families; conservation
    residuals live in details with their own fixed bounds and fold into
    the verdict.
    """
    n = cfg.random_samples
    rng = np.random.default_rng(cfg.seed)
    p1 = 0.5 * (1.0 - rng.random(size=n))
    p2 = 0.5 * (1.0 - rng.random(size=n))
    x1 = rng.uniform(1e-12, 1.0, size=n)
    x2 = rng.uniform(1e-12, 1.0, size=n)
    ent = p1 * binary_entropy_arr(x1) + p2 * binary_entropy_arr(x2)
    load = p1 * x1 + p2 * x2
    y = inverse_entropy_rate_arr(ent / load)
    q = load / y
    cons_mean = np.abs(q * y - load)
    cons_ent = np.abs(q * binary_entropy_arr(y) - ent)
    weight_excess = q - (p1 + p2)
    sq = (
        p1 * p1 * entropy_of_square_arr(x1)
        + 2.0 * p1 * p2 * binary_entropy_arr(x1 * x2)
        + p2 * p2 * entropy_of_square_arr(x2)
        - q * q * entropy_of_square_arr(y)
    )
    worst = sq.copy()
    for z in _Z_GRID:
        m = (
            p1 * binary_entropy_arr(z * x1)
            + p2 * binary_entropy_arr(z * x2)
            - q * binary_entropy_arr(z * y)
        )
        np.minimum(worst, m, out=worst)
    vector_min, witness = math.inf, ()
    if n > 0:
        i = int(np.argmin(worst))
        vector_min = float(worst[i])
        witness = (float(p1[i]), float(x1[i]), float(p2[i]), float(x2[i]))
    details = {
        "max_mean_residual": float(cons_mean.max(initial=0.0)),
        "max_entropy_residual": float(cons_ent.max(initial=0.0)),
        "max_weight_excess": float(weight_excess.max(initial=-math.inf)),
        "mean_residual_bound": MERGE_CONSERVATION_TOL,
        "weight_excess_bound": MERGE_WEIGHT_TOL,
    }
    report = _certified(
        "merge-properties", n, vector_min, witness, cfg.tolerance,
        _config_dict(cfg), details,
    )
    ok = (
        report.passed
        and details["max_mean_residual"] <= MERGE_CONSERVATION_TOL
        and details["max_entropy_residual"] <= MERGE_CONSERVATION_TOL
        and details["max_weight_excess"] <= MERGE_WEIGHT_TOL
    )
    return replace(report, passed=ok)


def reduction_consistency_scan(cfg: ScanConfig) -> ScanReport:
    """Run full reductions on random distributions and audit every step."""
    rng = np.random.default_rng(cfg.seed)
    best = math.inf
    best_witness: tuple = ()
    for _ in range(cfg.random_samples):
        k = int(rng.integers(2, 21))
        d = random_distribution(rng, n_atoms=k)
        m = reduction_consistency_margin(d)
        if m < best:
            best = m
            best_witness = (
                tuple(w for w, _ in d.atoms),
                tuple(v for _, v in d.atoms),
            )
    details = {
        "drift_bound": REDUCTION_DRIFT_TOL,
        "certificate_bound": REDUCTION_CERT_TOL,
    }
    return make_report(
        "reduction", cfg.random_samples, best, best_witness, cfg.tolerance,
        config=_config_dict(cfg), details=details,
    )


def _matching_candidates(w, v, t: float, u: float) -> tuple:
    """The candidates of one search pair: ``(w, v, means, entropies)`` of
    the rows within 1e-3 of (t, u) in mean and expected entropy, in the
    order drawn.

    Each row's values are first rescaled toward mean t, as far as the
    largest value may go without passing 1.  The rows are those that
    passed :func:`_screen_candidates`, a small share of those drawn, so
    all of them are handled at once.
    """
    top = np.maximum(_column_max(v), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(t / np.einsum("ij,ij->i", w, v), 1.0 / top)
    v = v * scale[:, None]
    means = np.einsum("ij,ij->i", w, v)
    ents = np.einsum("ij,ij->i", w, binary_entropy_arr(v))
    rows = np.flatnonzero((np.abs(means - t) <= 1e-3) & (np.abs(ents - u) <= 1e-3))
    return tuple(np.take(c, rows, axis=0) for c in (w, v, means, ents))


#: Slack the optimum-search screen adds to both matching windows.  Its
#: sums differ from those of the exact route by a few ulps at most.
_SCREEN_GUARD = 1e-9


@dataclass(frozen=True)
class _SearchBatch:
    """optimum-search's one batch of finished rows (:func:`_finish_rows`),
    reordered in place by atom count and, within a count, by ``cap``.

    ``order[i]`` is the draw index of row i, and ``spans[k - 1]`` the slice
    of the k-atom rows.  Per row, ``top`` is its largest value (at least
    1e-300), and ``cap`` = mean / top the mean it reaches when its values
    are rescaled as far as they may go.  None of them depends on the
    search pair.
    """

    w: np.ndarray
    v: np.ndarray
    order: np.ndarray
    top: np.ndarray
    cap: np.ndarray
    spans: tuple[slice, ...]


def _search_batch(counts, w, v) -> _SearchBatch:
    """Finish raw rows (:func:`_draw_rows`) and lay them out as a
    :class:`_SearchBatch`, in place and a column at a time."""
    cap = _finish_rows(counts, w, v)
    top = _column_max(v)
    np.maximum(top, 1e-300, out=top)
    cap /= top
    order = np.lexsort((cap, counts))
    top = np.take(top, order)
    cap = np.take(cap, order)
    for a in (w, v):
        for j in range(a.shape[1]):
            # indexing copies only its output; np.take would also copy
            # the strided column it reads
            a[:, j] = a[:, j][order]
    ends = np.cumsum(np.bincount(counts, minlength=w.shape[1] + 1))
    spans = tuple(slice(int(ends[k - 1]), int(ends[k])) for k in range(1, w.shape[1] + 1))
    return _SearchBatch(w, v, order, top, cap, spans)


def _screen_candidates(batch: _SearchBatch, t: float, u: float) -> np.ndarray:
    """The rows of ``batch`` that may match the search pair (t, u), as
    positions in the batch, in the order drawn.

    They include every row that :func:`_matching_candidates` keeps.  A
    single-atom row rescales to a point mass at t, up to rounding, so those
    rows pass as a group, and only when |H(t) - u| is within the window.
    Every other row is screened on its live columns: its rescaled mean is
    min(t, cap), so the k-atom rows that pass it are those from the first
    with cap >= t - window on.  Their entropies are taken in row blocks,
    with the scale min(t / cap, 1) / top, a few ulps from the exact
    route's.  Both windows are widened by ``_SCREEN_GUARD``, and a row
    whose figures are NaN passes.
    """
    window = 1e-3 + _SCREEN_GUARD
    single, *spans = batch.spans
    if abs(binary_entropy(t) - u) > window:
        single = slice(0, 0)
    found = [np.arange(single.start, single.stop)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, span in enumerate(spans, 2):
            start = span.start + int(np.searchsorted(batch.cap[span], t - window))
            for i in range(start, span.stop, _ROWS):
                b = slice(i, min(i + _ROWS, span.stop))
                scale = np.minimum(t / batch.cap[b], 1.0) / batch.top[b]
                hv = binary_entropy_arr(batch.v[b, :k] * scale[:, None])
                ents = _column_sum(batch.w[b, :k] * hv)
                found.append(i + np.flatnonzero(~(np.abs(ents - u) > window)))
    rows = np.concatenate(found)
    return rows[np.argsort(batch.order[rows])]


def _pair_candidates(batch: _SearchBatch, t: float, u: float) -> tuple:
    """The candidates of one search pair in ``batch``: the rows that pass
    :func:`_screen_candidates` go through :func:`_matching_candidates`."""
    rows = _screen_candidates(batch, t, u)
    return _matching_candidates(np.take(batch.w, rows, axis=0),
                                np.take(batch.v, rows, axis=0), t, u)


def optimum_search_scan(cfg: ScanConfig, pairs: int = 100) -> ScanReport:
    """Random search for joint entropies below the closed-form optimum.

    This draws cfg.random_samples candidate distributions of up to three
    atoms once, then ``pairs`` search pairs (t, u), each as two uniform
    draws.  Each pair reads the whole batch: it rescales every row's values
    toward mean t (to boost the hit rate), keeps the rows matching the pair
    within 1e-3 in both mean and expected entropy (a screen drops most of
    the others first, see :func:`_pair_candidates`), and verifies none
    undercuts the certificate at its own moments by more than 1e-4.

    ``details.raw_draws`` is pairs x random_samples: the candidates
    screened, though each row is drawn once.
    """
    rng = np.random.default_rng(cfg.seed)
    batch = _search_batch(*_draw_rows(rng, cfg.random_samples, 3))
    best = math.inf
    best_witness: tuple = ()
    qualified = 0
    for _ in range(pairs):
        t = float(rng.uniform(0.05, 0.95))
        u = float((1.0 - rng.random()) * binary_entropy(t))
        w2, v2, m2, e2 = _pair_candidates(batch, t, u)
        if not m2.size:
            continue
        pair = _product_pairs(v2)
        joints = np.einsum("ni,nj,nij->n", w2, w2, binary_entropy_arr(pair))
        qualified += int(w2.shape[0])
        own_v = inverse_entropy_rate_arr(e2 / m2)
        own_v = np.maximum(own_v, m2)
        own_opt = m2 * m2 * entropy_of_square_arr(own_v) / (own_v * own_v)
        margins = joints - (own_opt - 1e-4)
        i = int(np.argmin(margins))
        if float(margins[i]) < best:
            best = float(margins[i])
            ws, vs = _witness_atoms(w2[i], v2[i])
            best_witness = (t, u, ws, vs)
    details = {
        "pairs": pairs,
        "qualified_candidates": qualified,
        "slack": 1e-4,
        "raw_draws": pairs * cfg.random_samples,
    }
    return _certified(
        "optimum-search", qualified, best, best_witness, cfg.tolerance,
        _config_dict(cfg), details,
    )


# ----------------------------------------------------------------------
# kernel self-checks packaged as reports
# ----------------------------------------------------------------------

#: The x-grid of :func:`kernel_roundtrip_scan`.
_ROUNDTRIP_GRID = ScanConfig(grid_step=1e-3, random_samples=0, seed=42,
                             tolerance=0.0, range_lo=1e-3, range_hi=0.999)


def kernel_roundtrip_scan(tol: float | None = None) -> ScanReport:
    """Round-trip the rate both ways across dense grids.

    Checks |g(f(x)) - x| <= x_tol on an x-grid and the defining contract
    |f(g(y)) - y| <= rate_tol * max(1, y) on a y-grid, where ``tol`` sets
    both bounds and None keeps x_tol = 1e-9 and rate_tol = KERNEL_TOL.
    Margins are the bounds minus the residuals, judged at tolerance zero.
    """
    x_tol, rate_tol = (1e-9, KERNEL_TOL) if tol is None else (tol, tol)
    xs = _grid(_ROUNDTRIP_GRID)
    min_x, i = _grid_min(
        "kernel-roundtrip", xs,
        lambda x: x_tol - np.abs(inverse_entropy_rate_arr(entropy_rate_arr(x)) - x),
    )
    ys = np.linspace(0.0, 20.0, 20001)
    min_y, j = _grid_min(
        "kernel-roundtrip", ys,
        lambda y: rate_tol * np.maximum(1.0, y)
        - np.abs(entropy_rate_arr(inverse_entropy_rate_arr(y)) - y),
    )
    if min_x <= min_y:
        witness: tuple = ("roundtrip-x", float(xs[i]))
        vector_min = min_x
    else:
        witness = ("roundtrip-rate", float(ys[j]))
        vector_min = min_y
    details = {
        "x_tol": x_tol,
        "rate_tol": rate_tol,
        "min_x_margin": min_x,
        "min_rate_margin": min_y,
    }
    return _certified(
        "kernel-roundtrip", xs.size + ys.size, vector_min, witness, 0.0,
        _config_dict(_ROUNDTRIP_GRID), details,
    )


#: The golden-threshold identities, each as tag -> (the details key of its
#: bound, its residual at b).  Every residual vanishes in exact arithmetic.
_GOLDEN_IDENTITIES: dict[str, tuple[str, Callable[[float], float]]] = {
    "sq-ratio-at-golden": ("identity_tol", lambda b: entropy_sq_ratio(b) - 1.0),
    "square-vs-complement": ("identity_tol", lambda b: b * b - (1.0 - b)),
    "single-atom-margin": (
        "margin_tol",
        lambda b: product_bound_margin(FiniteDistribution([(1.0, b)]), b),
    ),
    "scaled-ratio-at-golden": (
        "identity_tol",
        lambda b: entropy_sq_ratio_scaled(b) - (math.sqrt(5.0) + 1.0) / 2.0,
    ),
}


def _golden_margin(tag: str, b: float, bounds: dict) -> float:
    """Bound minus residual of one golden identity at ``b``."""
    key, residual = _GOLDEN_IDENTITIES[tag]
    return bounds[key] - abs(residual(b))


def golden_anchor_check(tol: float | None = None) -> ScanReport:
    """Pin the golden-threshold identities that anchor the whole chain.

    At b = GOLDEN_THRESHOLD: b^2 = 1 - b, so H(b^2) = H(b) (ratio one) and
    the single-atom product bound is exactly tight.  ``tol`` bounds every
    residual; None keeps identity_tol = 1e-12 and margin_tol = 1e-9.
    """
    b = GOLDEN_THRESHOLD
    identity_tol, margin_tol = (1e-12, 1e-9) if tol is None else (tol, tol)
    bounds = {"identity_tol": identity_tol, "margin_tol": margin_tol}
    checks = [(tag, _golden_margin(tag, b, bounds)) for tag in _GOLDEN_IDENTITIES]
    tag, worst = min(checks, key=lambda c: c[1])
    details = {**dict(checks), **bounds}
    return make_report(
        "golden-anchor", len(checks), worst, (tag, b), 0.0, config={}, details=details,
    )


# ----------------------------------------------------------------------
# set-family engines
# ----------------------------------------------------------------------

def _shannon_rows(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def subset_entropy_scan(cfg: ScanConfig, ground_n: int = 4) -> ScanReport:
    """Randomized check of the subset union entropy bound over [ground_n].

    Draws subset distributions from three samplers (dense, small-set
    biased, sparse support), pairs each with a level alpha from
    (0, FREQUENCY_BOUND], keeps instances whose marginals all sit at or
    below alpha, and tracks the worst margin.  Point masses are skipped:
    there both sides of the bound are zero, so the margin 0 says nothing
    about how tight the bound is.  Each kept row's law of A | B comes
    from the union law, as in :func:`union_distribution`: one
    ``np.bincount`` of p_a * p_b over the codes row * 2^n + (a | b).  The
    reported minimum is certified through the scalar
    :func:`union_entropy_margin`.
    """
    if not (1 <= ground_n <= MAX_ENUM_GROUND):
        raise SetFamilyError(
            f"the vector engine needs 1 <= ground_n <= {MAX_ENUM_GROUND}"
        )
    n_masks = 1 << ground_n
    masks = np.arange(n_masks)
    bits = (masks[:, None] >> np.arange(ground_n)[None, :]) & 1
    damp = 3.0 ** -bits.sum(axis=1).astype(float)
    # the masks that hold each element, in ascending order
    holders = [np.flatnonzero(bits[:, e]) for e in range(ground_n)]
    uni = np.bitwise_or.outer(masks, masks).ravel()

    rng = np.random.default_rng(cfg.seed)
    batch = 16384

    def draw():
        raw = rng.exponential(size=(batch, n_masks))
        style = rng.integers(0, 3, size=batch)
        # sparse support: keep each mask with chance 1/4, empty set as fallback
        keep_mask = rng.random(size=(batch, n_masks)) < 0.25
        keep_mask[:, 0] = True
        alpha = FREQUENCY_BOUND * (1.0 - rng.random(size=batch))
        kept = np.empty(batch, dtype=bool)
        for b in _row_blocks(batch):
            r = raw[b]
            # small-set bias: damp each mask by 3^popcount
            np.multiply(r, damp, out=r, where=(style[b] == 1)[:, None])
            np.multiply(r, keep_mask[b], out=r, where=(style[b] == 2)[:, None])
            r /= r.sum(axis=1, keepdims=True)
            # each element's marginal, summed over its holders in mask order
            top = np.zeros(r.shape[0])
            for cols in holders:
                np.maximum(top, _column_sum(r[:, cols]), out=top)
            kept[b] = (top <= alpha[b]) & (_column_max(r) < 1.0)
        # raw now holds each row's probabilities
        return batch, raw, alpha, kept

    def select(probs, alpha, kept):
        rows = np.flatnonzero(kept)
        return rows, np.take(alpha, rows)

    def margins(batch, rows, a):
        p = np.take(batch[0], rows, axis=0)
        n = p.shape[0]
        codes = (np.arange(n)[:, None] * n_masks + uni).ravel()
        pun = np.bincount(codes, weights=(p[:, :, None] * p[:, None, :]).ravel(),
                          minlength=n * n_masks).reshape(n, n_masks)
        return _shannon_rows(pun) - entropy_sq_ratio_arr(a) * _shannon_rows(p)

    [(best, row, checked, drawn)] = _worst_rows(
        draw, [_Consumer(cfg.random_samples, margins, select)]
    )
    witness: tuple = ()
    if row:
        p, _, _, a = row
        sel = p > 0.0
        witness = (
            float(a),
            tuple(float(x) for x in p[sel]),
            tuple(int(m) for m in masks[sel]),
        )
    return _certified(
        "subset-entropy", checked, best, witness, cfg.tolerance,
        {"random_samples": cfg.random_samples, "seed": cfg.seed},
        {"raw_draws": drawn, "ground_n": ground_n},
    )


def family_sweep_scan(ground_n: int = 4) -> ScanReport:
    """Exhaustive frequency-bound sweep over all families up to ``ground_n``.

    Every nonempty union-closed family other than the degenerate one must
    meet the bound by the exact integer test; the float margin is recorded
    and its minimum reported.  Also tallies the stronger 1/2 bound, which
    holds throughout this range but is recorded as conjecture evidence,
    not as a contract of the toolkit.
    """
    rows = family_census(ground_n)
    if not rows:
        raise SetFamilyError("nothing to sweep: only the degenerate family exists")
    worst = min(rows, key=lambda r: r["margin"])
    exact_ok = all(r["meets_bound"] for r in rows)
    half_ok = all(r["meets_half"] for r in rows)
    details = {
        "families_checked": len(rows),
        "exact_bound_holds": exact_ok,
        "half_bound_holds": half_ok,
        "worst_family_id": worst["family_id"],
        "worst_frequency": (
            worst["max_frequency_num"], worst["max_frequency_den"]
        ),
        "ground_n": ground_n,
    }
    report = make_report(
        "family-sweep", len(rows), worst["margin"],
        (worst["family_id"], worst["max_frequency_num"], worst["max_frequency_den"]),
        0.0, config={"ground_n": ground_n}, details=details,
    )
    if not exact_ok:
        report = replace(report, passed=False)
    return report


def _uniform_bridge_margin(f: SetFamily, slack: float) -> float:
    """H(A) + slack - H(A | B) for the uniform distribution on ``f``."""
    d = SubsetDistribution.uniform_on(f)
    return d.entropy() + slack - union_distribution(d).entropy()


def uniform_bridge_scan(max_ground_n: int = 3) -> ScanReport:
    """Check the uniform-distribution bridge on every small closed family.

    For the uniform distribution on a union-closed family, the union
    distribution stays supported inside the family, so its entropy cannot
    exceed the uniform entropy.  Margin: H(A) + slack - H(A | B) with a
    slack of 1e-12, judged at tolerance zero.
    """
    slack = 1e-12
    best = math.inf
    best_witness: tuple = ()
    count = 0
    for n in range(max_ground_n + 1):
        for f in enumerate_union_closed(n):
            margin = _uniform_bridge_margin(f, slack)
            count += 1
            if margin < best:
                best = margin
                best_witness = (n, family_code(f))
    details = {"slack": slack, "max_ground_n": max_ground_n}
    return make_report(
        "entropy-bridge", count, best, best_witness, 0.0,
        config={"max_ground_n": max_ground_n}, details=details,
    )


# ----------------------------------------------------------------------
# the check registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One verification check, described once.

    ``group`` is its ``verify-all --only`` group.  ``cfg`` is the
    configuration ``verify-all`` runs it with, or None for a check with
    fixed inputs.  ``run(cfg, alpha, tol)`` produces the report: ``alpha``
    is the rate-convexity level, and ``tol`` the ``--tol`` override: a
    configured check reads it as ``cfg.tolerance`` (bridge-gap's bound),
    as it reads all its settings, kernel-roundtrip and golden-anchor as
    their residual bounds, and family-sweep and entropy-bridge not at all.
    ``replay(report)`` recomputes the report's margin at its witness
    through the scalar route.

    The comment at each registry entry states the check's sharpness: the
    eps by which raising its constant c, in a margin lhs - c * rhs, makes
    it fail, or why it has no such constant.
    """

    name: str
    group: str
    cfg: ScanConfig | None
    run: Callable[[ScanConfig | None, float, float | None], ScanReport]
    replay: Callable[[ScanReport], float]


def _replay_roundtrip(report: ScanReport) -> float:
    tag, val = report.argmin_witness
    if tag == "roundtrip-x":
        return report.details["x_tol"] - abs(inverse_entropy_rate(entropy_rate(val)) - val)
    return report.details["rate_tol"] * max(1.0, val) - abs(
        entropy_rate(inverse_entropy_rate(val)) - val
    )


def _replay_pair(fn, witness) -> float:
    lo, hi = witness
    return fn(hi) - fn(lo)


def _replay_convexity(report: ScanReport) -> float:
    alpha = report.config["alpha"]
    a, b, c = (composed_rate(alpha, x) for x in report.argmin_witness)
    return a - 2.0 * b + c


def _replay_tail(report: ScanReport) -> float:
    w = report.argmin_witness
    if len(w) == 1:
        return -w[0] - math.log1p(-w[0])
    return tail_rate(w[0]) - tail_rate(w[1])


def _at_level(witness) -> tuple[FiniteDistribution, float]:
    """(distribution, level) of a ``(level, weights, values)`` witness."""
    level, ws, vs = witness
    return FiniteDistribution(zip(ws, vs)), level


def _replay_subset(report: ScanReport) -> float:
    level, ps, ms = report.argmin_witness
    d = SubsetDistribution(report.details["ground_n"], zip(ps, ms))
    return union_entropy_margin(d, level)


def _replay_uniform_bridge(report: ScanReport) -> float:
    n, code = report.argmin_witness
    return _uniform_bridge_margin(family_from_code(code, n), report.details["slack"])


#: Every check, in ``verify-all`` order.  The run functions look the scan
#: functions up by name at call time, so wrappers installed on the module
#: attributes see every call.
CHECKS: dict[str, Check] = {c.name: c for c in (
    # kernel-roundtrip and golden-anchor: residuals under a bound, no constant
    Check(
        "kernel-roundtrip", "kernel", None,
        lambda cfg, alpha, tol: kernel_roundtrip_scan(tol),
        _replay_roundtrip,
    ),
    Check(
        "golden-anchor", "kernel", None,
        lambda cfg, alpha, tol: golden_anchor_check(tol),
        lambda r: _golden_margin(*r.argmin_witness, r.details),
    ),
    # merge-properties and reduction: conservation laws, no constant
    Check(
        "merge-properties", "distribution",
        ScanConfig(random_samples=100_000, seed=42, tolerance=1e-9),
        lambda cfg, alpha, tol: merge_property_scan(cfg),
        lambda r: merge_quadruple_margin(*r.argmin_witness),
    ),
    Check(
        "reduction", "distribution",
        ScanConfig(random_samples=1_000, seed=42, tolerance=0.0),
        lambda cfg, alpha, tol: reduction_consistency_scan(cfg),
        lambda r: reduction_consistency_margin(FiniteDistribution(zip(*r.argmin_witness))),
    ),
    # optimum-search: c is the certificate's optimum, and the 1e-4 slack of
    # optimum_candidate_margin absorbs any eps below about 1e-4
    Check(
        "optimum-search", "distribution",
        ScanConfig(random_samples=200_000, seed=42, tolerance=0.0),
        lambda cfg, alpha, tol: optimum_search_scan(cfg),
        lambda r: optimum_candidate_margin(*r.argmin_witness),
    ),
    # the four curve checks: monotonicity and convexity, no constant
    Check(
        "sq-ratio", "scans",
        ScanConfig(grid_step=1e-4, random_samples=0, seed=42, tolerance=1e-6,
                   range_lo=1e-4, range_hi=1.0 - 1e-4),
        lambda cfg, alpha, tol: scan_sq_ratio(cfg),
        lambda r: _replay_pair(entropy_sq_ratio, r.argmin_witness),
    ),
    Check(
        "sq-ratio-scaled", "scans",
        ScanConfig(grid_step=1e-5, random_samples=0, seed=42, tolerance=1e-6,
                   range_lo=GOLDEN_THRESHOLD, range_hi=1.0 - 1e-6),
        lambda cfg, alpha, tol: scan_sq_ratio_scaled(cfg),
        lambda r: _replay_pair(entropy_sq_ratio_scaled, r.argmin_witness),
    ),
    Check(
        "rate-convexity", "scans",
        ScanConfig(grid_step=1e-3, random_samples=0, seed=42, tolerance=1e-6,
                   range_lo=0.05, range_hi=10.0),
        lambda cfg, alpha, tol: scan_rate_convexity(alpha, cfg),
        _replay_convexity,
    ),
    Check(
        "tail-rate", "scans",
        ScanConfig(grid_step=1e-4, random_samples=0, seed=42, tolerance=1e-6,
                   range_lo=1e-6, range_hi=1.0 - 1e-6),
        lambda cfg, alpha, tol: scan_tail_rate(cfg),
        _replay_tail,
    ),
    # union-bound and product-bound: eps = 1e-4 fails them at 5,000 rows
    # (tests/test_scans.py::TestSharpness)
    Check(
        "union-bound", "scans",
        ScanConfig(grid_step=1e-4, random_samples=1_000_000, seed=42, tolerance=1e-9,
                   range_lo=0.0, range_hi=FREQUENCY_BOUND),
        lambda cfg, alpha, tol: level_scans([("union-bound", cfg)])[0],
        lambda r: union_bound_margin(*_at_level(r.argmin_witness)),
    ),
    Check(
        "product-bound", "scans",
        ScanConfig(grid_step=1e-4, random_samples=1_000_000, seed=42, tolerance=1e-9,
                   range_lo=GOLDEN_THRESHOLD, range_hi=1.0),
        lambda cfg, alpha, tol: level_scans([("product-bound", cfg)])[0],
        lambda r: product_bound_margin(*_at_level(r.argmin_witness)),
    ),
    Check(
        # an identity residual under a bound, no constant; the bridge's own
        # bound travels as cfg.tolerance, and the report itself is judged
        # at tolerance zero
        "bridge-gap", "scans",
        ScanConfig(random_samples=10_000, seed=42, tolerance=BRIDGE_TOL),
        lambda cfg, alpha, tol: bridge_gap_scan(cfg),
        lambda r: _bridge_margin(r.details["bound"], r.argmin_witness),
    ),
    # threshold: its rows read product-bound's R(beta), but it reports PASS
    # whatever they read, so no eps can fail it
    Check(
        "threshold", "scans",
        ScanConfig(grid_step=0.01, random_samples=0, seed=42, tolerance=1e-9,
                   range_lo=0.55, range_hi=0.70),
        lambda cfg, alpha, tol: threshold_exploration(cfg),
        lambda r: _threshold_margin(r.argmin_witness),
    ),
    # subset-entropy: its constant R(alpha) is weaker than the argument needs
    # and still passes at x1.5; its eps waits on union_ratio(alpha)
    Check(
        "subset-entropy", "setfamily",
        ScanConfig(random_samples=100_000, seed=42, tolerance=1e-9),
        lambda cfg, alpha, tol: subset_entropy_scan(cfg),
        _replay_subset,
    ),
    # family-sweep and entropy-bridge: an exact count and a fixed slack,
    # no constant
    Check(
        "family-sweep", "setfamily", None,
        lambda cfg, alpha, tol: family_sweep_scan(4),
        lambda r: frequency_bound_margin(
            family_from_code(r.argmin_witness[0], r.config["ground_n"])
        ),
    ),
    Check(
        "entropy-bridge", "setfamily", None,
        lambda cfg, alpha, tol: uniform_bridge_scan(3),
        _replay_uniform_bridge,
    ),
)}

#: Names accepted by ``run_named_scan`` and the command-line ``scan``.
SCAN_NAMES = tuple(CHECKS)


def _check(name: str) -> Check:
    try:
        return CHECKS[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; known: {', '.join(SCAN_NAMES)}"
        ) from None


def run_named_scan(
    name: str,
    cfg: ScanConfig | None = None,
    alpha: float = 0.5,
    tol: float | None = None,
) -> ScanReport:
    """Run one registered check; raises ValueError on unknown names.

    ``cfg`` defaults to the check's own.  ``tol``, when given, replaces
    ``cfg.tolerance``, or the residual bounds of kernel-roundtrip and
    golden-anchor; see :class:`Check`.
    """
    [(report, _)] = run_named_scans([(name, cfg)], alpha, tol)
    return report


def _run_cfg(check: Check, cfg: ScanConfig | None, tol: float | None):
    """``cfg``, or the check's own, with ``tol`` as its tolerance if given."""
    if cfg is None:
        cfg = check.cfg
    if tol is not None and cfg is not None:
        cfg = replace(cfg, tolerance=tol)
    return cfg


def _workers(n_units: int) -> int:
    """Worker processes for ``n_units`` work units: the CPUs this process
    may use, at most one per unit."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_units))


def _run_unit(
    unit: tuple[tuple[str, ScanConfig | None], ...], alpha: float, tol: float | None,
) -> tuple[list[ScanReport], float]:
    """Run one work unit: one check, or the level checks that share one
    pass.  Returns its reports and the seconds it took."""
    t0 = time.perf_counter()
    if len(unit) > 1:
        reports = level_scans(list(unit))
    else:
        [(name, cfg)] = unit
        reports = [CHECKS[name].run(cfg, alpha, tol)]
    return reports, time.perf_counter() - t0


def _spread(
    runs: list[tuple[str, ScanConfig | None]], alpha: float, tol: float | None,
) -> tuple[list[tuple[tuple[str, ScanConfig | None], ...]], int]:
    """The work units of :func:`run_named_scans` and the worker processes
    that run them (1: this process).

    A unit is one check with its configuration, except union-bound and
    product-bound at one seed, which share one unit; units come in the
    order their first check is listed.  Every argument is checked here,
    before any unit starts.
    """
    if tol is not None:
        # ScanConfig's rule, also for the checks that take no config
        ScanConfig(tolerance=tol)
    _rate_alpha(alpha)
    cfgs = {name: _run_cfg(_check(name), cfg, tol) for name, cfg in runs}
    names = [name for name, _ in runs]
    repeated = [name for name in cfgs if names.count(name) > 1]
    if repeated:
        raise ValueError(f"check {repeated[0]!r} is listed more than once")
    shared = [name for name in _LEVEL_CHECKS if name in cfgs]
    if len(shared) < 2 or len({cfgs[name].seed for name in shared}) > 1:
        shared = []
    units = dict.fromkeys(tuple(shared) if name in shared else (name,) for name in cfgs)
    # fork copies the calling thread alone: a lock another thread holds
    # would stay held in every worker
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = _workers(len(units)) if forkable else 1
    return [tuple((n, cfgs[n]) for n in unit) for unit in units], workers


def _unit_results(units: list, workers: int, alpha: float, tol: float | None) -> Iterator:
    """``_run_unit``'s result for each unit, in order: on a pool of
    ``workers`` forked processes, or in this process if ``workers`` is 1.

    Forked workers start from this process as it is: no import to repeat,
    and a check replaced on the module (a test's stub, a tracer's wrapper)
    is the one that runs.
    """
    if workers < 2:
        for unit in units:
            yield _run_unit(unit, alpha, tol)
        return
    # imported here: at module level they would add to every command's set-up
    import concurrent.futures
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_unit, unit, alpha, tol) for unit in units]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_named_scans(
    runs: list[tuple[str, ScanConfig | None]],
    alpha: float = 0.5,
    tol: float | None = None,
) -> Iterator[tuple[ScanReport, float]]:
    """Run registered checks, given as ``(name, cfg)`` pairs.

    Yields ``(report, seconds)`` for each, in the order of ``runs``;
    ``cfg`` and ``tol`` are read as :func:`run_named_scan` reads them, and
    ``seconds`` is the check's own time.  When union-bound and product-bound
    both run at one seed, one pass over their shared level stream
    (:func:`level_scans`) makes both reports.  Each is still yielded in
    its own place, and both carry the seconds of that one pass.

    Each check, or that shared pass, is one work unit.  With more than one
    unit and more than one CPU, and no other thread running, the units run
    on a pool of forked worker processes, at most one per CPU
    (:func:`_workers`); the reports are the same at any worker count.  A
    check's exception reaches the caller with its type and message, and
    no worker outlives the run, also when the caller stops early.

    Before any unit starts, an unknown name, a check listed twice, a
    ``tol`` that is not finite and >= 0, or an ``alpha`` outside (0, 1)
    raises ValueError.
    """
    units, workers = _spread(runs, alpha, tol)
    results = _unit_results(units, workers, alpha, tol)
    try:
        done: dict[str, tuple[ScanReport, float]] = {}
        for name, _ in runs:
            if name not in done:
                reports, seconds = next(results)
                done.update((r.name, (r, seconds)) for r in reports)
            yield done.pop(name)
    finally:
        results.close()


def reevaluate_witness(report: ScanReport) -> float:
    """Recompute a report's margin at its witness through the scalar route.

    Returns the margin the scan would report for that witness alone; by
    construction it reproduces ``report.min_margin`` up to float identity
    for every registered check.
    """
    return _check(report.name).replay(report)
