"""Finite distributions on [0, 1] and the entropy-preserving merge calculus.

A ``FiniteDistribution`` is a weighted set of atoms ``(weight, value)`` with
values in [0, 1].  The central operation is the two-point merge: two atoms
are replaced by a single atom that preserves both the mean and the expected
entropy exactly, plus a residual mass parked at value 0.  Repeating the
merge reduces any distribution to at most one non-zero atom, and the
reduced endpoint coincides with the closed-form optimizer returned by
``joint_entropy_optimum``.

The reduction keeps its atoms in two lists sized once.  A merge costs one
``merge_atoms`` call, one ``math.fsum`` over the live weights and, on the
steps whose total is not exactly 1.0, one in-place division of them: the
same bits the constructor would give, without rebuilding the distribution.
A merged atom that would snap to zero or pool with its neighbour goes
through the constructor, which stays the one definition of both.

Numerical contracts (shared with the test suite):

* construction re-normalizes weights whose sum is within 1e-9 of 1;
* values below 1e-15 are treated as exact zeros, and values closer than
  1e-15 are coalesced so a merge never sees a degenerate pair;
* merge conservation holds to 1e-10, multi-step pipelines to 1e-8.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .kernel import (
    DomainError,
    as_prob,
    binary_entropy,
    entropy_of_square,
    inverse_entropy_rate,
)

__all__ = [
    "DistributionError",
    "FeasibilityError",
    "FiniteDistribution",
    "MergeResult",
    "OptimumCertificate",
    "merge_atoms",
    "scaled_entropy_margin",
    "squared_merge_margin",
    "reduce_steps",
    "reduce_support",
    "reduce_with_merges",
    "joint_entropy_optimum",
    "random_distribution",
    "load_distribution",
    "dump_distribution",
]

#: Construction accepts weight sums within this distance of 1.
WEIGHT_TOL = 1e-9

#: The plain-text loader accepts (and re-normalizes) sums within this distance.
LOAD_TOL = 1e-6

#: Values below this are exact zeros; value gaps below it are coalesced.
VALUE_SNAP = 1e-15


class DistributionError(ValueError):
    """Invalid distribution construction or input data."""


class FeasibilityError(DistributionError):
    """A (mean, entropy) target outside the feasible region."""


def _checked_total(total: float) -> float:
    if abs(total - 1.0) > WEIGHT_TOL:
        raise DistributionError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
    return total


@dataclass(frozen=True)
class FiniteDistribution:
    """Immutable finite distribution: atoms ``(weight, value)`` sorted by value."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Iterable[tuple[float, float]]) -> None:
        pairs = []
        for w, v in atoms:
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise DistributionError(f"weights must be finite and >= 0, got {w!r}")
            v = as_prob(v, "value")
            if v < VALUE_SNAP:
                v = 0.0
            if w > 0.0:
                pairs.append((v, w))
        if not pairs:
            raise DistributionError("a distribution needs at least one atom with positive weight")
        total = _checked_total(math.fsum(w for _, w in pairs))
        pairs.sort()
        merged: list[list[float]] = []
        for v, w in pairs:
            if merged and v - merged[-1][0] <= VALUE_SNAP:
                # equal up to snap tolerance: pool the mass at the weighted mean
                pv, pw = merged[-1]
                nw = pw + w
                merged[-1] = [(pv * pw + v * w) / nw, nw]
            else:
                merged.append([v, w])
        object.__setattr__(
            self,
            "atoms",
            tuple((w / total, v) for v, w in merged),
        )

    @classmethod
    def _trusted(cls, atoms: tuple[tuple[float, float], ...]) -> "FiniteDistribution":
        """Wrap atoms that are already validated, sorted, coalesced and normalized."""
        d = object.__new__(cls)
        object.__setattr__(d, "atoms", atoms)
        return d

    def mean(self) -> float:
        """Expected value of the atom positions."""
        return math.fsum(w * v for w, v in self.atoms)

    def expected_entropy(self) -> float:
        """Expected binary entropy, sum of w * H(v)."""
        return math.fsum(w * binary_entropy(v) for w, v in self.atoms)

    def expected_pair_entropy(self, pair: Callable[[float, float], float]) -> float:
        """Full double sum over independent pairs: sum of w_i w_j H(pair(v_i, v_j)).

        ``pair`` must be symmetric in its bits, as ``+`` and ``*`` are in
        IEEE arithmetic.  Each unordered pair is then evaluated once and
        doubled: the (j, i) term has the same bits as the (i, j) term and
        doubling is exact, so the correctly rounded ``math.fsum`` equals
        that of the full double sum.
        """
        atoms = self.atoms
        return math.fsum(chain(
            (w * w * binary_entropy(pair(v, v)) for w, v in atoms),
            (
                2.0 * (wi * wj * binary_entropy(pair(vi, vj)))
                for i, (wi, vi) in enumerate(atoms)
                for wj, vj in atoms[i + 1:]
            ),
        ))

    def expected_joint_entropy(self) -> float:
        """Expected entropy of independent pairwise products, sum of w_i w_j H(v_i v_j)."""
        return self.expected_pair_entropy(operator.mul)

    def nonzero_atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple((w, v) for w, v in self.atoms if v > 0.0)

    def zero_mass(self) -> float:
        return math.fsum(w for w, v in self.atoms if v == 0.0)

    def to_text(self) -> str:
        """Serialize as one ``weight value`` pair per line."""
        return "".join(f"{w!r} {v!r}\n" for w, v in self.atoms)

    @classmethod
    def from_text(cls, text: str) -> "FiniteDistribution":
        """Parse the plain-text format; '#' starts a comment.

        Weight sums within 1e-6 of 1 are re-normalized, anything further
        off is rejected.
        """
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DistributionError(
                    f"line {lineno}: expected 'weight value', got {raw!r}"
                )
            try:
                w, v = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise DistributionError(f"line {lineno}: {raw!r} is not numeric") from exc
            pairs.append((w, v))
        if not pairs:
            raise DistributionError("no atoms found")
        total = math.fsum(w for w, _ in pairs)
        if abs(total - 1.0) > LOAD_TOL:
            raise DistributionError(
                f"weights sum to {total!r}; more than {LOAD_TOL} away from 1"
            )
        return cls((w / total, v) for w, v in pairs)


@dataclass(frozen=True)
class MergeResult:
    """Outcome of merging two atoms: the new atom (q, y) plus mass at zero.

    ``q * y`` equals the merged mass-weighted mean and ``q * H(y)`` the
    merged expected entropy, both to 1e-10; ``residual_at_zero`` is the
    leftover weight ``p1 + p2 - q`` (clipped at 0 against rounding).
    """

    q: float
    y: float
    residual_at_zero: float


def _require_positive_weight(p: float, name: str) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise DistributionError(f"{name} must be finite and positive, got {p!r}")
    return p


def _require_open_value(x: float, name: str) -> float:
    v = as_prob(x, name)
    if v == 0.0:
        raise DomainError(f"{name} must lie in (0, 1], got {x!r}")
    return v


def merge_atoms(p1: float, x1: float, p2: float, x2: float) -> MergeResult:
    """Merge atoms (p1, x1) and (p2, x2) into one atom preserving mean and entropy.

    The merged value y solves H(y)/y = (p1 H(x1) + p2 H(x2)) / (p1 x1 + p2 x2)
    and the merged weight is q = (p1 x1 + p2 x2) / y, so q <= p1 + p2 with the
    difference parked at value 0.
    """
    p1 = _require_positive_weight(p1, "p1")
    p2 = _require_positive_weight(p2, "p2")
    x1 = _require_open_value(x1, "x1")
    x2 = _require_open_value(x2, "x2")
    if x1 == x2:
        return MergeResult(q=p1 + p2, y=x1, residual_at_zero=0.0)
    mass = p1 * x1 + p2 * x2
    entropy = p1 * binary_entropy(x1) + p2 * binary_entropy(x2)
    y = inverse_entropy_rate(entropy / mass)
    q = mass / y
    residual = p1 + p2 - q
    return MergeResult(q=q, y=y, residual_at_zero=residual if residual > 0.0 else 0.0)


def scaled_entropy_margin(p1: float, x1: float, p2: float, x2: float, z: float) -> float:
    """Margin of the scaled-entropy comparison at scale z in [0, 1].

    Returns p1 H(z x1) + p2 H(z x2) - q H(z y) for the merge of the two
    atoms; nonnegative up to float noise for every z, with equality at
    z = 1 by construction of the merge.
    """
    z = as_prob(z, "z")
    r = merge_atoms(p1, x1, p2, x2)
    lhs = p1 * binary_entropy(z * x1) + p2 * binary_entropy(z * x2)
    return lhs - r.q * binary_entropy(z * r.y)


def squared_merge_margin(p1: float, x1: float, p2: float, x2: float) -> float:
    """Margin of the second-moment comparison for a two-atom merge.

    Returns p1^2 H(x1^2) + 2 p1 p2 H(x1 x2) + p2^2 H(x2^2) - q^2 H(y^2).
    This is the form the merge construction actually guarantees; one
    published statement of it squares the entropy rather than the value,
    which its own derivation contradicts.
    """
    r = merge_atoms(p1, x1, p2, x2)
    lhs = (
        p1 * p1 * entropy_of_square(x1)
        + 2.0 * p1 * p2 * binary_entropy(x1 * x2)
        + p2 * p2 * entropy_of_square(x2)
    )
    return lhs - r.q * r.q * entropy_of_square(r.y)


class _Reduction:
    """The loop behind ``reduce_steps`` and ``reduce_support``.

    ``ws`` and ``vs`` are sized once.  From index ``s`` on they hold the
    non-zero atoms in ascending value order, and ``ws[s - 1]`` holds the
    mass at zero (0.0 when there is none), all as the constructor would
    leave them.
    """

    def __init__(self, d: FiniteDistribution) -> None:
        nz = d.nonzero_atoms()
        self.ws = [d.zero_mass(), *(w for w, _ in nz)]
        self.vs = [0.0, *(v for _, v in nz)]
        self.s = 1
        self.merges = 0

    def merge(self) -> str | None:
        """Merge the two least non-zero atoms, or return None when at most
        one is left.  Returns how the step ended: ``"rebuilt"`` through the
        constructor, ``"renormalized"`` by the weight total, or ``"exact"``
        when that total was exactly 1.0."""
        ws, vs, s = self.ws, self.vs, self.s
        n = len(ws)
        if n - s <= 1:
            return None
        self.merges += 1
        r = merge_atoms(ws[s], vs[s], ws[s + 1], vs[s + 1])
        q, y = r.q, r.y
        zmass = ws[s - 1] + r.residual_at_zero
        # y lies between the two merged values, so it is the new least
        # non-zero atom unless it snaps to zero or pools with the next one.
        if y <= VALUE_SNAP or (n - s > 2 and vs[s + 2] - y <= VALUE_SNAP):
            atoms = [(q, y), *zip(ws[s + 2:], vs[s + 2:])]
            if zmass > 0.0:
                atoms.append((zmass, 0.0))
            self._load(FiniteDistribution(atoms))
            return "rebuilt"
        s += 1
        self.s = s
        ws[s - 1] = zmass
        ws[s] = q
        vs[s] = y
        total = math.fsum(islice(ws, s - 1, None))
        if total == 1.0:
            return "exact"
        _checked_total(total)
        for i in range(s - 1, n):
            ws[i] /= total
        return "renormalized"

    def _load(self, d: FiniteDistribution) -> None:
        # d has fewer non-zero atoms than the loop held, so they fit at the end
        nz = d.nonzero_atoms()
        s = len(self.ws) - len(nz)
        self.ws[s - 1] = d.zero_mass()
        self.ws[s:] = [w for w, _ in nz]
        self.vs[s:] = [v for _, v in nz]
        self.s = s

    def distribution(self) -> FiniteDistribution:
        s = self.s
        atoms = tuple(zip(self.ws[s:], self.vs[s:]))
        if self.ws[s - 1] > 0.0:
            atoms = ((self.ws[s - 1], 0.0), *atoms)
        return FiniteDistribution._trusted(atoms)


def reduce_steps(d: FiniteDistribution) -> Iterator[FiniteDistribution]:
    """Yield each intermediate of the reduction, ending with the fixed point.

    Every step merges the two smallest non-zero values, so the sequence has
    non-increasing expected joint entropy while mean and expected entropy
    stay fixed (to pipeline tolerance).  Each step is bitwise the
    distribution the constructor would build from the merged atom, the
    untouched atoms and the mass at zero, but is not rebuilt: the merged
    value y lies between the two values merged, so it is the new least
    non-zero atom, and the only things the constructor could change are
    snapping y to zero (y <= VALUE_SNAP) or pooling it with the next value
    (a gap <= VALUE_SNAP).  Those steps, and only those, go through the
    constructor.  The rest cost one ``merge_atoms``, one ``math.fsum`` over
    the k live weights and, when that total is not exactly 1.0, an
    in-place division of them, plus the O(k) tuple of the yielded step.
    """
    red = _Reduction(d)
    while red.merge():
        yield red.distribution()


def reduce_with_merges(d: FiniteDistribution) -> tuple[FiniteDistribution, int]:
    """``reduce_support(d)`` and the number of merges it took."""
    red = _Reduction(d)
    while red.merge():
        pass
    return (red.distribution() if red.merges else d), red.merges


def reduce_support(d: FiniteDistribution) -> FiniteDistribution:
    """Reduce ``d`` to at most one non-zero atom (plus mass at zero).

    Runs the loop of ``reduce_steps`` without building the intermediates,
    so k atoms cost k - 1 merges of O(k) float work each and one
    distribution at the end.  Idempotent: a distribution that is already
    reduced is returned as is.
    """
    return reduce_with_merges(d)[0]


@dataclass(frozen=True)
class OptimumCertificate:
    """Closed-form minimum of the expected joint entropy at fixed (mean, entropy).

    ``optimum`` is t^2 H(v^2) / v^2 with v the inverse rate at u/t, and
    ``witness`` is the two-point distribution achieving it: value v with
    weight t/v, the rest at 0.
    """

    t: float
    u: float
    v: float
    optimum: float
    witness: FiniteDistribution


def joint_entropy_optimum(t: float, u: float) -> OptimumCertificate:
    """Certificate for the least expected joint entropy with mean t, entropy u.

    Feasible inputs satisfy 0 < t < 1 and 0 < u <= H(t); u = H(t) forces
    v = t and the witness degenerates to a single atom.
    """
    t = as_prob(t, "t")
    if t == 0.0 or t == 1.0:
        raise FeasibilityError("t must lie strictly inside (0, 1)")
    u = float(u)
    ht = binary_entropy(t)
    if not math.isfinite(u) or u <= 0.0 or u > ht + 1e-12:
        raise FeasibilityError(f"u must lie in (0, H(t)] = (0, {ht}], got {u!r}")
    u_eff = min(u, ht)
    v = inverse_entropy_rate(u_eff / t)
    if v < t:
        v = t  # rounding guard; mathematically v >= t always
    weight = t / v
    if weight > 1.0:
        weight = 1.0
    optimum = t * t * entropy_of_square(v) / (v * v)
    atoms = [(weight, v)]
    if weight < 1.0:
        atoms.append((1.0 - weight, 0.0))
    return OptimumCertificate(t=t, u=u, v=v, optimum=optimum, witness=FiniteDistribution(atoms))


def random_distribution(rng, n_atoms: int | None = None, max_atoms: int = 6) -> FiniteDistribution:
    """Draw a random distribution: flat simplex weights, uniform values.

    ``rng`` is a numpy Generator; atom count is uniform on 1..max_atoms
    unless pinned by ``n_atoms``.
    """
    k = int(n_atoms) if n_atoms is not None else int(rng.integers(1, max_atoms + 1))
    if k < 1:
        raise DistributionError("n_atoms must be at least 1")
    w = rng.exponential(size=k)
    w /= w.sum()
    v = rng.uniform(0.0, 1.0, size=k)
    return FiniteDistribution(zip(w.tolist(), v.tolist()))


def load_distribution(path: str | Path) -> FiniteDistribution:
    """Read a distribution from the plain-text format."""
    return FiniteDistribution.from_text(Path(path).read_text(encoding="utf-8"))


def dump_distribution(d: FiniteDistribution, path: str | Path) -> None:
    """Write a distribution in the plain-text format."""
    Path(path).write_text(d.to_text(), encoding="utf-8")
