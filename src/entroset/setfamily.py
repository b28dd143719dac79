"""Union-closed set families over small ground sets: the combinatorics.

Sets are bitmasks over a ground set of at most 16 elements (bit i set means
element i is in; labels are 0-based).  A family is a sorted tuple of member
masks; a subset distribution assigns probabilities to masks.  This module
holds families, union closure, exhaustive enumeration and its census,
subset distributions, and the family file format.  The scans built on them
(``subset-entropy``, ``family-sweep``, ``entropy-bridge``) live in
:mod:`entroset.scans` with every other scan engine.

The engines run in NumPy on a membership bitmap: an array of length
2^ground_n indexed by mask.  Union closure is an OR-over-subsets transform
of the bitmap (n in-place passes, whatever the number of members), and a
family is union-closed when its closure is no larger than itself.  Pairwise
work (the first violating pair, the union distribution) goes through
member rows in blocks of at most ``_BLOCK_ELEMENTS`` pairs, which keeps
every transient array near 0.5 MB at any family size the module accepts.
The census decides the masks of the power set in ascending order, so it
builds only closed families, and reads sizes and element counts off the
codes with popcounts (``np.bitwise_count``, NumPy 2.0 and later).  NumPy
costs the command line nothing extra at start-up: ``entroset.cli`` loads
it through :mod:`entroset.scans` either way.

Two margins live here:

* ``frequency_bound_margin``: for a union-closed family, some element
  belongs to at least a FREQUENCY_BOUND fraction of the members.  The
  exhaustive sweep decides this in exact integer arithmetic so no float
  tie can blur it.
* ``union_entropy_margin``: for independent samples A, B from a subset
  distribution whose element marginals stay at or below a level
  alpha <= FREQUENCY_BOUND, the entropy of A union B dominates
  R(alpha) = H(alpha^2)/H(alpha) times the entropy of A (R is the
  kernel's ``entropy_sq_ratio``).

The uniform-distribution bridge ties them together: a union-closed support
keeps the union distribution inside the family, so the uniform entropy
log2(size) is an upper bound for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .kernel import FREQUENCY_BOUND, as_prob, entropy_sq_ratio
from .report import PreconditionError

__all__ = [
    "SetFamilyError",
    "SetFamily",
    "FrequencyProfile",
    "SubsetDistribution",
    "mask_from_indices",
    "indices_from_mask",
    "union_closure",
    "frequency_profile",
    "checked_profile",
    "counts_meet_bound",
    "frequency_bound_margin",
    "union_distribution",
    "union_entropy_margin",
    "enumerate_union_closed",
    "family_code",
    "family_from_code",
    "family_census",
    "census_csv_rows",
    "load_family",
    "family_text",
    "MAX_GROUND",
    "MAX_ENUM_GROUND",
    "MAX_UNION_SUPPORT",
]

#: Largest ground set for general family operations (one mask per word).
MAX_GROUND = 16

#: Largest ground set for exhaustive family enumeration (2^(2^4) candidates).
MAX_ENUM_GROUND = 4

#: Largest support size for the exact union distribution, which visits all
#: 4096^2 ordered pairs in blocks.
MAX_UNION_SUPPORT = 4096

#: Most pairs any one block of the pairwise engines holds (about 0.5 MB as int64).
_BLOCK_ELEMENTS = 1 << 16


class SetFamilyError(ValueError):
    """Structurally invalid family or subset distribution."""


def mask_from_indices(indices: Iterable[int], ground_n: int) -> int:
    """Bitmask for a collection of 0-based element indices."""
    mask = 0
    for i in indices:
        i = int(i)
        if not (0 <= i < ground_n):
            raise SetFamilyError(f"element {i} outside ground set of size {ground_n}")
        mask |= 1 << i
    return mask


#: The set bits of each byte as element indices, and as their text, for the
#: low byte of a mask and for the byte above it; together they cover every
#: mask of MAX_GROUND bits.
_LOW_BYTE = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH_BYTE = tuple(tuple(i + 8 for i in low) for low in _LOW_BYTE)
_LOW_TEXT = tuple(",".join(map(str, idx)) for idx in _LOW_BYTE)
_HIGH_TEXT = tuple(",".join(map(str, idx)) for idx in _HIGH_BYTE)


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 0-based element indices present in a bitmask."""
    m = int(mask)
    if m < 0:
        raise SetFamilyError(f"mask {m} is negative")
    if m < 1 << 16:
        return _LOW_BYTE[m & 255] + _HIGH_BYTE[m >> 8]
    return indices_from_mask(m & 0xFFFF) + tuple(i + 16 for i in indices_from_mask(m >> 16))


@dataclass(frozen=True)
class SetFamily:
    """Immutable family of sets: sorted, deduplicated bitmask members."""

    ground_n: int
    members: tuple[int, ...]

    def __init__(self, ground_n: int, members: Iterable[int]) -> None:
        ground_n = int(ground_n)
        if not (0 <= ground_n <= MAX_GROUND):
            raise SetFamilyError(
                f"ground_n must lie in [0, {MAX_GROUND}], got {ground_n}"
            )
        limit = 1 << ground_n
        seen = set()
        for m in members:
            m = int(m)
            if not (0 <= m < limit):
                raise SetFamilyError(
                    f"mask {m} does not fit a ground set of size {ground_n}"
                )
            seen.add(m)
        if not seen:
            raise SetFamilyError("a family needs at least one member set")
        object.__setattr__(self, "ground_n", ground_n)
        object.__setattr__(self, "members", tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        mask = int(mask)
        i = bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask

    def violating_pair(self) -> tuple[int, int] | None:
        """First member pair, in ``combinations`` order, whose union is missing.

        None when the family is union-closed.  Otherwise row blocks of the
        member-by-member union table are looked up in the membership
        bitmap until one holds a miss.  The first miss in row-major order
        lies above the diagonal (a miss below it would mirror one in an
        earlier row), so it is the first pair ``combinations`` would give.
        """
        if self.is_union_closed():
            return None
        members = np.array(self.members, dtype=np.int64)
        inside = np.zeros(1 << self.ground_n, dtype=bool)
        inside[members] = True
        rows = max(1, _BLOCK_ELEMENTS // len(members))
        for i in range(0, len(members), rows):
            miss = ~inside[members[i:i + rows, None] | members[None, i:]]
            if miss.any():
                r, c = np.unravel_index(int(np.argmax(miss)), miss.shape)
                return (self.members[i + r], self.members[i + c])
        raise AssertionError("a family that is not closed has a violating pair")

    def is_union_closed(self) -> bool:
        closure = _closure_bitmap(self.ground_n, np.array(self.members, dtype=np.int64))
        return int(np.count_nonzero(closure)) == len(self.members)

    def is_degenerate(self) -> bool:
        """True for the single-member family containing only the empty set."""
        return self.members == (0,)


def _closure_bitmap(ground_n: int, members: np.ndarray) -> np.ndarray:
    """Bitmap of the union closure of the ascending ``members``.

    A nonempty x is a union of members exactly when it is the union of
    all the members inside it.  An OR-over-subsets transform computes
    that union for every x at once: n in-place passes over the bitmap,
    whatever the number of members.  The empty set is in the closure only
    as a member.
    """
    size = 1 << ground_n
    low = np.zeros(size, dtype=np.int64)
    low[members] = members
    for i in range(ground_n):
        pairs = low.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] |= pairs[:, 0, :]
    closed = low == np.arange(size)
    closed[0] = members[0] == 0
    return closed


def union_closure(members: Iterable[int], ground_n: int) -> SetFamily:
    """Smallest union-closed family containing ``members``."""
    base = SetFamily(ground_n, members)
    closed = _closure_bitmap(ground_n, np.array(base.members, dtype=np.int64))
    return SetFamily(ground_n, np.flatnonzero(closed).tolist())


@dataclass(frozen=True)
class FrequencyProfile:
    """Per-element membership frequencies of a family, with exact counts."""

    frequencies: tuple[float, ...]
    counts: tuple[int, ...]
    family_size: int
    max_frequency: float
    argmax_element: int


def frequency_profile(f: SetFamily) -> FrequencyProfile:
    """Count, per element, the fraction of members containing it."""
    if f.ground_n == 0:
        raise SetFamilyError("no ground elements to profile")
    members = np.array(f.members, dtype=np.int64)
    counts = [int(np.count_nonzero(members >> i & 1)) for i in range(f.ground_n)]
    size = len(f.members)
    freqs = tuple(c / size for c in counts)
    best = max(range(f.ground_n), key=lambda i: (counts[i], -i))
    return FrequencyProfile(
        frequencies=freqs,
        counts=tuple(counts),
        family_size=size,
        max_frequency=counts[best] / size,
        argmax_element=best,
    )


def counts_meet_bound(count: int, size: int) -> bool:
    """Exact integer test for count/size >= (3 - sqrt(5))/2.

    The inequality rearranges to sqrt(5) * size >= 3 * size - 2 * count;
    when the right side is positive, squaring gives an all-integer
    comparison, so no float rounding can decide a close call.  Equality
    never occurs for integers (the bound is irrational).
    """
    if size <= 0:
        raise SetFamilyError("family size must be positive")
    rhs = 3 * size - 2 * count
    if rhs <= 0:
        return True
    return rhs * rhs <= 5 * size * size


def _require_checkable(f: SetFamily) -> None:
    if f.is_degenerate():
        raise PreconditionError(
            "the family containing only the empty set is excluded: every "
            "frequency is zero, and the bound is stated for families with "
            "at least one nonempty member"
        )
    pair = f.violating_pair()
    if pair is not None:
        a, b = pair
        raise PreconditionError(
            f"family is not union-closed: members "
            f"{{{_set_label(a)}}} and {{{_set_label(b)}}} "
            f"miss their union {{{_set_label(a | b)}}}"
        )


def _set_label(mask: int) -> str:
    """The elements of a member mask, comma-separated: ``indices_from_mask``
    as text, for a mask below 2^MAX_GROUND."""
    low, high = _LOW_TEXT[mask & 255], _HIGH_TEXT[mask >> 8]
    return f"{low},{high}" if low and high else low or high


def checked_profile(f: SetFamily) -> FrequencyProfile:
    """Frequency profile of a family the bound speaks about.

    Rejects non-closed input and the degenerate empty-set-only family.
    """
    _require_checkable(f)
    return frequency_profile(f)


def frequency_bound_margin(f: SetFamily) -> float:
    """Max element frequency minus FREQUENCY_BOUND, as a float margin.

    Nonnegative for every admissible union-closed family.  Rejects
    non-closed input and the degenerate empty-set-only family.
    """
    return checked_profile(f).max_frequency - FREQUENCY_BOUND


@dataclass(frozen=True)
class SubsetDistribution:
    """Probability distribution over subset bitmasks of a small ground set."""

    ground_n: int
    atoms: tuple[tuple[float, int], ...]

    def __init__(self, ground_n: int, atoms: Iterable[tuple[float, int]]) -> None:
        ground_n = int(ground_n)
        if not (0 <= ground_n <= MAX_GROUND):
            raise SetFamilyError(
                f"ground_n must lie in [0, {MAX_GROUND}], got {ground_n}"
            )
        limit = 1 << ground_n
        seen: dict[int, float] = {}
        for p, m in atoms:
            p = float(p)
            m = int(m)
            if not (math.isfinite(p) and p >= 0.0):
                raise SetFamilyError(f"probabilities must be finite and >= 0, got {p!r}")
            if not (0 <= m < limit):
                raise SetFamilyError(
                    f"mask {m} does not fit a ground set of size {ground_n}"
                )
            if m in seen:
                raise SetFamilyError(f"duplicate mask {m} in distribution")
            if p > 0.0:
                seen[m] = p
        if not seen:
            raise SetFamilyError("a distribution needs an atom with positive probability")
        total = math.fsum(seen.values())
        if abs(total - 1.0) > 1e-9:
            raise SetFamilyError(f"probabilities must sum to 1 within 1e-9, got {total!r}")
        object.__setattr__(self, "ground_n", ground_n)
        object.__setattr__(
            self, "atoms", tuple((p / total, m) for m, p in sorted(seen.items()))
        )

    @classmethod
    def uniform_on(cls, f: SetFamily) -> "SubsetDistribution":
        p = 1.0 / len(f.members)
        return cls(f.ground_n, [(p, m) for m in f.members])

    @classmethod
    def point_mass(cls, ground_n: int, mask: int) -> "SubsetDistribution":
        return cls(ground_n, [(1.0, mask)])

    def entropy(self) -> float:
        """Shannon entropy of the atom probabilities, in bits."""
        return 0.0 - math.fsum(p * math.log2(p) for p, _ in self.atoms) + 0.0

    def marginal(self, element: int) -> float:
        """Probability that a sample contains the given element.

        Clamped at 1: the sum of normalized weights can round above it.
        """
        if not (0 <= element < self.ground_n):
            raise SetFamilyError(f"element {element} outside the ground set")
        return min(1.0, math.fsum(p for p, m in self.atoms if m >> element & 1))

    def marginals(self) -> tuple[float, ...]:
        return tuple(self.marginal(i) for i in range(self.ground_n))

    def support(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.atoms)


def union_distribution(d: SubsetDistribution) -> SubsetDistribution:
    """Exact distribution of A | B for independent samples A, B from ``d``.

    Every ordered pair of atoms is visited: each block of rows sums its
    products into a per-mask vector with ``np.bincount``, and the blocks
    are folded together with a vectorized Neumaier step, so total
    probability survives to well under 1e-12.  Support sizes above
    MAX_UNION_SUPPORT are rejected rather than silently approximated.
    """
    atoms = d.atoms
    if len(atoms) > MAX_UNION_SUPPORT:
        raise SetFamilyError(
            f"support of {len(atoms)} atoms exceeds the exact-union cap "
            f"{MAX_UNION_SUPPORT}"
        )
    p = np.array([pa for pa, _ in atoms])
    m = np.array([a for _, a in atoms], dtype=np.int64)
    size = 1 << d.ground_n
    acc = np.zeros(size)
    comp = np.zeros(size)
    rows = max(1, _BLOCK_ELEMENTS // len(atoms))
    for i in range(0, len(atoms), rows):
        codes = (m[i:i + rows, None] | m[None, :]).ravel()
        term = np.bincount(codes, weights=(p[i:i + rows, None] * p[None, :]).ravel(),
                           minlength=size)
        t = acc + term
        comp += np.where(np.abs(acc) >= term, (acc - t) + term, (term - t) + acc)
        acc = t
    total = acc + comp
    support = np.flatnonzero(total)
    return SubsetDistribution(d.ground_n, zip(total[support].tolist(), support.tolist()))


def union_entropy_margin(
    d: SubsetDistribution, alpha: float, union: SubsetDistribution | None = None
) -> float:
    """Margin of the subset-level union entropy bound at level ``alpha``.

    For element marginals all <= alpha <= FREQUENCY_BOUND, the entropy of
    A | B dominates R(alpha) = H(alpha^2)/H(alpha) times the entropy of A.
    Returns the left side minus the right side.  A caller that already
    holds ``union_distribution(d)`` passes it as ``union``.
    """
    alpha = as_prob(alpha, "alpha")
    if not (0.0 < alpha <= FREQUENCY_BOUND + 1e-15):
        raise PreconditionError(
            f"alpha must lie in (0, {FREQUENCY_BOUND}], got {alpha!r}"
        )
    worst = max(d.marginals(), default=0.0)
    if worst > alpha + 1e-12:
        raise PreconditionError(
            f"an element marginal {worst!r} exceeds alpha {alpha!r}; "
            "the bound needs every marginal at or below alpha"
        )
    if union is None:
        union = union_distribution(d)
    return union.entropy() - entropy_sq_ratio(alpha) * d.entropy()


def _enum_ground(ground_n: int) -> int:
    ground_n = int(ground_n)
    if not (0 <= ground_n <= MAX_ENUM_GROUND):
        raise SetFamilyError(
            f"exhaustive enumeration needs ground_n <= {MAX_ENUM_GROUND}"
        )
    return ground_n


def _closed_codes(ground_n: int) -> np.ndarray:
    """Ascending codes of every nonempty union-closed family on ``ground_n``.

    Masks are decided in ascending order over a frontier of partial codes.
    Since a | b >= max(a, b), a mask that is the union of two included
    masks is forced in; any other mask is free, and either choice keeps
    the family closed.  So only closed codes are ever built.
    """
    codes = np.zeros(1, dtype=np.int64)
    for m in range(1 << ground_n):
        forced = np.zeros(codes.shape, dtype=bool)
        for a in range(m):
            for b in range(a + 1, m):
                if a | b == m:
                    forced |= (codes >> a) & (codes >> b) & 1 == 1
        free = codes[~forced]
        codes = np.concatenate((codes[forced] | 1 << m, free, free | 1 << m))
    return np.sort(codes[codes != 0])


def enumerate_union_closed(ground_n: int) -> Iterator[SetFamily]:
    """Yield every nonempty union-closed family over ``ground_n`` elements.

    Families are encoded as bitsets over the power set (bit m set means
    mask m is a member) and visited in ascending code order, so the
    stream is canonical.
    """
    ground_n = _enum_ground(ground_n)
    for code in _closed_codes(ground_n).tolist():
        yield family_from_code(code, ground_n)


def family_code(f: SetFamily) -> int:
    """Bitset-over-power-set code of a family; the enumeration order key."""
    code = 0
    for m in f.members:
        code |= 1 << m
    return code


def family_from_code(code: int, ground_n: int) -> SetFamily:
    """Inverse of :func:`family_code` over a ground set of ``ground_n``."""
    return SetFamily(ground_n, (m for m in range(1 << ground_n) if code >> m & 1))


def family_census(ground_n: int) -> list[dict]:
    """Census rows for every enumerated family except the degenerate one.

    Each row carries the family code, its size, the max frequency as an
    exact integer pair, the float margin over FREQUENCY_BOUND, and the
    exact verdicts for the bound and for the stronger 1/2 conjecture.
    Rows come in ascending code order.  Sizes and element counts are
    popcounts of the codes: element i's count is the popcount of the code
    restricted to the masks that contain i.
    """
    ground_n = _enum_ground(ground_n)
    codes = _closed_codes(ground_n)
    codes = codes[codes != 1]  # the degenerate family {{}}
    tops = np.zeros(codes.shape, dtype=np.uint8)
    for i in range(ground_n):
        holders = sum(1 << m for m in range(1 << ground_n) if m >> i & 1)
        tops = np.maximum(tops, np.bitwise_count(codes & holders))
    rows = []
    for code, size, top in zip(
        codes.tolist(), np.bitwise_count(codes).tolist(), tops.tolist()
    ):
        rows.append({
            "family_id": code,
            "size": size,
            "max_frequency_num": top,
            "max_frequency_den": size,
            "margin": top / size - FREQUENCY_BOUND,
            "meets_bound": counts_meet_bound(top, size),
            "meets_half": 2 * top >= size,
        })
    return rows


def census_csv_rows(rows: list[dict]) -> list[list[str]]:
    """Header plus one CSV row per census entry."""
    out = [["family_id", "size", "max_frequency_num", "max_frequency_den", "margin"]]
    for r in rows:
        out.append([
            str(r["family_id"]),
            str(r["size"]),
            str(r["max_frequency_num"]),
            str(r["max_frequency_den"]),
            repr(r["margin"]),
        ])
    return out


# ----------------------------------------------------------------------
# family file format
# ----------------------------------------------------------------------

def _parse_family_text(text: str) -> SetFamily:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise SetFamilyError("empty family file")
    head = lines[0].replace(" ", "")
    if not head.startswith("n="):
        raise SetFamilyError(f"first line must be n=<ground_n>, got {lines[0]!r}")
    try:
        ground_n = int(head[2:])
    except ValueError:
        raise SetFamilyError(f"bad ground size in {lines[0]!r}")
    if not (0 <= ground_n <= MAX_GROUND):
        raise SetFamilyError(f"ground_n must lie in [0, {MAX_GROUND}], got {ground_n}")
    # the bit of every token a line has already shown to parse and to lie
    # in the ground set; a line with any other token is read in full
    bits: dict[str, int] = {}
    members = []
    for line in lines[1:]:
        if line.lower() == "empty":
            members.append(0)
            continue
        toks = line.split(",")
        mask = 0
        try:
            for tok in toks:
                mask |= bits[tok]
        except KeyError:
            try:
                idx = [int(tok) for tok in toks]
            except ValueError:
                raise SetFamilyError(f"bad set line {line!r}")
            mask = mask_from_indices(idx, ground_n)
            bits.update((tok, 1 << i) for tok, i in zip(toks, idx))
        members.append(mask)
    if not members:
        raise SetFamilyError("family file lists no sets")
    return SetFamily(ground_n, members)


def family_text(f: SetFamily) -> str:
    """Render a family in the text file format, canonical sorted order."""
    lines = [f"n={f.ground_n}"]
    lines += [_set_label(m) or "empty" for m in f.members]
    return "\n".join(lines) + "\n"


def load_family(path: str | Path) -> SetFamily:
    """Read a family file: ``n=<ground_n>`` then one set per line."""
    return _parse_family_text(Path(path).read_text(encoding="utf-8"))

