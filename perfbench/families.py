"""Union-closed families on a 2^n membership bitmap, written apart from entroset.

The benchmark builds its family inputs and checks the program's family
outputs with this module, so nothing here imports the package under test.
A family is a sorted ``int64`` array of member masks.
"""

from __future__ import annotations

import numpy as np


def closure(gens: np.ndarray, n: int) -> np.ndarray:
    """All unions of nonempty subsets of ``gens``: the smallest closed family.

    Adds one generator at a time: S_k = S_{k-1} | {g_k} | {s | g_k : s in S_{k-1}}.
    """
    have = np.zeros(1 << n, dtype=bool)
    for g in np.unique(np.asarray(gens, dtype=np.int64)):
        members = np.flatnonzero(have)
        have[members | g] = True
        have[g] = True
    return np.flatnonzero(have).astype(np.int64)


def sub_union(members: np.ndarray, n: int) -> np.ndarray:
    """For each member m, the union of the members that are proper subsets of m.

    An OR-over-subsets transform on the bitmap: ``low[x]`` is the union of
    the members contained in x, so the proper-subset union of m is the OR of
    ``low[m without bit i]`` over the bits i of m.
    """
    low = np.zeros(1 << n, dtype=np.int64)
    low[members] = members
    idx = np.arange(1 << n, dtype=np.int64)
    for i in range(n):
        has = (idx >> i) & 1 == 1
        low[has] |= low[idx[has] ^ (1 << i)]
    out = np.zeros(members.shape, dtype=np.int64)
    for i in range(n):
        has = (members >> i) & 1 == 1
        out[has] |= low[members[has] ^ (1 << i)]
    return out


def generators(members: np.ndarray, n: int) -> np.ndarray:
    """The join-irreducible members: the least set whose closure is the family.

    The empty set counts as one, since no two other members unite to it.
    """
    return members[(sub_union(members, n) != members) | (members == 0)]


def is_union_closed(members: np.ndarray, n: int) -> bool:
    have = np.zeros(1 << n, dtype=bool)
    have[members] = True
    return bool(np.all(have[np.bitwise_or.outer(members, members)]))


def element_counts(members: np.ndarray, n: int) -> list[int]:
    bits = (members[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return [int(c) for c in bits.sum(axis=0)]


def meets_bound(count: int, size: int) -> bool:
    """count/size >= (3 - sqrt 5)/2 in integers: 3 size - 2 count <= sqrt(5) size."""
    rhs = 3 * size - 2 * count
    return rhs <= 0 or rhs * rhs <= 5 * size * size


def sized_family(rng: np.random.Generator, n: int, size: int, density: float) -> np.ndarray:
    """A union-closed family over n elements with exactly ``size`` members.

    Random generators (each element in with chance ``density``) are added
    until the closure reaches ``size``; join-irreducible members are then
    dropped at random until the count is exact.  Dropping irreducible
    members keeps a family closed, since none of them is a union of two
    others.
    """
    have = np.zeros(1 << n, dtype=bool)
    weights = 1 << np.arange(n, dtype=np.int64)
    while have.sum() < size:
        g = int(weights[rng.uniform(size=n) < density].sum())
        members = np.flatnonzero(have)
        have[members | g] = True
        have[g] = True
    members = np.flatnonzero(have).astype(np.int64)
    while members.size > size:
        irreducible = generators(members, n)
        drop = rng.choice(irreducible, size=min(irreducible.size, members.size - size), replace=False)
        members = np.setdiff1d(members, drop)
    return members


def family_text(members: np.ndarray, n: int) -> str:
    lines = [f"n={n}"]
    for m in members.tolist():
        idx = [str(i) for i in range(n) if m >> i & 1]
        lines.append(",".join(idx) if idx else "empty")
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> tuple[int, np.ndarray]:
    """(n, sorted unique members) from the family file format."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0].replace(" ", "")[2:])
    members = set()
    for ln in lines[1:]:
        mask = 0
        if ln.lower() != "empty":
            for tok in ln.split(","):
                mask |= 1 << int(tok)
        members.add(mask)
    return n, np.array(sorted(members), dtype=np.int64)


def enumerate_closed(n: int) -> list[np.ndarray]:
    """Every nonempty union-closed family over n elements, by forced masks.

    Masks are decided in ascending order.  Since a | b >= max(a, b), a mask
    that is the union of two included masks is forced in; any other mask
    is free, and both choices leave the family closed.
    """
    out: list[np.ndarray] = []
    size = 1 << n

    def grow(m: int, members: list[int]) -> None:
        if m == size:
            if members:
                out.append(np.array(members, dtype=np.int64))
            return
        if any((a | b) == m for i, a in enumerate(members) for b in members[i + 1:]):
            grow(m + 1, members + [m])
            return
        grow(m + 1, members)
        grow(m + 1, members + [m])

    grow(0, [])
    return out
