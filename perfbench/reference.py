"""The paper's quantities in mpmath at 40 digits, written apart from entroset.

Every margin the program reports at a witness is recomputed here from the
definitions: the binary entropy H in bits, the rate H(x)/x and its inverse,
the ratio curves, and the pairwise union and product entropies of a finite
distribution.  Float inputs convert to mpmath exactly.
"""

from __future__ import annotations

from mpmath import mp, mpf

mp.dps = 40

SQRT5 = mp.sqrt(5)
GOLDEN = (SQRT5 - 1) / 2
BOUND = (3 - SQRT5) / 2


def H(x) -> mpf:
    x = mpf(x)
    if x <= 0 or x >= 1:
        return mpf(0)
    return -(x * mp.log(x, 2) + (1 - x) * mp.log(1 - x, 2))


def rate(x) -> mpf:
    x = mpf(x)
    return H(x) / x


def inverse_rate(y) -> mpf:
    """The x in (0, 1] with H(x)/x = y, by bisection on log x.

    The rate decreases from +inf at 0 to 0 at 1, and rate(x) > log2(1/x),
    so 2^-(y + 3) brackets the root from below.
    """
    y = mpf(y)
    if y <= 0:
        return mpf(1)
    lo, hi = -(y + 3) * mp.log(2), mpf(0)
    for _ in range(mp.prec + 20):
        mid = (lo + hi) / 2
        if rate(mp.exp(mid)) > y:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def sq_ratio(x) -> mpf:
    """R(x) = H(x^2)/H(x), with R(0) = 0 and R(1) = 2."""
    x = mpf(x)
    if x == 0:
        return mpf(0)
    if x == 1:
        return mpf(2)
    return H(x * x) / H(x)


def sq_ratio_scaled(x) -> mpf:
    """S(x) = R(x)/x, with S(0) = 2."""
    x = mpf(x)
    return mpf(2) if x == 0 else sq_ratio(x) / x


def composed_rate(alpha, x) -> mpf:
    return rate(mpf(alpha) * inverse_rate(x))


def tail_rate(z) -> mpf:
    """-(1 - z) ln(1 - z)/z in nats, with m(0) = 1 and m(1) = 0."""
    z = mpf(z)
    if z == 0:
        return mpf(1)
    if z == 1:
        return mpf(0)
    return -(1 - z) * mp.log(1 - z) / z


def moments(ws, vs) -> tuple[mpf, mpf]:
    """(mean, expected entropy) of the atoms (w_i, v_i)."""
    t = mp.fsum(mpf(w) * mpf(v) for w, v in zip(ws, vs))
    u = mp.fsum(mpf(w) * H(v) for w, v in zip(ws, vs))
    return t, u


def pair_entropy(ws, vs, combine) -> mpf:
    """sum_ij w_i w_j H(combine(v_i, v_j)) for independent pairs."""
    atoms = [(mpf(w), mpf(v)) for w, v in zip(ws, vs)]
    return mp.fsum(wi * wj * H(combine(vi, vj)) for wi, vi in atoms for wj, vj in atoms)


def joint_entropy(ws, vs) -> mpf:
    return pair_entropy(ws, vs, lambda a, b: a * b)


def union_bound_margin(level, ws, vs) -> mpf:
    a = mpf(level)
    lhs = pair_entropy(ws, vs, lambda x, y: x + y - x * y)
    return lhs - H(a * (2 - a)) / H(a) * moments(ws, vs)[1]


def product_bound_margin(level, ws, vs) -> mpf:
    b = mpf(level)
    return joint_entropy(ws, vs) - H(b * b) / H(b) * moments(ws, vs)[1]


def optimum(t, u) -> tuple[mpf, mpf]:
    """(v, least joint entropy) at mean t and expected entropy u: t^2 H(v^2)/v^2."""
    v = max(inverse_rate(u / t), mpf(t))
    return v, t * t * H(v * v) / (v * v)


def merge(p1, x1, p2, x2) -> tuple[mpf, mpf]:
    """(q, y): one atom with the mean and expected entropy of the two."""
    p1, x1, p2, x2 = (mpf(a) for a in (p1, x1, p2, x2))
    mass = p1 * x1 + p2 * x2
    y = inverse_rate((p1 * H(x1) + p2 * H(x2)) / mass)
    return mass / y, y


def merge_quadruple_margin(p1, x1, p2, x2, z_grid) -> mpf:
    """Least of the squared-merge margin and the scaled margins on the z grid."""
    q, y = merge(p1, x1, p2, x2)
    p1, x1, p2, x2 = (mpf(a) for a in (p1, x1, p2, x2))
    worst = (p1 * p1 * H(x1 * x1) + 2 * p1 * p2 * H(x1 * x2)
             + p2 * p2 * H(x2 * x2) - q * q * H(y * y))
    for z in z_grid:
        z = mpf(z)
        worst = min(worst, p1 * H(z * x1) + p2 * H(z * x2) - q * H(z * y))
    return worst


def shannon(probs) -> mpf:
    return -mp.fsum(p * mp.log(p, 2) for p in probs if p > 0)


def union_distribution(ps, masks) -> dict[int, mpf]:
    """Law of A | B for independent A, B drawn from {mask: p}."""
    out: dict[int, mpf] = {}
    for pa, a in zip(ps, masks):
        for pb, b in zip(ps, masks):
            out[a | b] = out.get(a | b, mpf(0)) + mpf(pa) * mpf(pb)
    return out
