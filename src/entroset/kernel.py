"""Binary entropy kernel.

Scalar primitives for the entropy of a biased coin and for the rate map
``H(x)/x`` that drives everything else in this package: the rate, its
closed-form derivative, and the numerical inverse of the rate.  The
constants of the three bounds live here too, so that the scans and the
set-family margins read one definition: R(x) = H(x^2)/H(x)
(``entropy_sq_ratio``) is the product bound's constant at level x and the
subset bound's at level alpha, and ``union_ratio(a)`` = H(2a - a^2)/H(a)
is the union bound's, R(1 - a) computed from a.  Array versions of the
hot primitives are provided for the bulk scan engines; they use the same
formulas and are cross-checked against the scalar path in the test
suite.  ``binary_entropy_arr``, which the others call, works
through its input in blocks of ``_BLOCK`` elements with in-place ufuncs,
so a large call's temporaries stay in cache.  The inverse is one
algorithm in both forms: a guess from a table of the rate built once at
import, then two Newton steps.

Conventions
-----------
* All entropies are in bits (log base 2).  The one place natural logs
  appear is flagged explicitly at its definition site.
* ``binary_entropy`` is evaluated symmetrically from the smaller of
  ``(x, 1 - x)``, so ``binary_entropy(x) == binary_entropy(1 - x)``
  bitwise whenever ``1 - x`` is exactly representable.
* Tolerances shared by scanners and tests live here as module constants
  so there is exactly one place to read them.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "DomainError",
    "KERNEL_TOL",
    "DERIV_TOL",
    "GOLDEN_THRESHOLD",
    "FREQUENCY_BOUND",
    "as_prob",
    "binary_entropy",
    "entropy_of_square",
    "entropy_sq_ratio",
    "union_ratio",
    "entropy_rate",
    "entropy_rate_deriv",
    "inverse_entropy_rate",
    "binary_entropy_arr",
    "entropy_of_square_arr",
    "entropy_sq_ratio_arr",
    "union_ratio_arr",
    "entropy_rate_arr",
    "inverse_entropy_rate_arr",
]

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2

#: Residual bound for the rate inverse: |rate(inverse(y)) - y| <= KERNEL_TOL * max(1, y).
KERNEL_TOL = 1e-10

#: Agreement bound between closed-form derivatives and central finite differences.
DERIV_TOL = 1e-5

#: The positive root of b^2 = 1 - b.  At this bias the entropy of the square
#: equals the entropy of the bias itself, which pins the tight constant in the
#: product-form inequality.
GOLDEN_THRESHOLD = (math.sqrt(5.0) - 1.0) / 2.0

#: 1 - GOLDEN_THRESHOLD = GOLDEN_THRESHOLD^2 = (3 - sqrt 5)/2, the frequency
#: bound certified by the exact-arithmetic family sweep.
FREQUENCY_BOUND = (3.0 - math.sqrt(5.0)) / 2.0


class DomainError(ValueError):
    """Input outside the mathematical domain of a kernel function."""


def as_prob(x: float, name: str = "x") -> float:
    """Validate and return ``x`` as a probability in [0, 1].

    Rejects NaN, infinities, and out-of-range values with DomainError.
    """
    try:
        v = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {x!r}") from exc
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return v


def _h(x: float) -> float:
    # Core evaluation on 0 < x < 1, no validation.  Both terms are computed
    # from the smaller of (x, 1-x): -s*log2(s) is exact-argument, and the
    # log1p form keeps the complement term accurate when s is tiny.
    s = x if x <= 0.5 else 1.0 - x
    if s == 0.5:
        return 1.0
    v = -s * math.log2(s) - (1.0 - s) * math.log1p(-s) * LOG2E
    return v if v < 1.0 else 1.0


def binary_entropy(x: float) -> float:
    """Entropy in bits of a coin with bias ``x``; H(0) = H(1) = 0."""
    v = as_prob(x, "x")
    if v == 0.0 or v == 1.0:
        return 0.0
    return _h(v)


def entropy_of_square(x: float) -> float:
    """H(x^2), evaluated without cancellation near x = 1.

    For x above 0.7 the complement 1 - x^2 = (1 - x)(1 + x) is formed from
    the exact difference 1 - x, which keeps full relative precision where
    direct squaring would lose it.
    """
    v = as_prob(x, "x")
    c = v * v if v <= 0.7 else (1.0 - v) * (1.0 + v)
    return _h(c) if c > 0.0 else 0.0


def entropy_sq_ratio(x: float) -> float:
    """R(x) = H(x^2) / H(x), extended by its limits R(0) = 0 and R(1) = 2.

    The product bound's constant at level x, and the subset bound's at
    level alpha.  Strictly increasing on [0, 1]; R equals 1 exactly at the
    golden threshold where x^2 = 1 - x.  Both entropies keep full relative
    precision as x -> 1 (see :func:`entropy_of_square`), so the quotient
    needs no other form there.
    """
    v = as_prob(x)
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return 2.0
    return entropy_of_square(v) / binary_entropy(v)


def union_ratio(a: float) -> float:
    """H(2a - a^2) / H(a), extended by its limits 2 at a = 0 and 0 at a = 1.

    The union bound's constant at level a.  It is R(1 - a), since
    1 - (1 - a)^2 = 2a - a^2, but computed from a: forming 1 - a first
    rounds away the low bits of a small a, and once 1 - a rounds to 1 the
    quotient is 0/0.  Good to a few ulps for a up to 1/2, which holds the
    bound's levels (0, FREQUENCY_BOUND]; toward a = 1, 2a - a^2 rounds
    toward 1, and R(1 - a) is the accurate form there.
    """
    v = as_prob(a, "a")
    if v == 0.0:
        return 2.0
    if v == 1.0:
        return 0.0
    return binary_entropy(v * (2.0 - v)) / binary_entropy(v)


def entropy_rate(x: float) -> float:
    """The entropy rate H(x)/x on (0, 1]; strictly decreasing, rate(1) = 0."""
    v = as_prob(x, "x")
    if v == 0.0:
        raise DomainError("entropy_rate is undefined at x = 0")
    return _rate(v)


def entropy_rate_deriv(x: float) -> float:
    """Closed-form derivative of the rate: log2(1 - x) / x^2 on (0, 1).

    Always negative; diverges like -log2(e)/x at 0 and logarithmically at 1.
    """
    v = as_prob(x, "x")
    if v == 0.0 or v == 1.0:
        raise DomainError("entropy_rate_deriv is defined on the open interval (0, 1)")
    return _rate_deriv(v)


def _rate(x: float) -> float:
    # rate on (0, 1], no validation
    if x >= 1.0:
        return 0.0
    return _h(x) / x


def _rate_deriv(x: float) -> float:
    # Divided by x twice, not by x*x, which underflows below 1e-154; at a
    # subnormal x it overflows to -inf and a Newton step on it is zero.
    # The floor on 1 - x keeps it finite at x = 1, where a kept step may land.
    if x >= 0.5:
        return math.log2(max(1.0 - x, 5e-324)) / x / x
    return math.log1p(-x) * LOG2E / x / x


# rate(1 - 2^-52): targets below this are indistinguishable from the root
# x = 1 at double precision.
_RATE_AT_ONE_ULP = _rate(1.0 - 2.0 ** -52)


# ---------------------------------------------------------------------------
# Array versions for the bulk scan engines.  Same formulas as the scalar
# path; inputs are trusted to lie in the valid range.
# ---------------------------------------------------------------------------

#: Elements per block of binary_entropy_arr: 8192 doubles, 64 KiB per temporary.
_BLOCK = 8192


def binary_entropy_arr(x: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy in bits for x in [0, 1].

    Per element: s = min(x, 1 - x), then -s log2(s) - (1 - s) log1p(-s)
    log2(e), capped at 1, and +0.0 wherever s is not positive.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=float)
    flat_x = x.ravel()
    flat_out = out.reshape(-1)
    n = flat_x.size
    s_buf = np.empty(min(n, _BLOCK))
    t_buf = np.empty(min(n, _BLOCK))
    # s = 0 makes 0 * -inf = NaN, and NaN marks every element whose s is
    # not positive; the last step turns those into +0.0.  Every other
    # element is positive, so fmax leaves it as it is.
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, n, _BLOCK):
            xb = flat_x[i:i + _BLOCK]
            ob = flat_out[i:i + _BLOCK]
            s = s_buf[:xb.size]
            t = t_buf[:xb.size]
            np.subtract(1.0, xb, out=s)
            np.minimum(xb, s, out=s)
            np.negative(s, out=t)
            np.log2(s, out=ob)
            np.multiply(t, ob, out=ob)
            np.log1p(t, out=t)
            np.subtract(1.0, s, out=s)
            np.multiply(s, t, out=t)
            np.multiply(t, LOG2E, out=t)
            np.subtract(ob, t, out=ob)
            np.minimum(ob, 1.0, out=ob)
            np.fmax(ob, 0.0, out=ob)
    return out


def entropy_of_square_arr(x: np.ndarray) -> np.ndarray:
    """Elementwise H(x^2) with the cancellation-free complement branch."""
    x = np.asarray(x, dtype=float)
    return binary_entropy_arr(np.where(x > 0.7, (1.0 - x) * (1.0 + x), x * x))


def entropy_sq_ratio_arr(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`entropy_sq_ratio`, with the same ends."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        r = entropy_of_square_arr(x) / binary_entropy_arr(x)
    return np.where(x == 0.0, 0.0, np.where(x == 1.0, 2.0, r))


def union_ratio_arr(a: np.ndarray) -> np.ndarray:
    """Elementwise :func:`union_ratio`, with the same ends."""
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore"):
        r = binary_entropy_arr(a * (2.0 - a)) / binary_entropy_arr(a)
    return np.where(a == 0.0, 2.0, np.where(a == 1.0, 0.0, r))


def entropy_rate_arr(x: np.ndarray) -> np.ndarray:
    """Elementwise H(x)/x for x in (0, 1]."""
    x = np.asarray(x, dtype=float)
    return binary_entropy_arr(x) / x


# ---------------------------------------------------------------------------
# The inverse of the rate: one algorithm in a scalar and an array form.
# ---------------------------------------------------------------------------


def _rate_table() -> tuple[np.ndarray, np.ndarray]:
    # (log y, logit x) at knots spread evenly in logit x over
    # [1/(1 + e^36), 1 - 2^-52], ordered by increasing log y.  Near 1 the
    # even logits round to repeated doubles; dropping the repeats keeps the
    # log y column strictly increasing.  (Not np.unique: its first call
    # imports numpy.ma, which would add to every start-up.)
    xk = 1.0 / (1.0 + np.exp(-np.linspace(-36.0, 36.0, 4096)))
    xk = xk[(np.diff(xk, prepend=0.0) > 0.0) & (xk < 1.0)]
    log_y = np.log(entropy_rate_arr(xk))[::-1].copy()
    logit_x = (np.log(xk) - np.log1p(-xk))[::-1].copy()
    log_y.setflags(write=False)
    logit_x.setflags(write=False)
    return log_y, logit_x


_TABLE_LOG_Y, _TABLE_LOGIT_X = _rate_table()
# The same table as Python floats, for the scalar route's bisect lookup.
_LOG_Y_LIST = _TABLE_LOG_Y.tolist()
_LOGIT_X_LIST = _TABLE_LOGIT_X.tolist()


def inverse_entropy_rate(y: float) -> float:
    """The unique x in (0, 1] with entropy_rate(x) = y, for y >= 0.

    The scalar form of :func:`inverse_entropy_rate_arr`, step for step and
    in Python floats: the table guess (or the tail guess above the table),
    then two Newton steps, each kept only while x stays in (0, 1].  The
    result satisfies ``|entropy_rate(x) - y| <= KERNEL_TOL * max(1, y)``;
    targets whose root is too deep in the subnormal range to meet it (from
    about y = 1050 up) raise DomainError.
    """
    try:
        yv = float(y)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"y must be a real number, got {y!r}") from exc
    if not math.isfinite(yv) or yv < 0.0:
        raise DomainError(f"y must be finite and nonnegative, got {y!r}")
    if yv <= _RATE_AT_ONE_ULP:
        # The root is within one double-precision step of 1; the residual
        # bound holds at x = 1 itself.
        return 1.0

    log_y = math.log(yv)
    if log_y > _LOG_Y_LIST[-1]:
        x = 2.0 ** (LOG2E - yv)
        if x == 0.0:
            raise DomainError(f"y = {yv} exceeds the representable rate range")
    else:
        # np.interp's formula on the knot pair around log y
        j = max(bisect.bisect_right(_LOG_Y_LIST, log_y) - 1, 0)
        t = _LOGIT_X_LIST[j]
        if j + 1 < len(_LOG_Y_LIST):
            slope = (_LOGIT_X_LIST[j + 1] - t) / (_LOG_Y_LIST[j + 1] - _LOG_Y_LIST[j])
            t += slope * (log_y - _LOG_Y_LIST[j])
        x = 1.0 / (1.0 + math.exp(-t))
    for _ in range(2):
        xn = x - (_rate(x) - yv) / _rate_deriv(x)
        if 0.0 < xn <= 1.0:
            x = xn
    if x < 1e-290 and abs(_rate(x) - yv) + 1e-323 / x > KERNEL_TOL * yv:
        # See inverse_entropy_rate_arr for the 1e-323 / x term.
        raise DomainError(f"y = {yv} exceeds the representable rate range")
    return x


def inverse_entropy_rate_arr(y: np.ndarray) -> np.ndarray:
    """Elementwise inverse of the rate map for y >= 0.

    The first guess interpolates logit(x) against log y on a fixed table
    of the rate (4096 knots built once at import), or takes the tail form
    x = 2^-(y - log2 e) above the table; it is good to about 1e-5
    relative.  Two Newton steps on the closed-form derivative, each kept
    only if it stays in (0, 1], bring it to the double-precision root.
    The result meets the residual contract
    ``|entropy_rate(x) - y| <= KERNEL_TOL * max(1, y)`` elementwise, and
    targets whose root is too deep in the subnormal range to meet it
    (from about y = 1050 up) raise DomainError.  :func:`inverse_entropy_rate`
    takes the same steps on one Python float.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        return np.asarray(inverse_entropy_rate(float(y)))
    if np.any(~np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("y must be finite and nonnegative")

    flat = y.ravel()
    x = np.ones(flat.shape, dtype=float)
    solve = flat > _RATE_AT_ONE_ULP
    ys = flat[solve]
    if ys.size:
        log_y = np.log(ys)
        xs = 1.0 / (1.0 + np.exp(-np.interp(log_y, _TABLE_LOG_Y, _TABLE_LOGIT_X)))
        # Above the table the root is below 1/(1 + e^36), where
        # rate(x) = log2(1/x) + log2(e) - O(x) makes x = 2^-(y - log2 e)
        # good to the last few bits.
        tail = log_y > _TABLE_LOG_Y[-1]
        xs[tail] = np.exp2(LOG2E - ys[tail])
        if np.any(xs == 0.0):
            raise DomainError("y exceeds the representable rate range")
        for _ in range(2):
            fx = entropy_rate_arr(xs) - ys
            # divided by x twice, not by x*x, which underflows below 1e-154;
            # at subnormal x the derivative overflows and the step is zero
            with np.errstate(divide="ignore", over="ignore"):
                d = np.where(
                    xs >= 0.5,
                    np.log2(np.maximum(1.0 - xs, 5e-324)),
                    np.log1p(-np.minimum(xs, 0.5)) * LOG2E,
                ) / xs / xs
                xn = xs - fx / d
            xs = np.where((xn > 0.0) & (xn <= 1.0), xn, xs)
        tiny = xs < 1e-290
        if np.any(tiny):
            # Subnormal roots cannot carry enough precision to meet the
            # contract.  At a subnormal x the float rate is itself off by up
            # to about 1e-323 / x, since H(x) is rounded to a multiple of
            # 2^-1074, so that is added to the residual before judging it.
            xt, yt = xs[tiny], ys[tiny]
            if np.any(np.abs(entropy_rate_arr(xt) - yt) + 1e-323 / xt > KERNEL_TOL * yt):
                raise DomainError("y exceeds the representable rate range")
        x[solve] = xs
    return x.reshape(y.shape)
