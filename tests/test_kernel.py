"""Tests for the binary entropy kernel.

The scalar inverse-rate oracle used here is an independent pure-bisection
solver written against ``math`` only, so a regression in the package's
table-and-Newton solver cannot hide behind itself.  Both routes of the
inverse are also checked against the vectorized bisection that the array
route replaced, kept here as their oracle.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import kernel
from entroset.kernel import (
    DERIV_TOL,
    DomainError,
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    KERNEL_TOL,
    LOG2E,
    as_prob,
    binary_entropy,
    binary_entropy_arr,
    entropy_of_square,
    entropy_of_square_arr,
    entropy_rate,
    entropy_rate_arr,
    entropy_rate_deriv,
    entropy_sq_ratio,
    entropy_sq_ratio_arr,
    inverse_entropy_rate,
    inverse_entropy_rate_arr,
    union_ratio,
    union_ratio_arr,
)

mpmath.mp.dps = 50


def mp_entropy(x) -> float:
    """High-precision H(x) in bits via mpmath, rounded to a double.

    Accepts an mpf so callers can pass unrounded arguments like the exact
    square of a double.
    """
    xm = mpmath.mpf(x)
    if xm == 0 or xm == 1:
        return 0.0
    v = -(xm * mpmath.log(xm, 2) + (1 - xm) * mpmath.log(1 - xm, 2))
    return float(v)


def mp_rate(x: float):
    """High-precision H(x)/x in bits at the double ``x``, as an mpf."""
    xm = mpmath.mpf(x)
    return -(xm * mpmath.log(xm, 2) + (1 - xm) * mpmath.log1p(-xm) / mpmath.log(2)) / xm


def bisect_inverse_rate(y: float, iters: int = 200) -> float:
    """Plain bisection for entropy_rate(x) = y, no Newton, no shortcuts."""
    def rate(x: float) -> float:
        if x >= 1.0:
            return 0.0
        s = min(x, 1.0 - x)
        h = -s * math.log2(s) - (1.0 - s) * math.log2(1.0 - s)
        return h / x

    lo, hi = 1e-300, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if rate(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_inverse_rate_arr(y: np.ndarray) -> np.ndarray:
    """Vectorized bisection for entropy_rate(x) = y: 25 geometric and 60
    arithmetic halvings, then four bracketed Newton steps."""
    flat = np.asarray(y, dtype=float).ravel()
    x = np.ones(flat.shape, dtype=float)
    solve = flat > kernel._RATE_AT_ONE_ULP
    ys = flat[solve]
    lo = np.where(ys <= 49.0, 1e-15, 2.0 ** (-(ys + 3.0)))
    hi = np.ones_like(ys)
    for _ in range(25):
        mid = 2.0 ** (0.5 * (np.log2(lo) + np.log2(hi)))
        mid = np.clip(mid, lo, hi)
        too_high = entropy_rate_arr(np.maximum(mid, 5e-324)) > ys
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        too_high = entropy_rate_arr(mid) > ys
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    xs = 0.5 * (lo + hi)
    for _ in range(4):
        fx = entropy_rate_arr(xs) - ys
        with np.errstate(divide="ignore"):
            d = np.where(
                xs >= 0.5,
                np.log2(np.maximum(1.0 - xs, 5e-324)),
                np.log1p(-np.minimum(xs, 0.5)) * LOG2E,
            ) / (xs * xs)
        xn = xs - fx / d
        ok = (xn > lo) & (xn < hi)
        xs = np.where(ok, xn, xs)
    x[solve] = xs
    return x.reshape(np.shape(y))


def oracle_binary_entropy_arr(x: np.ndarray) -> np.ndarray:
    """The unblocked array entropy: gather the positive s, compute, scatter."""
    x = np.asarray(x, dtype=float)
    s = np.minimum(x, 1.0 - x)
    out = np.zeros(s.shape, dtype=float)
    m = s > 0.0
    sm = s[m]
    out[m] = -sm * np.log2(sm) - (1.0 - sm) * np.log1p(-sm) * LOG2E
    np.minimum(out, 1.0, out=out)
    return out


def oracle_entropy_of_square_arr(x: np.ndarray) -> np.ndarray:
    """H(x^2) by branch: gathered squares and gathered complements."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=float)
    hi = x > 0.7
    lo = ~hi
    out[lo] = oracle_binary_entropy_arr(x[lo] * x[lo])
    xh = x[hi]
    out[hi] = oracle_binary_entropy_arr((1.0 - xh) * (1.0 + xh))
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal types, shapes and dtypes, and equal bits: signs of zero included."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBinaryEntropy:
    def test_endpoint_and_center_anchors(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry_is_bitwise_on_dyadics(self):
        # 1 - k/64 is exact in binary, so the symmetric evaluation must
        # agree to the last bit.
        for k in range(1, 64):
            x = k / 64.0
            assert binary_entropy(x) == binary_entropy(1.0 - x)

    def test_matches_mpmath_to_near_machine(self):
        xs = [i / 97.0 for i in range(1, 97)] + [1e-9, 1e-4, 1.0 - 1e-4]
        for x in xs:
            expected = mp_entropy(x)
            assert binary_entropy(x) == pytest.approx(expected, rel=2e-15, abs=1e-300)

    def test_golden_identity_is_bitwise(self):
        # The frequency bound is 1 - golden and also golden squared, so the
        # symmetric evaluation gives exactly equal entropies.
        assert FREQUENCY_BOUND == 1.0 - GOLDEN_THRESHOLD
        assert binary_entropy(FREQUENCY_BOUND) == binary_entropy(GOLDEN_THRESHOLD)
        assert GOLDEN_THRESHOLD * GOLDEN_THRESHOLD == pytest.approx(
            FREQUENCY_BOUND, abs=2e-16
        )

    def test_rejects_out_of_domain(self):
        for bad in (-0.1, 1.1, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                binary_entropy(bad)
        with pytest.raises(DomainError):
            binary_entropy("half")

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range_and_symmetry_property(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        # Bitwise symmetry is claimed only where the complement is exact;
        # for x below half an ulp of 1 the complement rounds away.
        if 1.0 - (1.0 - x) == x:
            assert h == binary_entropy(1.0 - x)


class TestEntropyOfSquare:
    def test_matches_mpmath_including_near_one(self):
        # The reference entropy is taken at the exact (unrounded) square
        # of the double input.
        for x in (0.1, 0.3, 0.69, 0.71, 0.9, 0.999999999, 1.0 - 1e-12):
            expected = mp_entropy(mpmath.mpf(x) ** 2)
            assert entropy_of_square(x) == pytest.approx(expected, rel=1e-12)

    def test_near_one_beats_naive_squaring(self):
        x = 1.0 - 1e-9
        naive = binary_entropy(x * x)
        careful = entropy_of_square(x)
        expected = mp_entropy(mpmath.mpf(x) ** 2)
        assert abs(careful - expected) <= abs(naive - expected) + 1e-22
        assert careful == pytest.approx(expected, rel=1e-12)

    def test_endpoints(self):
        assert entropy_of_square(0.0) == 0.0
        assert entropy_of_square(1.0) == 0.0

    def test_a_square_that_underflows_has_zero_entropy(self):
        assert entropy_of_square(1e-200) == 0.0
        assert entropy_of_square_arr(np.array([1e-200]))[0] == 0.0


class TestBoundConstants:
    def test_union_ratio_matches_mpmath(self):
        # the union bound's constant is computed from a, so it keeps full
        # relative precision down to the smallest levels
        rng = np.random.default_rng(20)
        a = np.concatenate([
            np.geomspace(1e-16, FREQUENCY_BOUND, 60)[1:],
            np.exp(rng.uniform(math.log(1e-16), math.log(FREQUENCY_BOUND), 200)),
        ])
        for x, got in zip(a.tolist(), union_ratio_arr(a)):
            am = mpmath.mpf(x)
            y = 2 * am - am * am
            expected = float(mpmath.mpf(mp_entropy(y)) / mpmath.mpf(mp_entropy(am)))
            assert union_ratio(x) == pytest.approx(expected, rel=1e-14)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_union_ratio_is_the_ratio_at_the_complement(self):
        # R(1 - a) at levels where 1 - a is exact, and 1 at the bound itself
        for a in (0.125, 0.25, 0.375, 0.5):
            assert union_ratio(a) == pytest.approx(entropy_sq_ratio(1.0 - a), rel=1e-15)
        assert union_ratio(FREQUENCY_BOUND) == pytest.approx(1.0, rel=1e-15)
        assert (union_ratio(0.0), union_ratio(1.0)) == (2.0, 0.0)

    @pytest.mark.parametrize("scalar, array", [
        (entropy_sq_ratio, entropy_sq_ratio_arr),
        (union_ratio, union_ratio_arr),
    ])
    def test_scalar_and_array_forms_agree(self, scalar, array):
        xs = np.concatenate([
            [0.0, 0.7, 1.0 - 2.0 ** -53, 1.0],
            np.random.default_rng(21).random(2000),
        ])
        want = np.array([scalar(x) for x in xs.tolist()])
        np.testing.assert_array_max_ulp(array(xs), want, maxulp=4)


class TestEntropyRate:
    def test_anchors(self):
        assert entropy_rate(1.0) == 0.0
        assert entropy_rate(0.5) == 2.0
        with pytest.raises(DomainError):
            entropy_rate(0.0)

    def test_strictly_decreasing(self):
        xs = np.linspace(1e-6, 1.0, 4001)
        vals = [entropy_rate(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_log_reciprocal_near_zero(self):
        # rate(x) > log2(1/x), the leading term of the inverse's tail guess
        for x in (1e-15, 1e-9, 1e-3, 0.1):
            assert entropy_rate(x) > math.log2(1.0 / x)

    def test_derivative_matches_central_difference(self):
        for x in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            h = 1e-6 * max(x, 1.0 - x)
            fd = (entropy_rate(x + h) - entropy_rate(x - h)) / (2.0 * h)
            assert entropy_rate_deriv(x) == pytest.approx(fd, rel=DERIV_TOL)

    def test_derivative_signs_and_singularities(self):
        assert entropy_rate_deriv(1e-6) < -1e4
        assert entropy_rate_deriv(1.0 - 1e-6) < -19.0
        for x in (0.2, 0.5, 0.8):
            assert entropy_rate_deriv(x) < 0.0
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                entropy_rate_deriv(bad)


class TestInverseRate:
    def test_exact_anchors(self):
        assert inverse_entropy_rate(0.0) == 1.0
        assert inverse_entropy_rate(2.0) == pytest.approx(0.5, abs=1e-10)

    def test_against_pure_bisection_oracle(self):
        for y in (0.25, 1.0, 2.0, 3.5, 7.0, 15.0):
            assert inverse_entropy_rate(y) == pytest.approx(
                bisect_inverse_rate(y), rel=1e-9
            )

    def test_residual_contract_on_grid(self):
        ys = np.concatenate([
            np.linspace(1e-6, 1.0, 101),
            np.linspace(1.0, 20.0, 101),
            np.array([30.0, 40.0, 50.0, 100.0]),
        ])
        for y in ys:
            y = float(y)
            x = inverse_entropy_rate(y)
            assert 0.0 < x <= 1.0
            assert abs(entropy_rate(x) - y) <= KERNEL_TOL * max(1.0, y)

    def test_monotone_decreasing_in_target(self):
        ys = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        xs = [inverse_entropy_rate(y) for y in ys]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_tiny_targets_collapse_to_one(self):
        assert inverse_entropy_rate(1e-18) == 1.0

    def test_rejections(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                inverse_entropy_rate(bad)
        with pytest.raises(DomainError):
            inverse_entropy_rate(1e6)  # root would be subnormal

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=60.0, allow_nan=False))
    def test_round_trip_property(self, y):
        x = inverse_entropy_rate(y)
        assert abs(entropy_rate(x) - y) <= KERNEL_TOL * max(1.0, y)

    def test_scalar_inverse_makes_few_rate_evaluations(self, monkeypatch):
        calls = []
        forward = kernel._rate
        monkeypatch.setattr(kernel, "_rate", lambda x: calls.append(x) or forward(x))
        # 1060 has a subnormal root, which takes the third evaluation.
        for y in (1e-6, 0.7, 2.0, 12.0, 60.0, 1060.0):
            calls.clear()
            try:
                kernel.inverse_entropy_rate(y)
            except DomainError:
                pass
            assert 0 < len(calls) <= 3


class TestBlockedKernel:
    """The blocked array kernels against the unblocked oracles above, bit
    for bit, on a default-sized block and on blocks of 5 and 7 elements."""

    @pytest.fixture(params=[None, 5, 7])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(kernel, "_BLOCK", request.param)
        return kernel._BLOCK

    @staticmethod
    def special_values() -> np.ndarray:
        near_half = [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                     0.5 - 2.0 ** -30, 0.5 + 2.0 ** -30]
        return np.array([0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0 ** -53,
                         -0.0, 1.0 - 2.0 ** -52, 2.0 ** -1022, *near_half])

    def inputs(self, block: int) -> list:
        rng = np.random.default_rng(2024)
        mixed = np.concatenate([
            self.special_values(),
            rng.uniform(size=500),
            10.0 ** rng.uniform(-320, 0, size=200),
            1.0 - 10.0 ** rng.uniform(-16, 0, size=200),
        ])
        rng.shuffle(mixed)
        grid = rng.uniform(size=(37, 29))
        grid[3, :] = 0.0
        grid[:, 5] = 1.0
        return [
            self.special_values(),
            np.array([]),
            np.empty((0, 3)),
            np.array(0.0),
            np.array(0.3),
            np.array(5e-324),
            grid,
            grid.T,                    # not contiguous
            mixed[::3],                # strided
            grid[::2, 1::3],
            mixed[: block - 1],
            mixed[:block],
            mixed[: block + 1],
            np.resize(mixed, 3 * block + 2),
            [0.25, 0.75],              # not an array
        ]

    def test_entropy_is_the_oracle_bit_for_bit(self, block):
        for x in self.inputs(block):
            assert_same_bits(binary_entropy_arr(x), oracle_binary_entropy_arr(x))

    def test_zeros_are_positive(self, block):
        got = binary_entropy_arr(np.array([0.0, -0.0, 1.0, 0.5, 5e-324]))
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0, got[4]]
        assert not np.signbit(got).any()
        assert got[4] > 0.0

    def test_square_and_rate_are_unchanged(self, block):
        for x in self.inputs(block):
            x = np.asarray(x, dtype=float)
            assert_same_bits(entropy_of_square_arr(x), oracle_entropy_of_square_arr(x))
            pos = np.where(x > 0.0, x, 0.5)
            assert_same_bits(entropy_rate_arr(pos), oracle_binary_entropy_arr(pos) / pos)

    def test_sizes_around_the_default_block(self):
        rng = np.random.default_rng(7)
        for n in (kernel._BLOCK - 1, kernel._BLOCK, kernel._BLOCK + 1):
            x = rng.uniform(size=n)
            x[::97] = 0.0
            assert_same_bits(binary_entropy_arr(x), oracle_binary_entropy_arr(x))

    def test_input_is_not_written(self, block):
        x = np.linspace(0.0, 1.0, 3 * block + 1)
        before = x.copy()
        binary_entropy_arr(x)
        entropy_of_square_arr(x)
        assert np.array_equal(x, before)


class TestArrayVersions:
    def test_entropy_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 1001)
        arr = binary_entropy_arr(xs)
        scalars = np.array([binary_entropy(float(x)) for x in xs])
        assert np.max(np.abs(arr - scalars)) <= 1e-15

    def test_square_entropy_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 501)
        arr = entropy_of_square_arr(xs)
        scalars = np.array([entropy_of_square(float(x)) for x in xs])
        assert np.max(np.abs(arr - scalars)) <= 1e-15

    def test_rate_matches_scalar(self):
        xs = np.linspace(0.001, 1.0, 500)
        arr = entropy_rate_arr(xs)
        scalars = np.array([entropy_rate(float(x)) for x in xs])
        assert np.max(np.abs(arr - scalars)) <= 1e-12

    def test_inverse_meets_contract_elementwise(self):
        ys = np.concatenate([np.linspace(0.0, 20.0, 401), [35.0, 49.0, 60.0]])
        xs = inverse_entropy_rate_arr(ys)
        assert xs.shape == ys.shape
        pos = ys > 0
        resid = np.abs(entropy_rate_arr(xs[pos]) - ys[pos])
        assert np.all(resid <= KERNEL_TOL * np.maximum(1.0, ys[pos]))
        assert np.all(xs[~pos] == 1.0)

    def test_inverse_agrees_with_scalar(self):
        ys = np.array([0.3, 1.0, 2.0, 5.0, 12.0, 19.5])
        xs = inverse_entropy_rate_arr(ys)
        for y, x in zip(ys, xs):
            assert x == pytest.approx(inverse_entropy_rate(float(y)), rel=1e-8)

    def test_inverse_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            inverse_entropy_rate_arr(np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            inverse_entropy_rate_arr(np.array([math.nan]))

    @pytest.mark.parametrize("y", [1070.0, 1080.0])
    def test_inverse_rejects_subnormal_roots_like_the_scalar(self, y):
        # At 1070 the root is about 2.2e-322, a subnormal with five bits,
        # whose residual is near 0.023 against a bound of 1.07e-7; at 1080
        # the first guess underflows to zero.
        with pytest.raises(DomainError):
            inverse_entropy_rate(y)
        with pytest.raises(DomainError):
            inverse_entropy_rate_arr(np.array([2.0, y]))

    @pytest.mark.parametrize("inverse", [
        lambda y: inverse_entropy_rate_arr(np.array([y]))[0],
        inverse_entropy_rate,
    ], ids=["array", "scalar"])
    def test_inverse_meets_the_contract_exactly_or_raises_at_subnormal_roots(
        self, inverse
    ):
        # The float rate at a subnormal x can read y exactly while the
        # exact rate misses it by 1.6e-6 (at y = 1057.8, for one).
        kept = 0
        for y in np.linspace(1040.0, 1077.0, 371):
            try:
                x = inverse(float(y))
            except DomainError:
                continue
            kept += 1
            assert abs(mp_rate(x) - y) <= KERNEL_TOL * y
        assert kept > 50

    def test_inverse_agrees_with_bisection_oracle(self):
        # From about y = 1050 on the roots are subnormals too coarse for
        # the residual contract and both routes raise, so the grid stops
        # short of that.
        table_lo = math.exp(kernel._TABLE_LOG_Y[0])
        table_hi = math.exp(kernel._TABLE_LOG_Y[-1])
        ys = np.sort(np.concatenate([
            [0.0],
            np.geomspace(1e-14, 1e-6, 20_000),
            np.linspace(0.0, 20.0, 60_001),
            np.linspace(20.0, 1045.0, 20_001),
            np.geomspace(kernel._RATE_AT_ONE_ULP, 1.5 * table_lo, 2_001),
            np.linspace(0.99 * table_hi, 1.01 * table_hi, 2_001),
        ]))
        assert ys.size >= 100_000
        oracle = bisect_inverse_rate_arr(ys)
        # The root moves by about ln 2 * x per unit of y in the tail, so one
        # rounding of y there moves x by eps * y relative.
        normal = oracle >= np.finfo(float).tiny
        pos = ys > 0.0
        for xs in (
            inverse_entropy_rate_arr(ys),
            np.array([inverse_entropy_rate(y) for y in ys.tolist()]),
        ):
            rel = np.abs(xs - oracle)[normal] / oracle[normal]
            assert np.all(rel <= 4.0 * np.finfo(float).eps * np.maximum(1.0, ys[normal]))
            resid = np.abs(entropy_rate_arr(xs[pos]) - ys[pos])
            assert np.all(resid <= KERNEL_TOL * np.maximum(1.0, ys[pos]))
            assert np.all(xs[~pos] == 1.0)
            assert np.all(np.diff(xs) <= 0.0)

    def test_inverse_makes_few_rate_passes(self, monkeypatch):
        passes = 0
        forward = kernel.entropy_rate_arr

        def counting(arr):
            nonlocal passes
            passes += 1
            return forward(arr)

        monkeypatch.setattr(kernel, "entropy_rate_arr", counting)
        ys = np.random.default_rng(20221124).uniform(0.0, 12.0, 1000)
        kernel.inverse_entropy_rate_arr(ys)
        assert 0 < passes <= 4


class TestAsProb:
    def test_accepts_and_coerces(self):
        assert as_prob(0) == 0.0
        assert as_prob(1) == 1.0
        assert as_prob(0.25) == 0.25

    def test_rejects(self):
        for bad in (-1e-12, 1.0 + 1e-12, math.nan, "x", None):
            with pytest.raises(DomainError):
                as_prob(bad)
