"""Tests for finite distributions and the entropy-preserving merge calculus."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import distribution
from entroset.distribution import (
    VALUE_SNAP,
    DistributionError,
    FeasibilityError,
    FiniteDistribution,
    dump_distribution,
    joint_entropy_optimum,
    load_distribution,
    merge_atoms,
    random_distribution,
    reduce_steps,
    reduce_support,
    reduce_with_merges,
    scaled_entropy_margin,
    squared_merge_margin,
)
from entroset.kernel import binary_entropy, entropy_rate, inverse_entropy_rate

# Frozen merge oracle for (0.5, 0.3) + (0.5, 0.9): solved independently by
# bisecting H(y)/y = (0.5 H(0.3) + 0.5 H(0.9)) / 0.6 with mpmath at 60
# digits, 250 iterations.
ORACLE_Y = 0.7377415277527126
ORACLE_Q = 0.8132929724421275


def reduce_steps_oracle(d):
    """The reduction that rebuilds the distribution through the constructor
    at every merge: the oracle of the in-place loop."""
    cur = d
    while True:
        nz = cur.nonzero_atoms()
        if len(nz) <= 1:
            return
        (p1, x1), (p2, x2) = nz[0], nz[1]
        r = merge_atoms(p1, x1, p2, x2)
        zmass = cur.zero_mass() + r.residual_at_zero
        atoms = [(r.q, r.y), *nz[2:]]
        if zmass > 0.0:
            atoms.append((zmass, 0.0))
        cur = FiniteDistribution(atoms)
        yield cur


def joint_entropy_oracle(d):
    """The full double sum over ordered pairs."""
    return math.fsum(
        wi * wj * binary_entropy(vi * vj)
        for wi, vi in d.atoms
        for wj, vj in d.atoms
    )


def bits(d):
    return tuple((w.hex(), v.hex()) for w, v in d.atoms)


def assert_reduction_matches_oracle(d):
    want = [bits(step) for step in reduce_steps_oracle(d)]
    got = [bits(step) for step in reduce_steps(d)]
    assert got == want
    final, merges = reduce_with_merges(d)
    assert merges == len(want)
    assert bits(final) == (want[-1] if want else bits(d))
    assert bits(reduce_support(d)) == bits(final)
    if not want:
        assert reduce_support(d) is d


@pytest.fixture
def merge_kinds(monkeypatch):
    """Record how each merge of the reduction loop ended."""
    kinds = []
    merge = distribution._Reduction.merge

    def spy(self):
        kind = merge(self)
        if kind is not None:
            kinds.append(kind)
        return kind

    monkeypatch.setattr(distribution._Reduction, "merge", spy)
    return kinds


def _above(x, gap):
    """The least float y with y - x > gap."""
    y = x + gap
    while y - x <= gap:
        y = math.nextafter(y, 2.0)
    while math.nextafter(y, 0.0) - x > gap:
        y = math.nextafter(y, 0.0)
    return y


class TestConstruction:
    def test_sorts_and_normalizes(self):
        d = FiniteDistribution([(0.5, 0.9), (0.25, 0.1), (0.25, 0.5)])
        assert d.atoms == ((0.25, 0.1), (0.25, 0.5), (0.5, 0.9))
        assert d.mean() == pytest.approx(0.6)

    def test_renormalizes_small_weight_drift(self):
        d = FiniteDistribution([(0.5 + 3e-10, 0.2), (0.5, 0.8)])
        assert math.fsum(w for w, _ in d.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_drops_zero_weights_and_snaps_tiny_values(self):
        d = FiniteDistribution([(0.0, 0.7), (1.0, 1e-16)])
        assert d.atoms == ((1.0, 0.0),)
        assert d.zero_mass() == 1.0

    def test_coalesces_equal_values(self):
        d = FiniteDistribution([(0.25, 0.5), (0.25, 0.5), (0.5, 0.9)])
        assert len(d.atoms) == 2
        assert d.atoms[0] == (0.5, 0.5)

    def test_rejects_bad_input(self):
        with pytest.raises(DistributionError):
            FiniteDistribution([])
        with pytest.raises(DistributionError):
            FiniteDistribution([(-0.5, 0.5), (1.5, 0.6)])
        with pytest.raises(DistributionError):
            FiniteDistribution([(0.6, 0.5)])  # sum far from 1
        with pytest.raises(Exception):
            FiniteDistribution([(1.0, 1.5)])  # value out of range

    def test_trusted_wraps_atoms_as_they_are(self):
        atoms = ((0.25, 0.0), (0.75, 0.5))
        d = FiniteDistribution._trusted(atoms)
        assert d.atoms is atoms
        assert d == FiniteDistribution(atoms)

    def test_moments(self):
        d = FiniteDistribution([(0.5, 0.25), (0.5, 0.75)])
        assert d.mean() == 0.5
        h = 0.5 * binary_entropy(0.25) + 0.5 * binary_entropy(0.75)
        assert d.expected_entropy() == pytest.approx(h, abs=1e-15)
        joint = sum(
            wi * wj * binary_entropy(vi * vj)
            for wi, vi in d.atoms
            for wj, vj in d.atoms
        )
        assert d.expected_joint_entropy() == pytest.approx(joint, abs=1e-14)


class TestJointEntropy:
    def test_pairs_once_equals_the_double_sum_bitwise(self):
        rng = np.random.default_rng(37)
        for _ in range(2000):
            d = random_distribution(rng, max_atoms=24)
            assert d.expected_joint_entropy().hex() == joint_entropy_oracle(d).hex()

    def test_with_mass_at_zero_and_tiny_values(self):
        for atoms in (
            [(1.0, 0.0)],
            [(1.0, 0.6)],
            [(0.5, 0.0), (0.25, 1e-300), (0.25, 1.0)],
            [(0.2, 2e-15), (0.3, 0.5), (0.5, math.nextafter(1.0, 0.0))],
        ):
            d = FiniteDistribution(atoms)
            assert d.expected_joint_entropy().hex() == joint_entropy_oracle(d).hex()

    def test_joint_entropy_is_the_product_pair_sum(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            d = random_distribution(rng, max_atoms=20)
            assert d.expected_pair_entropy(operator.mul) == d.expected_joint_entropy()


class TestMerge:
    def test_frozen_oracle(self):
        r = merge_atoms(0.5, 0.3, 0.5, 0.9)
        assert r.y == pytest.approx(ORACLE_Y, abs=1e-12)
        assert r.q == pytest.approx(ORACLE_Q, abs=1e-12)

    def test_conservation_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            x1, x2 = rng.uniform(1e-6, 1.0, size=2)
            r = merge_atoms(p1, x1, p2, x2)
            mass = p1 * x1 + p2 * x2
            ent = p1 * binary_entropy(x1) + p2 * binary_entropy(x2)
            assert r.q * r.y == pytest.approx(mass, abs=1e-10)
            assert r.q * binary_entropy(r.y) == pytest.approx(ent, abs=1e-10)
            assert r.q <= p1 + p2 + 1e-12
            assert r.residual_at_zero >= 0.0

    def test_equal_values_short_circuit(self):
        r = merge_atoms(0.3, 0.4, 0.2, 0.4)
        assert (r.q, r.y, r.residual_at_zero) == (0.5, 0.4, 0.0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DistributionError):
            merge_atoms(0.0, 0.5, 0.5, 0.6)
        with pytest.raises(Exception):
            merge_atoms(0.5, 0.0, 0.5, 0.6)  # value 0 not mergeable

    def test_scaled_margin_nonnegative_on_z_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            x1, x2 = rng.uniform(1e-4, 1.0, size=2)
            for z in np.linspace(0.0, 1.0, 21):
                assert scaled_entropy_margin(p1, x1, p2, x2, float(z)) >= -1e-9

    def test_scaled_margin_tight_at_endpoints(self):
        m1 = scaled_entropy_margin(0.5, 0.3, 0.5, 0.9, 1.0)
        m0 = scaled_entropy_margin(0.5, 0.3, 0.5, 0.9, 0.0)
        assert abs(m1) <= 1e-10
        assert m0 == 0.0

    def test_squared_margin_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            x1, x2 = rng.uniform(1e-4, 1.0, size=2)
            assert squared_merge_margin(p1, x1, p2, x2) >= -1e-9


class TestReduction:
    def test_reduces_to_single_nonzero_atom(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = random_distribution(rng, max_atoms=12)
            r = reduce_support(d)
            assert len(r.nonzero_atoms()) <= 1
            assert abs(r.mean() - d.mean()) <= 1e-8
            assert abs(r.expected_entropy() - d.expected_entropy()) <= 1e-8

    def test_joint_entropy_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = random_distribution(rng, n_atoms=8)
            prev = d.expected_joint_entropy()
            for step in reduce_steps(d):
                cur = step.expected_joint_entropy()
                assert cur <= prev + 1e-8
                prev = cur

    def test_idempotent(self):
        d = FiniteDistribution([(0.4, 0.2), (0.6, 0.7)])
        once = reduce_support(d)
        twice = reduce_support(once)
        assert once.atoms == twice.atoms

    def test_matches_descending_order_reimplementation(self):
        # The package merges the two smallest values first.  Merging the
        # two largest instead must land on the same fixed point, because
        # the endpoint is pinned by (mean, entropy) alone.
        def reduce_descending(d):
            cur = d
            while True:
                nz = sorted(cur.nonzero_atoms(), key=lambda a: -a[1])
                if len(nz) <= 1:
                    return cur
                (p1, x1), (p2, x2) = nz[0], nz[1]
                r = merge_atoms(p1, x1, p2, x2)
                atoms = [(r.q, r.y), *nz[2:]]
                z = cur.zero_mass() + r.residual_at_zero
                if z > 0.0:
                    atoms.append((z, 0.0))
                cur = FiniteDistribution(atoms)

        rng = np.random.default_rng(17)
        for _ in range(60):
            d = random_distribution(rng, n_atoms=6)
            a = reduce_support(d).nonzero_atoms()
            b = reduce_descending(d).nonzero_atoms()
            if not a or not b:
                assert a == b
                continue
            assert a[0][1] == pytest.approx(b[0][1], abs=1e-7)
            assert a[0][0] == pytest.approx(b[0][0], abs=1e-7)

    def test_endpoint_matches_certificate(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            d = random_distribution(rng, n_atoms=5)
            t, u = d.mean(), d.expected_entropy()
            if not (0.0 < t < 1.0) or u <= 0.0:
                continue
            cert = joint_entropy_optimum(t, min(u, binary_entropy(t)))
            r = reduce_support(d)
            nz = r.nonzero_atoms()
            assert len(nz) == 1
            assert nz[0][1] == pytest.approx(cert.v, abs=1e-7)
            assert nz[0][0] == pytest.approx(cert.t / cert.v, abs=1e-7)


class TestReductionLoop:
    """The in-place loop against the constructor-per-step oracle, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_distributions(self, seed, merge_kinds):
        rng = np.random.default_rng([seed, 41])
        for k in (1, 2, 3, 7, 30, 150, 1000):
            assert_reduction_matches_oracle(random_distribution(rng, n_atoms=k))
        # some totals come out at exactly 1.0 and some do not
        assert {"exact", "renormalized"} == set(merge_kinds)

    def test_with_mass_at_zero(self):
        rng = np.random.default_rng(43)
        for k in (1, 2, 5, 40, 300):
            w = rng.exponential(size=k + 1)
            w /= w.sum()
            v = [0.0, *rng.uniform(0.0, 1.0, size=k).tolist()]
            assert_reduction_matches_oracle(FiniteDistribution(zip(w.tolist(), v)))
        # values below VALUE_SNAP snap to zero and join that mass
        assert_reduction_matches_oracle(
            FiniteDistribution([(0.2, 1e-16), (0.3, 0.0), (0.1, 0.4), (0.4, 0.8)])
        )

    def test_single_atom_and_already_reduced_inputs(self, merge_kinds):
        for atoms in (
            [(1.0, 0.4)],
            [(1.0, 0.0)],
            [(1.0, 1.0)],
            [(0.3, 0.0), (0.7, 0.5)],
        ):
            d = FiniteDistribution(atoms)
            assert reduce_support(d) is d
            assert list(reduce_steps(d)) == []
            assert reduce_with_merges(d) == (d, 0)
        reduced = reduce_support(random_distribution(np.random.default_rng(47), n_atoms=9))
        assert reduce_support(reduced) is reduced
        assert merge_kinds.count("rebuilt") == 0

    def test_pooling_with_the_next_atom_goes_through_the_constructor(self, merge_kinds):
        # a cluster whose gaps are 1.1e-15 to 3e-15: the merged atom lands
        # on x2 up to rounding and x3 sits just over VALUE_SNAP above x2
        rng = np.random.default_rng(53)
        for base in (0.1, 0.3, 0.5):
            for _ in range(60):
                x2 = base * rng.uniform(0.9, 1.1)
                x1 = x2 - rng.uniform(1.1e-15, 3e-15)
                x3 = _above(x2, VALUE_SNAP)
                x4 = x3 + rng.uniform(1.1e-15, 3e-15)
                p1 = rng.uniform(1e-6, 0.1)
                p2 = rng.uniform(0.2, 0.5)
                p3 = rng.uniform(0.1, 0.3)
                d = FiniteDistribution(
                    [(p1, x1), (p2, x2), (p3, x3), (1.0 - p1 - p2 - p3, x4)]
                )
                assert_reduction_matches_oracle(d)
        assert "rebuilt" in merge_kinds

    def test_a_gap_of_exactly_value_snap_pools(self, merge_kinds):
        # x3 - y == VALUE_SNAP needs y to round above x2 and a float spacing
        # fine enough to hold VALUE_SNAP exactly, hence values near 1e-15
        rng = np.random.default_rng(67)
        cases = 0
        for _ in range(300):
            x1 = rng.uniform(1e-15, 3e-15)
            x2 = x1 + rng.uniform(1.1e-15, 3e-15)
            p1 = 10.0 ** rng.uniform(-20, -1)
            weights = [w for w, _ in FiniteDistribution([(p1, x1), (0.5, x2), (0.5 - p1, 0.9)]).atoms]
            y = merge_atoms(weights[0], x1, weights[1], x2).y
            near = y + VALUE_SNAP
            x3 = [x for x in (math.nextafter(near, 0.0), near, math.nextafter(near, 1.0))
                  if x - y == VALUE_SNAP]
            if not x3 or x3[0] - x2 <= VALUE_SNAP:
                continue
            cases += 1
            before = len(merge_kinds)
            assert_reduction_matches_oracle(
                FiniteDistribution([(p1, x1), (0.5, x2), (0.5 - p1, x3[0])])
            )
            assert merge_kinds[before] == "rebuilt"
        assert cases >= 3

    def test_snapping_to_zero_goes_through_the_constructor(self, merge_kinds):
        # 0.0 and 1e-15 pool into a non-zero atom below VALUE_SNAP, so the
        # merged atom lands below it too
        for w0, w1, x2 in ((0.5, 0.49, 1.6e-15), (0.3, 0.69, 2e-15), (0.6, 0.395, 1.7e-15)):
            d = FiniteDistribution([(w0, 0.0), (w1, 1e-15), (1.0 - w0 - w1, x2)])
            assert 0.0 < d.nonzero_atoms()[0][1] < VALUE_SNAP
            assert_reduction_matches_oracle(d)
            assert len(reduce_support(d).nonzero_atoms()) == 0
        # values just above VALUE_SNAP
        for gap in (1.1e-15, 2e-15, 3e-15):
            x1 = math.nextafter(VALUE_SNAP, 1.0)
            d = FiniteDistribution([(0.999, x1), (0.001, x1 + gap)])
            assert_reduction_matches_oracle(d)
        assert merge_kinds.count("rebuilt") >= 3

    def test_allocates_its_lists_once(self, monkeypatch):
        sizes = []
        merge = distribution._Reduction.merge

        def spy(self):
            sizes.append((id(self.ws), id(self.vs), len(self.ws), len(self.vs)))
            return merge(self)

        monkeypatch.setattr(distribution._Reduction, "merge", spy)
        reduce_support(random_distribution(np.random.default_rng(61), n_atoms=50))
        assert len(sizes) == 50
        assert len(set(sizes)) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1.0),
                st.one_of(
                    st.floats(min_value=0.0, max_value=1.0),
                    st.sampled_from([0.0, 1e-16, 1e-15, 1.1e-15, 2e-15, 0.5, 1.0]),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_matches_oracle(self, raw):
        total = math.fsum(w for w, _ in raw)
        assert_reduction_matches_oracle(FiniteDistribution((w / total, v) for w, v in raw))


class TestOptimum:
    def test_full_entropy_forces_single_atom(self):
        t = 0.25
        cert = joint_entropy_optimum(t, binary_entropy(t))
        assert cert.v == pytest.approx(t, abs=1e-9)
        assert cert.witness.nonzero_atoms()[0][0] == pytest.approx(1.0, abs=1e-9)

    def test_witness_achieves_the_constraints_and_value(self):
        t, u = 0.3, 0.6
        cert = joint_entropy_optimum(t, u)
        w = cert.witness
        assert w.mean() == pytest.approx(t, abs=1e-10)
        assert w.expected_entropy() == pytest.approx(u, abs=1e-9)
        assert w.expected_joint_entropy() == pytest.approx(cert.optimum, abs=1e-10)
        assert cert.v == pytest.approx(inverse_entropy_rate(u / t), abs=1e-12)
        assert cert.v >= t

    def test_random_distributions_never_beat_it(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = random_distribution(rng, max_atoms=5)
            t, u = d.mean(), d.expected_entropy()
            if not (0.0 < t < 1.0) or u <= 0.0:
                continue
            cert = joint_entropy_optimum(t, min(u, binary_entropy(t)))
            assert d.expected_joint_entropy() >= cert.optimum - 1e-9

    def test_feasibility_errors(self):
        with pytest.raises(FeasibilityError):
            joint_entropy_optimum(0.0, 0.5)
        with pytest.raises(FeasibilityError):
            joint_entropy_optimum(1.0, 0.5)
        with pytest.raises(FeasibilityError):
            joint_entropy_optimum(0.3, 0.0)
        with pytest.raises(FeasibilityError):
            joint_entropy_optimum(0.3, binary_entropy(0.3) + 1e-6)
        # within the acceptance slack for u just above H(t)
        cert = joint_entropy_optimum(0.3, binary_entropy(0.3) + 1e-13)
        assert cert.v == pytest.approx(0.3, abs=1e-9)


class TestSerialization:
    def test_text_round_trip_is_exact(self):
        d = FiniteDistribution([(1 / 3, 0.1), (1 / 3, 0.5), (1 / 3, 0.9)])
        again = FiniteDistribution.from_text(d.to_text())
        assert again.atoms == d.atoms

    def test_comments_and_renormalization(self):
        text = "# header\n0.5 0.2  # inline\n\n0.5000001 0.8\n"
        d = FiniteDistribution.from_text(text)
        assert len(d.atoms) == 2
        assert math.fsum(w for w, _ in d.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_parse_errors(self):
        for text in ("", "0.5 x\n0.5 0.2", "0.5\n", "0.7 0.2\n0.7 0.3\n"):
            with pytest.raises(DistributionError):
                FiniteDistribution.from_text(text)

    def test_file_round_trip(self, tmp_path):
        d = FiniteDistribution([(0.25, 0.3), (0.75, 0.8)])
        path = tmp_path / "d.txt"
        dump_distribution(d, path)
        assert load_distribution(path).atoms == d.atoms


class TestRandomDistribution:
    def test_respects_atom_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = random_distribution(rng, max_atoms=4)
            assert 1 <= len(d.atoms) <= 4 + 1  # coalescing can only shrink
            assert math.fsum(w for w, _ in d.atoms) == pytest.approx(1.0, abs=1e-12)
        pinned = random_distribution(rng, n_atoms=7)
        assert len(pinned.atoms) <= 7

    def test_rejects_zero_atoms(self):
        rng = np.random.default_rng(31)
        with pytest.raises(DistributionError):
            random_distribution(rng, n_atoms=0)
