"""Tests for union-closed families, exact frequency checks, and subset entropy."""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroset.setfamily as setfamily
from entroset.kernel import FREQUENCY_BOUND
from entroset.report import PreconditionError, ScanConfig
from entroset.setfamily import (
    MAX_ENUM_GROUND,
    MAX_GROUND,
    MAX_UNION_SUPPORT,
    SetFamily,
    SetFamilyError,
    SubsetDistribution,
    counts_meet_bound,
    enumerate_union_closed,
    family_census,
    family_code,
    family_text,
    frequency_bound_margin,
    frequency_profile,
    indices_from_mask,
    load_family,
    mask_from_indices,
    union_closure,
    union_distribution,
    union_entropy_margin,
)
from entroset.scans import family_sweep_scan, subset_entropy_scan, uniform_bridge_scan

mpmath.mp.dps = 50


def cli_env() -> dict[str, str]:
    """The environment of a subprocess that imports this checkout's package."""
    root = Path(setfamily.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root), env.get("PYTHONPATH")]))
    return env


def random_family(rng: np.random.Generator, ground_n: int) -> SetFamily:
    """Seeded sampler: k distinct masks, then the union closure."""
    n_masks = 1 << ground_n
    k = int(rng.integers(1, n_masks + 1))
    picks = rng.choice(n_masks, size=k, replace=False)
    return union_closure((int(m) for m in picks), ground_n)


def random_subset_distribution(rng: np.random.Generator, ground_n: int) -> SubsetDistribution:
    """Seeded sampler: a random support of masks with flat simplex weights."""
    n_masks = 1 << ground_n
    k = int(rng.integers(1, n_masks + 1))
    picks = rng.choice(n_masks, size=k, replace=False)
    w = rng.exponential(size=k)
    w /= w.sum()
    return SubsetDistribution(ground_n, zip(w.tolist(), (int(m) for m in picks)))


def brute_force_union_closed(ground_n: int) -> list[tuple[int, ...]]:
    """Independent filter: every nonempty subset of the power set, checked
    pairwise with plain loops."""
    subsets = list(range(1 << ground_n))
    out = []
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            s = set(combo)
            if all(a | b in s for a in combo for b in combo):
                out.append(tuple(sorted(combo)))
    return out


# ----------------------------------------------------------------------
# the pure-Python engines the bitmap engines replaced, kept as oracles
# ----------------------------------------------------------------------

def oracle_violating_pair(f: SetFamily) -> tuple[int, int] | None:
    have = set(f.members)
    for a, b in itertools.combinations(f.members, 2):
        if (a | b) not in have:
            return (a, b)
    return None


def oracle_union_closure(members, ground_n: int) -> tuple[int, ...]:
    closed = set(SetFamily(ground_n, members).members)
    frontier = list(closed)
    while frontier:
        snapshot = tuple(closed)
        fresh = set()
        for a in frontier:
            for b in snapshot:
                u = a | b
                if u not in closed and u not in fresh:
                    fresh.add(u)
        closed |= fresh
        frontier = list(fresh)
    return tuple(sorted(closed))


def oracle_union_distribution(d: SubsetDistribution) -> SubsetDistribution:
    acc: dict[int, float] = {}
    comp: dict[int, float] = {}
    for pa, a in d.atoms:
        for pb, b in d.atoms:
            m = a | b
            term = pa * pb
            s = acc.get(m, 0.0)
            t = s + term
            if abs(s) >= abs(term):
                comp[m] = comp.get(m, 0.0) + ((s - t) + term)
            else:
                comp[m] = comp.get(m, 0.0) + ((term - t) + s)
            acc[m] = t
    return SubsetDistribution(
        d.ground_n, [(acc[m] + comp[m], m) for m in sorted(acc)]
    )


def oracle_enumerate_union_closed(ground_n: int):
    n_masks = 1 << ground_n
    for code in range(1, 1 << n_masks):
        members = [m for m in range(n_masks) if code >> m & 1]
        if all(code >> (a | b) & 1 for a, b in itertools.combinations(members, 2)):
            yield SetFamily(ground_n, members)


def oracle_family_census(ground_n: int) -> list[dict]:
    rows = []
    for f in oracle_enumerate_union_closed(ground_n):
        if f.is_degenerate():
            continue
        top = max(sum(m >> i & 1 for m in f.members) for i in range(ground_n))
        size = len(f.members)
        rows.append({
            "family_id": family_code(f),
            "size": size,
            "max_frequency_num": top,
            "max_frequency_den": size,
            "margin": top / size - FREQUENCY_BOUND,
            "meets_bound": counts_meet_bound(top, size),
            "meets_half": 2 * top >= size,
        })
    return rows


def oracle_indices_from_mask(mask: int) -> tuple[int, ...]:
    """The bit loop the byte-table codec replaced."""
    out = []
    i = 0
    m = int(mask)
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def oracle_parse_family_text(text: str) -> SetFamily:
    """The parser the token cache replaced: every line through int() and
    mask_from_indices, the header's range left to SetFamily."""
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
    members = []
    for line in lines[1:]:
        if line.lower() == "empty":
            members.append(0)
            continue
        try:
            idx = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise SetFamilyError(f"bad set line {line!r}")
        members.append(mask_from_indices(idx, ground_n))
    if not members:
        raise SetFamilyError("family file lists no sets")
    return SetFamily(ground_n, members)


def parsed(parse, text: str):
    """A parser's family, or the message it refuses ``text`` with."""
    try:
        return parse(text)
    except SetFamilyError as exc:
        return str(exc)


#: Tokens the parser must read as int() does: padded, signed, zero-led,
#: underscored, non-ASCII digits, empty, out of range and not numbers.
ODD_TOKENS = (" 0 ", "+1", "01", "-0", "1_0", "\u0663", "", "3", "12", "-1", "q", "0x1", "1.0")


def random_members(rng: np.random.Generator, ground_n: int) -> list[int]:
    """Up to 8 random masks, so a closure holds at most 2^8 members."""
    k = int(rng.integers(1, 9))
    return [int(m) for m in rng.integers(0, 1 << ground_n, size=k)]


def equivalence_families(seed: int) -> list[SetFamily]:
    """Seeded families for every ground size: closures, raw picks (mostly
    not closed) and closures with one member dropped (not closed when that
    member was reducible)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(MAX_GROUND + 1):
        for _ in range(4):
            picks = random_members(rng, n)
            closed = SetFamily(n, oracle_union_closure(picks, n))
            out += [closed, SetFamily(n, picks)]
            if len(closed) > 1:
                drop = closed.members[int(rng.integers(len(closed)))]
                out.append(SetFamily(n, [m for m in closed.members if m != drop]))
    return out


class TestMasks:
    def test_round_trip(self):
        m = mask_from_indices([0, 2, 3], 5)
        assert m == 0b1101
        assert indices_from_mask(m) == (0, 2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(SetFamilyError):
            mask_from_indices([4], 4)
        with pytest.raises(SetFamilyError):
            mask_from_indices([-1], 4)

    def test_codec_is_the_bit_loop(self):
        for m in range(1 << MAX_GROUND):
            idx = oracle_indices_from_mask(m)
            assert indices_from_mask(m) == idx
            assert setfamily._set_label(m) == ",".join(str(i) for i in idx)
        rng = np.random.default_rng(16)
        for m in [1 << 16, (1 << 64) - 1, *(int(x) << 5 for x in rng.integers(0, 2**62, 50))]:
            assert indices_from_mask(m) == oracle_indices_from_mask(m)

    def test_negative_mask_is_refused(self):
        # in a subprocess under a timeout, since a shifting loop never ends on -1
        proc = subprocess.run(
            [sys.executable, "-c",
             "from entroset.setfamily import SetFamilyError, indices_from_mask\n"
             "try:\n"
             "    indices_from_mask(-1)\n"
             "except SetFamilyError as exc:\n"
             "    print(exc)\n"],
            env=cli_env(), capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "mask -1 is negative\n"


class TestSetFamily:
    def test_construction_sorts_and_dedups(self):
        f = SetFamily(2, [3, 1, 1])
        assert f.members == (1, 3)
        assert len(f) == 2
        assert 3 in f and 2 not in f

    def test_union_closed_detection(self):
        assert SetFamily(2, [1, 2, 3]).is_union_closed()
        f = SetFamily(2, [1, 2])
        assert not f.is_union_closed()
        assert f.violating_pair() == (1, 2)

    def test_degenerate(self):
        assert SetFamily(2, [0]).is_degenerate()
        assert not SetFamily(2, [0, 1]).is_degenerate()

    def test_rejects_bad_members(self):
        with pytest.raises(SetFamilyError):
            SetFamily(2, [])
        with pytest.raises(SetFamilyError):
            SetFamily(2, [4])
        with pytest.raises(SetFamilyError):
            SetFamily(20, [1])  # ground set too large

    def test_union_closure_examples(self):
        f = union_closure([1, 2], 2)
        assert f.members == (1, 2, 3)
        assert f.is_union_closed()
        # closure of a chain adds nothing
        g = union_closure([1, 3, 7], 3)
        assert g.members == (1, 3, 7)

    def test_union_closure_idempotent(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            f = random_family(rng, 4)
            assert f.is_union_closed()
            again = union_closure(f.members, f.ground_n)
            assert again.members == f.members


class TestFrequencyChecks:
    def test_profile_power_set(self):
        f = SetFamily(3, list(range(8)))
        prof = frequency_profile(f)
        assert prof.family_size == 8
        assert prof.frequencies == (0.5, 0.5, 0.5)
        assert prof.max_frequency == 0.5

    def test_profile_small_example(self):
        f = SetFamily(3, [mask_from_indices([0, 1], 3),
                          mask_from_indices([1, 2], 3),
                          mask_from_indices([0, 1, 2], 3)])
        prof = frequency_profile(f)
        assert prof.frequencies == (2 / 3, 1.0, 2 / 3)
        assert prof.argmax_element == 1

    def test_argmax_prefers_smallest_index_on_ties(self):
        f = SetFamily(2, [1, 2, 3])
        assert frequency_profile(f).argmax_element == 0

    def test_exact_predicate_against_mpmath(self):
        bound = (3 - mpmath.sqrt(5)) / 2
        for size in range(1, 61):
            for count in range(0, size + 1):
                exact = mpmath.mpf(count) / size >= bound
                assert counts_meet_bound(count, size) == exact, (count, size)

    def test_margin_and_bound_on_canonical_families(self):
        f = SetFamily(1, [0, 1])  # {{}, {0}}: frequency 1/2
        prof = frequency_profile(f)
        assert counts_meet_bound(max(prof.counts), prof.family_size)
        assert frequency_bound_margin(f) == pytest.approx(
            0.5 - FREQUENCY_BOUND, abs=1e-15
        )

    def test_rejects_degenerate_and_non_closed(self):
        with pytest.raises(PreconditionError):
            frequency_bound_margin(SetFamily(2, [0]))
        with pytest.raises(PreconditionError) as exc:
            frequency_bound_margin(SetFamily(2, [1, 2]))
        assert "union" in str(exc.value)


class TestSubsetDistribution:
    def test_uniform_entropy(self):
        f = SetFamily(2, [1, 2, 3])
        d = SubsetDistribution.uniform_on(f)
        assert d.entropy() == pytest.approx(math.log2(3.0), abs=1e-15)

    def test_point_mass(self):
        d = SubsetDistribution.point_mass(3, 5)
        assert d.entropy() == 0.0
        assert d.support() == (5,)
        assert d.marginals() == (1.0, 0.0, 1.0)

    def test_marginals(self):
        d = SubsetDistribution(2, [(0.5, 1), (0.3, 2), (0.2, 3)])
        assert d.marginal(0) == pytest.approx(0.7)
        assert d.marginal(1) == pytest.approx(0.5)

    def test_marginal_never_exceeds_one(self):
        # 237 uniform weights of 1/237 sum to 1.0000000000000002 in fsum
        f = SetFamily(9, [1 | k << 1 for k in range(237)])
        d = SubsetDistribution.uniform_on(f)
        assert d.marginal(0) == 1.0
        assert max(d.marginals()) == 1.0

    def test_rejects_duplicates_and_bad_mass(self):
        with pytest.raises(SetFamilyError):
            SubsetDistribution(2, [(0.5, 1), (0.5, 1)])
        with pytest.raises(SetFamilyError):
            SubsetDistribution(2, [(0.5, 1), (0.4, 2)])

    def test_union_distribution_nine_cases(self):
        d = SubsetDistribution(2, [(0.5, 1), (0.3, 2), (0.2, 3)])
        u = union_distribution(d)
        probs = dict(zip(u.support(), (p for p, _ in u.atoms)))
        probs = {m: p for p, m in u.atoms}
        assert probs[1] == pytest.approx(0.25, abs=1e-15)
        assert probs[2] == pytest.approx(0.09, abs=1e-15)
        assert probs[3] == pytest.approx(0.66, abs=1e-15)

    def test_union_distribution_uniform_triangle_oracle(self):
        f = SetFamily(2, [1, 2, 3])
        u = union_distribution(SubsetDistribution.uniform_on(f))
        probs = {m: p for p, m in u.atoms}
        assert probs[1] == pytest.approx(1 / 9, abs=1e-15)
        assert probs[2] == pytest.approx(1 / 9, abs=1e-15)
        assert probs[3] == pytest.approx(7 / 9, abs=1e-15)

    def test_union_marginal_product_identity(self):
        # Independence gives union marginal 1 - (1 - p)^2 per element.
        rng = np.random.default_rng(59)
        for _ in range(50):
            d = random_subset_distribution(rng, 3)
            u = union_distribution(d)
            for p, q in zip(d.marginals(), u.marginals()):
                assert q == pytest.approx(1.0 - (1.0 - p) ** 2, abs=1e-12)

    def test_union_entropy_margin_theorem_ratio(self):
        # independent coordinates at level alpha: margin must be positive
        alpha = 0.3
        atoms = []
        for mask in range(4):
            p = (alpha if mask & 1 else 1 - alpha) * (alpha if mask & 2 else 1 - alpha)
            atoms.append((p, mask))
        d = SubsetDistribution(2, atoms)
        assert union_entropy_margin(d, alpha) > 0.0

    def test_union_entropy_margin_preconditions(self):
        d = SubsetDistribution(2, [(0.5, 0), (0.5, 3)])
        with pytest.raises(PreconditionError):
            union_entropy_margin(d, 0.5)  # alpha above the frequency bound
        with pytest.raises(PreconditionError):
            union_entropy_margin(d, 0.2)  # marginal exceeds alpha


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for n in (0, 1, 2, 3):
            enumerated = [f.members for f in enumerate_union_closed(n)]
            brute = brute_force_union_closed(n)
            assert len(enumerated) == len(brute)
            assert sorted(enumerated) == sorted(brute)

    def test_known_counts(self):
        counts = [sum(1 for _ in enumerate_union_closed(n)) for n in range(4)]
        assert counts == [1, 3, 13, 121]

    def test_family_code_round_trip(self):
        for f in enumerate_union_closed(2):
            code = family_code(f)
            assert 1 <= code < (1 << (1 << 2))
        f = SetFamily(2, [1, 3])
        assert family_code(f) == (1 << 1) | (1 << 3)

    def test_census_rows_and_partition_merge(self):
        rows = family_census(3)
        assert len(rows) == 120  # degenerate {{}} excluded
        assert all(r["meets_half"] for r in rows)
        assert all(r["meets_bound"] for r in rows)
        worst = min(r["margin"] for r in rows)
        assert worst == pytest.approx(0.5 - FREQUENCY_BOUND, abs=1e-15)

    def test_enumeration_cap(self):
        with pytest.raises(SetFamilyError):
            list(enumerate_union_closed(MAX_ENUM_GROUND + 1))


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        f = SetFamily(3, [0, 1, 3, 7])
        path = tmp_path / "f.fam"
        path.write_text(family_text(f), encoding="utf-8")
        assert load_family(path).members == f.members

    def test_text_format(self):
        f = SetFamily(2, [0, 1, 3])
        text = family_text(f)
        assert text.splitlines()[0] == "n=2"
        assert "empty" in text

    @pytest.mark.parametrize("n", [-1, 17, 10**9])
    def test_header_is_checked_before_the_sets(self, n):
        with pytest.raises(SetFamilyError) as err:
            setfamily._parse_family_text(f"n={n}\n0\n")
        assert str(err.value) == f"ground_n must lie in [0, {MAX_GROUND}], got {n}"

    @pytest.mark.parametrize("text", [
        "n=2\n 0 \n+1\n01\n", "n=2\nEMPTY\n0\n", "n=2\n0,,1\n", "n=2\n0,\n",
        "n=2 # ground\n# a comment\n0 # first\n\n1,0\n", "n = 3\n0, 1\n1,0\n 2 ,0\n",
        "n=11\n1_0\n-0\n0,0,0\n\u0663\n", "n=2\n0,5,q\n", "n=2\n0\n0,5\n0,q\n",
        "n=2\n1\n1,2\n", "n=3\n0,1\n1,0,1\n0,0\n", "n=2\nempty,0\n", "n=2\n",
        "n=\n0\n", "0\n", "#\n",
    ])
    def test_parser_is_the_line_by_line_parser(self, text):
        assert parsed(setfamily._parse_family_text, text) == parsed(
            oracle_parse_family_text, text)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, MAX_GROUND), st.lists(st.lists(
        st.one_of(st.sampled_from(ODD_TOKENS), st.sampled_from("0123"),
                  st.integers(0, MAX_GROUND - 1).map(str)),
        min_size=1, max_size=5).map(",".join), max_size=12))
    def test_parser_is_the_line_by_line_parser_on_odd_tokens(self, n, lines):
        text = "".join(f"{line}\n" for line in [f"n={n}", *lines])
        assert parsed(setfamily._parse_family_text, text) == parsed(
            oracle_parse_family_text, text)

    def test_parser_reads_random_families_as_the_line_by_line_parser(self):
        rng = np.random.default_rng(2024)
        for n in range(MAX_GROUND + 1):
            for _ in range(3):
                text = family_text(random_family(rng, min(n, 10)) if n else SetFamily(0, [0]))
                assert setfamily._parse_family_text(text) == oracle_parse_family_text(text)

    def test_parse_errors(self, tmp_path):
        bad = {
            "no-header.fam": "0,1\n",
            "bad-n.fam": "n=x\n0\n",
            "empty.fam": "# nothing\n",
            "bad-set.fam": "n=2\n0,q\n",
            "out-of-range.fam": "n=2\n0,5\n",
        }
        for name, text in bad.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(SetFamilyError):
                load_family(path)


class TestScanEngines:
    def test_subset_entropy_scan_small(self):
        r = subset_entropy_scan(
            ScanConfig(random_samples=2000, seed=6, tolerance=1e-9), ground_n=3
        )
        assert r.passed
        assert r.min_margin >= -1e-9

    def test_family_sweep_small(self):
        for n in (1, 2, 3):
            r = family_sweep_scan(n)
            assert r.passed
            assert r.details["exact_bound_holds"]
            assert r.details["half_bound_holds"]

    def test_family_sweep_counts(self):
        r = family_sweep_scan(3)
        assert r.points_checked == 120

    def test_uniform_bridge_scan(self):
        r = uniform_bridge_scan(2)
        assert r.passed
        assert r.min_margin >= 0.0

    def test_sweep_worst_family_is_the_pair(self):
        r = family_sweep_scan(4)
        assert r.min_margin == pytest.approx(0.5 - FREQUENCY_BOUND, abs=1e-15)


class TestBitmapEngines:
    """The bitmap engines against the pure-Python oracles above."""

    @pytest.mark.parametrize("block", [None, 5])
    def test_closedness_and_first_pair(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(setfamily, "_BLOCK_ELEMENTS", block)
        fams = equivalence_families(83)
        assert any(not f.is_union_closed() for f in fams if f.ground_n == MAX_GROUND)
        for f in fams:
            want = oracle_violating_pair(f)
            assert f.violating_pair() == want, f
            assert f.is_union_closed() == (want is None)

    def test_first_pair_of_a_late_miss(self):
        # the power set of [4] without {0,1,2}
        f = SetFamily(4, [m for m in range(16) if m != 0b0111])
        assert f.violating_pair() == oracle_violating_pair(f) == (0b0001, 0b0110)

    def test_closure_members(self):
        rng = np.random.default_rng(89)
        for n in range(MAX_GROUND + 1):
            for _ in range(6):
                picks = random_members(rng, n)
                assert union_closure(picks, n).members == oracle_union_closure(picks, n)
        singletons = [1 << i for i in range(MAX_GROUND)]
        assert union_closure(singletons, MAX_GROUND).members == tuple(range(1, 1 << MAX_GROUND))
        assert union_closure([0], MAX_GROUND).members == (0,)

    @pytest.mark.parametrize("block", [None, 7])
    def test_union_law(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(setfamily, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(97)
        for n in range(MAX_GROUND + 1):
            for _ in range(3):
                k = int(rng.integers(1, min(1 << n, 300) + 1))
                picks = rng.choice(1 << n, size=k, replace=False)
                w = rng.exponential(size=k) * 10.0 ** rng.uniform(-6, 0, size=k)
                d = SubsetDistribution(n, zip((w / w.sum()).tolist(), picks.tolist()))
                got, want = union_distribution(d), oracle_union_distribution(d)
                assert got.support() == want.support()
                for (p, _), (q, _) in zip(got.atoms, want.atoms):
                    assert abs(p - q) <= 1e-13 * q
                assert abs(math.fsum(p for p, _ in got.atoms) - 1.0) <= 1e-12

    def test_union_law_blocks_keep_to_the_budget(self, monkeypatch):
        budget = 64
        monkeypatch.setattr(setfamily, "_BLOCK_ELEMENTS", budget)
        seen = []
        bincount = np.bincount

        def spy(codes, **kw):
            seen.append(codes.size)
            return bincount(codes, **kw)

        monkeypatch.setattr(setfamily.np, "bincount", spy)
        rng = np.random.default_rng(101)
        d = random_subset_distribution(rng, 5)
        union_distribution(d)
        assert seen and max(seen) <= budget
        assert sum(seen) == len(d.atoms) ** 2

    def test_family_stream_and_census(self):
        for n in range(MAX_ENUM_GROUND + 1):
            got = [f.members for f in enumerate_union_closed(n)]
            assert got == [f.members for f in oracle_enumerate_union_closed(n)]
            assert family_census(n) == oracle_family_census(n)

    def test_frequency_profile_counts(self):
        for f in equivalence_families(103):
            if f.ground_n == 0:
                continue
            counts = tuple(sum(m >> i & 1 for m in f.members) for i in range(f.ground_n))
            assert frequency_profile(f).counts == counts


class TestStatedLimits:
    """MAX_GROUND and MAX_UNION_SUPPORT work within seconds."""

    def test_family_check_on_the_full_power_set(self, tmp_path):
        src = tmp_path / "power.fam"
        src.write_text(family_text(SetFamily(MAX_GROUND, range(1 << MAX_GROUND))))
        proc = subprocess.run(
            [sys.executable, "-m", "entroset.cli", "family", "check", str(src),
             "--out", str(tmp_path / "r")],
            env=cli_env(), capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "max_frequency=32768/65536" in proc.stdout

    def test_family_closure_of_the_singletons_is_the_power_set(self, tmp_path):
        src = tmp_path / "singletons.fam"
        src.write_text(family_text(SetFamily(MAX_GROUND, [0, *(1 << i for i in range(MAX_GROUND))])))
        proc = subprocess.run(
            [sys.executable, "-m", "entroset.cli", "family", "closure", str(src),
             "--out", str(tmp_path / "r")],
            env=cli_env(), capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == family_text(SetFamily(MAX_GROUND, range(1 << MAX_GROUND)))

    def test_union_distribution_at_the_support_cap(self):
        rng = np.random.default_rng(107)
        picks = rng.choice(1 << MAX_GROUND, size=MAX_UNION_SUPPORT, replace=False)
        w = rng.exponential(size=MAX_UNION_SUPPORT)
        d = SubsetDistribution(MAX_GROUND, zip((w / w.sum()).tolist(), picks.tolist()))
        t0 = time.perf_counter()
        u = union_distribution(d)
        assert time.perf_counter() - t0 < 5.0
        assert abs(math.fsum(p for p, _ in u.atoms) - 1.0) <= 1e-12
