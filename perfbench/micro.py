"""Unit costs of the kernel, distribution and setfamily layers on fixed inputs.

The inputs come from a fixed seed, not from the run's seed, so the figures
compare across runs and workloads.  Each timing is the median of a few
repetitions.  Pair counts for the set-family routines are computed from
the family sizes (n(n-1)/2 pairs for the closed-ness check, k^2 for the
union distribution), not counted inside the program.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

import families

MICRO_SEED = 20221124
ARRAY_ELEMENTS = 1_000_000


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(workdir: Path) -> dict[str, float]:
    from entroset import distribution as dist
    from entroset import kernel
    from entroset import setfamily as sf

    rng = np.random.default_rng(MICRO_SEED)
    out: dict[str, float] = {}

    # kernel: array routes, ns per element
    x = rng.uniform(1e-9, 1.0, size=ARRAY_ELEMENTS)
    y = rng.uniform(0.0, 12.0, size=ARRAY_ELEMENTS)
    for name, fn, arg, reps in (
        ("binary_entropy_arr", kernel.binary_entropy_arr, x, 5),
        ("entropy_of_square_arr", kernel.entropy_of_square_arr, x, 5),
        ("entropy_rate_arr", kernel.entropy_rate_arr, x, 5),
        ("inverse_entropy_rate_arr", kernel.inverse_entropy_rate_arr, y, 1),
    ):
        out[f"kernel.{name}.ns_per_element"] = _median_time(lambda: fn(arg), reps) / arg.size * 1e9

    # kernel: scalar routes
    ys = y[:2000].tolist()
    xs = x[:100_000].tolist()
    out["kernel.inverse_entropy_rate.us_per_call"] = _median_time(
        lambda: [kernel.inverse_entropy_rate(v) for v in ys], 3) / len(ys) * 1e6
    out["kernel.binary_entropy.ns_per_call"] = _median_time(
        lambda: [kernel.binary_entropy(v) for v in xs], 3) / len(xs) * 1e9

    # kernel: full passes of the forward rate per inverse call
    passes = 0
    forward = kernel.entropy_rate_arr

    def counting(arr):
        nonlocal passes
        passes += 1
        return forward(arr)

    kernel.entropy_rate_arr = counting
    try:
        kernel.inverse_entropy_rate_arr(y[:1000])
    finally:
        kernel.entropy_rate_arr = forward
    out["kernel.inverse_entropy_rate_arr.rate_passes"] = float(passes)

    # distribution
    quads = [(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(
        rng.uniform(0.01, 0.5, 2000), rng.uniform(0.01, 1.0, 2000),
        rng.uniform(0.01, 0.5, 2000), rng.uniform(0.01, 1.0, 2000))]
    out["distribution.merge_atoms.us_per_call"] = _median_time(
        lambda: [dist.merge_atoms(*q) for q in quads], 3) / len(quads) * 1e6
    ts = rng.uniform(0.05, 0.95, 2000)
    pairs = [(float(t), float((1.0 - f) * kernel.binary_entropy(float(t))))
             for t, f in zip(ts, rng.uniform(0.0, 1.0, 2000))]
    out["distribution.joint_entropy_optimum.us_per_call"] = _median_time(
        lambda: [dist.joint_entropy_optimum(t, u) for t, u in pairs], 3) / len(pairs) * 1e6
    k = 400
    w = rng.exponential(size=k)
    w /= w.sum()
    d = dist.FiniteDistribution(zip(w.tolist(), rng.uniform(0.0, 1.0, k).tolist()))
    out["distribution.expected_joint_entropy.us_per_pair"] = _median_time(
        d.expected_joint_entropy, 3) / (len(d.atoms) ** 2) * 1e6
    merges = len(d.nonzero_atoms()) - 1
    out["distribution.reduce_support.us_per_merge"] = _median_time(
        lambda: dist.reduce_support(d), 3) / merges * 1e6

    # setfamily: one fixed family at n=14 and its generators
    n = 14
    members = families.sized_family(rng, n, 1200, 0.2)
    gens = families.generators(members, n).tolist()
    mlist = members.tolist()
    size = len(mlist)
    # is_union_closed caches its answer on the instance: a fresh one per call
    fresh = iter([sf.SetFamily(n, mlist) for _ in range(3)])
    out["setfamily.is_union_closed.ns_per_pair"] = _median_time(
        lambda: next(fresh).is_union_closed(), 3) / (size * (size - 1) // 2) * 1e9
    fam = sf.SetFamily(n, mlist)
    sub = sf.SubsetDistribution.uniform_on(sf.SetFamily(n, mlist[:700]))
    out["setfamily.union_distribution.ns_per_pair"] = _median_time(
        lambda: sf.union_distribution(sub), 3) / (len(sub.atoms) ** 2) * 1e9
    out["setfamily.union_closure.s"] = _median_time(lambda: sf.union_closure(gens, n), 3)
    out["setfamily.frequency_profile.s"] = _median_time(lambda: sf.frequency_profile(fam), 3)
    path = workdir / "micro-family.txt"
    workdir.mkdir(parents=True, exist_ok=True)
    path.write_text(families.family_text(members, n), encoding="utf-8")
    out["setfamily.load_family.s"] = _median_time(lambda: sf.load_family(path), 3)
    # every nonempty family code over 4 elements
    out["setfamily.family_census.codes_per_s"] = ((1 << 16) - 1) / _median_time(
        lambda: sf.family_census(4), 1)
    return out
