"""The three workloads: seeded inputs and the command lines that use them.

A plan is one round of operations.  Each operation is an ``entroset``
command line whose ``{out}`` placeholder becomes a directory of its own
for every round, so no two operations share a report file and nothing is
written under the repository's ``reports/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import families

WORKLOADS = ("verify-all", "families", "refine")

#: The sixteen verify-all checks, in the order the command runs them.
CHECKS = (
    "kernel-roundtrip", "golden-anchor", "merge-properties", "reduction",
    "optimum-search", "sq-ratio", "sq-ratio-scaled", "rate-convexity",
    "tail-rate", "union-bound", "product-bound", "bridge-gap", "threshold",
    "subset-entropy", "family-sweep", "entropy-bridge",
)

#: (ground n, members, generator density) of the families each round reads.
#: Sizes are exact, so the quadratic paths do the same work for every seed.
FAMILY_SHAPES = ((12, 400, 0.25), (14, 1300, 0.2), (16, 3000, 0.15))

#: Families at most this large also go through ``family entropy``.
ENTROPY_MAX_MEMBERS = 1300

#: The four curve checks at grids 10-100x finer than their defaults.
REFINE_SCANS = (
    ("sq-ratio", 1e-6),
    ("sq-ratio-scaled", 1e-6),
    ("rate-convexity", 1e-5),
    ("tail-rate", 1e-6),
)

#: Atom counts of the distributions each round reduces.
REDUCE_ATOMS = (300, 600, 1000, 1000)


def program_seed(seed: int) -> int:
    return seed % (1 << 31)


def _op(kind: str, argv: list[str], **extra) -> dict:
    return {"kind": kind, "argv": argv, "expect_rc": 0, **extra}


def make_plan(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under ``inputs`` and return its round."""
    inputs.mkdir(parents=True, exist_ok=True)
    pseed = program_seed(seed)
    rng = np.random.default_rng([pseed, WORKLOADS.index(workload)])
    common = ["--seed", str(pseed), "--out", "{out}"]
    ops: list[dict] = []
    if workload == "verify-all":
        ops.append(_op("verify-all", ["verify-all", *common]))
    elif workload == "families":
        for n, size, density in FAMILY_SHAPES:
            members = families.sized_family(rng, n, size, density)
            gens = families.generators(members, n)
            fam = inputs / f"family-n{n}.txt"
            gen = inputs / f"generators-n{n}.txt"
            fam.write_text(families.family_text(members, n), encoding="utf-8")
            gen.write_text(families.family_text(gens, n), encoding="utf-8")
            ops.append(_op("family-check", ["family", "check", str(fam), *common], input=str(fam)))
            ops.append(_op("family-closure", ["family", "closure", str(gen), "{out}/closed.txt", *common],
                           input=str(gen), family=str(fam)))
            if size <= ENTROPY_MAX_MEMBERS:
                ops.append(_op("family-entropy", ["family", "entropy", str(fam), *common], input=str(fam)))
        ops.append(_op("family-enumerate", ["family", "enumerate", "--n", "4", *common]))
    elif workload == "refine":
        for name, step in REFINE_SCANS:
            ops.append(_op(f"scan.{name}", ["scan", name, "--step", repr(step), *common],
                           scan=name, step=step))
        for i, k in enumerate(REDUCE_ATOMS):
            w = rng.exponential(size=k)
            w /= w.sum()
            v = rng.uniform(0.0, 1.0, size=k)
            path = inputs / f"dist-{i}-{k}.txt"
            path.write_text("".join(f"{float(a)!r} {float(b)!r}\n" for a, b in zip(w, v)),
                            encoding="utf-8")
            ops.append(_op("reduce", ["reduce", str(path), "{out}/reduced.txt", *common], input=str(path)))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": pseed, "ops": ops}
