"""Independent checks of every output the workloads produce.

Each check recomputes what it can apart from entroset: margins at
witnesses in mpmath (``reference.py``), family facts on a bitmap
(``families.py``), and published counts.  A check returns a list of
problems; an empty list means the output is right.

The one call into the package is ``reevaluate_witness``, the program's own
replay of a report.  A replay that raises is a fault of the program (a
failed operation); a replay that disagrees with the report is a wrong
output.
"""

from __future__ import annotations

import csv
import json
import math
from functools import partial
from pathlib import Path

import numpy as np

import families
import reference as ref
from plan import CHECKS

#: Absolute float error allowed between a reported margin and its exact
#: value when the margin is a short sum of O(1) entropies.
FLOAT_ERR = 1e-12

#: The same where the margin goes through the float inverse of the rate,
#: whose contract allows a residual of 1e-10 * max(1, y).
INVERSE_ERR = 1e-9

#: rate-convexity adds three composed-rate values of size up to 10.
CONVEXITY_ERR = 1e-8

#: Union-closed families on n = 0..4 elements, the empty family included:
#: 2 * A102896(n).
PUBLISHED_CLOSED_COUNTS = (2, 4, 14, 122, 4960)

#: verify-all sample budgets at their defaults.
VERIFY_POINTS = {
    "golden-anchor": 4,
    "merge-properties": 100_000,
    "reduction": 1000,
    "union-bound": 1_000_000,
    "product-bound": 1_000_000,
    "bridge-gap": 10_000,
    "subset-entropy": 100_000,
    "family-sweep": PUBLISHED_CLOSED_COUNTS[4] - 2,
    "entropy-bridge": sum(c - 1 for c in PUBLISHED_CLOSED_COUNTS[:4]),
}

Z_GRID = tuple(i / 20.0 for i in range(21))
REDUCTION_DRIFT = 1e-8
OPTIMUM_SLACK = 1e-4
SEARCH_BOX = 1e-3


class Problems(list):
    def near(self, label: str, got, want, tol: float) -> None:
        if not abs(ref.mpf(got) - ref.mpf(want)) <= tol:
            self.append(f"{label}: got {float(got)!r}, expected {float(want)!r} within {tol:g}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def grid_points(cfg: dict) -> int:
    return int(round((cfg["range_hi"] - cfg["range_lo"]) / cfg["grid_step"])) + 1


def _on_grid(p: Problems, cfg: dict, xs: list[float]) -> None:
    """Consecutive witness points one grid step apart inside the range."""
    lo, hi, step = cfg["range_lo"], cfg["range_hi"], cfg["grid_step"]
    spacing = (hi - lo) / (grid_points(cfg) - 1)
    for x in xs:
        p.require(lo - 1e-12 <= x <= hi + 1e-12, f"witness point {x!r} outside [{lo!r}, {hi!r}]")
        k = (x - lo) / spacing
        p.require(abs(k - round(k)) <= 1e-6, f"witness point {x!r} is not on the grid")
    for a, b in zip(xs, xs[1:]):
        p.near("witness spacing", b - a, spacing, 1e-9 * max(1.0, step))


# ----------------------------------------------------------------------
# scan reports: margin at the witness, recomputed in mpmath
# ----------------------------------------------------------------------

def _curve_pair(fn, doc: dict, p: Problems) -> None:
    lo, hi = doc["witness"]
    _on_grid(p, doc["config"], [lo, hi])
    p.near("min_margin at witness", doc["min_margin"], fn(hi) - fn(lo), FLOAT_ERR)
    p.near("points_checked", doc["points_checked"], grid_points(doc["config"]), 0)


def _rate_convexity(doc, p):
    xs = doc["witness"]
    alpha = doc["config"]["alpha"]
    _on_grid(p, doc["config"], xs)
    a, b, c = (ref.composed_rate(alpha, x) for x in xs)
    p.near("min_margin at witness", doc["min_margin"], a - 2 * b + c, CONVEXITY_ERR)
    p.near("points_checked", doc["points_checked"], grid_points(doc["config"]), 0)


def _tail_rate(doc, p):
    w = doc["witness"]
    _on_grid(p, doc["config"], w)
    if len(w) == 1:
        z = ref.mpf(w[0])
        exact = -z - ref.mp.log(1 - z)
    else:
        exact = ref.tail_rate(w[0]) - ref.tail_rate(w[1])
    p.near("min_margin at witness", doc["min_margin"], exact, FLOAT_ERR)
    p.near("points_checked", doc["points_checked"], grid_points(doc["config"]), 0)


def _expectation(side: str):
    def check(doc, p):
        level, ws, vs = doc["witness"]
        cfg = doc["config"]
        t, _ = ref.moments(ws, vs)
        p.near("witness weights sum", ref.mp.fsum(ws), 1, 1e-12)
        p.require(cfg["range_lo"] <= level <= cfg["range_hi"], f"level {level!r} outside the range")
        if side == "union":
            p.require(t <= level + 1e-12, f"witness mean {float(t)!r} above alpha {level!r}")
            exact = ref.union_bound_margin(level, ws, vs)
        else:
            p.require(t >= level - 1e-12, f"witness mean {float(t)!r} below beta {level!r}")
            exact = ref.product_bound_margin(level, ws, vs)
        p.near("min_margin at witness", doc["min_margin"], exact, FLOAT_ERR)
        p.near("points_checked", doc["points_checked"], VERIFY_POINTS[doc["name"]], 0)
    return check


def _merge_properties(doc, p):
    exact = ref.merge_quadruple_margin(*doc["witness"], Z_GRID)
    p.near("min_margin at witness", doc["min_margin"], exact, INVERSE_ERR)
    det = doc["details"]
    p.require(det["max_mean_residual"] <= det["mean_residual_bound"], "mean residual above its bound")
    p.require(det["max_entropy_residual"] <= det["mean_residual_bound"], "entropy residual above its bound")
    p.require(det["max_weight_excess"] <= det["weight_excess_bound"], "merged weight above the input weight")
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["merge-properties"], 0)


def _reduction(doc, p):
    """Replays the reduction in mpmath: merge the two least nonzero values
    until one is left.  Exactly, the mean and entropy never drift, the joint
    entropy never rises, and the last atom is the closed-form optimum, so
    the exact margin is the drift bound itself."""
    ws, vs = doc["witness"]
    atoms = sorted((ref.mpf(v), ref.mpf(w)) for w, v in zip(ws, vs) if v > 0)
    zero = ref.mp.fsum(ref.mpf(w) for w, v in zip(ws, vs) if v == 0)
    t, u = ref.moments(ws, vs)
    joint = ref.joint_entropy(ws, vs)
    rise = ref.mpf(-1)
    while len(atoms) > 1:
        (x1, p1), (x2, p2) = atoms[0], atoms[1]
        q, y = ref.merge(p1, x1, p2, x2)
        zero += p1 + p2 - q
        atoms = sorted([(y, q)] + atoms[2:])
        step_w = [a[1] for a in atoms] + [zero]
        step_v = [a[0] for a in atoms] + [0]
        nxt = ref.joint_entropy(step_w, step_v)
        rise = max(rise, nxt - joint)
        joint = nxt
    (y, q), = atoms
    v, opt = ref.optimum(t, u)
    p.require(rise <= 0, f"joint entropy rose by {float(rise)!r} in an exact reduction")
    p.near("reduced atom vs optimum", y, v, 1e-25)
    p.near("reduced weight vs t/v", q, t / v, 1e-25)
    exact = min(REDUCTION_DRIFT, REDUCTION_DRIFT - rise)
    p.require(-doc["tolerance"] <= doc["min_margin"] <= exact + FLOAT_ERR,
              f"min_margin {doc['min_margin']!r} outside [0, {float(exact)!r}], "
              f"the exact margin less at most the drift bound")
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["reduction"], 0)


def _optimum_search(doc, p):
    t, u, ws, vs = doc["witness"]
    tc, uc = ref.moments(ws, vs)
    p.near("candidate mean vs search pair", tc, t, SEARCH_BOX)
    p.near("candidate entropy vs search pair", uc, u, SEARCH_BOX)
    _, opt = ref.optimum(tc, uc)
    exact = ref.joint_entropy(ws, vs) - (opt - OPTIMUM_SLACK)
    p.near("min_margin at witness", doc["min_margin"], exact, INVERSE_ERR)
    det = doc["details"]
    p.require(det["pairs"] == 100 and doc["config"]["random_samples"] == 200_000,
              "optimum-search budget is not 100 pairs of 200,000 draws")
    p.near("points_checked", doc["points_checked"], det["qualified_candidates"], 0)
    p.require(doc["points_checked"] > 0, "optimum-search qualified no candidate")


def _kernel_roundtrip(doc, p):
    """Exactly, the inverse undoes the rate, so the margin is the residual
    bound itself; float residuals may eat into it but not below zero."""
    tag, val = doc["witness"]
    det, cfg = doc["details"], doc["config"]
    if tag == "roundtrip-x":
        bound = det["x_tol"]
        _on_grid(p, cfg, [val])
    else:
        bound = det["rate_tol"] * max(1.0, val)
        p.require(abs(val * 1000 - round(val * 1000)) <= 1e-6 and 0 <= val <= 20,
                  f"rate witness {val!r} is not on the 0:20:0.001 grid")
    p.require(-doc["tolerance"] <= doc["min_margin"] <= bound,
              f"min_margin {doc['min_margin']!r} outside [0, {bound!r}]")
    p.near("points_checked", doc["points_checked"], grid_points(cfg) + 20001, 0)


def _golden_anchor(doc, p):
    """At the golden threshold b^2 = 1 - b, so every identity holds exactly and
    each margin is its tolerance, less float error."""
    tag, b = doc["witness"]
    det = doc["details"]
    p.near("witness vs (sqrt 5 - 1)/2", b, ref.GOLDEN, 2.0 ** -52)
    g = ref.GOLDEN
    exact_gaps = {
        "sq-ratio-at-golden": ref.sq_ratio(g) - 1,
        "square-vs-complement": g * g - (1 - g),
        "single-atom-margin": ref.product_bound_margin(g, [1], [g]),
        "scaled-ratio-at-golden": ref.sq_ratio_scaled(g) - (ref.SQRT5 + 1) / 2,
    }
    tols = {"single-atom-margin": det["margin_tol"]}
    for name, gap in exact_gaps.items():
        p.require(abs(gap) < 1e-30, f"{name} does not vanish in exact arithmetic")
        p.near(name, det[name], tols.get(name, det["identity_tol"]) - abs(gap), 1e-13)
    p.near("min_margin", doc["min_margin"], min(det[k] for k in exact_gaps), 0)
    p.near("min_margin at witness tag", doc["min_margin"], det[tag], 0)
    p.near("points_checked", doc["points_checked"], 4, 0)


def _bridge_gap(doc, p):
    """The product margin at (d, beta) and the union margin at the complement
    are one number; only float error separates the program's two routes."""
    beta, ws, vs = doc["witness"]
    pm = ref.product_bound_margin(beta, ws, vs)
    um = ref.union_bound_margin(1 - ref.mpf(beta), ws, [1 - ref.mpf(v) for v in vs])
    p.require(abs(pm - um) < 1e-30, "product and complement-union margins differ exactly")
    bound = doc["details"]["bound"]
    p.require(-doc["tolerance"] <= doc["min_margin"] <= bound,
              f"min_margin {doc['min_margin']!r} outside [0, {bound!r}]")
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["bridge-gap"], 0)


def _threshold(doc, p):
    """The product bound holds exactly from the golden threshold up and fails
    just below it: row margins change sign at (sqrt 5 - 1)/2."""
    rows = doc["details"]["rows"]
    cfg = doc["config"]
    p.near("rows", len(rows), grid_points(cfg), 0)
    for row in rows:
        below = row["beta"] < ref.GOLDEN
        p.require(row["above_golden"] == (not below), f"row {row['beta']!r} mislabelled")
        if below:
            p.require(row["min_margin"] < 0, f"row {row['beta']!r} below the threshold is not negative")
        else:
            p.require(row["min_margin"] >= -doc["tolerance"],
                      f"row {row['beta']!r} above the threshold is below -tolerance")
        p.near(f"row {row['beta']!r} points", row["points"], 2001 + cfg["random_samples"], 0)
    p.near("min_margin vs rows", doc["min_margin"], min(r["min_margin"] for r in rows), 0)
    level, ws, vs = doc["witness"]
    p.near("min_margin at witness", doc["min_margin"], ref.product_bound_margin(level, ws, vs), FLOAT_ERR)
    p.near("points_checked", doc["points_checked"], sum(r["points"] for r in rows), 0)


def _subset_entropy(doc, p):
    alpha, ps, masks = doc["witness"]
    n = doc["details"]["ground_n"]
    for i in range(n):
        marg = ref.mp.fsum(ref.mpf(q) for q, m in zip(ps, masks) if m >> i & 1)
        p.require(marg <= alpha + 1e-12, f"element {i} marginal {float(marg)!r} above alpha")
    a = ref.mpf(alpha)
    h_in = ref.shannon([ref.mpf(q) for q in ps])
    h_un = ref.shannon(ref.union_distribution(ps, masks).values())
    exact = h_un - ref.H(a * a) / ref.H(a) * h_in
    p.near("min_margin at witness", doc["min_margin"], exact, FLOAT_ERR)
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["subset-entropy"], 0)


def _family_sweep(doc, p):
    """Every union-closed family on 4 elements, enumerated here: each meets the
    bound in integers and has an element in at least half its members."""
    fams = [f for f in families.enumerate_closed(4) if f.tolist() != [0]]
    p.near("families on 4 elements", len(fams) + 2, PUBLISHED_CLOSED_COUNTS[4], 0)
    worst = None
    by_code = {}
    for f in fams:
        top = max(families.element_counts(f, 4))
        p.require(families.meets_bound(top, len(f)), f"family {f.tolist()} misses the bound")
        p.require(2 * top >= len(f), f"family {f.tolist()} misses the 1/2 bound")
        code = sum(1 << int(m) for m in f)
        by_code[code] = (top, len(f))
        if worst is None or top * worst[1] < worst[0] * len(f):
            worst = (top, len(f))
    det = doc["details"]
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["family-sweep"], 0)
    p.near("families_checked", det["families_checked"], VERIFY_POINTS["family-sweep"], 0)
    p.require(det["exact_bound_holds"] is True and det["half_bound_holds"] is True,
              "a bound is reported as failing")
    exact = ref.mpf(worst[0]) / worst[1] - ref.BOUND
    p.near("min_margin", doc["min_margin"], exact, FLOAT_ERR)
    code, num, den = doc["witness"]
    p.require(code in by_code, f"witness family {code} is not union-closed")
    if code in by_code:
        p.require(by_code[code][0] * den == num * by_code[code][1],
                  f"witness family {code} has max frequency {by_code[code]}, reported {num}/{den}")
        p.require(num * worst[1] == worst[0] * den, "witness family is not the least frequent")


def _entropy_bridge(doc, p):
    """Uniform law on every closed family up to 3 elements: H(A|B) <= H(A)."""
    slack = doc["details"]["slack"]
    margins = {}
    for n in range(4):
        for f in families.enumerate_closed(n):
            q = ref.mpf(1) / len(f)
            margins[(n, sum(1 << int(m) for m in f))] = ref.shannon([q] * len(f)) + slack - ref.shannon(
                ref.union_distribution([q] * len(f), f.tolist()).values())
    p.near("families", len(margins), VERIFY_POINTS["entropy-bridge"], 0)
    p.near("points_checked", doc["points_checked"], VERIFY_POINTS["entropy-bridge"], 0)
    p.near("min_margin", doc["min_margin"], min(margins.values()), FLOAT_ERR)
    witness = tuple(doc["witness"])
    p.require(witness in margins, f"witness {witness} is not a union-closed family")
    if witness in margins:
        p.near("margin at witness", doc["min_margin"], margins[witness], FLOAT_ERR)


REPORT_CHECKS = {
    "kernel-roundtrip": _kernel_roundtrip,
    "golden-anchor": _golden_anchor,
    "merge-properties": _merge_properties,
    "reduction": _reduction,
    "optimum-search": _optimum_search,
    "sq-ratio": partial(_curve_pair, ref.sq_ratio),
    "sq-ratio-scaled": partial(_curve_pair, ref.sq_ratio_scaled),
    "rate-convexity": _rate_convexity,
    "tail-rate": _tail_rate,
    "union-bound": _expectation("union"),
    "product-bound": _expectation("product"),
    "bridge-gap": _bridge_gap,
    "threshold": _threshold,
    "subset-entropy": _subset_entropy,
    "family-sweep": _family_sweep,
    "entropy-bridge": _entropy_bridge,
}

#: Replay tolerance: the scalar route certifies min_margin, so the replay
#: reproduces it up to float error.
REPLAY_ERR = {"merge-properties": INVERSE_ERR, "optimum-search": INVERSE_ERR,
              "rate-convexity": CONVEXITY_ERR, "reduction": INVERSE_ERR}


def check_report(doc: dict) -> tuple[list[str], str | None]:
    """(problems, fault) for one scan report; fault is a replay that raised."""
    from entroset.report import report_from_json
    from entroset.scans import reevaluate_witness

    p = Problems()
    name = doc["name"]
    p.require(doc["passed"] is True, f"{name} reports a failed check")
    # threshold explores below the golden point, where the bound fails
    if name != "threshold":
        p.require(doc["min_margin"] >= -doc["tolerance"], f"min_margin {doc['min_margin']!r} below -tolerance")
    REPORT_CHECKS[name](doc, p)
    fault = None
    try:
        replay = reevaluate_witness(report_from_json(doc))
    except ValueError as exc:
        fault = f"replay: {exc}"
    else:
        p.near("replayed margin", replay, doc["min_margin"], REPLAY_ERR.get(name, FLOAT_ERR))
    return list(p), fault


# ----------------------------------------------------------------------
# families and refine outputs
# ----------------------------------------------------------------------

def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _family_check(op: dict, out: Path, seed: int, p: Problems) -> None:
    n, members = families.parse_family(Path(op["input"]).read_text(encoding="utf-8"))
    doc = _load_json(out / "family" / f"check-{seed}.json")
    counts = families.element_counts(members, n)
    size = len(members)
    top = max(counts)
    p.require(doc["counts"] == counts, "per-element counts differ")
    p.near("size", doc["size"], size, 0)
    p.near("max_frequency_num", doc["max_frequency_num"], top, 0)
    p.near("max_frequency_den", doc["max_frequency_den"], size, 0)
    p.require(counts[doc["argmax_element"]] == top, "argmax_element is not a most frequent element")
    p.require(doc["meets_bound_exact"] == families.meets_bound(top, size), "exact bound verdict differs")
    p.near("margin", doc["margin"], ref.mpf(top) / size - ref.BOUND, FLOAT_ERR)
    for f, c in zip(doc["frequencies"], counts):
        p.near("frequency", f, ref.mpf(c) / size, FLOAT_ERR)


def _family_closure(op: dict, out: Path, seed: int, p: Problems) -> None:
    n, gens = families.parse_family(Path(op["input"]).read_text(encoding="utf-8"))
    _, expected = families.parse_family(Path(op["family"]).read_text(encoding="utf-8"))
    _, got = families.parse_family((out / "closed.txt").read_text(encoding="utf-8"))
    own = families.closure(gens, n)
    p.require(np.array_equal(own, expected), "the benchmark's closure of the generators is not the family")
    p.require(np.array_equal(got, own), f"closure has {got.size} members, the bitmap closure {own.size}")
    doc = _load_json(out / "family" / f"closure-{seed}.json")
    p.near("size", doc["size"], own.size, 0)
    p.near("input_size", doc["input_size"], gens.size, 0)
    p.require(sorted(sum(1 << i for i in m) for m in doc["members"]) == own.tolist(),
              "closure report members differ")


def _family_entropy(op: dict, out: Path, seed: int, p: Problems) -> None:
    n, members = families.parse_family(Path(op["input"]).read_text(encoding="utf-8"))
    doc = _load_json(out / "family" / f"entropy-{seed}.json")
    size = members.size
    counts = np.bincount(np.bitwise_or.outer(members, members).ravel(), minlength=1 << n)
    counts = counts[counts > 0].astype(float)
    h_union = float(np.log2(float(size) * size) - np.sum(counts * np.log2(counts)) / (float(size) * size))
    p.near("h_single", doc["h_single"], math.log2(size), FLOAT_ERR)
    p.near("h_union", doc["h_union"], h_union, 1e-9)
    p.near("max_marginal", doc["max_marginal"], max(families.element_counts(members, n)) / size, FLOAT_ERR)
    p.require(doc["union_closed"] is True, "a closed family is reported as not closed")
    p.near("uniform_gap", doc["uniform_gap"], math.log2(size) - h_union, 1e-9)


def _family_enumerate(op: dict, out: Path, seed: int, p: Problems) -> None:
    doc = _load_json(out / "family" / f"enumerate-n4-{seed}.json")
    fams = [f for f in families.enumerate_closed(4) if f.tolist() != [0]]
    p.near("families", doc["families"], PUBLISHED_CLOSED_COUNTS[4] - 2, 0)
    p.require(doc["exact_bound_holds"] is True and doc["half_bound_holds"] is True,
              "a bound is reported as failing")
    p.near("min_margin", doc["min_margin"], ref.mpf(1) / 2 - ref.BOUND, FLOAT_ERR)
    num, den = doc["min_max_frequency"]
    p.require(2 * num == den, f"least max frequency {num}/{den} is not 1/2")
    own = {sum(1 << int(m) for m in f): (f.size, max(families.element_counts(f, 4))) for f in fams}
    with (out / "family" / f"enumerate-n4-{seed}.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {int(r["family_id"]): (int(r["size"]), int(r["max_frequency_num"])) for r in rows}
    p.require(len(rows) == len(own) and got == own, "census rows differ from the enumeration")


def _reduce(op: dict, out: Path, seed: int, p: Problems) -> None:
    ws, vs = [], []
    for line in Path(op["input"]).read_text(encoding="utf-8").splitlines():
        w, v = line.split()
        ws.append(float(w))
        vs.append(float(v))
    t, u = ref.moments(ws, vs)
    rw, rv = [], []
    for line in (out / "reduced.txt").read_text(encoding="utf-8").splitlines():
        w, v = line.split()
        rw.append(float(w))
        rv.append(float(v))
    nonzero = [(w, v) for w, v in zip(rw, rv) if v > 0]
    p.require(len(nonzero) == 1, f"{len(nonzero)} nonzero atoms after reduction")
    p.near("reduced weights sum", ref.mp.fsum(rw), 1, 1e-12)
    rt, ru = ref.moments(rw, rv)
    p.near("mean kept", rt, t, REDUCTION_DRIFT)
    p.near("expected entropy kept", ru, u, REDUCTION_DRIFT)
    v = ref.inverse_rate(u / t)
    if nonzero:
        q, y = nonzero[0]
        p.near("reduced atom vs mpmath root of H(v)/v = u/t", y, v, 1e-7)
        p.near("reduced weight vs t/v", q, t / v, 1e-7)
    side = _load_json(Path(str(out / "reduced.txt") + ".json"))
    p.near("sidecar t", side["t"], t, FLOAT_ERR)
    p.near("sidecar u", side["u"], u, FLOAT_ERR)
    p.near("atoms_in", side["atoms_in"], len(ws), 0)


def _scan(op: dict, out: Path, seed: int, p: Problems) -> tuple[list[str], str | None]:
    doc = _load_json(out / "scan" / f"{op['scan']}-{seed}.json")
    p.near("grid_step", doc["config"]["grid_step"], op["step"], 0)
    problems, fault = check_report(doc)
    p.extend(problems)
    return fault


OP_CHECKS = {
    "family-check": _family_check,
    "family-closure": _family_closure,
    "family-entropy": _family_entropy,
    "family-enumerate": _family_enumerate,
    "reduce": _reduce,
}


def check_op(op: dict, record: dict, seed: int) -> list[dict]:
    """One outcome per checked operation: verify-all yields one per report."""
    out = Path(record["out"])
    if op["kind"] == "verify-all":
        outcomes = []
        for name in CHECKS:
            outcomes.append(_guarded(name, record, op, lambda p, n=name: _verify_report(out, n, seed, p)))
        return outcomes
    if op["kind"].startswith("scan."):
        return [_guarded(op["kind"], record, op, lambda p: _scan(op, out, seed, p))]
    return [_guarded(op["kind"], record, op, lambda p: OP_CHECKS[op["kind"]](op, out, seed, p))]


def _verify_report(out: Path, name: str, seed: int, p: Problems):
    doc = _load_json(out / "verify-all" / f"{name}-{seed}.json")
    problems, fault = check_report(doc)
    p.extend(problems)
    return fault


def _guarded(name: str, record: dict, op: dict, body) -> dict:
    """Run one check; an unreadable or missing output is a wrong output."""
    p = Problems()
    fault = None
    if record["rc"] is None:
        fault = f"raised: {record['error'].strip().splitlines()[-1]}"
    else:
        p.near("exit code", record["rc"], op["expect_rc"], 0)
        try:
            fault = body(p)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            p.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return {"name": name, "problems": list(p), "fault": fault,
            "failed": bool(p) or fault is not None}
