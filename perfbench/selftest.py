"""Show that every output check rejects a corrupted output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs one round of each workload (about
40 s), confirms the real outputs pass, then corrupts one output at a time
(a margin nudged by 1e-6, a member dropped from a closure, a wrong family
count, a reduced atom moved, ...) and confirms the check flags it.  Exits
1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import plan as plans  # noqa: E402
import run  # noqa: E402

SEED = 7


def _json_edit(rel: str, fn):
    def mutate(out: Path, seed: int) -> None:
        path = out / rel.format(seed=seed)
        doc = json.loads(path.read_text(encoding="utf-8"))
        fn(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return mutate


def _text_edit(rel: str, fn):
    def mutate(out: Path, seed: int) -> None:
        path = out / rel.format(seed=seed)
        path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")
    return mutate


def _set(key_path: tuple, fn):
    def edit(doc):
        node = doc
        for k in key_path[:-1]:
            node = node[k]
        node[key_path[-1]] = fn(node[key_path[-1]])
    return edit


def _nudge(delta: float):
    return lambda v: v + delta


def _report_corruptions() -> list[tuple[str, str, object]]:
    """(label, check name, mutation of the verify-all output directory)."""
    out = []
    for name in plans.CHECKS:
        rel = f"verify-all/{name}-{{seed}}.json"
        for delta in (1e-6, -1e-6):
            out.append((f"{name}: min_margin {delta:+g}", name, _json_edit(rel, _set(("min_margin",), _nudge(delta)))))
    specific = [
        ("family-sweep", "points_checked 4957", ("points_checked",), lambda v: 4957),
        ("family-sweep", "families_checked 4957", ("details", "families_checked"), lambda v: 4957),
        ("family-sweep", "witness family 1/1", ("witness",), lambda v: [1, 1, 1]),
        ("entropy-bridge", "points_checked 137", ("points_checked",), lambda v: 137),
        ("threshold", "row 0.61 made nonnegative", ("details", "rows", 6, "min_margin"), lambda v: 1e-3),
        ("union-bound", "level below the witness mean", ("witness", 0), lambda v: v / 2),
        ("product-bound", "points_checked one short", ("points_checked",), lambda v: v - 1),
        ("optimum-search", "qualified count off by one", ("details", "qualified_candidates"), lambda v: v + 1),
        ("kernel-roundtrip", "rate witness off the grid", ("witness", 1), lambda v: v + 3e-4),
        ("subset-entropy", "witness moved to the set {0,2}", ("witness", 2), lambda v: [5]),
    ]
    for name, label, key_path, fn in specific:
        out.append((f"{name}: {label}", name, _json_edit(f"verify-all/{name}-{{seed}}.json", _set(key_path, fn))))
    return out


def _drop_line(index: int):
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        del lines[index]
        return "".join(lines)
    return edit


def _move_atom(delta_w: float, delta_v: float):
    def edit(text: str) -> str:
        rows = [line.split() for line in text.splitlines()]
        for row in rows:
            if float(row[1]) > 0:
                row[0] = repr(float(row[0]) + delta_w)
                row[1] = repr(float(row[1]) + delta_v)
        return "".join(f"{w} {v}\n" for w, v in rows)
    return edit


OP_CORRUPTIONS = {
    "family-check": [
        ("count of element 0 plus one", _json_edit("family/check-{seed}.json", _set(("counts", 0), _nudge(1)))),
        ("max_frequency_num plus one", _json_edit("family/check-{seed}.json", _set(("max_frequency_num",), _nudge(1)))),
        ("exact verdict flipped", _json_edit("family/check-{seed}.json", _set(("meets_bound_exact",), lambda v: not v))),
        ("margin +1e-6", _json_edit("family/check-{seed}.json", _set(("margin",), _nudge(1e-6)))),
    ],
    "family-closure": [
        ("a member dropped", _text_edit("closed.txt", _drop_line(-1))),
        ("report size plus one", _json_edit("family/closure-{seed}.json", _set(("size",), _nudge(1)))),
    ],
    "family-entropy": [
        ("h_union +1e-6", _json_edit("family/entropy-{seed}.json", _set(("h_union",), _nudge(1e-6)))),
        ("union_closed false", _json_edit("family/entropy-{seed}.json", _set(("union_closed",), lambda v: False))),
    ],
    "family-enumerate": [
        ("4957 families", _json_edit("family/enumerate-n4-{seed}.json", _set(("families",), lambda v: 4957))),
        ("a census row dropped", _text_edit("family/enumerate-n4-{seed}.csv", _drop_line(-1))),
        ("least max frequency 2/5", _json_edit("family/enumerate-n4-{seed}.json",
                                                _set(("min_max_frequency",), lambda v: [2, 5]))),
    ],
    "reduce": [
        ("reduced atom value +1e-6", _text_edit("reduced.txt", _move_atom(0.0, 1e-6))),
        ("reduced atom weight +1e-6", _text_edit("reduced.txt", _move_atom(1e-6, 0.0))),
        ("sidecar t +1e-6", _json_edit("reduced.txt.json", _set(("t",), _nudge(1e-6)))),
    ],
}


def _half_step(doc):
    step = doc["config"]["grid_step"]
    doc["witness"] = [x + step / 2 for x in doc["witness"]]


def _scan_corruptions(name: str) -> list[tuple[str, object]]:
    rel = f"scan/{name}-{{seed}}.json"
    return [
        ("min_margin +1e-6", _json_edit(rel, _set(("min_margin",), _nudge(1e-6)))),
        ("min_margin -1e-6", _json_edit(rel, _set(("min_margin",), _nudge(-1e-6)))),
        ("points_checked plus one", _json_edit(rel, _set(("points_checked",), _nudge(1)))),
        ("witness moved half a step", _json_edit(rel, _half_step)),
    ]


def check_corrupted(op: dict, record: dict, seed: int, mutate) -> list[dict]:
    """Apply ``mutate`` to a copy of the op's outputs and check the copy."""
    if mutate is None:
        return checks.check_op(op, dict(record, rc=1), seed)
    src = Path(record["out"])
    dst = src.parent / (src.name + "-corrupt")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    try:
        mutate(dst, seed)
        return checks.check_op(op, dict(record, out=str(dst)), seed)
    finally:
        shutil.rmtree(dst, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "entroset" / "cli.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    missed: list[str] = []
    tried = 0
    try:
        env = run.child_env(root)
        for workload in plans.WORKLOADS:
            wdir = work / workload
            wdir.mkdir()
            plan = plans.make_plan(workload, SEED, wdir / "inputs")
            result, _ = run.measure(root, wdir, plan, 0.0, False, env)
            records = result["rounds"][0]["ops"]
            seed = plan["seed"]
            seen: set[str] = set()
            for op, record in zip(plan["ops"], records):
                for o in checks.check_op(op, record, seed):
                    if o["problems"]:
                        missed.append(f"real output of {o['name']} rejected: {o['problems'][:2]}")
                        print(f"[MISSED] {missed[-1]}")
                kind = op["kind"]
                if kind in seen:
                    continue
                seen.add(kind)
                if kind == "verify-all":
                    cases = _report_corruptions()
                elif kind.startswith("scan."):
                    cases = [(f"{op['scan']}: {label}", None, m) for label, m in _scan_corruptions(op["scan"])]
                else:
                    cases = [(f"{kind}: {label}", None, m) for label, m in OP_CORRUPTIONS[kind]]
                cases.append((f"{kind}: exit code 1", None, None))
                for label, name, mutate in cases:
                    tried += 1
                    flagged = [o for o in check_corrupted(op, record, seed, mutate)
                               if o["problems"] and name in (None, o["name"])]
                    print(f"[{'CAUGHT' if flagged else 'MISSED'}] {workload} {label}"
                          + (f": {flagged[0]['problems'][0]}" if flagged else ""))
                    if not flagged:
                        missed.append(label)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{tried - len(missed)} of {tried} corruptions caught" if not missed
          else f"\n{len(missed)} problems: {missed}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
