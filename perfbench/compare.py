"""Two sets of runs of the same code, and each metric's spread against its bound.

    python3 perfbench/compare.py

Run from the root of a checkout.  Reads ``BENCHMARK.json`` for the
command, the run length, the workloads and the bounds.  Each of the two
sets runs every workload ten times with its own seeds (set k uses seeds
1000 k + 1 to 1000 k + 10), workloads interleaved.  For each workload and
end-to-end metric it prints the median and quartiles of both sets, the
quartile spread as a share of the median against the metric's bound, and
the shift of the second set's median from the first; and whether the
share of failed operations is the same in every run.  Exits 1 when a spread, a shift or a failed share is out of
bounds.  The raw results go to ``.perfbench_out/compare-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 10
SETS = 2


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i + 1
                t0 = time.monotonic()
                res = run_once(bench, w, seed)
                results[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {vals} failed {res['failed']}/{res['attempted']} "
                      f"correct={res['correct']} ({time.monotonic() - t0:.0f} s)", flush=True)

    ok = True
    print()
    for w in workloads:
        print(f"== {w}")
        shares = {r["failed"] / r["attempted"] for rs in results[w] for r in rs}
        correct = all(r["correct"] for rs in results[w] for r in rs)
        print(f"   failed share {sorted(shares)} {'same in every run' if len(shares) == 1 else 'DIFFERS'}; "
              f"correct in every run: {correct}")
        ok &= len(shares) == 1 and correct
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, rs in enumerate(results[w]):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
                medians.append(med)
                spread = (q3 - q1) / med
                ok &= spread <= bound
                print(f"   {name:12s} set {s + 1}: median {med:.4f} {m['unit']}  q1 {q1:.4f}  q3 {q3:.4f}  "
                      f"spread {spread:.2%} of bound {bound:.0%} [{'ok' if spread <= bound else 'OUT'}]")
            for s in range(1, len(medians)):
                shift = (medians[s] - medians[0]) / medians[0]
                worse = shift if m["better"] == "lower" else -shift
                ok &= worse <= bound
                print(f"   {name:12s} set {s + 1} vs set 1: median moved {shift:+.2%} "
                      f"[{'ok' if worse <= bound else 'OUT'}]")
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results), encoding="utf-8")
    print(f"\nraw results: {path}\n{'all within bounds' if ok else 'OUT OF BOUNDS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
