"""Run one workload of the entroset benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run writes its inputs, then starts
fresh interpreters that only import ``entroset.cli`` (set-up time), then
one measured process that runs whole rounds of the workload's commands
(``measured.py``), then checks every output apart from the package
(``checks.py``).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Everything it writes goes under ``.perfbench_out/`` and the run's own
directory there is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan as plans  # noqa: E402

#: Fresh interpreters timed for set-up before the measured process, and as
#: many again after it, so one slow stretch of the host moves fewer samples.
SETUP_PROBES = 10

#: A run must end within 180 s; the measured process gets this long.
MEASURE_TIMEOUT_S = 160.0

#: BLAS and OpenMP stay on one thread in every process the run starts.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: The metric names and units, as ``BENCHMARK.json`` lists them.
BENCHMARK = HERE.parent / "BENCHMARK.json"

LAYER_SELF = ("cli", "report", "scans", "distribution", "kernel", "setfamily")
SAMPLED_CHECKS = ("union-bound", "product-bound", "optimum-search", "subset-entropy")
OP_KINDS = (
    ("op.family-check.p50_s", "family-check"),
    ("op.family-closure.p50_s", "family-closure"),
    ("op.family-entropy.p50_s", "family-entropy"),
    ("op.family-enumerate.s", "family-enumerate"),
    ("op.reduce.p50_s", "reduce"),
) + tuple((f"op.scan.{name}.s", f"scan.{name}") for name, _ in plans.REFINE_SCANS)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_probe(env: dict[str, str]) -> float:
    """Seconds from spawning an interpreter to the end of ``import entroset.cli``."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import entroset.cli, time; print(time.monotonic())"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.split()[-1]) - t0


def measure(root: Path, work: Path, plan: dict, seconds: float, trace: bool, env) -> tuple[dict, float]:
    """Run the measured process; returns its result and its own set-up time."""
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path = work / "result.json"
    with (work / "program-output.log").open("w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "measured.py"), str(plan_path), str(result_path),
             str(work / "rounds"), repr(seconds), "1" if trace else "0"],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            rc = proc.wait(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"the measured process ran past {MEASURE_TIMEOUT_S:.0f} s")
    if rc != 0:
        tail = (work / "program-output.log").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"the measured process exited with {rc}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["ready"] - t0


def check_rounds(plan: dict, rounds: list[dict]) -> list[dict]:
    import checks

    outcomes = []
    for rnd in rounds:
        for op, record in zip(plan["ops"], rnd["ops"]):
            outcomes.extend(checks.check_op(op, record, plan["seed"]))
    return outcomes


def round_wall_s(rounds: list[dict]) -> float:
    """Wall time of one round, each operation at its median over the rounds.

    Per-operation medians shrug off a slow stretch that covers part of a
    round better than a median of whole-round times does.
    """
    return sum(statistics.median(ops) for ops in zip(*([op["s"] for op in r["ops"]] for r in rounds)))


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(plan: dict, result: dict) -> dict[str, float]:
    trace = result["trace"]
    rounds = result["rounds"]
    values: dict[str, float] = {}
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = trace["layer_self_s"][layer]
    for name in plans.CHECKS:
        values[f"check.{name}.s"] = trace["check_s"].get(name, 0.0)
    reports = {}
    if plan["workload"] == "verify-all":
        out = Path(result["traced_round"]["ops"][0]["out"]) / "verify-all"
        for name in SAMPLED_CHECKS + ("reduction",):
            path = out / f"{name}-{plan['seed']}.json"
            if path.is_file():
                reports[name] = json.loads(path.read_text(encoding="utf-8"))
    for name in SAMPLED_CHECKS:
        ratio = 0.0
        if name in reports:
            doc = reports[name]
            det = doc["details"]
            drawn = (det["pairs"] * doc["config"]["random_samples"] if name == "optimum-search"
                     else det["raw_draws"])
            ratio = doc["points_checked"] / drawn
        values[f"check.{name}.accept_ratio"] = ratio
    for name in SAMPLED_CHECKS + ("reduction",):
        secs = values[f"check.{name}.s"]
        values[f"check.{name}.points_per_s"] = (
            reports[name]["points_checked"] / secs if name in reports and secs > 0 else 0.0)
    values.update(result["micro"])
    for metric, kind in OP_KINDS:
        values[metric] = _median_or_zero([
            rec["s"] for rnd in rounds for op, rec in zip(plan["ops"], rnd["ops"]) if op["kind"] == kind])
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in rounds)
    values["trace.overhead_s"] = trace["overhead_s"]
    return values


def listed(values: dict[str, float], key: str) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` lists under ``key``, each with its value."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))[key]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for the listed metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "entroset" / "cli.py").is_file():
        print(f"error: {root} holds no entroset source tree (src/entroset); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    out_root = root / ".perfbench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # byte-compile once, so no run's set-up pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "entroset")],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        plan = plans.make_plan(args.workload, args.seed, work / "inputs")
        setups = [setup_probe(env) for _ in range(SETUP_PROBES)]
        result, own_setup = measure(root, work, plan, args.seconds, bool(args.trace), env)
        setups += [own_setup] + [setup_probe(env) for _ in range(SETUP_PROBES)]
        rounds = result["rounds"] + ([result["traced_round"]] if args.trace else [])
        outcomes = check_rounds(plan, rounds)
        for o in outcomes:
            if o["failed"]:
                detail = "; ".join(o["problems"][:3] + ([o["fault"]] if o["fault"] else []))
                print(f"[FAIL] {o['name']}: {detail}", file=sys.stderr)
        if args.trace:
            # the spans of the latest traced run stay for inspection
            os.replace(work / "spans.json", out_root / f"spans-{args.workload}.json")
            metrics = listed(layer_metrics(plan, result), "per_layer")
        else:
            metrics = listed({
                "wall_s": round_wall_s(result["rounds"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
            }, "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} rounds of "
          f"{len(plan['ops'])} commands; setup samples {[round(s, 4) for s in setups]}")
    if args.trace:
        wall = round_wall_s(result["rounds"])
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.4f} s estimated for "
              f"{result['trace']['spans']} spans, {metrics['trace.overhead_s']['value'] / wall:.2%} "
              f"of the untraced wall_s {wall:.4f} s (the traced round minus wall_s, "
              f"{result['traced_round']['wall_s'] - wall:+.4f} s, is mostly host noise)")
    print(json.dumps({
        "correct": not any(o["problems"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
