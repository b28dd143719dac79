"""The measured process: import entroset, run rounds of a plan, report timings.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP pinned to
one thread.  It imports ``entroset.cli`` first, so the moment the import
ends marks the end of set-up.  It then runs whole rounds of the plan's
command lines through ``entroset.cli.main``, as many as fit in
``--seconds`` and at least one.  With ``--trace 1`` it then takes the
micro timings and runs one more round with every module wrapped (see
``tracer.py``).  Results go to a JSON file; the program's own output goes
to this process's stdout.

    python3 perfbench/measured.py PLAN RESULT WORKDIR SECONDS TRACE
"""

import time

import entroset.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_round(ops: list[dict], rdir: Path) -> dict:
    outs = [rdir / f"op{j}" for j in range(len(ops))]
    for out in outs:
        out.mkdir(parents=True, exist_ok=True)
    records = []
    w0, c0 = time.perf_counter(), time.process_time()
    for op, out in zip(ops, outs):
        argv = [a.replace("{out}", str(out)) for a in op["argv"]]
        t0 = time.perf_counter()
        try:
            rc = entroset.cli.main(argv)
            error = None
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        records.append({"s": time.perf_counter() - t0, "rc": rc, "error": error, "out": str(out)})
        sys.stdout.flush()
    return {"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0, "ops": records}


def main(argv: list[str]) -> int:
    plan_path, result_path, workdir, seconds, trace = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    workdir = Path(workdir)
    seconds = float(seconds)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(plan["ops"], workdir / f"round{len(rounds)}"))
        # stop when one more round, as long as the last, would end past the window
        if time.perf_counter() - start + rounds[-1]["wall_s"] > seconds:
            break
    result = {
        "ready": READY,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace == "1":
        import micro
        from tracer import Tracer

        result["micro"] = micro.run(workdir / "micro")
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(plan["ops"], workdir / "traced")
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        result["traced_round"] = traced
        result["trace"] = summary
        spans = workdir.parent / "spans.json"
        spans.write_text(json.dumps({"summary": summary, "spans": tracer.spans}), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
