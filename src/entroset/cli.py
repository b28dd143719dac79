"""Command-line entry point: verification suites, scans, reductions, families.

Subcommands
-----------

* ``verify-all``  run every check group and write one JSON report per check
* ``reduce``      reduce a distribution file to its two-point form
* ``scan``        run one named check
* ``family``      set-family tools: check, closure, enumerate, entropy

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
parse error, 3 a precondition on user data was violated, 4 a worker
process of the run died.

Reports land under ``<out>/<subcommand>/<name>-<seed>.json`` with CSV
siblings sharing the stem, and are byte-stable for fixed seed and flags;
wall-clock timestamps live only in the ``*.manifest.json`` files.  All
files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .distribution import (
    DistributionError,
    load_distribution,
    dump_distribution,
    reduce_with_merges,
)
from .kernel import FREQUENCY_BOUND, DomainError
from .report import (
    PreconditionError,
    ScanConfig,
    ScanReport,
    report_csv_header,
    report_csv_row,
    report_to_json,
)
from . import scans as _scans
from . import setfamily as _sf

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 42
DEFAULT_OUT = "reports"

# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def _utc(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(timespec="seconds")


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent json encodes in pure Python.  This writer lays out the
    same lines faster: every key and scalar still goes through
    ``json.dumps``, which keeps json's rules for floats, NaN, escapes and
    bools, and a list of plain ints (a family member) is one join.
    """
    return _json_layout(doc, "\n") + "\n"


_INT = frozenset({int})

#: The text of the ints a family report is mostly made of, its members'
#: element indices; a lookup costs a fraction of ``str``.
_INDEX_TEXT = {i: str(i) for i in range(_sf.MAX_GROUND)}


def _json_layout(value, nl: str) -> str:
    """``value`` as json's indent-2 encoder writes it, starting on a line
    whose newline and indent are ``nl``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        if _INT.issuperset(map(type, value)):
            try:
                body = ("," + inner).join(map(_INDEX_TEXT.__getitem__, value))
            except KeyError:
                body = ("," + inner).join(map(str, value))
        else:
            body = ("," + inner).join([_json_layout(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            # json's own key rules (numbers, bools, None, type errors); each
            # newline in its text ends a line, as json escapes those in strings
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            json.dumps(k) + ": " + _json_layout(v, inner) for k, v in sorted(value.items())
        ]) + nl + "}"
    return json.dumps(value)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _report_path(args, subcommand: str, stem: str, suffix: str = ".json") -> Path:
    return Path(args.out) / subcommand / f"{stem}-{args.seed}{suffix}"


def _write_report_json(args, subcommand: str, stem: str, doc: dict) -> Path:
    path = _report_path(args, subcommand, stem)
    _write_atomic(path, _json_text(doc))
    return path


def _write_csv(args, subcommand: str, stem: str, rows: list[list[str]]) -> Path:
    path = _report_path(args, subcommand, stem, ".csv")
    _write_atomic(path, _csv_text(rows))
    return path


def _write_manifest(
    args, subcommand: str, stem: str, started: float, report_path: Path, **fields,
) -> None:
    """Write the run's manifest; ``fields`` (a check run's workers, wall time
    and per-check timings, a reduction's time and merges, a family
    command's wall time) are added to it as they are."""
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None and not callable(v)
    }
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "seed": args.seed,
        "started": _utc(started),
        "finished": _utc(time.time()),
        "report_path": str(report_path),
    }
    manifest.update(fields)
    _write_atomic(_report_path(args, subcommand, stem, ".manifest.json"),
                  _json_text(manifest))


# ----------------------------------------------------------------------
# running checks: verify-all and scan
# ----------------------------------------------------------------------

def _is_curve(check: _scans.Check) -> bool:
    """A check whose grid --step sets: configured and unsampled, but not
    threshold, whose beta grid moves with scan's --beta only."""
    return check.cfg is not None and not check.cfg.random_samples and check.name != "threshold"


def _check_cfg(args, check: _scans.Check) -> ScanConfig | None:
    """The check's configuration with --seed, and with --samples for a
    sampled check, --step for a curve check (:func:`_is_curve`) and scan's
    --beta for threshold."""
    if check.cfg is None:
        return None
    kw: dict = {"seed": args.seed}
    if check.cfg.random_samples:
        if args.samples is not None:
            kw["random_samples"] = args.samples
    elif args.step is not None and _is_curve(check):
        kw["grid_step"] = args.step
    if check.name == "threshold" and getattr(args, "beta", None) is not None:
        kw["range_lo"], kw["range_hi"], kw["grid_step"] = args.beta
    return replace(check.cfg, **kw)


def _check_timing(r: ScanReport, elapsed: float) -> dict:
    """One manifest entry: where a check's time went, what share of the rows
    it drew it kept (None for a check whose report has no ``raw_draws``, or
    drew none), and how far its vector route was from the scalar certifier
    (None for a check with one route)."""
    drawn = r.details.get("raw_draws")
    return {
        "name": r.name,
        "elapsed_s": elapsed,
        "points_per_s": r.points_checked / elapsed if elapsed > 0.0 else None,
        "accept_ratio": r.points_checked / drawn if drawn else None,
        "route_gap": r.details.get("route_gap"),
    }


def _run_checks(args, subcommand: str, checks) -> tuple[list[ScanReport], dict]:
    """Run the registry entries ``checks`` under the command line's flags:
    print each report's line and write its JSON report.  Returns the reports
    and the run's manifest fields: the worker processes that ran the checks,
    the run's wall time, and each check's own timing, so under more than
    one worker the checks' times add up to more than the run's."""
    runs = [(check.name, _check_cfg(args, check)) for check in checks]
    _, workers = _scans._spread(runs, args.alpha, args.tol)
    reports, timings = [], []
    t0 = time.perf_counter()
    # closed on the way out, so an error here also stops the run's workers
    with closing(_scans.run_named_scans(runs, alpha=args.alpha, tol=args.tol)) as results:
        for r, elapsed in results:
            timings.append(_check_timing(r, elapsed))
            reports.append(r)
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                  f"min_margin={r.min_margin:.6e} points={r.points_checked} "
                  f"tolerance={r.tolerance:g}")
            _write_report_json(args, subcommand, r.name, report_to_json(r))
    return reports, {"workers": workers, "wall_s": time.perf_counter() - t0, "checks": timings}


def cmd_verify_all(args) -> int:
    started = time.time()
    checks = [c for c in _scans.CHECKS.values() if args.only in (None, c.group)]
    reports, run = _run_checks(args, "verify-all", checks)
    passed = sum(1 for r in reports if r.passed)
    print(f"{passed}/{len(reports)} checks passed")
    if args.format == "csv":
        _write_csv(args, "verify-all", "all",
                   [report_csv_header()] + [report_csv_row(r) for r in reports])
    _write_manifest(args, "verify-all", "all", started, Path(args.out) / "verify-all", **run)
    return 0 if passed == len(reports) else 1


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

def cmd_reduce(args) -> int:
    started = time.time()
    d = load_distribution(args.input)
    t0 = time.perf_counter()
    reduced, merges = reduce_with_merges(d)
    elapsed = time.perf_counter() - t0
    dump_distribution(reduced, args.output)
    t = d.mean()
    u = d.expected_entropy()
    nz = reduced.nonzero_atoms()
    q, v = nz[0] if nz else (0.0, 0.0)
    sidecar = {
        "t": t,
        "u": u,
        "v": v,
        "q": q,
        "zero_mass": reduced.zero_mass(),
        "mean_residual": abs(reduced.mean() - t),
        "entropy_residual": abs(reduced.expected_entropy() - u),
        "atoms_in": len(d.atoms),
        "atoms_out": len(reduced.atoms),
    }
    sidecar_path = Path(str(args.output) + ".json")
    _write_atomic(sidecar_path, _json_text(sidecar))
    print(
        f"reduced {sidecar['atoms_in']} atoms -> {sidecar['atoms_out']} "
        f"(q={q!r}, v={v!r}); residuals mean={sidecar['mean_residual']:.3e} "
        f"entropy={sidecar['entropy_residual']:.3e}"
    )
    stem = Path(str(args.output)).stem or "reduce"
    _write_manifest(args, "reduce", stem, started, sidecar_path,
                    elapsed_s=elapsed, merges=merges)
    return 0


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def _parse_beta_band(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step, got {text!r}"
        )
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric band in {text!r}")
    if not (0.0 < lo < hi < 1.0 and step > 0.0):
        raise argparse.ArgumentTypeError(
            f"band must satisfy 0 < lo < hi < 1 and step > 0, got {text!r}"
        )
    return lo, hi, step


def cmd_scan(args) -> int:
    started = time.time()
    name = args.name
    [report], run = _run_checks(args, "scan", [_scans.CHECKS[name]])
    if name == "threshold":
        rows = [["beta", "min_margin", "points", "above_golden"]]
        for row in report.details.get("rows", []):
            rows.append([
                repr(row["beta"]),
                repr(row["min_margin"]),
                str(row["points"]),
                "1" if row["above_golden"] else "0",
            ])
        _write_csv(args, "scan", name, rows)
    elif args.format == "csv":
        _write_csv(args, "scan", name, [report_csv_header(), report_csv_row(report)])
    _write_manifest(args, "scan", name, started, _report_path(args, "scan", name), **run)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# family
# ----------------------------------------------------------------------

def _family_doc(f: _sf.SetFamily) -> dict:
    return {
        "ground_n": f.ground_n,
        "size": len(f.members),
        "members": [_sf.indices_from_mask(m) for m in f.members],
    }


def cmd_family_check(args) -> int:
    started, t0 = time.time(), time.perf_counter()
    fam = _sf.load_family(args.file)
    prof = _sf.checked_profile(fam)
    margin = prof.max_frequency - FREQUENCY_BOUND
    doc = _family_doc(fam)
    doc.update({
        "action": "check",
        "frequencies": list(prof.frequencies),
        "counts": list(prof.counts),
        "max_frequency": prof.max_frequency,
        "max_frequency_num": max(prof.counts),
        "max_frequency_den": prof.family_size,
        "argmax_element": prof.argmax_element,
        "bound": FREQUENCY_BOUND,
        "margin": margin,
        "meets_bound_exact": _sf.counts_meet_bound(max(prof.counts), prof.family_size),
    })
    print(
        f"family of {doc['size']} sets over {fam.ground_n} elements: "
        f"max_frequency={doc['max_frequency_num']}/{doc['max_frequency_den']} "
        f"margin={margin:.6f}"
    )
    path = _write_report_json(args, "family", "check", doc)
    _write_manifest(args, "family", "check", started, path,
                    wall_s=time.perf_counter() - t0)
    return 0 if doc["meets_bound_exact"] else 1


def cmd_family_closure(args) -> int:
    started, t0 = time.time(), time.perf_counter()
    fam = _sf.load_family(args.file)
    closed = _sf.union_closure(fam.members, fam.ground_n)
    text = _sf.family_text(closed)
    if args.output:
        _write_atomic(Path(args.output), text)
        print(f"closure: {len(fam.members)} -> {len(closed.members)} sets, wrote {args.output}")
    else:
        sys.stdout.write(text)
    doc = _family_doc(closed)
    doc.update({
        "action": "closure",
        "input_size": len(fam.members),
        "union_closed": True,
    })
    path = _write_report_json(args, "family", "closure", doc)
    _write_manifest(args, "family", "closure", started, path,
                    wall_s=time.perf_counter() - t0)
    return 0


def cmd_family_enumerate(args) -> int:
    started, t0 = time.time(), time.perf_counter()
    rows = _sf.family_census(args.n)
    worst = min(rows, key=lambda r: r["margin"])
    stem = f"enumerate-n{args.n}"
    csv_path = _write_csv(args, "family", stem, _sf.census_csv_rows(rows))
    doc = {
        "action": "enumerate",
        "ground_n": args.n,
        "families": len(rows),
        "min_margin": worst["margin"],
        "min_max_frequency": [worst["max_frequency_num"], worst["max_frequency_den"]],
        "worst_family_id": worst["family_id"],
        "exact_bound_holds": all(r["meets_bound"] for r in rows),
        "half_bound_holds": all(r["meets_half"] for r in rows),
        "csv": str(csv_path),
    }
    print(
        f"enumerated {doc['families']} union-closed families on [{args.n}]: "
        f"min max_frequency={worst['max_frequency_num']}/{worst['max_frequency_den']} "
        f"(margin {worst['margin']:.6f})"
    )
    path = _write_report_json(args, "family", stem, doc)
    _write_manifest(args, "family", stem, started, path, wall_s=time.perf_counter() - t0)
    return 0 if doc["exact_bound_holds"] else 1


def cmd_family_entropy(args) -> int:
    started, t0 = time.time(), time.perf_counter()
    fam = _sf.load_family(args.file)
    d = _sf.SubsetDistribution.uniform_on(fam)
    ud = _sf.union_distribution(d)
    h_in = d.entropy()
    h_un = ud.entropy()
    worst = max(d.marginals(), default=0.0)
    closed = fam.is_union_closed()
    margin = None
    if 0.0 < worst <= FREQUENCY_BOUND + 1e-15:
        margin = _sf.union_entropy_margin(d, worst, union=ud)
    doc = _family_doc(fam)
    doc.update({
        "action": "entropy",
        "h_single": h_in,
        "h_union": h_un,
        "max_marginal": worst,
        "margin_at_max_marginal": margin,
        "union_closed": closed,
        "uniform_gap": (h_in - h_un) if closed else None,
    })
    print(f"H(A)={h_in!r}  H(A|B union)={h_un!r}  max marginal={worst!r}")
    if margin is not None:
        print(f"union entropy margin at alpha={worst!r}: {margin!r}")
    else:
        print(f"max marginal {worst!r} outside (0, {FREQUENCY_BOUND}]; no level to check")
    path = _write_report_json(args, "family", "entropy", doc)
    _write_manifest(args, "family", "entropy", started, path,
                    wall_s=time.perf_counter() - t0)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_config_rule("seed", int), default=DEFAULT_SEED,
                   help="RNG seed, at least 0 (default 42)")
    p.add_argument("--out", default=DEFAULT_OUT, help="report directory (default reports/)")


def _sample_budgets() -> str:
    """The registry's sample budgets, largest first, e.g. '1,000 reduction'."""
    names: dict[int, list[str]] = {}
    for c in _scans.CHECKS.values():
        if c.cfg is not None and c.cfg.random_samples:
            names.setdefault(c.cfg.random_samples, []).append(c.name)
    return ", ".join(
        f"{n:,} {' and '.join(ns)}" for n, ns in sorted(names.items(), reverse=True)
    )


def _rule(check):
    """The argparse type that reads a flag's text through ``check`` and
    turns its ValueError into a usage error with its message."""
    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _config_rule(field: str, convert):
    """The argparse type of a flag that sets :class:`ScanConfig`'s ``field``:
    ``convert`` the text, then refuse the value by ScanConfig's rule."""
    return _rule(lambda text: getattr(ScanConfig(**{field: convert(text)}), field))


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that run checks, verify-all and scan, each
    mapped onto a check's configuration by :func:`_check_cfg`."""
    _add_common(p)
    curves = ", ".join(c.name for c in _scans.CHECKS.values() if _is_curve(c))
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format; JSON is always written")
    p.add_argument("--samples", type=int, default=None,
                   help="override the sample budget of every sampled check "
                        f"(default: {_sample_budgets()})")
    p.add_argument("--step", type=float, default=None,
                   help=f"override the grid step of the curve checks ({curves}); "
                        "the other checks ignore it, and threshold takes its "
                        "beta step from scan's --beta only")
    p.add_argument("--tol", type=_config_rule("tolerance", float), default=None,
                   help="override the tolerance of every configured check (bridge-gap's "
                        "bound) and the residual bounds of kernel-roundtrip and "
                        "golden-anchor; family-sweep (exact), entropy-bridge (fixed "
                        "1e-12 slack) and the fixed residual bounds of "
                        "merge-properties and reduction stay as they are")
    p.add_argument("--alpha", type=_rule(_scans._rate_alpha), default=0.5,
                   help="rescaling level for rate-convexity, strictly inside (0, 1) "
                        "(default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroset",
        description="Verification toolkit for binary-entropy inequalities "
                    "and union-closed set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    va = sub.add_parser("verify-all", help="run every check group")
    _add_check_flags(va)
    groups = tuple(dict.fromkeys(c.group for c in _scans.CHECKS.values()))
    va.add_argument("--only", choices=groups, default=None,
                    help="restrict to one check group")
    va.set_defaults(func=cmd_verify_all)

    rd = sub.add_parser("reduce", help="reduce a distribution file")
    _add_common(rd)
    rd.add_argument("input", help="distribution file: 'weight value' per line")
    rd.add_argument("output", help="path for the reduced distribution")
    rd.set_defaults(func=cmd_reduce)

    sc = sub.add_parser("scan", help="run one named check")
    _add_check_flags(sc)
    sc.add_argument("name", choices=_scans.SCAN_NAMES, help="check to run")
    band = _scans.CHECKS["threshold"].cfg
    sc.add_argument("--beta", type=_parse_beta_band, default=None, metavar="LO:HI:STEP",
                    help="band and step of threshold's beta grid (default "
                         f"{band.range_lo:g}:{band.range_hi:g}:{band.grid_step:g})")
    sc.set_defaults(func=cmd_scan)

    fa = sub.add_parser("family", help="set-family tools")
    fsub = fa.add_subparsers(dest="action", required=True)

    fc = fsub.add_parser("check", help="frequency profile and bound margin")
    _add_common(fc)
    fc.add_argument("file", help="family file (n=<ground_n>, one set per line)")
    fc.set_defaults(func=cmd_family_check)

    fl = fsub.add_parser("closure", help="union closure of a family")
    _add_common(fl)
    fl.add_argument("file", help="family file")
    fl.add_argument("output", nargs="?", default=None,
                    help="write the closed family here (default: stdout)")
    fl.set_defaults(func=cmd_family_closure)

    fe = fsub.add_parser("enumerate", help="exhaustive census of closed families")
    _add_common(fe)
    fe.add_argument("--n", type=int, default=4,
                    help="ground set size, at most 4 (default 4)")
    fe.set_defaults(func=cmd_family_enumerate)

    fh = fsub.add_parser("entropy", help="uniform-distribution entropy comparison")
    _add_common(fh)
    fh.add_argument("file", help="family file")
    fh.set_defaults(func=cmd_family_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except (DistributionError, _sf.SetFamilyError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a worker that dies breaks the pool; like the pool itself, this
        # module is imported only on the path that needs it
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
