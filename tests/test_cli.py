"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import entroset
from entroset.cli import build_parser, main
from entroset.distribution import FiniteDistribution, load_distribution, reduce_support
from entroset.kernel import binary_entropy
from entroset import scans
from entroset.report import PreconditionError
from entroset.scans import CHECKS

# Frozen two-point merge oracle, same source as in test_distribution.
ORACLE_Y = 0.7377415277527126
ORACLE_Q = 0.8132929724421275


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


#: Flags both check-running commands take: a sample budget at which
#: optimum-search still keeps candidates, and a grid step coarser than every
#: registered one, threshold's 0.01 included.
SAME_FLAGS = ["--samples", "2000", "--step", "0.05"]


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    """verify-all's report of a check under SAME_FLAGS, from one
    ``--only GROUP`` run per group."""
    out = tmp_path_factory.mktemp("verified")
    groups = set()

    def report(name, group):
        if group not in groups:
            assert main(["verify-all", "--only", group, *SAME_FLAGS,
                         "--out", str(out)]) == 0
            groups.add(group)
        return (out / "verify-all" / f"{name}-42.json").read_bytes()

    return report


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["reduce", "{dist}", "{tmp}/reduced.txt"],
        ["family", "check", "{fam}"],
        ["family", "closure", "{fam}"],
        ["family", "enumerate", "--n", "2"],
        ["family", "entropy", "{fam}"],
    ], ids=["reduce", "family-check", "family-closure", "family-enumerate",
            "family-entropy"])
    def test_format_is_refused_where_no_report_reads_it(self, tmp_path, argv):
        # only verify-all and scan write CSV reports
        paths = {"dist": write(tmp_path / "d.txt", "0.5 0.3\n0.5 0.9\n"),
                 "fam": write(tmp_path / "f.fam", "n=2\nempty\n0\n1\n0,1\n"),
                 "tmp": str(tmp_path)}
        argv = [a.format(**paths) for a in argv]
        out = tmp_path / "r"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 2
        assert not out.exists()


class TestVerifyAll:
    def test_kernel_group_passes_and_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "kernel", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS] kernel-roundtrip" in stdout
        assert "[PASS] golden-anchor" in stdout
        assert "2/2 checks passed" in stdout
        d = out / "verify-all"
        assert (d / "kernel-roundtrip-42.json").exists()
        assert (d / "golden-anchor-42.json").exists()
        assert (d / "all-42.manifest.json").exists()

    def test_absurd_tolerance_fails_with_float_noise(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["verify-all", "--only", "kernel", "--tol", "1e-18",
                   "--out", str(out)])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify-all", "--only", "kernel", "--tol", "-1"],
        ["scan", "kernel-roundtrip", "--tol", "nan"],
        ["scan", "golden-anchor", "--tol", "inf"],
    ], ids=["negative", "nan", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, argv):
        # the kernel checks read --tol as raw residual bounds, so it is
        # refused where it is parsed, by ScanConfig's rule
        out = tmp_path / "r"
        assert main([*argv, "--out", str(out)]) == 2
        assert "tolerance must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_reaches_rate_convexity_alone(self, tmp_path, verified):
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "scans", *SAME_FLAGS, "--alpha", "0.25",
                     "--out", str(out)]) == 0
        assert main(["scan", "rate-convexity", *SAME_FLAGS, "--alpha", "0.25",
                     "--out", str(out)]) == 0
        scanned = (out / "scan" / "rate-convexity-42.json").read_bytes()
        assert json.loads(scanned)["config"]["alpha"] == 0.25
        for c in CHECKS.values():
            if c.group == "scans":
                got = (out / "verify-all" / f"{c.name}-42.json").read_bytes()
                if c.name == "rate-convexity":
                    assert got == scanned != verified(c.name, "scans")
                else:
                    assert got == verified(c.name, "scans")

    @pytest.mark.parametrize("alpha", ["1.5", "nan"])
    def test_alpha_outside_the_unit_interval_is_an_error(self, tmp_path, alpha):
        assert main(["scan", "rate-convexity", "--alpha", alpha,
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("alpha", ["2", "0", "nan"])
    def test_alpha_is_refused_before_any_check_runs(self, tmp_path, capsys, alpha):
        # rate-convexity's rule, applied where --alpha is parsed: the checks
        # before rate-convexity neither run nor write
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "scans", "--alpha", alpha, "--samples", "300",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "alpha must lie strictly inside (0, 1)" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_bad_group_is_usage_error(self, tmp_path):
        assert main(["verify-all", "--only", "nope", "--out", str(tmp_path)]) == 2

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "kernel", "--format", "csv",
                     "--out", str(out)]) == 0
        csv_text = (out / "verify-all" / "all-42.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 3

    def test_manifest_times_every_check(self, tmp_path, monkeypatch):
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "kernel", "--out", str(out)]) == 0
        d = out / "verify-all"
        manifest = json.loads((d / "all-42.manifest.json").read_text())
        # two checks: up to one worker each, as many as this host has CPUs
        assert manifest["workers"] == min(len(os.sched_getaffinity(0)), 2)
        assert manifest["wall_s"] > 0.0
        checks = manifest["checks"]
        assert [c["name"] for c in checks] == ["kernel-roundtrip", "golden-anchor"]
        for c in checks:
            report = json.loads((d / f"{c['name']}-42.json").read_text())
            assert c["elapsed_s"] > 0.0
            assert c["points_per_s"] == pytest.approx(
                report["points_checked"] / c["elapsed_s"])
            assert c["route_gap"] == report.get("details", {}).get("route_gap")
            assert c["accept_ratio"] is None  # neither check samples
        assert checks[0]["route_gap"] is not None
        assert checks[1]["route_gap"] is None
        # a sampled check reports the share of the rows it drew that it kept
        assert main(["verify-all", "--only", "setfamily", "--samples", "2000",
                     "--out", str(out)]) == 0
        checks = {c["name"]: c for c in
                  json.loads((d / "all-42.manifest.json").read_text())["checks"]}
        report = json.loads((d / "subset-entropy-42.json").read_text())
        ratio = checks["subset-entropy"]["accept_ratio"]
        assert ratio == report["points_checked"] / report["details"]["raw_draws"]
        assert 0.0 < ratio < 1.0
        assert checks["family-sweep"]["accept_ratio"] is None
        assert checks["entropy-bridge"]["accept_ratio"] is None
        # optimum-search draws random_samples rows for each of its pairs
        assert main(["scan", "optimum-search", "--samples", "2000", "--out", str(out)]) == 0
        (timing,) = json.loads(
            (out / "scan" / "optimum-search-42.manifest.json").read_text())["checks"]
        report = json.loads((out / "scan" / "optimum-search-42.json").read_text())
        assert report["details"]["raw_draws"] == report["details"]["pairs"] * 2000
        # one check never starts a pool
        assert json.loads(
            (out / "scan" / "optimum-search-42.manifest.json").read_text())["workers"] == 1
        assert timing["accept_ratio"] == report["points_checked"] / report["details"]["raw_draws"]
        assert 0.0 < timing["accept_ratio"] < 1.0
        # bridge-gap keeps the level-stream rows at levels from the golden
        # threshold up; threshold draws nothing, so it has no ratio
        assert main(["verify-all", "--only", "scans", "--samples", "300",
                     "--step", "0.05", "--out", str(out)]) == 0
        checks = {c["name"]: c for c in
                  json.loads((d / "all-42.manifest.json").read_text())["checks"]}
        report = json.loads((d / "bridge-gap-42.json").read_text())
        ratio = checks["bridge-gap"]["accept_ratio"]
        assert ratio == report["points_checked"] / report["details"]["raw_draws"]
        assert 0.0 < ratio < 1.0
        assert checks["threshold"]["accept_ratio"] is None
        # the manifest says how many workers ran the checks; each check's
        # elapsed_s is its own time, so with workers they may add up to
        # more than the run's wall_s
        for workers in (2, 1):
            monkeypatch.setattr(scans, "_workers", lambda units: workers)
            assert main(["verify-all", "--only", "distribution", "--samples", "2000",
                         "--out", str(out)]) == 0
            manifest = json.loads((d / "all-42.manifest.json").read_text())
            assert manifest["workers"] == workers
            wall, spent = manifest["wall_s"], sum(c["elapsed_s"] for c in manifest["checks"])
            assert wall > 0.0 and spent > 0.0
        # in one process the run's wall time covers every check's own
        assert wall >= spent

    @pytest.mark.parametrize("seed", ["42", "7"])
    def test_shared_level_pass_writes_the_lone_scans_reports(self, tmp_path, capsys, seed):
        # verify-all draws the level stream once for union-bound and
        # product-bound; each report is the one its scan writes alone
        level = ("union-bound", "product-bound")
        small = ["--samples", "300", "--seed", seed]
        for name in level:
            assert main(["scan", name, *small, "--out", str(tmp_path / "alone")]) == 0
        for only in ([], ["--only", "scans"]):
            out = tmp_path / ("all" if not only else "scans")
            capsys.readouterr()
            assert main(["verify-all", *only, *small, "--out", str(out)]) == 0
            printed = [line.split()[1].rstrip(":")
                       for line in capsys.readouterr().out.splitlines()[:-1]]
            checks = json.loads(
                (out / "verify-all" / f"all-{seed}.manifest.json").read_text())["checks"]
            names = [c["name"] for c in checks]
            assert printed == names
            assert names == [c.name for c in CHECKS.values()
                             if not only or c.group == "scans"]
            times = {c["name"]: c["elapsed_s"] for c in checks}
            assert times["union-bound"] == times["product-bound"] > 0.0
            for name in level:
                alone = (tmp_path / "alone" / "scan" / f"{name}-{seed}.json").read_bytes()
                shared = (out / "verify-all" / f"{name}-{seed}.json").read_bytes()
                assert shared == alone

    def test_report_json_is_loadable(self, tmp_path):
        out = tmp_path / "r"
        main(["verify-all", "--only", "kernel", "--out", str(out)])
        doc = json.loads((out / "verify-all" / "golden-anchor-42.json").read_text())
        assert doc["name"] == "golden-anchor"
        assert doc["passed"] is True


def run_python(code: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    root = Path(entroset.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


class TestWorkerPool:
    """verify-all runs its checks on forked workers, up to one per CPU."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Two workers, whatever this host's CPU count."""
        monkeypatch.setattr(scans, "_workers", lambda units: 2)

    @pytest.mark.parametrize("seed", ["42", "7"])
    def test_reports_are_the_same_bytes_at_any_worker_count(
            self, tmp_path, capsys, monkeypatch, seed):
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(scans, "_workers", lambda units: workers)
            out = tmp_path / str(workers)
            capsys.readouterr()
            assert main(["verify-all", *SAME_FLAGS, "--seed", seed, "--out", str(out)]) == 0
            printed = capsys.readouterr().out
            assert [line.split()[1].rstrip(":") for line in printed.splitlines()[:-1]] \
                == list(CHECKS)
            d = out / "verify-all"
            manifest = json.loads((d / f"all-{seed}.manifest.json").read_text())
            assert manifest["workers"] == workers
            times = {c["name"]: c["elapsed_s"] for c in manifest["checks"]}
            assert times["union-bound"] == times["product-bound"] > 0.0
            runs[workers] = printed, {p.name: p.read_text() for p in sorted(d.iterdir())
                                      if not p.name.endswith(".manifest.json")}
        assert len(runs[1][1]) == len(CHECKS)
        assert runs[1] == runs[2]

    def test_no_worker_outlives_main(self, tmp_path, pooled):
        assert main(["verify-all", "--only", "kernel", "--out", str(tmp_path)]) == 0
        assert multiprocessing.active_children() == []

    def test_a_workers_exception_reaches_main(self, tmp_path, capsys, pooled, monkeypatch):
        def refuse(cfg, alpha, tol):
            raise PreconditionError("no data for this check")

        monkeypatch.setitem(CHECKS, "threshold", replace(CHECKS["threshold"], run=refuse))
        out = tmp_path / "r"
        assert main(["verify-all", "--only", "scans", *SAME_FLAGS, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "precondition violated: no data for this check\n"
        # every check before threshold printed its line and wrote its report
        group = [c.name for c in CHECKS.values() if c.group == "scans"]
        before = group[:group.index("threshold")]
        assert [line.split()[1].rstrip(":") for line in captured.out.splitlines()] == before
        assert sorted(p.name for p in (out / "verify-all").iterdir()) \
            == sorted(f"{name}-42.json" for name in before)
        assert multiprocessing.active_children() == []

    def test_an_error_writing_a_report_stops_the_workers(self, tmp_path, capsys, pooled,
                                                         monkeypatch):
        def full(args, subcommand, stem, doc):
            raise OSError("No space left on device")

        monkeypatch.setattr("entroset.cli._write_report_json", full)
        assert main(["verify-all", "--only", "scans", *SAME_FLAGS,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_the_run_without_hanging(self, tmp_path):
        proc = run_python(f"""
import multiprocessing, os
from dataclasses import replace
from entroset import scans
from entroset.cli import main
scans._workers = lambda units: 2
scans.CHECKS["golden-anchor"] = replace(
    scans.CHECKS["golden-anchor"], run=lambda cfg, alpha, tol: os._exit(1))
try:
    main(["verify-all", "--only", "kernel", "--out", {str(tmp_path)!r}])
except Exception as exc:
    print(type(exc).__name__)
print(multiprocessing.active_children())
""")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-2:] == ["BrokenProcessPool", "[]"]

    def test_each_line_is_written_once_to_a_file(self, tmp_path):
        # output written before the pool starts is not flushed again by a
        # forked worker, and each check's line comes once, in order
        with (tmp_path / "stdout.txt").open("w") as stdout:
            proc = run_python(f"""
import sys
from entroset import scans
from entroset.cli import main
print("started")
scans._workers = lambda units: 2
sys.exit(main(["verify-all", "--samples", "2000", "--step", "0.05",
               "--out", {str(tmp_path / "r")!r}]))
""", stdout=stdout)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = (tmp_path / "stdout.txt").read_text().splitlines()
        assert lines[0] == "started"
        assert [line.split()[1].rstrip(":") for line in lines[1:-1]] == list(CHECKS)
        assert lines[-1] == f"{len(CHECKS)}/{len(CHECKS)} checks passed"

    def test_importing_the_cli_loads_no_pool(self):
        # the pool's modules load only when a run uses one, so no command
        # pays for them at set-up
        proc = run_python("import sys, entroset.cli; print(sorted(m for m in "
                          "('multiprocessing', 'concurrent.futures.process') if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "[]\n"


class TestScan:
    def test_grid_scan_writes_report(self, tmp_path):
        out = tmp_path / "r"
        rc = main(["scan", "sq-ratio", "--step", "1e-3", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "scan" / "sq-ratio-42.json").read_text())
        assert doc["passed"] is True
        assert doc["min_margin"] > 0.0
        assert (out / "scan" / "sq-ratio-42.manifest.json").exists()

    def test_manifest_times_the_check(self, tmp_path):
        out = tmp_path / "r"
        assert main(["scan", "rate-convexity", "--step", "1e-2", "--out", str(out)]) == 0
        d = out / "scan"
        (timing,) = json.loads((d / "rate-convexity-42.manifest.json").read_text())["checks"]
        report = json.loads((d / "rate-convexity-42.json").read_text())
        assert timing["name"] == "rate-convexity"
        assert timing["elapsed_s"] > 0.0
        assert timing["points_per_s"] == pytest.approx(
            report["points_checked"] / timing["elapsed_s"])
        assert timing["route_gap"] == report["details"]["route_gap"]

    def test_scan_that_checks_nothing_fails(self, tmp_path):
        # five draws per pair keep no candidate
        out = tmp_path / "r"
        rc = main(["scan", "optimum-search", "--samples", "5", "--out", str(out)])
        assert rc == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (out / "scan" / "optimum-search-42.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["points_checked"] == 0
        assert doc["passed"] is False

    @pytest.mark.parametrize("name", ["merge-properties", "subset-entropy",
                                      "union-bound", "product-bound"])
    def test_zero_sample_budget_writes_a_failed_report(self, tmp_path, name):
        out = tmp_path / "r"
        assert main(["scan", name, "--samples", "0", "--out", str(out)]) == 1
        doc = json.loads((out / "scan" / f"{name}-42.json").read_text())
        assert doc["points_checked"] == 0
        assert doc["passed"] is False

    @pytest.mark.parametrize("name,step,message", [
        ("sq-ratio", "5", "sq-ratio needs a grid of at least 2 points, got 1"),
        ("rate-convexity", "10", "rate-convexity needs a grid of at least 3 points, got 2"),
        ("tail-rate", "5", "tail-rate needs a grid of at least 2 points, got 1"),
    ])
    def test_grid_too_coarse_for_a_margin_is_a_usage_error(self, tmp_path, capsys,
                                                           name, step, message):
        out = tmp_path / "r"
        assert main(["scan", name, "--step", step, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scan_name(self, tmp_path):
        assert main(["scan", "bogus", "--out", str(tmp_path)]) == 2

    def test_threshold_always_exits_zero_and_writes_csv(self, tmp_path):
        out = tmp_path / "r"
        rc = main(["scan", "threshold", "--beta", "0.57:0.65:0.02",
                   "--samples", "300", "--out", str(out)])
        assert rc == 0
        csv_lines = (out / "scan" / "threshold-42.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "beta,min_margin,points,above_golden"
        assert len(csv_lines) > 1
        # below the golden threshold the margin is negative, yet exit is 0
        first = csv_lines[1].split(",")
        assert float(first[1]) < 0.0

    def test_malformed_beta_band(self, tmp_path):
        assert main(["scan", "threshold", "--beta", "0.5:0.6",
                     "--out", str(tmp_path)]) == 2
        assert main(["scan", "threshold", "--beta", "0.7:0.6:0.01",
                     "--out", str(tmp_path)]) == 2

    def test_byte_stable_across_runs(self, tmp_path):
        out = tmp_path / "r"
        args = ["scan", "union-bound", "--samples", "1500", "--out", str(out)]
        assert main(args) == 0
        first = (out / "scan" / "union-bound-42.json").read_bytes()
        assert main(args) == 0
        second = (out / "scan" / "union-bound-42.json").read_bytes()
        assert first == second

    def test_seed_changes_filename_and_content(self, tmp_path):
        out = tmp_path / "r"
        main(["scan", "union-bound", "--samples", "1500", "--seed", "7",
              "--out", str(out)])
        assert (out / "scan" / "union-bound-7.json").exists()

    @pytest.mark.parametrize("name, group", [(c.name, c.group) for c in CHECKS.values()])
    def test_scan_report_matches_verify_all(self, tmp_path, name, group, verified):
        # one mapping from flags to a check's configuration and one run loop
        # drive both subcommands, so under the same flags the reports agree
        assert main(["scan", name, *SAME_FLAGS, "--out", str(tmp_path)]) == 0
        scanned = (tmp_path / "scan" / f"{name}-42.json").read_bytes()
        assert scanned == verified(name, group)

    @pytest.mark.parametrize("name, samples", [("reduction", "20"),
                                               ("optimum-search", "2000")])
    def test_tol_reaches_the_judged_tolerance(self, tmp_path, name, samples):
        assert main(["scan", name, "--samples", samples, "--tol", "0.5",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "scan" / f"{name}-42.json").read_text())
        assert doc["tolerance"] == 0.5
        assert doc["points_checked"] > 0

    def test_tol_is_the_bridge_bound_and_leaves_fixed_checks_alone(self, tmp_path):
        assert main(["scan", "bridge-gap", "--samples", "300", "--tol", "0.5",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "scan" / "bridge-gap-42.json").read_text())
        assert doc["details"]["bound"] == 0.5
        assert doc["tolerance"] == 0.0
        for name in ("family-sweep", "entropy-bridge"):
            assert main(["scan", name, "--tol", "0.5", "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / "scan" / f"{name}-42.json").read_text())
            assert doc["tolerance"] == 0.0

    def test_step_leaves_sampled_checks_and_threshold_to_their_own_grids(self, tmp_path):
        # a sampled check reads --samples only, and threshold's beta grid
        # moves with --beta only
        flags = ["--samples", "300", "--step", "0.05", "--out", str(tmp_path)]
        assert main(["scan", "union-bound", *flags]) == 0
        assert main(["scan", "threshold", *flags]) == 0
        union = json.loads((tmp_path / "scan" / "union-bound-42.json").read_text())
        assert union["config"]["grid_step"] == CHECKS["union-bound"].cfg.grid_step
        assert union["config"]["random_samples"] == 300
        rows = json.loads((tmp_path / "scan" / "threshold-42.json").read_text())
        assert rows["config"]["grid_step"] == CHECKS["threshold"].cfg.grid_step
        assert main(["scan", "threshold", *flags, "--beta", "0.60:0.64:0.02"]) == 0
        rows = json.loads((tmp_path / "scan" / "threshold-42.json").read_text())
        assert [r["beta"] for r in rows["details"]["rows"]] == pytest.approx([0.60, 0.62, 0.64])

    def test_samples_and_step_leave_threshold_alone(self, tmp_path):
        # threshold samples nothing and is no curve check: neither flag
        # reaches it, and neither flag's help names it
        assert main(["verify-all", "--only", "scans", "--samples", "300", "--step", "0.05",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify-all" / "threshold-42.json").read_text())
        assert doc["config"]["grid_step"] == 0.01
        assert doc["config"]["random_samples"] == 0
        assert [r["points"] for r in doc["details"]["rows"]] == [2001] * 16
        for command in ("verify-all", "scan"):
            parser = build_parser()._subparsers._group_actions[0].choices[command]
            helps = {a.dest: a.help for a in parser._actions}
            curves = re.search(r"curve checks \(([^)]*)\)", helps["step"]).group(1)
            assert curves.split(", ") == ["sq-ratio", "sq-ratio-scaled", "rate-convexity",
                                          "tail-rate"]
            assert "threshold" not in helps["samples"]

    def test_negative_seed_is_refused_before_any_check_runs(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["verify-all", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["scan", "golden-anchor", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_csv_format_flag(self, tmp_path):
        out = tmp_path / "r"
        main(["scan", "tail-rate", "--step", "1e-2", "--format", "csv",
              "--out", str(out)])
        lines = (out / "scan" / "tail-rate-42.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("tail-rate,")


class TestReduce:
    def test_two_atom_oracle(self, tmp_path, capsys):
        src = write(tmp_path / "in.txt", "0.5 0.3\n0.5 0.9\n")
        dst = tmp_path / "out.txt"
        rc = main(["reduce", src, str(dst), "--out", str(tmp_path / "r")])
        assert rc == 0
        sidecar = json.loads((tmp_path / "out.txt.json").read_text())
        assert sidecar["q"] == pytest.approx(ORACLE_Q, abs=1e-10)
        assert sidecar["v"] == pytest.approx(ORACLE_Y, abs=1e-10)
        assert sidecar["t"] == pytest.approx(0.6, abs=1e-15)
        reduced = load_distribution(dst)
        assert len(reduced.nonzero_atoms()) == 1

    def test_fifty_atom_residuals(self, tmp_path):
        rng = np.random.default_rng(42)
        w = rng.exponential(size=50)
        w /= w.sum()
        v = rng.uniform(0.01, 0.99, size=50)
        text = "".join(f"{float(wi)!r} {float(vi)!r}\n" for wi, vi in zip(w, v))
        src = write(tmp_path / "big.txt", text)
        dst = tmp_path / "big_out.txt"
        assert main(["reduce", src, str(dst), "--out", str(tmp_path / "r")]) == 0
        sidecar = json.loads((tmp_path / "big_out.txt.json").read_text())
        assert sidecar["atoms_in"] == 50
        assert sidecar["mean_residual"] < 1e-8
        assert sidecar["entropy_residual"] < 1e-8

    def test_already_reduced_is_fixed_point(self, tmp_path):
        d = FiniteDistribution([(0.25, 0.0), (0.75, 0.64)])
        src = write(tmp_path / "red.txt", d.to_text())
        dst = tmp_path / "red_out.txt"
        assert main(["reduce", src, str(dst), "--out", str(tmp_path / "r")]) == 0
        assert load_distribution(dst).atoms == d.atoms
        manifest = json.loads((tmp_path / "r" / "reduce" / "red_out-42.manifest.json").read_text())
        assert manifest["merges"] == 0

    def test_manifest_says_what_it_did_and_how_long_it_took(self, tmp_path):
        rng = np.random.default_rng(7)
        w = rng.exponential(size=30)
        w /= w.sum()
        src = write(tmp_path / "in.txt", "".join(
            f"{float(a)!r} {float(b)!r}\n" for a, b in zip(w, rng.uniform(size=30))))
        dst = tmp_path / "out.txt"
        assert main(["reduce", src, str(dst), "--out", str(tmp_path / "r")]) == 0
        manifest = json.loads((tmp_path / "r" / "reduce" / "out-42.manifest.json").read_text())
        assert manifest["merges"] == 29
        assert manifest["elapsed_s"] >= 0.0
        assert dst.read_text() == reduce_support(load_distribution(src)).to_text()
        sidecar = json.loads((tmp_path / "out.txt.json").read_text())
        assert set(sidecar) == {"t", "u", "v", "q", "zero_mass", "mean_residual",
                                "entropy_residual", "atoms_in", "atoms_out"}

    def test_parse_error(self, tmp_path):
        src = write(tmp_path / "bad.txt", "0.5 zebra\n0.5 0.2\n")
        assert main(["reduce", src, str(tmp_path / "o.txt"),
                     "--out", str(tmp_path / "r")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["reduce", str(tmp_path / "nope.txt"),
                     str(tmp_path / "o.txt"), "--out", str(tmp_path / "r")]) == 2


class TestStatedLimits:
    """A reduction of thousands of atoms works within seconds."""

    def test_reduce_five_thousand_atoms(self, tmp_path):
        rng = np.random.default_rng(5000)
        w = rng.exponential(size=5000)
        w /= w.sum()
        src = write(tmp_path / "big.txt", "".join(
            f"{float(a)!r} {float(b)!r}\n" for a, b in zip(w, rng.uniform(size=5000))))
        root = Path(entroset.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "entroset.cli", "reduce", src, str(tmp_path / "out.txt"),
             "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "reduced 5000 atoms" in proc.stdout
        sidecar = json.loads((tmp_path / "out.txt.json").read_text())
        assert sidecar["mean_residual"] < 1e-8
        assert sidecar["entropy_residual"] < 1e-8


class TestFamily:
    def test_check_closed(self, tmp_path, capsys):
        src = write(tmp_path / "f.fam", "n=2\nempty\n0\n1\n0,1\n")
        rc = main(["family", "check", src, "--out", str(tmp_path / "r")])
        assert rc == 0
        doc = json.loads((tmp_path / "r" / "family" / "check-42.json").read_text())
        assert doc["max_frequency_num"] == 2
        assert doc["max_frequency_den"] == 4
        assert doc["meets_bound_exact"] is True
        assert doc["margin"] > 0.0

    def test_check_non_closed_exits_three_with_pair(self, tmp_path, capsys):
        src = write(tmp_path / "f.fam", "n=3\n0\n1\n")
        rc = main(["family", "check", src, "--out", str(tmp_path / "r")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "precondition" in err
        assert "{0}" in err and "{1}" in err and "{0,1}" in err

    def test_check_degenerate_exits_three(self, tmp_path):
        src = write(tmp_path / "f.fam", "n=2\nempty\n")
        assert main(["family", "check", src, "--out", str(tmp_path / "r")]) == 3

    def test_check_malformed_exits_two(self, tmp_path):
        src = write(tmp_path / "f.fam", "n=2\n0,9\n")
        assert main(["family", "check", src, "--out", str(tmp_path / "r")]) == 2

    def test_closure_writes_closed_family(self, tmp_path):
        src = write(tmp_path / "f.fam", "n=3\n0\n1\n")
        dst = tmp_path / "closed.fam"
        rc = main(["family", "closure", src, str(dst), "--out", str(tmp_path / "r")])
        assert rc == 0
        from entroset.setfamily import load_family

        closed = load_family(dst)
        assert closed.is_union_closed()
        assert len(closed.members) == 3
        assert main(["family", "check", str(dst), "--out", str(tmp_path / "r")]) == 0

    def test_closure_to_stdout(self, tmp_path, capsys):
        src = write(tmp_path / "f.fam", "n=2\n0\n1\n")
        assert main(["family", "closure", src, "--out", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n=2")
        assert "0,1" in out

    def test_enumerate_census(self, tmp_path, capsys):
        rc = main(["family", "enumerate", "--n", "2", "--out", str(tmp_path / "r")])
        assert rc == 0
        csv_lines = (
            (tmp_path / "r" / "family" / "enumerate-n2-42.csv")
            .read_text().strip().splitlines()
        )
        assert csv_lines[0] == "family_id,size,max_frequency_num,max_frequency_den,margin"
        assert len(csv_lines) == 13  # 12 non-degenerate families plus header
        doc = json.loads(
            (tmp_path / "r" / "family" / "enumerate-n2-42.json").read_text()
        )
        assert doc["families"] == 12
        assert doc["exact_bound_holds"] is True

    def test_enumerate_too_large(self, tmp_path):
        assert main(["family", "enumerate", "--n", "5",
                     "--out", str(tmp_path / "r")]) == 2

    def test_entropy_uniform_triangle(self, tmp_path):
        src = write(tmp_path / "f.fam", "n=2\n0\n1\n0,1\n")
        rc = main(["family", "entropy", src, "--out", str(tmp_path / "r")])
        assert rc == 0
        doc = json.loads((tmp_path / "r" / "family" / "entropy-42.json").read_text())
        assert doc["h_single"] == pytest.approx(math.log2(3.0), abs=1e-12)
        # union distribution is (1/9, 1/9, 7/9)
        expected = -(2 / 9) * math.log2(1 / 9) - (7 / 9) * math.log2(7 / 9)
        assert doc["h_union"] == pytest.approx(expected, abs=1e-12)
        assert doc["union_closed"] is True
        assert doc["uniform_gap"] > 0.0
        assert doc["margin_at_max_marginal"] is None  # marginal above the bound

    def test_entropy_power_set_gap(self, tmp_path):
        src = write(tmp_path / "f.fam", "n=3\nempty\n0\n1\n2\n0,1\n0,2\n1,2\n0,1,2\n")
        rc = main(["family", "entropy", src, "--out", str(tmp_path / "r")])
        assert rc == 0
        doc = json.loads((tmp_path / "r" / "family" / "entropy-42.json").read_text())
        assert doc["max_marginal"] == pytest.approx(0.5, abs=1e-15)
        assert doc["uniform_gap"] >= -1e-12

    def test_entropy_sub_bound_marginals_report_a_margin(self, tmp_path):
        # A closed family always has max frequency at or above the bound,
        # so the margin field only activates for non-closed input, which
        # the entropy action deliberately accepts.  Disjoint singletons
        # over n=3 give uniform marginals of 1/3, below the bound.
        src = write(tmp_path / "f.fam", "n=3\n0\n1\n2\n")
        rc = main(["family", "entropy", src, "--out", str(tmp_path / "r")])
        assert rc == 0
        doc = json.loads((tmp_path / "r" / "family" / "entropy-42.json").read_text())
        assert doc["union_closed"] is False
        assert doc["uniform_gap"] is None
        assert doc["max_marginal"] == pytest.approx(1 / 3, abs=1e-15)
        assert doc["margin_at_max_marginal"] is not None
        assert doc["margin_at_max_marginal"] >= -1e-9
