"""Self-tests of the benchmark itself.

Usage (from the repository root): ``python3 bench/selftest.py``.

Checks that every metric has a well-formed name and a unit, that the
output checker rejects small perturbations of the recorded references,
that self times are computed from spans as documented, that the smoke
mode runs all four workloads (untraced and traced, with the per-layer
counts the workloads were chosen for), and that the benchmark refuses to
run without the program's source tree.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from run import END_TO_END_UNITS, OUT  # noqa: E402
from tracing import METRIC_UNITS, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            expect(bool(NAME.fullmatch(m["name"])) and bool(m.get("unit")),
                   f"{group} metric {m['name']!r} has a valid name and unit {m.get('unit')!r}")
            declared[m["name"]] = m["unit"]
    expect(len(declared) == len(spec["end_to_end"]) + len(spec["per_layer"]),
           "metric names are unique")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "end_to_end metrics match what run.py reports")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == METRIC_UNITS,
           "per_layer metrics match what the tracer reports")
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "every workload in BENCHMARK.json is defined in workloads.py")


def _ref(workload: str, seed: str = "0") -> dict:
    return json.loads((check.REFS_DIR / f"{workload}.json").read_text())["seeds"][seed]


def _edit_csv(text: str, line: int, column: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = fn(cells[column])
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker() -> None:
    ref = _ref("sim-gauss")
    text = ref["outputs"]["sweep.csv"]
    same = {"sweep.csv": text}
    expect(check.compare("sim-gauss", same, ref) == [], "checker accepts the reference itself")
    tiny = {"sweep.csv": _edit_csv(text, 2, 2, lambda c: repr(float(c) * (1 + 1e-13)))}
    expect(check.compare("sim-gauss", tiny, ref) == [], "checker accepts an mse moved by 1e-13")
    moved = {"sweep.csv": _edit_csv(text, 2, 2, lambda c: repr(float(c) * (1 + 1e-8)))}
    expect(check.compare("sim-gauss", moved, ref) != [], "checker rejects an mse moved by 1e-8")
    fails = {"sweep.csv": _edit_csv(text, 2, 4, lambda c: str(int(c) + 1))}
    expect(check.compare("sim-gauss", fails, ref) != [], "checker rejects a changed fails count")
    expect(check.invariants("sim-gauss", same, 100, ["0.2", "0.3", "0.45", "0.7", "1.0"]) == [],
           "the sim-gauss reference passes the invariants")
    lr = {"sweep.csv": _edit_csv(text, 4, 2, lambda c: repr(float(c) * 1.5))}
    expect(check.invariants("sim-gauss", lr, 100, ["0.2", "0.3", "0.45", "0.7", "1.0"]) != [],
           "invariants reject lr rows that differ across h")

    logit = _ref("sim-logit")
    text = logit["outputs"]["sweep.csv"]
    tiny = {"sweep.csv": _edit_csv(text, 2, 2, lambda c: repr(float(c) * (1 + 1e-13)))}
    expect(check.compare("sim-logit", tiny, logit) != [],
           "sim-logit must match its serial reference byte for byte")

    fit = _ref("fit-csv")
    report = json.loads(fit["outputs"]["report.json"])
    expect(check.compare("fit-csv", {"report.json": json.dumps(report)}, fit) == [],
           "checker accepts the fit report re-serialised")
    bad = copy.deepcopy(report)
    bad["theta_tl"][1] *= 1 + 1e-8
    expect(check.compare("fit-csv", {"report.json": json.dumps(bad)}, fit) != [],
           "checker rejects a theta_tl moved by 1e-8")
    bad = copy.deepcopy(report)
    bad["bandwidth"]["h"] *= 1 + 1e-15
    expect(check.compare("fit-csv", {"report.json": json.dumps(bad)}, fit) != [],
           "checker compares the bandwidth block exactly")
    bad = copy.deepcopy(report)
    bad["ci"][0] = [bad["theta_tl"][0] + 1.0, bad["theta_tl"][0] + 2.0]
    expect(check.invariants("fit-csv", {"report.json": json.dumps(bad)}, 0, []) != [],
           "invariants reject an interval that misses theta_tl")


def test_reference_lookup() -> None:
    out = Path("/out")
    for name, wl in WORKLOADS.items():
        csv = out / "wages.csv" if name == "fit-csv" else None
        argv = check.normalise_argv(wl.argv(3, out, threads=1, csv_path=csv), out, csv)
        sha = _ref(name, "3")["input_sha256"]
        expect(check.load_reference(name, 3, argv, sha) is not None,
               f"{name}: seed 3 finds its reference")
        expect(check.load_reference(name, 99, argv, sha) is None,
               f"{name}: seed 99 has no reference")
        try:
            check.load_reference(name, 3, argv + ["--extra"], sha)
            stale = False
        except check.StaleReference:
            stale = True
        expect(stale, f"{name}: a changed command line makes the reference stale, not absent")
    fit = WORKLOADS["fit-csv"]
    argv = check.normalise_argv(fit.argv(3, out, csv_path=out / "wages.csv"), out, out / "wages.csv")
    try:
        check.load_reference("fit-csv", 3, argv, "0" * 64)
        stale = False
    except check.StaleReference:
        stale = True
    expect(stale, "fit-csv: a changed input sha256 makes the reference stale, not absent")


def test_self_time() -> None:
    # root [0, 10] with children [1, 4] and [5, 6]; the first has a child [2, 3]
    spans = [("cli.main", 0.0, 10.0, -1), ("a.f", 1.0, 4.0, 0),
             ("b.g", 2.0, 3.0, 1), ("a.f", 5.0, 6.0, 0)]
    stats = span_stats(spans)
    expect(stats == {"cli.main": (1, 10.0, 6.0), "a.f": (2, 4.0, 3.0), "b.g": (1, 1.0, 1.0)},
           f"self time is duration minus child time: {stats}")
    expect(sum(v[2] for v in stats.values()) == 10.0, "self times add up to the root span")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def test_smoke() -> None:
    proc = _run("bench/run.py", "--smoke")
    expect(proc.returncode == 0, f"smoke run exits 0 ({proc.stderr.strip()[-200:]})")
    if proc.returncode == 0:
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, res in results.items():
            expect(res["correct"] and res["failed"] == 0 and
                   set(res["metrics"]) == set(END_TO_END_UNITS),
                   f"smoke {name}: correct, every end-to-end metric reported")

    proc = _run("bench/run.py", "--smoke", "--trace", "1")
    expect(proc.returncode == 0, f"traced smoke run exits 0 ({proc.stderr.strip()[-200:]})")
    if proc.returncode != 0:
        return
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        m = {k: v["value"] for k, v in res["metrics"].items()}
        expect(res["correct"] and set(m) == set(METRIC_UNITS),
               f"traced smoke {name}: correct, every per-layer metric reported")
        expect(abs(m["trace.accounted_share"] - 1.0) < 0.01,
               f"{name}: layer self times account for the traced wall time "
               f"({m['trace.accounted_share']:.4f})")
    m = {n: {k: v["value"] for k, v in r["metrics"].items()} for n, r in results.items()}
    expect(m["sim-gauss"]["estimators.newton.calls"] == 0
           and m["phase-K"]["estimators.newton.calls"] == 0,
           "Gaussian workloads never call Newton")
    expect(abs(m["sim-gauss"]["simulation.dataset_reuse"] - 1 / 15) < 1e-12,
           "sim-gauss regenerates each dataset 15 times")
    expect(m["phase-K"]["simulation.dataset_reuse"] == 1.0, "phase-K uses each dataset once")
    expect(m["sim-logit"]["simulation.pool_starts"] == 15, "sim-logit starts 15 pools")
    expect(m["fit-csv"]["dataio.rows_per_s"] > 0 and m["sim-gauss"]["dataio.csv_mb"] == 0,
           "only fit-csv reads a CSV")


def test_refuses_without_program() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("bench/run.py", "--workload", "sim-gauss", "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"no program, no result: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_metric_names()
    test_checker()
    test_reference_lookup()
    test_self_time()
    test_refuses_without_program()
    test_smoke()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
