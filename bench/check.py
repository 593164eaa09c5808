"""Output check: compare a command's outputs with recorded references.

References live in ``bench/refs/<workload>.json``, one entry per seed,
recorded with ``bench/record_refs.py`` at a known commit.

- Integer, string and bandwidth fields must match exactly: the ``h``,
  ``K``, ``estimator`` and ``fails`` columns and the report's
  ``bandwidth`` block.
- Every other float agrees within 1e-10, relative with a floor of 1:
  ``|a - b| <= 1e-10 * max(1, |b|)``.
- ``sim-logit`` outputs must equal the reference byte for byte (the
  reference is the serial run; the measured run uses two workers).

A recorded seed fails the check when its command line (or, for
``fit-csv``, the input file's sha256) differs from the recorded one,
except in smoke mode, which shrinks the command on purpose.  A seed
without a reference gets only the invariant checks: every cell finite,
``lr`` rows identical across ``h``, failures within the 20% tolerance,
and every confidence interval brackets its ``theta_tl``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-10
EXACT_COLUMNS = {"h", "K", "estimator", "fails"}
EXACT_KEYS = {"bandwidth", "family", "vary", "n_segments"}
BYTE_EXACT = {"sim-logit"}
REFS_DIR = Path(__file__).resolve().parent / "refs"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def normalise_argv(argv: list[str], out_dir: Path, csv_path: Path | None) -> list[str]:
    """Command line with run-specific paths replaced by placeholders."""
    out = []
    for a in argv:
        if csv_path is not None and a == str(csv_path):
            a = "{csv}"
        elif a.startswith(str(out_dir)):
            a = "{out}" + a[len(str(out_dir)):]
        out.append(a)
    return out


class StaleReference(Exception):
    """The seed has a reference, but for another command line or input."""


def load_reference(workload: str, seed: int, argv: list[str],
                   input_sha256: str | None) -> dict | None:
    """The recorded outputs for ``seed``, or None if none were recorded.

    Raises ``StaleReference`` when the seed was recorded with another
    command line or input, so that the check cannot quietly fall back to
    the invariants.
    """
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    refs = json.loads(path.read_text())
    entry = refs["seeds"].get(str(seed))
    if entry is None:
        return None
    if refs.get("argv") != argv_template(argv, seed):
        raise StaleReference(f"reference for seed {seed} was recorded with another "
                             f"command line: {refs.get('argv')}")
    if entry.get("input_sha256") != input_sha256:
        raise StaleReference(f"reference for seed {seed} was recorded with input sha256 "
                             f"{entry.get('input_sha256')}, this input has {input_sha256}")
    return entry


def argv_template(argv: list[str], seed: int) -> list[str]:
    """``argv`` with the seed value replaced, so all seeds share one template."""
    out = list(argv)
    i = out.index("--seed")
    out[i + 1] = "{seed}"
    return out


# ----------------------------------------------------------------------
# comparison against a reference
# ----------------------------------------------------------------------


def _cells(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def compare_csv(text: str, ref: str, label: str) -> list[str]:
    header, rows = _cells(text)
    ref_header, ref_rows = _cells(ref)
    if header != ref_header:
        return [f"{label}: header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows), start=2):
        if len(row) != len(ref_row):
            problems.append(f"{label} line {r}: {len(row)} cells, reference {len(ref_row)}")
            continue
        for col, a, b in zip(header, row, ref_row):
            if col in EXACT_COLUMNS:
                ok = a == b
            else:
                try:
                    ok = close(float(a), float(b))
                except ValueError:
                    ok = a == b
            if not ok:
                problems.append(f"{label} line {r} {col}: {a} != reference {b}")
    return problems


def compare_json(value, ref, path: str, exact: bool = False) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            return [f"{path}: keys {sorted(value) if isinstance(value, dict) else value!r}"
                    f" != reference {sorted(ref)}"]
        out = []
        for k in ref:
            out += compare_json(value[k], ref[k], f"{path}.{k}", exact or k in EXACT_KEYS)
        return out
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{path}: {value!r} != reference {ref!r}"]
        out = []
        for i, (a, b) in enumerate(zip(value, ref)):
            out += compare_json(a, b, f"{path}[{i}]", exact)
        return out
    if isinstance(ref, float) and not exact and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return [] if close(float(value), ref) else [f"{path}: {value!r} != reference {ref!r}"]
    if type(value) is not type(ref) or value != ref:
        return [f"{path}: {value!r} != reference {ref!r}"]
    return []


def compare(workload: str, outputs: dict[str, str], reference: dict) -> list[str]:
    problems = []
    for name, ref_text in reference["outputs"].items():
        text = outputs.get(name)
        if text is None:
            problems.append(f"{name}: missing")
        elif workload in BYTE_EXACT:
            if text != ref_text:
                problems.append(f"{name}: not byte-identical to the serial reference")
        elif name.endswith(".csv"):
            problems += compare_csv(text, ref_text, name)
        else:
            try:
                problems += compare_json(json.loads(text), json.loads(ref_text), name)
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: not JSON ({exc})")
    return problems


# ----------------------------------------------------------------------
# invariants, for seeds without a reference
# ----------------------------------------------------------------------


def _finite_numbers(value, path: str) -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _finite_numbers(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _finite_numbers(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path}: non-finite {value!r}"]
    return []


def _check_mc_table(text: str, label: str, first: str, keys: list[str],
                    estimators: list[str], reps: int) -> list[str]:
    header, rows = _cells(text)
    want = [first, "estimator", "mse", "se", "fails"]
    if header != want:
        return [f"{label}: header {header} != {want}"]
    expected = [(k, e) for k in keys for e in estimators]
    got = [(r[0], r[1]) if len(r) == 5 else None for r in rows]
    if [(str(float(k)), e) for k, e in expected] != got:
        return [f"{label}: rows {got} != expected {expected}"]
    problems = []
    for r, row in enumerate(rows, start=2):
        try:
            mse, se, fails = float(row[2]), float(row[3]), int(row[4])
        except ValueError:
            problems.append(f"{label} line {r}: unparsable {row}")
            continue
        if not (math.isfinite(mse) and math.isfinite(se) and mse > 0 and se >= 0):
            problems.append(f"{label} line {r}: mse/se {mse}, {se}")
        if not 0 <= fails <= 0.2 * reps:
            problems.append(f"{label} line {r}: fails {fails} outside [0, {0.2 * reps}]")
    return problems


def invariants(workload: str, outputs: dict[str, str], reps: int,
               grid: list[str]) -> list[str]:
    if workload in ("sim-gauss", "sim-logit"):
        text = outputs.get("sweep.csv", "")
        problems = _check_mc_table(text, "sweep.csv", "h", grid, ["lr", "dvcm", "tl"], reps)
        lr_rows = {tuple(r[2:]) for r in _cells(text)[1] if len(r) == 5 and r[1] == "lr"}
        if len(lr_rows) > 1:
            problems.append(f"sweep.csv: lr rows differ across h: {sorted(lr_rows)}")
        return problems
    if workload == "phase-K":
        problems = _check_mc_table(outputs.get("phase.csv", ""), "phase.csv", "K",
                                   grid, ["tl"], reps)
        try:
            slopes = json.loads(outputs.get("slopes.json", ""))
        except json.JSONDecodeError as exc:
            return problems + [f"slopes.json: not JSON ({exc})"]
        segs = slopes.get("segments", [])
        starts = [s.get("start") for s in segs]
        if slopes.get("vary") != "K" or slopes.get("n_segments") != 3 or len(segs) != 3:
            problems.append(f"slopes.json: shape {slopes}")
        elif starts != sorted(starts) or slopes.get("breakpoints") != starts[1:]:
            problems.append(f"slopes.json: segment starts {starts} vs breakpoints "
                            f"{slopes.get('breakpoints')}")
        return problems + _finite_numbers(slopes, "slopes.json")
    if workload == "fit-csv":
        try:
            report = json.loads(outputs.get("report.json", ""))
        except json.JSONDecodeError as exc:
            return [f"report.json: not JSON ({exc})"]
        keys = {"u0", "family", "theta_lr", "theta_dvcm", "theta_tl", "q_hat",
                "bandwidth", "covariance", "se", "ci", "diagnostics", "tests"}
        if set(report) != keys:
            return [f"report.json: keys {sorted(report)} != {sorted(keys)}"]
        problems = _finite_numbers(report, "report.json")
        if report["family"] != "logistic" or len(report["theta_tl"]) != 3:
            problems.append("report.json: expected a 3-coefficient logistic fit")
        for j, (theta, (lo, hi), se) in enumerate(
                zip(report["theta_tl"], report["ci"], report["se"])):
            if not lo <= theta <= hi:
                problems.append(f"report.json: ci[{j}] = [{lo}, {hi}] misses theta_tl {theta}")
            if not se > 0:
                problems.append(f"report.json: se[{j}] = {se}")
        return problems
    return [f"no invariants for workload {workload!r}"]
