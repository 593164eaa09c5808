"""The benchmark's registered workloads reproduce their recorded outputs.

Each workload that ``BENCHMARK.json`` registers runs its ``dvcm`` command at
seed 0, in this process, with the argument list of ``bench/workloads.py``
(``fit-csv`` on the CSV that ``synthesize_wage_csv`` writes), and its outputs
must equal ``bench/refs/<workload>.json`` byte for byte.  ``bench/`` is only
read: its modules load without writing bytecode next to them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dvcm.cli import main

ROOT = Path(__file__).resolve().parents[1]
REGISTERED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.mark.parametrize("name", REGISTERED)
def test_seed_0_outputs_equal_the_recorded_ones(name, tmp_path):
    workloads, check = _bench_module("workloads"), _bench_module("check")
    workload = workloads.WORKLOADS[name]
    csv_path, sha256 = None, None
    if name == "fit-csv":
        csv_path = tmp_path / "wages.csv"
        sha256 = workloads.synthesize_wage_csv(csv_path, 0)["sha256"]
    argv = workload.argv(0, tmp_path, csv_path=csv_path)
    assert main(argv) == 0
    # the same command line and input as recorded, or the check raises StaleReference
    reference = check.load_reference(name, 0, check.normalise_argv(argv, tmp_path, csv_path),
                                     sha256)
    assert reference is not None, f"no seed-0 reference for {name}"
    for output, text in reference["outputs"].items():
        assert (tmp_path / output).read_text() == text, output
