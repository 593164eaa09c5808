"""Record reference outputs for the benchmark's output check.

Usage (from the repository root)::

    python3 bench/record_refs.py

Runs every workload's command serially, in this process, for seeds 0-31
and stores the outputs in ``bench/refs/<workload>.json`` together with
the command-line template, the git state and, for ``fit-csv``, the
sha256 of the synthesised input.  Re-record only in a change that means
to move the reference numbers, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
from run import OUT, environment  # noqa: E402
from workloads import WORKLOADS, synthesize_wage_csv  # noqa: E402


SEEDS = range(32)


def main() -> int:
    import dvcm.cli

    env = environment({})
    check.REFS_DIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        refs = {"recorded_at": {"git_sha": env["git_sha"], "git_dirty": env["git_dirty"]},
                "argv": None, "seeds": {}}
        for seed in SEEDS:
            work = OUT / f"refs-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                csv_path, sha = None, None
                if name == "fit-csv":
                    csv_path = work / "wages.csv"
                    sha = synthesize_wage_csv(csv_path, seed)["sha256"]
                argv = wl.argv(seed, work, threads=1, csv_path=csv_path)
                code = dvcm.cli.main(argv)
                if code != 0:
                    print(f"error: {name} seed {seed}: exit code {code}", file=sys.stderr)
                    return 1
                template = check.argv_template(check.normalise_argv(argv, work, csv_path), seed)
                refs["argv"] = template
                refs["seeds"][str(seed)] = {
                    "input_sha256": sha,
                    "outputs": {o: (work / o).read_text() for o in wl.outputs},
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed} recorded", flush=True)
        (check.REFS_DIR / f"{name}.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
