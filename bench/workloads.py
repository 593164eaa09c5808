"""The four benchmark workloads: their ``dvcm`` command lines and inputs.

Every workload is one ``dvcm`` CLI command, run closed-loop (one command
at a time).  The shapes follow the README and the criterion-4 configs;
only the replication counts are scaled so that several commands fit in
one measured run.  ``smoke`` shrinks the work further for a seconds-long
self-check and is never used for measurement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

BANDWIDTH_GRID = "0.2,0.3,0.45,0.7,1.0"
K_GRID = "2,3,4,6,8,11,16,32,45,64,91,128,181"
FIT_ROWS = 200_000
SMOKE_FIT_ROWS = 5_000


# Command-line templates; ``Workload.argv`` fills in the {placeholders}.
SIMULATE = ("simulate", "--p", "4", "--K", "5", "--n-bar", "120", "--n0", "50",
            "--gamma", "1.0", "--reps", "{reps}", "--seed", "{seed}",
            "--grid", BANDWIDTH_GRID, "--estimators", "lr,dvcm,tl",
            "--threads", "{threads}", "--out", "{out0}")
PHASE = ("phase", "--vary", "K", "--grid", K_GRID, "--p", "2",
         "--n-bar", "1500", "--n0", "30", "--gamma", "0.1", "--e0", "0.1",
         "--reps", "{reps}", "--seed", "{seed}", "--segments", "3",
         "--threads", "{threads}", "--out", "{out0}", "--slopes-out", "{out1}")
FIT = ("fit", "--data", "{csv}", "--u-expr", "age - education - 6",
       "--x-cols", "female,education", "--y-col", "highwage",
       "--u0", "0.25", "--family", "logistic", "--seed", "{seed}",
       "--out", "{out0}")


@dataclass(frozen=True)
class Workload:
    """One named ``dvcm`` command shape; ``argv`` fills in seed and paths."""

    name: str
    template: tuple       # argument list with {reps}, {seed}, {threads}, {csv}, {outN}
    reps: int             # replications per command (simulate / phase)
    smoke_reps: int
    threads: int          # --threads of the measured command
    outputs: tuple        # output file names, in the order the checker reads them

    def argv(self, seed: int, out_dir: Path, *, threads: int | None = None,
             smoke: bool = False, csv_path: Path | None = None) -> list[str]:
        """The ``dvcm`` argument list; outputs land in ``out_dir``."""
        fields = {f"out{i}": str(out_dir / name) for i, name in enumerate(self.outputs)}
        fields.update(reps=self.smoke_reps if smoke else self.reps, seed=seed,
                      threads=self.threads if threads is None else threads, csv=csv_path)
        return [a.format(**fields) for a in self.template]


# The simulate sweeps keep 100 replications: at h=0.2 about 8% of them have
# no source domain in the window and fail, and with fewer replications some
# seeds cross the CLI's 20% failure limit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-gauss", SIMULATE, reps=100, smoke_reps=40, threads=1,
                 outputs=("sweep.csv",)),
        Workload("phase-K", PHASE, reps=10, smoke_reps=2, threads=1,
                 outputs=("phase.csv", "slopes.json")),
        Workload("sim-logit", SIMULATE[:1] + ("--family", "logistic") + SIMULATE[1:],
                 reps=100, smoke_reps=40, threads=2, outputs=("sweep.csv",)),
        Workload("fit-csv", FIT, reps=0, smoke_reps=0, threads=1,
                 outputs=("report.json",)),
    )
}


def synthesize_wage_csv(path: Path, seed: int, rows: int = FIT_ROWS) -> dict:
    """Write a deterministic wage-like panel and return its size and sha256.

    Columns: age, education, female, hours, logwage, highwage.  Experience
    (age - education - 6) is the domain identifier; the log-odds of
    ``highwage`` drift smoothly with it, so the transfer fit has a curve
    to track.  Floats are written with ``repr`` so the file round-trips.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC5F,)))
    education = rng.integers(8, 21, rows)
    experience = rng.integers(0, 46, rows)
    age = education + 6 + experience
    female = rng.integers(0, 2, rows)
    hours = rng.normal(40.0, 8.0, rows)
    s = experience / 45.0
    eta = -1.0 + 0.6 * s - (0.3 + 0.4 * s) * female + (0.1 + 0.1 * np.sin(np.pi * s)) * (education - 14)
    highwage = (rng.random(rows) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    logwage = 2.5 + 0.08 * education + 0.03 * experience - 0.15 * female + rng.normal(0.0, 0.4, rows)

    lines = ["age,education,female,hours,logwage,highwage"]
    for a, e, f, h, w, y in zip(age.tolist(), education.tolist(), female.tolist(),
                                hours.tolist(), logwage.tolist(), highwage.tolist()):
        lines.append(f"{a},{e},{f},{h!r},{w!r},{y}")
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return {"rows": rows, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
