"""Benchmark of the ``dvcm`` command line: four closed-loop workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload sim-gauss --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # table of all four
    python3 bench/run.py --smoke                          # tiny reps, seconds

Each command runs in a fresh interpreter (``bench/child.py``), one at a
time, until ``--seconds`` have passed (at least three commands).  Inputs
come from ``--seed``: the simulation seed, and for ``fit-csv`` a 200k-row
CSV synthesised in this process before timing starts.  Every command's
outputs are checked (``bench/check.py``).

``--trace 0`` reports the end-to-end metrics over the commands of the run:
``wall_cal_s`` and ``cpu_cal_s``, the mean command wall and CPU time
scaled to a host of fixed speed (see ``Calibration`` and ``_summary``),
and the medians of ``setup_s`` and ``peak_rss_mb``.  The unscaled means
``wall_s`` and ``cpu_s`` and the mean calibration time ``cal_s`` are
printed in the record line before the result, under ``raw``.
``--trace 1`` spends half the time on untraced serial commands, then runs
one command under the outside-in tracer (``bench/tracing.py``) and reports
the per-layer metrics; ``sim-logit`` adds one parent-only traced command at
two workers for the pool metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment, the input file and every sample.  Commands that
exit non-zero or fail the output check count as failed; the error rate is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracing import METRIC_UNITS  # noqa: E402
from workloads import (BANDWIDTH_GRID, FIT_ROWS, K_GRID, SMOKE_FIT_ROWS,  # noqa: E402
                       WORKLOADS, synthesize_wage_csv)

END_TO_END_UNITS = {"wall_cal_s": "s", "cpu_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "cal_s": "s"}
CAL_REF_S = 0.2  # wall_cal_s is in seconds of a host on which Calibration() takes this long
MIN_SAMPLES = 3
RUN_LIMIT_S = 150.0  # no command of a run may end later; the run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "DVCM_THREADS")


@dataclass
class Sample:
    """One command: its measurements, outputs and any check failures."""

    trace: str
    threads: int
    result: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _calibration_worker(conn) -> None:
    """Time a fixed mix of work each time it is asked.

    Four parts of about equal time, one for each kind of work the
    commands do: interpreter loops, memory-bound numpy on fresh memory,
    process creation (the pools of ``--threads 2``) and many small numpy
    solves (Newton steps).  On ``sim-logit`` each part alone tracked the
    command times less well than their sum.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal(5_000_000)  # 40 MB: above glibc's mmap threshold, so temporaries are fresh memory
    x = rng.standard_normal((200, 6))
    hessian, ones = x.T @ x + np.eye(6), np.ones(6)
    while conn.recv():
        t0 = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        for _ in range(2):
            big * 1.5 + big
        for _ in range(14):
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
        for _ in range(2500):
            np.linalg.solve(hessian, x.T @ (x @ ones))
        conn.send(time.perf_counter() - t0)


class Calibration:
    """The speed of the host, measured between commands.

    Other tenants of a shared host slow every program on it, by up to half
    and for tens of seconds at a time.  The same fixed work, timed before
    and after each command, tracks those swings; ``wall_cal_s`` and
    ``cpu_cal_s`` divide them out.  It runs in as many processes at once
    as the command has workers, because a two-worker command depends on
    both CPUs and one process measures only one.  The processes idle
    while a command runs.
    """

    def __init__(self, processes: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conns, self.procs = [], []
        for _ in range(processes):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_calibration_worker, args=(there,), daemon=True)
            proc.start()
            self.conns.append(here)
            self.procs.append(proc)

    def __call__(self) -> float:
        """Mean time of one round of the work, run in every process at once."""
        for conn in self.conns:
            conn.send(True)
        return statistics.fmean(conn.recv() for conn in self.conns)

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.csv_path: Path | None = None
        self.input_info: dict | None = None
        self.samples: list[Sample] = []

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.wl.name == "fit-csv":
            self.csv_path = self.dir / "wages.csv"
            t0 = time.perf_counter()
            info = synthesize_wage_csv(self.csv_path, self.seed,
                                       SMOKE_FIT_ROWS if self.smoke else FIT_ROWS)
            self.input_info = {**info, "mb": info["bytes"] / 1e6,
                               "synth_s": time.perf_counter() - t0}

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def command(self, trace: str, threads: int, deadline: float) -> Sample:
        """Run one command in a fresh interpreter and check its outputs."""
        i = len(self.samples)
        it_dir = self.dir / f"cmd{i}"
        it_dir.mkdir()
        argv = self.wl.argv(self.seed, it_dir, threads=threads, smoke=self.smoke,
                            csv_path=self.csv_path)
        spec = {"src": str(SRC), "argv": argv, "trace": trace,
                "result": str(it_dir / "result.json"),
                "spans": str(OUT / f"spans-{self.wl.name}-{trace}.jsonl")}
        (it_dir / "spec.json").write_text(json.dumps(spec))
        sample = Sample(trace=trace, threads=threads)
        self.samples.append(sample)
        timeout = max(1.0, deadline - time.perf_counter())
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(it_dir / "spec.json")],
                                cwd=it_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            sample.problems.append(f"command timed out after {timeout:.0f} s")
            return sample
        finally:
            _kill_group(proc.pid)  # pool workers must not outlive their command
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
            sample.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        result_path = it_dir / "result.json"
        if result_path.is_file():
            sample.result = json.loads(result_path.read_text())
        elif not sample.problems:
            sample.problems.append("no result written")
        for name in self.wl.outputs:
            path = it_dir / name
            if path.is_file():
                sample.outputs[name] = path.read_text()
        if proc.returncode == 0:
            sample.problems += self.check(sample, argv, it_dir)
        return sample

    def check(self, sample: Sample, argv: list[str], it_dir: Path) -> list[str]:
        normal = check.normalise_argv(argv, it_dir, self.csv_path)
        if self.wl.threads > 1:
            # the reference is the serial command: compare with --threads 1
            normal[normal.index("--threads") + 1] = "1"
        sha = self.input_info["sha256"] if self.input_info else None
        problems = []
        try:
            ref = check.load_reference(self.wl.name, self.seed, normal, sha)
        except check.StaleReference as exc:
            ref = None
            if not self.smoke:
                problems.append(str(exc))
        if ref is not None:
            problems += check.compare(self.wl.name, sample.outputs, ref)
        else:
            grid = (K_GRID if self.wl.name == "phase-K" else BANDWIDTH_GRID).split(",")
            reps = self.wl.smoke_reps if self.smoke else self.wl.reps
            problems += check.invariants(self.wl.name, sample.outputs, reps, grid)
        # reruns, traced or not, serial or pooled, must be byte-identical
        first = next((s for s in self.samples if s.ok and s.outputs and s is not sample), None)
        if first is not None and first.outputs != sample.outputs:
            problems.append(f"outputs differ from command 0 ({first.trace}, threads "
                            f"{first.threads}); this one ran {sample.trace}, threads {sample.threads}")
        sample.result["reference"] = ref is not None
        return problems

    def loop(self, trace: str, threads: int, until: float, minimum: int, deadline: float,
             calibration: Calibration | None = None) -> list[Sample]:
        """Run commands until ``until`` (and at least ``minimum`` of them).

        With a ``calibration``, it runs before the first command and after
        each one; a command's ``cal_s`` is the mean of the two around it.
        """
        done = []
        before = calibration() if calibration else None
        while True:
            start = time.perf_counter()
            sample = self.command(trace, threads, deadline)
            if calibration:
                after = calibration()
                sample.result["cal_s"] = (before + after) / 2
                before = after
            done.append(sample)
            now = time.perf_counter()
            if now >= deadline - (now - start) or (now >= until and len(done) >= minimum):
                return done


def _kill_group(pgid: int) -> None:
    """Make sure nothing the command started outlives it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _median(samples: list[Sample], key: str) -> float:
    return statistics.median(s.result[key] for s in samples)


def _mean(samples: list[Sample], key: str) -> float:
    return statistics.fmean(s.result[key] for s in samples)


def _summary(samples: list[Sample], key: str) -> float:
    """The run's figure for one metric.

    Command times are means: on a shared host they fall into a fast and a
    slow band from one command to the next, and the median of a run jumps
    between the bands where the mean moves with their mix.  A ``_cal_s``
    figure is the mean time scaled by ``CAL_REF_S`` over the mean
    calibration time: the time the command would take on a host on which
    ``Calibration()`` takes ``CAL_REF_S``.  ``setup_s`` and ``peak_rss_mb``
    are medians.
    """
    if key.endswith("_cal_s"):
        return _mean(samples, key[:-len("_cal_s")] + "_s") * CAL_REF_S / _mean(samples, "cal_s")
    if key in RAW_UNITS:
        return _mean(samples, key)
    return _median(samples, key)


def environment(versions: dict) -> dict:
    """Git state, CPU count, library versions and BLAS thread variables as found."""
    env = {"git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=30)
            env["git_sha"] = sha.stdout.strip() or None
            env["git_dirty"] = bool(dirty.stdout.strip()) if dirty.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    env["nproc"] = os.cpu_count()
    env["affinity_cpus"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    env.update(versions)
    # left unpinned, as users run them; None means unset
    env["blas_thread_vars"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    return env


def _completed(samples: list[Sample]) -> list[Sample]:
    """Commands that ran to the end; their timings count even if the check failed."""
    return [s for s in samples if s.result.get("exit_code") == 0]


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, list[Sample]]:
    """Run the workload for ``seconds``; returns (metrics, every command run)."""
    t0 = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    wl = run.wl
    minimum = 1 if run.smoke else MIN_SAMPLES
    if not trace:
        calibration = Calibration(wl.threads)
        try:
            samples = run.loop("off", wl.threads, t0 + seconds, minimum, deadline, calibration)
        finally:
            calibration.close()
        done = _completed(samples)
        if not done:
            return {}, samples
        return {k: {"value": _summary(done, k), "unit": u}
                for k, u in {**END_TO_END_UNITS, **RAW_UNITS}.items()}, samples

    base = run.loop("off", 1, t0 + seconds / 2, min(minimum, 2), deadline)
    traced = run.loop("full", 1, t0 + seconds, 1, deadline)
    pooled = [run.command("parent", wl.threads, deadline)] if wl.threads > 1 else []
    samples = base + traced + pooled
    done_base = _completed(base)
    done_traced = [s for s in _completed(traced) if "layers" in s.result]
    done_pooled = [s for s in _completed(pooled) if "layers" in s.result]
    if not done_base or not done_traced or len(done_pooled) != len(pooled):
        return {}, samples
    chosen = sorted(done_traced, key=lambda s: s.result["wall_s"])[(len(done_traced) - 1) // 2]
    layers = dict(chosen.result["layers"])
    layers["trace.overhead_s"] = chosen.result["wall_s"] - _median(done_base, "wall_s")
    layers["dataio.csv_mb"] = run.input_info["mb"] if run.input_info else 0.0
    for s in done_pooled:
        for k in ("simulation.pool_starts", "simulation.pool_s"):
            layers[k] = s.result["layers"][k]
    return {k: {"value": layers[k], "unit": u} for k, u in METRIC_UNITS.items()}, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    run = Run(workload, seed, smoke)
    try:
        run.prepare()
        metrics, samples = measure(run, seconds, trace)
    finally:
        run.cleanup()
    failed = sum(not s.ok for s in samples)
    versions = next((s.result["versions"] for s in samples if "versions" in s.result), {})
    raw = {k: metrics.pop(k) for k in RAW_UNITS if k in metrics}
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
        "env": environment(versions),
        "input": run.input_info,
        "raw": raw,
        "samples": [{"trace": s.trace, "threads": s.threads, "ok": s.ok,
                     "problems": s.problems[:5], "reference": s.result.get("reference"),
                     **{k: s.result.get(k)
                        for k in ("wall_s", "cpu_s", "cal_s", "setup_s", "peak_rss_mb")},
                     **({"trace_missing": s.result["trace_missing"]}
                        if s.result.get("trace_missing") else {})}
                    for s in samples],
    }
    return {"info": info, "correct": failed == 0 and bool(metrics), "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replication counts, checks only; not a measurement")
    args = parser.parse_args(argv)

    # a terminated run still stops its command's process group (see Run.command)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dvcm" / "__init__.py").is_file():
        print(f"error: no dvcm source tree at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, raw = {}, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        info = res.pop("info")
        print(json.dumps(info))
        if not res["metrics"]:
            print(f"error: {name}: no command ran to the end", file=sys.stderr)
            return 1
        results[name], raw[name] = res, info["raw"]

    for name, res in results.items():
        shown = {**res["metrics"], **raw[name]}
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items()
                          if args.trace == 0 or k in ("trace.wall_s", "trace.overhead_s"))
        rate = res["failed"] / res["attempted"]
        print(f"{name:10s} {cells}  error_rate={rate:.3g} ratio ({res['failed']}/{res['attempted']} commands)")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
