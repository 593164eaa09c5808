"""Run one ``dvcm`` command in this fresh interpreter and report its cost.

Usage: ``python3 bench/child.py SPEC.json``.  The spec names the source
tree to import ``dvcm`` from, the CLI arguments, the trace mode
(``off`` | ``full`` | ``parent``) and where to write the result.

Measured here:

- ``setup_s``: ``import dvcm, dvcm.cli`` in this interpreter;
- ``wall_s``: the call to ``dvcm.cli.main`` until it returns;
- ``cpu_s``: user + system time of this process and its waited-for
  children over the same span;
- ``peak_rss_mb``: this process's peak resident set plus the largest
  child's (``getrusage`` reports no sum over children).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config_module):
        deps = getattr(config_module, "CONFIG", {}).get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    import numpy.__config__
    import scipy.__config__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import dvcm  # noqa: F401
    import dvcm.cli
    setup_s = time.perf_counter() - t0
    if not Path(dvcm.__file__).resolve().is_relative_to(src):
        print(f"error: imported dvcm from {dvcm.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"] != "off":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(parent_only=spec["trace"] == "parent")

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    code = dvcm.cli.main(spec["argv"])
    wall_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "versions": _versions(),
        "pid": os.getpid(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        result["trace_missing"] = tracer.missing
        tracer.write_spans(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
