"""Outside-in span tracing of the ``dvcm`` layers.

The tracer wraps the public functions of each ``src/dvcm`` module from
outside the program.  Every module that imported a wrapped function gets
the wrapper under the same name (``dvcm.simulation.fit_dvcm`` and
``dvcm.cli.fit_dvcm`` both point at one wrapper), so calls are caught
wherever they come from.  Each call records one span: name, start, end
and the index of its parent span.  Spans stay in memory and are written
out once, when the traced command has returned.

A span's self time is its duration minus the time its child spans cover.
``cli.main`` is the root span, so the self times of all spans add up to
the traced wall time.

``uniform_kernel`` and ``poly_features`` are left unwrapped: they are
called hundreds of thousands of times on ``phase-K`` and wrapping them
would mostly measure the tracer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> layer name; the layer is the first part of every span name
LAYERS = {
    "dvcm.cli": "cli",
    "dvcm.dataio": "dataio",
    "dvcm.simulation": "simulation",
    "dvcm.bandwidth": "bandwidth",
    "dvcm.design": "design",
    "dvcm.estimators": "estimators",
    "dvcm.families": "families",
    "dvcm.penalty": "penalty",
    "dvcm.inference": "inference",
}

# function name -> span name suffix, where the metric name differs
ALIASES = {
    "select_bandwidth_median": "select",
    "select_bandwidth_undersmoothed": "select",
    "newton_weighted": "newton",
    "estimate_variance_sandwich": "sandwich",
    "sigma_filter": "prep.sigma_filter",
    "minmax_scale": "prep.minmax_scale",
    "bin_domains": "prep.bin_domains",
    "split_target": "prep.split_target",
}

NOT_WRAPPED = {"uniform_kernel", "poly_features"}

# methods traced besides the module functions: (module, class, method, span name)
METHODS = (
    ("dvcm.design", "DomainSample", "__post_init__", "design.domain_samples"),
    ("dvcm.families", "ModelFamily", "loss", "families.loss"),
    ("dvcm.families", "ModelFamily", "loss_derivatives", "families.loss_derivatives"),
    ("dvcm.dataio", "RawTable", "keep", "dataio.prep.keep"),
    ("dvcm.dataio", "RawTable", "replace_u", "dataio.prep.replace_u"),
)

# a parent-only trace (for runs whose replications execute in pool workers)
# wraps just these, so no worker ever records a span
PARENT_ONLY = {"cli.main", "simulation.mc_mse"}

# SimConfig fields that determine a generated dataset
_DATASET_FIELDS = ("family", "p", "K", "n_bar", "n0", "gamma", "u0", "noise_sd",
                   "cov_rho", "seed", "theta_spec")

# every per-layer metric with its unit; run.py adds dataio.csv_mb and
# trace.overhead_s, which need facts from outside the traced process
METRIC_UNITS = {
    "dataio.load_csv.self_s": "s",
    "dataio.prep.self_s": "s",
    "dataio.rows_per_s": "1/s",
    "dataio.csv_mb": "MB",
    "dataio.self_s": "s",
    "simulation.generate_dataset.calls": "count",
    "simulation.generate_dataset.self_s": "s",
    "simulation.rng_stream.calls": "count",
    "simulation.dataset_reuse": "ratio",
    "simulation.mc_mse.self_s": "s",
    "simulation.reps_attempted": "count",
    "simulation.reps_failed": "count",
    "simulation.pool_starts": "count",
    "simulation.pool_s": "s",
    "simulation.self_s": "s",
    "bandwidth.select.calls": "count",
    "bandwidth.select.self_s": "s",
    "bandwidth.self_s": "s",
    "design.build_local_design.calls": "count",
    "design.build_local_design.self_s": "s",
    "design.rows_stacked": "count",
    "design.z_mb": "MB",
    "design.domain_samples": "count",
    "design.domain_samples.self_s": "s",
    "design.self_s": "s",
    "estimators.fit_target_only.calls": "count",
    "estimators.fit_target_only.self_s": "s",
    "estimators.fit_dvcm.calls": "count",
    "estimators.fit_dvcm.self_s": "s",
    "estimators.fit_tl.self_s": "s",
    "estimators.newton.calls": "count",
    "estimators.newton.self_s": "s",
    "estimators.newton.iters": "count",
    "estimators.newton.nonconverged": "count",
    "estimators.self_s": "s",
    "families.loss.calls": "count",
    "families.loss_derivatives.calls": "count",
    "families.self_s": "s",
    "penalty.estimate_q.calls": "count",
    "penalty.estimate_q.self_s": "s",
    "penalty.estimate_bias.self_s": "s",
    "penalty.sandwich.self_s": "s",
    "penalty.zeta_hat.self_s": "s",
    "penalty.self_s": "s",
    "inference.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder plus the counters hooks collect."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index) per span
        self._stack: list = []
        self.counters: dict = defaultdict(int)
        self.datasets: set = set()
        self.wrapped: set = set()
        self.missing: list = []  # patch targets this dvcm does not have

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.remove(idx)

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- hooks: counts measured where the work happens ------------------

    def _on_dataset(self, args, kwargs, result):
        config = args[0] if args else kwargs.get("config")
        rep = args[1] if len(args) > 1 else kwargs.get("rep")
        self.datasets.add(tuple(getattr(config, f, None) for f in _DATASET_FIELDS) + (rep,))

    def _on_mc_mse(self, args, kwargs, result):
        config = args[0] if args else kwargs.get("config")
        self.counters["reps_attempted"] += int(getattr(config, "reps", 0))
        self.counters["reps_failed"] += int(getattr(result, "fails", 0))

    def _on_design(self, args, kwargs, result):
        rows, cols = result.z.shape
        self.counters["rows_stacked"] += rows
        self.counters["z_bytes"] += rows * cols * 8

    def _on_newton(self, args, kwargs, result):
        _, converged, iterations = result
        self.counters["newton_iters"] += int(iterations)
        self.counters["newton_nonconverged"] += int(not converged)

    def _on_load_csv(self, args, kwargs, result):
        self.counters["rows_read"] += int(result.n)

    # -- installation -----------------------------------------------------

    def install(self, parent_only: bool = False) -> None:
        """Wrap the dvcm layers; ``parent_only`` keeps to PARENT_ONLY spans."""
        hooks = {
            "simulation.generate_dataset": self._on_dataset,
            "simulation.mc_mse": self._on_mc_mse,
            "design.build_local_design": self._on_design,
            "estimators.newton": self._on_newton,
            "dataio.load_csv": self._on_load_csv,
        }
        for module_name, layer in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(module_name)
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module_name:
                    continue
                if attr in NOT_WRAPPED:
                    continue
                name = f"{layer}.{ALIASES.get(attr, attr)}"
                if parent_only and name not in PARENT_ONLY:
                    continue
                _replace_everywhere(fn, self.wrap(name, fn, hooks.get(name)))
                self.wrapped.add(name)
        expected = PARENT_ONLY if parent_only else PARENT_ONLY | set(hooks)
        self.missing.extend(sorted(expected - self.wrapped))
        if not parent_only:
            for module_name, cls_name, method, name in METHODS:
                cls = getattr(sys.modules.get(module_name), cls_name, None)
                fn = cls.__dict__.get(method) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{cls_name}.{method}")
                    continue
                setattr(cls, method, self.wrap(name, fn))
        self._install_pool_span()

    def _install_pool_span(self) -> None:
        simulation = sys.modules.get("dvcm.simulation")
        base = getattr(simulation, "ProcessPoolExecutor", None)
        if base is None:
            self.missing.append("dvcm.simulation.ProcessPoolExecutor")
            return
        tracer = self

        class TracedPool(base):
            """Counts pool starts; one span covers a pool from start to shutdown."""

            def __init__(self, *args, **kwargs):
                self._trace_span = tracer.open("simulation.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._trace_span is not None:
                        tracer.close(self._trace_span)
                        self._trace_span = None

        simulation.ProcessPoolExecutor = TracedPool

    # -- results ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced command (see METRIC_UNITS)."""
        stats = span_stats(self.spans)
        c = self.counters

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def self_s(*names):
            return float(sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names))

        def layer_self(layer):
            return float(sum(v[2] for n, v in stats.items() if n.split(".")[0] == layer))

        def prefix_self(prefix):
            return float(sum(v[2] for n, v in stats.items() if n.startswith(prefix)))

        load_total = stats.get("dataio.load_csv", (0, 0.0, 0.0))[1]
        generated = calls("simulation.generate_dataset")
        total_self = sum(v[2] for v in stats.values())
        out = {
            "dataio.load_csv.self_s": self_s("dataio.load_csv"),
            "dataio.prep.self_s": prefix_self("dataio.prep."),
            "dataio.rows_per_s": c["rows_read"] / load_total if load_total > 0 else 0.0,
            "dataio.self_s": layer_self("dataio"),
            "simulation.generate_dataset.calls": generated,
            "simulation.generate_dataset.self_s": self_s("simulation.generate_dataset"),
            "simulation.rng_stream.calls": calls("simulation.rng_stream"),
            "simulation.dataset_reuse": len(self.datasets) / generated if generated else 0.0,
            "simulation.mc_mse.self_s": self_s("simulation.mc_mse"),
            "simulation.reps_attempted": c["reps_attempted"],
            "simulation.reps_failed": c["reps_failed"],
            "simulation.pool_starts": calls("simulation.pool"),
            "simulation.pool_s": stats.get("simulation.pool", (0, 0.0, 0.0))[1],
            "simulation.self_s": layer_self("simulation"),
            "bandwidth.select.calls": calls("bandwidth.select"),
            "bandwidth.select.self_s": self_s("bandwidth.select"),
            "bandwidth.self_s": layer_self("bandwidth"),
            "design.build_local_design.calls": calls("design.build_local_design"),
            "design.build_local_design.self_s": self_s("design.build_local_design"),
            "design.rows_stacked": c["rows_stacked"],
            "design.z_mb": c["z_bytes"] / 1e6,
            "design.domain_samples": calls("design.domain_samples"),
            "design.domain_samples.self_s": self_s("design.domain_samples"),
            "design.self_s": layer_self("design"),
            "estimators.fit_target_only.calls": calls("estimators.fit_target_only"),
            "estimators.fit_target_only.self_s": self_s("estimators.fit_target_only"),
            "estimators.fit_dvcm.calls": calls("estimators.fit_dvcm"),
            "estimators.fit_dvcm.self_s": self_s("estimators.fit_dvcm"),
            "estimators.fit_tl.self_s": self_s("estimators.fit_tl"),
            "estimators.newton.calls": calls("estimators.newton"),
            "estimators.newton.self_s": self_s("estimators.newton"),
            "estimators.newton.iters": c["newton_iters"],
            "estimators.newton.nonconverged": c["newton_nonconverged"],
            "estimators.self_s": layer_self("estimators"),
            "families.loss.calls": calls("families.loss"),
            "families.loss_derivatives.calls": calls("families.loss_derivatives"),
            "families.self_s": layer_self("families"),
            "penalty.estimate_q.calls": calls("penalty.estimate_q"),
            "penalty.estimate_q.self_s": self_s("penalty.estimate_q"),
            "penalty.estimate_bias.self_s": self_s("penalty.estimate_bias"),
            "penalty.sandwich.self_s": self_s("penalty.sandwich"),
            "penalty.zeta_hat.self_s": self_s("penalty.zeta_hat"),
            "penalty.self_s": layer_self("penalty"),
            "inference.self_s": layer_self("inference"),
            "cli.self_s": layer_self("cli"),
            "trace.wall_s": wall_s,
            "trace.accounted_share": total_self / wall_s if wall_s > 0 else 0.0,
            "trace.spans": len(self.spans),
        }
        return out


def span_stats(spans) -> dict:
    """``{name: (calls, total seconds, self seconds)}`` from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    stats: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        stats[name] = (calls + 1, total + dur, own + dur - child_time[i])
    return stats


def _replace_everywhere(original, replacement) -> None:
    """Point every dvcm module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dvcm" or name.startswith("dvcm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
