"""Command-line surface: ``dvcm fit | simulate | phase | infer``.

``fit`` and ``infer`` run the real-data pipeline (ingest, filter, scale,
bin, split, pilot, penalty, fine-tune, covariance) and write a JSON
report; ``simulate`` and ``phase`` drive the Monte-Carlo harness and
write plot-ready CSV tables.  All stochastic choices are fixed by
``--seed``; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio
from .bandwidth import BandwidthChoice, gamma_moment_estimate
from .errors import DvcmError, ParseError
from .families import get_family
from .inference import (FitConfig, TransferProblem, confidence_intervals, contrast_test,
                        wald_test)
from .simulation import SimConfig, _check_slope_grid, fit_loglog_slopes, mc_sweep

__all__ = ["EstimateReport", "main"]


@dataclass
class EstimateReport:
    """Full fit report; serialises to JSON and re-parses losslessly."""

    u0: float
    family: str
    theta_lr: list
    theta_dvcm: list
    theta_tl: list
    q_hat: list
    bandwidth: dict
    covariance: dict
    se: list
    ci: list
    diagnostics: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "EstimateReport":
        return EstimateReport(**d)


def _listify(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _bandwidth_dict(choice: BandwidthChoice) -> dict:
    d = dataclasses.asdict(choice)
    return {k: v for k, v in d.items() if v is not None}


# ------------------------------------------------------------------
# fit / infer pipeline
# ------------------------------------------------------------------


def _ingest(config: FitConfig) -> dataio.Panel:
    table = dataio.load_csv(config.data, config.u_col, config.x_columns, config.y_col,
                            add_intercept=not config.no_intercept, u_expr=config.u_expr)
    headers, rows = table.headers, table.rows
    mask = dataio.sigma_filter(table.u, k=config.sigma_k)
    del table  # ingest owns `rows`: gather only when rows drop, scale u in place
    if not mask.any():
        raise ValueError(f"--sigma-k {config.sigma_k} drops every row: no identifier lies "
                         f"within that many standard deviations of the mean")
    if not mask.all():
        rows = rows[mask]
    rows[:, 0] = dataio.minmax_scale(rows[:, 0])
    return dataio.bin_domains(dataio.RawTable(headers, rows), n_bins=config.bins)


def _run_fit_pipeline(config: FitConfig) -> EstimateReport:
    family = get_family(config.family)
    panel = _ingest(config)

    j = int(np.argmin(np.abs(panel.u - config.u0)))
    u0 = float(panel.u[j])
    rng = np.random.default_rng(config.seed)
    pilot_part, fine_part, *_ = dataio.split_target(panel[j], config.fractions, rng)
    # the pilot part pooled with the other bins, stacked in one copy: let the
    # binned panel go once it is made
    pooled = dataio.Panel.of([pilot_part, *(d for i, d in enumerate(panel) if i != j)])
    del panel

    gamma = config.gamma if config.gamma is not None else gamma_moment_estimate(pooled[1:])
    problem = TransferProblem(
        pooled, fine_part, u0, family, order=config.order, beta=config.beta,
        delta=config.delta, gamma=gamma, e0=config.e0,
    )
    del pooled  # the problem holds it

    choice = problem.bandwidth(config.rule, c=config.bw_c, epsilon=config.epsilon, h=config.h)
    h = choice.h

    theta_lr, theta_dvcm = problem.full_target(h)
    pen = problem.penalty(h)
    tl = problem.fine_tune(h, pen.q)
    cov = problem.covariance(h, pen.q)
    se = np.sqrt(np.diag(cov.sigma_tl))
    ci = confidence_intervals(tl.theta_tl, cov.sigma_tl, config.level)

    return EstimateReport(
        u0=u0,
        family=family.kind,
        theta_lr=_listify(theta_lr),
        theta_dvcm=_listify(theta_dvcm),
        theta_tl=_listify(tl.theta_tl),
        q_hat=_listify(pen.q),
        bandwidth=_bandwidth_dict(choice),
        covariance={k: _listify(v) for k, v in vars(cov).items()},
        se=_listify(se),
        ci=_listify(ci),
    )


def _write(out: str | None, text: str) -> None:
    """``text`` and a newline to the file ``out``, or to stdout when ``out`` is unset."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


_FIT_FIELDS = [f for f in dataclasses.fields(FitConfig) if f.init]  # fit's and infer's flags


def cmd_fit(args) -> int:
    """``fit``, and ``infer``, whose report adds the tests it asks for."""
    config = FitConfig(**{f.name: getattr(args, f.name, None) for f in _FIT_FIELDS})
    null, v = config.null, config.v
    if args.command == "infer" and null is None and v is None:
        raise ValueError("infer requires --null-theta and/or --contrast")
    report = _run_fit_pipeline(config)
    theta, sigma = np.asarray(report.theta_tl), np.asarray(report.covariance["sigma_tl"])
    if null is not None:
        stat, df, p = wald_test(theta, sigma, null)
        report.tests["wald"] = {"null": null.tolist(), "statistic": stat, "df": df,
                                "p_value": p}
    if v is not None:
        zeta = 0.0 if config.zeta is None else config.zeta
        z, p = contrast_test(theta, sigma, v, zeta)
        report.tests["contrast"] = {"v": v.tolist(), "zeta": zeta, "z": z, "p_value": p}
    _write(args.out, json.dumps(report.to_dict(), indent=2))
    return 0


# ------------------------------------------------------------------
# simulate / phase
# ------------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SimConfig)}
# fields only a --config sets, and fields only phase reads (simulate's h come from --grid)
_CONFIG_ONLY = ("u0", "cov_rho")
_PHASE_ONLY = ("bandwidth_rule", "bw_c", "bw_epsilon")
_FLAG_NAMES = {"bw_epsilon": "--epsilon"}  # every other flag is --<field-name>


def _load_config(args) -> SimConfig:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{args.config}: {exc.msg}", row=exc.lineno, column=str(exc.colno)
            ) from None
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object, "
                             f"got {json.dumps(values)[:40]}")
        unknown = set(values) - _CONFIG_FIELDS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        unread = sorted(set(values) & set(_PHASE_ONLY)) if args.command == "simulate" else []
        if unread:
            raise ValueError(f"{args.config}: simulate takes every bandwidth from --grid "
                             f"and reads no bandwidth rule, but the config sets {unread}")
    values.update({k: v for k, v in vars(args).items()
                   if k in _CONFIG_FIELDS and v is not None})
    return SimConfig(**values)


def _csv(rows) -> str:
    """``rows`` as CSV lines; a float is written as its ``repr``."""
    return "\n".join(",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
                     for row in rows)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    grid = dataio._parse_list(args.grid, "--grid")
    estimators = dataio._parse_list(args.estimators, "--estimators", "name")
    results = mc_sweep([config], grid, estimators, threads=args.threads)
    cells = itertools.product(grid, estimators)
    rows = [[float(h), est, r.mse, r.se, r.fails] for (h, est), r in zip(cells, results)]
    _write(args.out, _csv([["h", "estimator", "mse", "se", "fails"], *rows]))
    return 0


def cmd_phase(args) -> int:
    config = _load_config(args)
    grid = dataio._parse_list(args.grid, "--grid")
    _check_slope_grid(grid, args.segments)  # finite first: round(inf) would raise
    fractional = [x for x in grid if args.vary != "gamma" and x != round(x)]
    if fractional:
        raise ValueError(f"--grid part {fractional[0]!r} is not a whole number, "
                         f"as --vary {args.vary} needs")
    # every grid point's config is checked before the first one runs
    name, cast = {"K": ("K", round), "gamma": ("gamma", float),
                  "n": ("n_bar", round)}[args.vary]  # n: average source size
    configs = [dataclasses.replace(config, **{name: cast(x)}) for x in grid]
    results = mc_sweep(configs, [None], ["tl"], threads=args.threads)
    rows = [[float(x), "tl", r.mse, r.se, r.fails] for x, r in zip(grid, results)]
    _write(args.out, _csv([[args.vary, "estimator", "mse", "se", "fails"], *rows]))

    segments = fit_loglog_slopes(grid, [r.mse for r in results], args.segments)
    slopes = {
        "vary": args.vary,
        "n_segments": args.segments,
        "segments": [{"start": s, "slope": sl} for s, sl in segments],
        "breakpoints": [s for s, _ in segments[1:]],
    }
    _write(args.slopes_out, json.dumps(slopes, indent=2))
    return 0


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------


def _add_flag(p: argparse.ArgumentParser, f: dataclasses.Field, unset: bool = False) -> None:
    """The flag that sets field ``f`` of SimConfig or FitConfig, with the field's dest,
    type, choices, help and default; ``unset``, None, leaves a config's value.  A field
    without a default is a required flag, a bool one a switch."""
    flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
    text = f.metadata.get("help")
    if f.type == "bool":
        p.add_argument(flag, action="store_true", help=text)
        return
    required = f.default is dataclasses.MISSING
    p.add_argument(flag, dest=f.name, default=None if unset or required else f.default,
                   required=required, choices=f.metadata.get("choices"), help=text,
                   type={"int": int, "float": float}.get(f.type.removesuffix(" | None")),
                   metavar=flag[2:].upper() if f.name in _FLAG_NAMES else None)


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    for name, f in _CONFIG_FIELDS.items():
        if name not in _CONFIG_ONLY + _PHASE_ONLY:
            _add_flag(p, f, unset=True)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: the CPU count)")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvcm",
        description="Adaptive transfer learning for domain-varying coefficient models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("fit", "fit the three estimators on a CSV dataset"),
                       ("infer", "fit plus Wald / contrast tests")):
        p_fit = sub.add_parser(name, help=text)
        for f in _FIT_FIELDS:
            if name == "infer" or not f.metadata.get("infer"):
                _add_flag(p_fit, f)
        p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo MSE over a bandwidth grid")
    _add_sim_args(p_sim)
    p_sim.add_argument("--grid", required=True, help="comma-separated bandwidths")
    p_sim.add_argument("--estimators", default="lr,dvcm,tl",
                       help="comma-separated subset of lr,dvcm,tl")
    p_sim.set_defaults(func=cmd_simulate)

    p_phase = sub.add_parser("phase", help="phase-transition sweep with slope fit")
    _add_sim_args(p_phase)
    p_phase.add_argument("--vary", required=True, choices=["K", "gamma", "n"])
    p_phase.add_argument("--grid", required=True,
                         help="comma-separated grid for the varied parameter")
    for name in _PHASE_ONLY:
        _add_flag(p_phase, _CONFIG_FIELDS[name], unset=True)
    p_phase.add_argument("--segments", type=int, default=3,
                         help="segments for the log-log slope fit")
    p_phase.add_argument("--slopes-out", default=None,
                         help="output path for the fitted slopes (default: stdout)")
    p_phase.set_defaults(func=cmd_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DvcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: cli: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: cli: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
