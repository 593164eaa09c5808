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
import numpy.random  # at import: it would otherwise load on the first draw

from . import dataio
from .bandwidth import BandwidthChoice, gamma_moment_estimate
from .errors import DvcmError, ParseError
from .families import FAMILIES, get_family
from .inference import TransferProblem, confidence_intervals, contrast_test, wald_test
from .simulation import SimConfig, fit_loglog_slopes, mc_mse, mc_sweep

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


def _parse_float_list(text: str, option: str) -> list[float]:
    return [_parse_part(t, option) for t in text.replace(";", ",").split(",") if t.strip()]


def _parse_fractions(text: str, option: str) -> list[float]:
    return [_parse_part(tok, option, fraction=True) for tok in text.split(",")]


def _parse_bandwidth(text: str) -> tuple[str, float | None]:
    """``--bandwidth auto|undersmooth|<positive number>`` as the rule of
    :func:`select_bandwidth` and its fixed ``h`` (None for a data-driven rule)."""
    rule = {"auto": "median", "undersmooth": "undersmoothed"}.get(text)
    if rule is not None:
        return rule, None
    try:
        h = float(text)
    except ValueError:
        raise ValueError(f"--bandwidth {text!r} is not auto, undersmooth "
                         f"or a positive number") from None
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"--bandwidth needs a finite positive h, got {h}")
    return "fixed", h


def _parse_part(tok: str, option: str, fraction: bool = False) -> float:
    """One part of the comma-separated ``option``: a number or, with
    ``fraction``, also ``a/b``; a ValueError names ``option`` and ``tok``."""
    tok = tok.strip()
    num, slash, den = tok.partition("/") if fraction else (tok, "", "")
    try:
        a, b = float(num), float(den) if slash else 1.0
    except ValueError:
        kind = "a number or a fraction a/b" if fraction else "a number"
        raise ValueError(f"{option} part {tok!r} is not {kind}") from None
    if b == 0:
        raise ValueError(f"{option} part {tok!r} has a zero denominator")
    return a / b


# ------------------------------------------------------------------
# fit / infer pipeline
# ------------------------------------------------------------------


def _ingest(args) -> tuple[dataio.Panel, dict]:
    table = dataio.load_csv(
        args.data,
        u_column=args.u_col,
        x_columns=[c.strip() for c in args.x_cols.split(",") if c.strip()],
        y_column=args.y_col,
        add_intercept=not args.no_intercept,
        u_expr=args.u_expr,
    )
    rows_read, headers, rows = table.n, table.headers, table.rows
    mask = dataio.sigma_filter(table.u, k=args.sigma_k)
    del table  # ingest owns `rows`: gather only when rows drop, scale u in place
    if not mask.any():
        raise ValueError(f"--sigma-k {args.sigma_k} drops every row: no identifier lies "
                         f"within that many standard deviations of the mean")
    if not mask.all():
        rows = rows[mask]
    rows[:, 0] = dataio.minmax_scale(rows[:, 0])
    panel = dataio.bin_domains(dataio.RawTable(headers, rows), n_bins=args.bins)
    diag = {
        "rows_read": rows_read,
        "rows_kept": rows.shape[0],
        "bins_occupied": len(panel),
        "bin_counts": {str(d.u): d.n for d in panel},
    }
    return panel, diag


def _run_fit_pipeline(args) -> EstimateReport:
    if not np.isfinite(args.u0):
        raise ValueError(f"--u0 must be a finite number, got {args.u0}")
    family = get_family(args.family)
    rule, fixed_h = _parse_bandwidth(args.bandwidth)
    fractions = _parse_fractions(args.split, "--split")
    if len(fractions) < 2:
        raise ValueError(
            f"--split needs at least 2 parts (pilot, fine-tune), got {args.split!r}"
        )
    panel, diag = _ingest(args)

    mids = panel.u
    j = int(np.argmin(np.abs(mids - args.u0)))
    if abs(mids[j] - args.u0) > 1e-9:
        diag["u0_snapped_to_bin"] = float(mids[j])
    u0 = float(mids[j])
    target = panel[j]
    sources = [d for i, d in enumerate(panel) if i != j]
    if not sources:
        raise ValueError("no source domains left after binning")

    rng = np.random.default_rng(args.seed)
    parts = dataio.split_target(target, fractions, rng)
    pilot_part, fine_part = parts[0], parts[1]
    if len(parts) > 2:
        diag["test_split_rows"] = int(sum(p.n for p in parts[2:]))

    gamma = args.gamma if args.gamma is not None else gamma_moment_estimate(sources)
    problem = TransferProblem(
        pilot_part, fine_part, sources, u0, family, order=args.order, beta=args.beta,
        delta=args.delta, gamma=gamma, e0=args.e0,
    )
    # the problem stacked its own copy of the sources: let the binned panel go
    del panel, target, sources

    choice = problem.bandwidth(rule, c=args.bw_c, epsilon=args.epsilon, h=fixed_h)
    h = choice.h

    theta_lr, theta_dvcm = problem.full_target(h)
    pilot = problem.pilot(h)
    pen = problem.penalty(pilot)
    tl = problem.fine_tune(pilot, pen.q)
    cov = problem.covariance(pilot, pen.q, pen.var_mat)
    se = np.sqrt(np.diag(cov.sigma_tl))
    ci = confidence_intervals(tl.theta_tl, cov.sigma_tl, args.level)

    diag.update(
        {
            "pilot_iterations": pilot.iterations,
            "pilot_converged": pilot.converged,
            "tl_converged": tl.converged,
            "penalty_scale": pen.scale,
            "penalty_bias": _listify(pen.bias_vec),
            "gamma_used": gamma,
            "splits": {"pilot": pilot_part.n, "finetune": fine_part.n},
        }
    )
    diag.update({f"penalty_{k}": v for k, v in pen.diagnostics.items()})

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


def _write_report(report: EstimateReport, out: str | None) -> None:
    text = json.dumps(report.to_dict(), indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_fit(args) -> int:
    report = _run_fit_pipeline(args)
    _write_report(report, args.out)
    return 0


def cmd_infer(args) -> int:
    report = _run_fit_pipeline(args)
    theta = np.asarray(report.theta_tl)
    sigma = np.asarray(report.covariance["sigma_tl"])
    if args.null_theta is not None:
        null = np.asarray(_parse_float_list(args.null_theta, "--null-theta"))
        if null.size != theta.size:
            raise ValueError(
                f"--null-theta has {null.size} entries, expected {theta.size}"
            )
        stat, df, p = wald_test(theta, sigma, null)
        report.tests["wald"] = {
            "null": null.tolist(), "statistic": stat, "df": df, "p_value": p,
        }
    if args.contrast is not None:
        v = np.asarray(_parse_float_list(args.contrast, "--contrast"))
        if v.size != theta.size:
            raise ValueError(f"--contrast has {v.size} entries, expected {theta.size}")
        z, p = contrast_test(theta, sigma, v, args.zeta)
        report.tests["contrast"] = {
            "v": v.tolist(), "zeta": args.zeta, "z": z, "p_value": p,
        }
    if not report.tests:
        raise ValueError("infer requires --null-theta and/or --contrast")
    _write_report(report, args.out)
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


def _format_row(cells) -> str:
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


def _write_table(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [_format_row(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        print(text, end="")


def cmd_simulate(args) -> int:
    config = _load_config(args)
    grid = _parse_float_list(args.grid, "--grid")
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    results = mc_sweep(config, grid, estimators, threads=args.threads)
    cells = itertools.product(grid, estimators)
    rows = [[float(h), est, r.mse, r.se, r.fails] for (h, est), r in zip(cells, results)]
    _write_table(args.out, ["h", "estimator", "mse", "se", "fails"], rows)
    return 0


def cmd_phase(args) -> int:
    config = _load_config(args)
    grid = _parse_float_list(args.grid, "--grid")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"--grid values must be finite, got {args.grid!r}")
    fractional = [x for x in grid if args.vary != "gamma" and x != round(x)]
    if fractional:
        raise ValueError(f"--grid part {fractional[0]!r} is not a whole number, "
                         f"as --vary {args.vary} needs")
    if len(grid) < 2 * args.segments + 2:
        raise ValueError(
            f"grid of {len(grid)} points cannot support {args.segments} segments"
        )
    # every grid point's config is checked before the first one runs
    name, cast = {"K": ("K", round), "gamma": ("gamma", float),
                  "n": ("n_bar", round)}[args.vary]  # n: average source size
    configs = [dataclasses.replace(config, **{name: cast(x)}) for x in grid]
    rows = []
    for x, cfg in zip(grid, configs):
        r = mc_mse(cfg, "tl", None, threads=args.threads)
        rows.append([float(x), "tl", r.mse, r.se, r.fails])
    _write_table(args.out, [args.vary, "estimator", "mse", "se", "fails"], rows)

    xs = [r[0] for r in rows]
    ys = [r[2] for r in rows]
    segments = fit_loglog_slopes(xs, ys, args.segments)
    slopes = {
        "vary": args.vary,
        "n_segments": args.segments,
        "segments": [{"start": s, "slope": sl} for s, sl in segments],
        "breakpoints": [s for s, _ in segments[1:]],
    }
    text = json.dumps(slopes, indent=2)
    if args.slopes_out:
        Path(args.slopes_out).write_text(text + "\n")
    else:
        print(text)
    return 0


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--u-col", default=None, help="domain identifier column")
    p.add_argument("--u-expr", default=None,
                   help="expression over columns defining U: + - * /, unary + -, "
                        "parentheses, numbers and column names (keywords too)")
    p.add_argument("--x-cols", required=True, help="comma-separated covariate columns")
    p.add_argument("--y-col", required=True, help="response column")
    p.add_argument("--no-intercept", action="store_true",
                   help="do not prepend an intercept column")
    p.add_argument("--u0", type=float, required=True, help="target domain identifier")
    p.add_argument("--family", default="gaussian", choices=tuple(FAMILIES))
    p.add_argument("--order", type=int, default=1, help="local polynomial order l")
    p.add_argument("--beta", type=float, default=2.0, help="smoothness parameter")
    p.add_argument("--bandwidth", default="auto",
                   help="auto | undersmooth | positive number")
    p.add_argument("--gamma", type=float, default=None,
                   help="domain dispersion scale (default: moment estimate)")
    p.add_argument("--e0", type=float, default=1.0, help="median-rule constant")
    p.add_argument("--bw-c", type=float, default=1.0, help="undersmoothing constant")
    p.add_argument("--epsilon", type=float, default=0.2,
                   help="undersmoothing exponent bump")
    p.add_argument("--delta", type=float, default=1.0, help="penalty scale in (1/2, 2)")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--split", default="1/3,1/3,1/3",
                   help="target split fractions, e.g. 1/3,1/3,1/3")
    p.add_argument("--bins", type=int, default=10, help="number of identifier bins")
    p.add_argument("--sigma-k", type=float, default=3.0,
                   help="identifier outlier threshold in standard deviations")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument("--out", default=None, help="output report path (default: stdout)")


def _add_config_flag(p: argparse.ArgumentParser, name: str) -> None:
    """The flag that sets SimConfig field ``name``: its dest is the field's
    name, its type and choices the field's; unset, it leaves the config's value."""
    f, flag = _CONFIG_FIELDS[name], _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
    p.add_argument(flag, dest=name, default=None, choices=f.metadata.get("choices"),
                   type={"int": int, "float": float}.get(f.type),
                   metavar=flag[2:].upper() if name in _FLAG_NAMES else None)


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    for name in _CONFIG_FIELDS:
        if name not in _CONFIG_ONLY + _PHASE_ONLY:
            _add_config_flag(p, name)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: the CPU count)")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvcm",
        description="Adaptive transfer learning for domain-varying coefficient models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the three estimators on a CSV dataset")
    _add_data_args(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_infer = sub.add_parser("infer", help="fit plus Wald / contrast tests")
    _add_data_args(p_infer)
    p_infer.add_argument("--null-theta", default=None,
                         help="comma-separated null vector for the Wald test")
    p_infer.add_argument("--contrast", default=None,
                         help="comma-separated contrast vector")
    p_infer.add_argument("--zeta", type=float, default=0.0,
                         help="null value of the contrast")
    p_infer.set_defaults(func=cmd_infer)

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
        _add_config_flag(p_phase, name)
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
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
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
