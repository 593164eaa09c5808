"""Monte-Carlo harness: data generation, MSE experiments, diagnostics.

Replications are keyed by a counter-based stream scheme: every
(root seed, replication index, stream role) triple maps to an
independent generator, so replications are order-independent,
parallelisable, and bit-reproducible.  The target domain always
receives ``2 n0`` observations; the first half is drawn into the pooled
panel with the sources and feeds the pilot and the penalty matrix, the
second half the fine-tuning step and the target-side covariance plug-ins.

Experiments make one pass per replication over all of their cells
(``mc_sweep``): the dataset is generated once and split into one
``TransferProblem`` (the pipeline ``dvcm fit`` runs), which shares every
fit that does not depend on the bandwidth; the pooled pilot is fitted
once per bandwidth.  A sweep runs a plan of configs (``phase`` has one
per grid point; a one-cell sweep and ``mc_inference`` one), and a multi-threaded
experiment runs on one process pool, one task per replication.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.random  # at import: it would otherwise load on the first draw

from .bandwidth import BANDWIDTH_RULES, _check_settings
from .design import Panel, _check_bandwidth, _check_order, _record
from .errors import DomainError, DvcmError, ExperimentError
from .families import FAMILIES, get_family
from .inference import TransferProblem, _check_level, _check_seed, normal_quantile, wald_test
from .penalty import _check_delta

__all__ = [
    "SimConfig",
    "rng_stream",
    "generate_dataset",
    "mc_sweep",
    "McMseResult",
    "mc_inference",
    "InferenceRecords",
    "fit_loglog_slopes",
    "ks_normality",
]

_ROLE_IDS = {"source_u": 0, "source_x": 1, "source_y": 2, "target_x": 3, "target_y": 4}

_ESTIMATORS = ("lr", "dvcm", "tl")
_Q_MODES = ("estimate", "oracle", "zero", "infinity")


def _theta_paper_default(u: float, p: int) -> np.ndarray:
    g = abs(u) ** 3  # u^3 sign(u): continuous 2nd derivative, kinked 3rd
    th = np.empty(p)
    th[0] = -math.tanh(16.0 * (u - 0.2)) + g
    if p > 1:
        th[1] = math.exp(5.0 * u + 2.5) / 100.0 - 0.5 + g
    for j in range(2, p):
        th[j] = (-0.5) ** (j - 1) * math.exp(2.0 * u)
    return th


# the coefficient curves theta(u, p) that a theta_spec names
_THETA_SPECS = {
    "paper_default": _theta_paper_default,
    "tanh_pair": lambda u, p: np.full(p, math.tanh(8.0 * (u - 0.2))),
}

_MAX_DESIGN_VALUES = 2**25  # float64 values in a replication's widest design: 256 MiB

# every SimConfig field's annotation names one of these types, and it holds a value of it
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string")}


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulated experiment; ``simulate`` and ``phase``
    build their flags from its fields' types and ``metadata["choices"]``.

    ``family`` is stored as its family's ``kind``, so ``"Gaussian"`` is
    ``"gaussian"``.  A sweep's bandwidths are given to ``mc_sweep``;
    ``bandwidth_rule`` selects the per-replication bandwidth when no
    explicit ``h`` is given.  ``q_mode`` chooses the shrinkage matrix:
    data-driven (``estimate``), empirical oracle (``oracle``; two-pass,
    simulation only), or the limiting cases ``zero`` / ``infinity``.
    """

    family: str = field(default="gaussian", metadata={"choices": tuple(FAMILIES)})
    p: int = 4
    K: int = 5
    n_bar: int = 120
    n0: int = 50
    gamma: float = 1.0
    u0: float = 0.0
    noise_sd: float = 0.5
    cov_rho: float = 0.7
    reps: int = 200
    seed: int = 0
    theta_spec: str = field(default="paper_default", metadata={"choices": tuple(_THETA_SPECS)})
    order: int = 1
    beta: float = 2.0
    delta: float = 1.0
    e0: float = 1.0
    bw_c: float = 0.5
    bw_epsilon: float = 0.2
    bandwidth_rule: str = field(default="median", metadata={"choices": BANDWIDTH_RULES})
    q_mode: str = field(default="estimate", metadata={"choices": _Q_MODES})

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, (kind, noun) = getattr(self, f.name), _FIELD_KINDS[f.type]
            if not isinstance(value, kind) or isinstance(value, bool):  # bools are no numbers
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            choices = f.metadata.get("choices")
            if f.name == "family":  # get_family takes any case and names the choices
                object.__setattr__(self, "family", get_family(value).kind)
            elif choices and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
        if min(self.p, self.K, self.n_bar, self.n0, self.reps) < 1:
            raise ValueError("p, K, n_bar, n0 and reps must be positive")
        _check_seed(self.seed)
        for name in ("gamma", "noise_sd"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        for rule in BANDWIDTH_RULES:  # e0, beta, bw_c and bw_epsilon, whatever reads them
            _check_settings(rule, self.beta, self.gamma or None, self.e0, self.bw_c,
                            self.bw_epsilon, None)  # gamma = 0 (every source at u0) passes
        _check_order(self.order)
        if not -1.0 < self.cov_rho < 1.0:
            raise ValueError("cov_rho must lie in (-1, 1)")
        _check_delta(self.delta)  # whatever the estimators and q_mode
        half = self.gamma / 2.0
        try:  # each term of a curve is monotone in u or |u|: check the range's ends and u0
            for u in (-half, half, self.u0):
                self.theta(u)
        except OverflowError:
            raise ValueError(f"theta_spec {self.theta_spec!r} overflows on the source "
                             f"range [{-half!r}, {half!r}] of gamma={self.gamma!r}") from None
        # the widest design a replication builds: the pooled rows times the
        # columns of the pilot's order-l fit or of the derivative's order-beta one
        size = (self.n0 + self.K * self.n_bar) * (max(self.order, self.beta) + 1) * self.p
        if size > _MAX_DESIGN_VALUES:
            raise ValueError(f"a replication's widest design, (n0 + K*n_bar) * "
                             f"(max(order, beta) + 1) * p = {size:.4g} float64 values, "
                             f"exceeds 2**25 (256 MiB): lower n0, K, n_bar, order, beta or p")

    @property
    def theta(self) -> Callable[[float], np.ndarray]:
        """The coefficient curve theta(u) named by ``theta_spec``."""
        return functools.partial(_THETA_SPECS[self.theta_spec], p=self.p)


def rng_stream(seed: int, rep: int, role: str) -> np.random.Generator:
    """Independent generator for (root seed, replication, stream role)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(rep, _ROLE_IDS[role]))
    )


@functools.lru_cache(maxsize=16)
def _covariate_factor(p: int, rho: float) -> np.ndarray:
    """Transposed Cholesky factor of Sigma_ij = rho^|i-j| over the p - 1
    non-intercept covariates; computed once per ``(p, rho)``, read-only."""
    idx = np.arange(p - 1)
    factor = np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :])).T
    factor.flags.writeable = False
    return factor


def _draw_x(rng: np.random.Generator, out: np.ndarray, n: int, chol_t: np.ndarray) -> None:
    """Fill ``out`` with stacked designs of ``n`` rows: an intercept column
    plus N(0, Sigma) covariates, ``chol_t = _covariate_factor(p, rho)``.

    The normals come from one draw, transformed by one product batched
    over the ``n``-row blocks, so every block has the bits of a separate
    ``n``-row draw (a single-row product would take another BLAS path).
    """
    out[:, 0] = 1.0
    if chol_t.shape[0]:
        normals = rng.standard_normal((out.shape[0] // n, n, chol_t.shape[0]))
        out[:, 1:] = np.matmul(normals, chol_t).reshape(out.shape[0], -1)


def _draw_y(rng: np.random.Generator, eta: np.ndarray, family_kind: str, noise_sd: float,
            out: np.ndarray) -> None:
    """Fill ``out`` with responses at linear predictor ``eta``: Gaussian noise
    of sd ``noise_sd``, or Bernoulli / Poisson draws at the family's mean
    ``b'(eta)``.  A Poisson mean beyond what numpy can draw raises DomainError."""
    family = get_family(family_kind)
    if family.kind == "gaussian":
        np.add(eta, noise_sd * rng.standard_normal(eta.shape[0]), out=out)
        return
    if family.kind == "logistic":
        out[:] = rng.binomial(1, family.b1(eta))
        return
    with np.errstate(over="ignore"):
        mean = family.b1(eta)
    try:
        out[:] = rng.poisson(mean)
    except ValueError as exc:
        raise DomainError(f"the Poisson mean exp(eta) reaches {float(mean.max())!r}, "
                          f"which numpy cannot draw from ({exc}); lower --gamma or "
                          f"u0 so that theta(u) stays smaller") from None


def generate_dataset(config: SimConfig, rep: int) -> tuple[Panel, Panel]:
    """Draw one replication: the pooled panel and the target's fine-tune half.

    The target draws ``2 n0`` observations at ``u0``.  Its first ``n0``
    rows are the panel's domain 0, followed by K sources of ``n_bar`` rows
    whose identifiers are uniform on (-gamma/2, gamma/2); the other half
    comes back as a one-domain panel.  Streams are derived from
    (config.seed, rep) per role, so identical inputs reproduce identical
    data.  The sources are drawn straight into the panel's rows, and only
    the target's pilot rows are copied there; the package drew every
    value, so the panel is made without a second scan of them.
    """
    theta, n0, n_bar, K, p = config.theta, config.n0, config.n_bar, config.K, config.p
    us = rng_stream(config.seed, rep, "source_u").uniform(-config.gamma / 2.0,
                                                           config.gamma / 2.0, K)
    chol_t = _covariate_factor(p, config.cov_rho)
    x, y = np.empty((n0 + K * n_bar, p)), np.empty(n0 + K * n_bar)

    # one draw per role for all K sources: the streams are consumed in the
    # same order as K per-source draws, so every value is the same; the
    # batched product has the bits of K per-source products
    _draw_x(rng_stream(config.seed, rep, "source_x"), x[n0:], n_bar, chol_t)
    thetas = np.stack([theta(u) for u in us.tolist()])[:, :, None]  # (K, p, 1)
    eta = np.matmul(x[n0:].reshape(K, n_bar, p), thetas).ravel()
    _draw_y(rng_stream(config.seed, rep, "source_y"), eta, config.family,
            config.noise_sd, y[n0:])

    x0, y0 = np.empty((2 * n0, p)), np.empty(2 * n0)
    _draw_x(rng_stream(config.seed, rep, "target_x"), x0, 2 * n0, chol_t)
    _draw_y(rng_stream(config.seed, rep, "target_y"), x0 @ theta(config.u0), config.family,
            config.noise_sd, y0)
    x[:n0], y[:n0] = x0[:n0], y0[:n0]
    pooled = _record(Panel, x=x, y=y, u=np.concatenate([[config.u0], us]),
                     offsets=np.r_[0, n0 + n_bar * np.arange(K + 1)])
    # the fine half: n0 rows at u0, as the panel's domain 0
    return pooled, _record(Panel, x=x0[n0:], y=y0[n0:], u=pooled.u[:1],
                           offsets=pooled.offsets[:2])


def _replicate(
    config: SimConfig,
    grid: tuple,
    estimators: tuple,
    rep: int,
    q_matrices: Sequence | None = None,
    *,
    want_sigma: bool = False,
) -> list:
    """One replication of every (h, estimator) cell, h outer; a failed cell holds None.

    The dataset is generated once and its ``TransferProblem`` shares the
    h-independent fits across the grid; the pooled pilot is fitted once
    per h, shared by its dvcm and tl cells.  A target-only failure fails
    every cell, a pilot failure the dvcm and tl cells at its h, any later
    failure the tl cell alone.  ``q_matrices`` holds the oracle Q per h
    (``q_mode="oracle"`` only); with ``want_sigma`` a tl cell holds
    ``(theta_tl, Sigma_TL)``.
    """
    pooled, fine = generate_dataset(config, rep)
    problem = TransferProblem(
        pooled, fine, config.u0, get_family(config.family), order=config.order,
        beta=config.beta, delta=config.delta, gamma=config.gamma, e0=config.e0,
    )
    try:
        theta_lr = problem.theta_lr
    except DvcmError:
        return [None] * (len(grid) * len(estimators))

    fixed_q = {"zero": np.zeros((config.p, config.p)),
               "infinity": 1e12 * np.eye(config.p)}.get(config.q_mode)
    out = []
    for i, h in enumerate(grid):
        estimates = {"lr": theta_lr}
        try:  # a pilot failure empties the dvcm and tl cells, a later one the tl cell
            if estimators != ("lr",):
                if h is None:
                    h = problem.bandwidth(config.bandwidth_rule, c=config.bw_c,
                                          epsilon=config.bw_epsilon).h
                estimates["dvcm"] = problem.pilot(h).theta
            if "tl" in estimators:
                q = q_matrices[i] if config.q_mode == "oracle" else fixed_q
                if q is None:  # data-driven
                    q = problem.penalty(h).q
                theta_tl = problem.fine_tune(h, q).theta_tl
                estimates["tl"] = (
                    (theta_tl, problem.covariance(h, q).sigma_tl) if want_sigma else theta_tl
                )
        except DvcmError:
            pass
        out.extend(estimates.get(est) for est in estimators)
    return out


def _check_tolerance(fails: int, reps: int) -> None:
    if fails > 0.2 * reps:
        raise ExperimentError(f"{fails}/{reps} replications failed (> 20% tolerance)")


@dataclass(frozen=True)
class McMseResult:
    mse: float
    se: float
    fails: int


def _oracle_q_matrices(config: SimConfig, pilots: list) -> list:
    """Empirical oracle penalty per h: true scale over the pilot's Monte-Carlo MSE.

    ``pilots`` is a first pass that fitted the pooled pilot of every
    replication at every h; their error outer products, averaged, replace
    the unknown MSE matrix in the oracle formula.  Only available in
    simulation, where theta(u0) is known.  Raises ExperimentError when the
    pilot fails in every replication at some h, since every tl cell there
    would fail too.
    """
    theta_true = config.theta(config.u0)
    nu = config.noise_sd**2 if config.family == "gaussian" else 1.0
    q_matrices = []
    for column in zip(*pilots):  # the pilot estimates at one h
        # a draw whose pilot is infeasible fails its pass-2 replication too
        errors = [theta - theta_true for theta in column if theta is not None]
        if not errors:
            raise ExperimentError("oracle pass: pilot failed in every replication")
        m = sum(np.outer(err, err) for err in errors) / len(errors)
        q_matrices.append(config.delta * nu / config.n0 * np.linalg.inv(0.5 * (m + m.T)))
    return q_matrices


def _outcomes(
    configs: Sequence[SimConfig], grid: tuple, estimators: tuple, threads: int,
    summary: Callable, *, want_sigma: bool = False,
) -> list:
    """The lists ``summary(config, outcomes)`` of every config in turn, concatenated;
    ``outcomes`` holds each replication's ``_replicate``, in order, after the oracle pass if
    tl needs one.  Serial at one thread, else one task per replication on one pool of at
    most min(threads, CPUs, tasks) workers; the first config to raise aborts the plan."""
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    workers = min(threads, os.cpu_count() or 1, sum(config.reps for config in configs))
    # read from the module, which imports the class on first use (__getattr__)
    pool = sys.modules[__name__].ProcessPoolExecutor(workers) if workers > 1 else None
    oracle = [config.q_mode == "oracle" and "tl" in estimators for config in configs]

    def start(config, ests, q_matrices=None):  # one getter per replication
        calls = [functools.partial(_replicate, config, grid, ests, rep, q_matrices,
                                   want_sigma=want_sigma) for rep in range(config.reps)]
        return calls if pool is None else [pool.submit(call).result for call in calls]

    try:  # every task goes in at once, but an oracle's second pass waits for its turn
        started = [start(c, ("dvcm",) if o else estimators) for c, o in zip(configs, oracle)]
        out = []
        for config, getters, two_pass in zip(configs, started, oracle):
            if two_pass:
                q_matrices = _oracle_q_matrices(config, [get() for get in getters])
                getters = start(config, estimators, q_matrices)
            out += summary(config, [get() for get in getters])
        return out
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: the pool's modules (multiprocessing,
    socket, logging, queue, ...) load only when an experiment runs on a pool."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _mse_result(config: SimConfig, estimates: Sequence) -> McMseResult:
    theta_true = config.theta(config.u0)
    errors = np.array([float((t - theta_true) @ (t - theta_true))
                       for t in estimates if t is not None])
    fails = config.reps - errors.size
    _check_tolerance(fails, config.reps)
    mse = float(np.mean(errors))
    se = float(np.std(errors, ddof=1) / np.sqrt(errors.size))
    return McMseResult(mse=mse, se=se, fails=fails)


def mc_sweep(
    configs: Sequence[SimConfig],
    grid: Sequence[float | None],
    estimators: Sequence[str],
    *,
    threads: int = 1,
) -> list[McMseResult]:
    """Monte-Carlo MSE of every (config, h, estimator) cell, in one pass per replication.

    Cells come back config outer, then h; ``h=None`` uses the configured
    bandwidth rule.  Every cell equals the same cell run alone, as a
    one-cell sweep; the first cell in plan order with more than 20% failed
    replications aborts the sweep, as does an oracle pass
    (``q_mode="oracle"``) in which some h never fits a pilot.  Results are
    averaged in replication order, so they are bit-identical for any ``threads``.
    """
    grid, estimators = tuple(grid), tuple(estimators)
    if not estimators or len(set(estimators) & set(_ESTIMATORS)) < len(estimators):
        raise ValueError(f"estimators must be distinct, each one of {_ESTIMATORS}")
    if not grid or min((config.reps for config in configs), default=0) < 2:
        raise ValueError("mc_sweep needs a nonempty grid and plan, and 2 or more replications")
    for h in grid:  # an lr-only sweep reads no h, but is refused one out of range too
        if h is not None:
            _check_bandwidth(h)
    return _outcomes(configs, grid, estimators, threads, lambda config, outcomes: [
        _mse_result(config, cell) for cell in zip(*outcomes)])


@dataclass(frozen=True)
class InferenceRecords:
    """Per-replication inference outcomes of the transfer estimator."""

    theta_tl: np.ndarray      # (m, p)
    se: np.ndarray            # (m, p)
    theta_true: np.ndarray    # (p,)
    wald_p: np.ndarray        # (m,)
    fails: int

    @property
    def standardized(self) -> np.ndarray:
        return (self.theta_tl - self.theta_true) / self.se

    def coverage(self, level: float = 0.95) -> np.ndarray:
        """Empirical per-coordinate CI coverage at the given level."""
        _check_level(level)
        z = normal_quantile(0.5 + level / 2.0)
        return np.mean(np.abs(self.standardized) <= z, axis=0)


def mc_inference(
    config: SimConfig, h: float | None = None, *, threads: int = 1
) -> InferenceRecords:
    """Replicate the full pipeline with its covariance for normality studies.

    Uses the configured bandwidth rule (undersmoothed, for the normality
    experiments) unless an explicit ``h`` is supplied, and the configured
    ``q_mode`` (the oracle runs its first pass as in ``mc_sweep``).
    """
    outcomes = _outcomes([config], (h,), ("tl",), threads, lambda c, out: out, want_sigma=True)
    theta_true = config.theta(config.u0)
    thetas, ses, walds = [], [], []
    for (r,) in outcomes:
        variances = None if r is None else np.diag(r[1])
        # variances at round-off scale (noiseless data) make the
        # standardisation meaningless: the replication counts as failed
        if variances is None or not np.all(np.isfinite(variances) & (variances > 1e-28)):
            continue
        theta_tl, sigma = r
        thetas.append(theta_tl)
        ses.append(np.sqrt(variances))
        walds.append(wald_test(theta_tl, sigma, theta_true)[2])
    fails = config.reps - len(thetas)
    _check_tolerance(fails, config.reps)
    return InferenceRecords(
        theta_tl=np.array(thetas),
        se=np.array(ses),
        theta_true=theta_true,
        wald_p=np.array(walds),
        fails=fails,
    )


def _check_slope_grid(xs: Sequence[float], n_segments: int) -> None:
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"--grid values must be finite, got {np.asarray(xs).tolist()}")
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    if len(xs) < 2 * n_segments + 2:
        raise ValueError(f"need at least {2 * n_segments + 2} points for {n_segments} segments")


def fit_loglog_slopes(
    xs: Sequence[float], ys: Sequence[float], n_segments: int
) -> list[tuple[float, float]]:
    """Continuous piecewise-linear least squares in log-log space.

    Breakpoints are searched exhaustively over the grid points; each
    segment must span at least two grid intervals.  Returns one
    ``(segment_start_x, slope)`` pair per segment, in original units.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be one-dimensional with equal length")
    _check_slope_grid(xs, n_segments)
    if np.any(xs <= 0) or not np.all((ys > 0) & np.isfinite(ys)):  # NaN too
        raise ValueError("log-log fit requires positive xs and finite positive ys")
    lx, ly = np.log(xs), np.log(ys)
    n = xs.size

    best = None
    for combo in itertools.combinations(range(2, n - 2), n_segments - 1):
        if any(b - a < 2 for a, b in zip(combo, combo[1:])):
            continue  # each segment must cover at least two grid intervals
        a = np.column_stack([np.ones(n), lx, *(np.maximum(lx - lx[i], 0.0) for i in combo)])
        coef, _, _, _ = np.linalg.lstsq(a, ly, rcond=None)
        sse = float(np.sum((a @ coef - ly) ** 2))
        if best is None or sse < best[0] - 1e-15:
            best = (sse, combo, coef)

    _, combo, coef = best
    return list(zip(xs[[0, *combo]].tolist(), np.cumsum(coef[1:]).tolist()))


def ks_normality(samples: Sequence[float]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against the standard normal.

    Returns ``(D, p)`` with the asymptotic p-value of
    ``scipy.stats.kstest``.  Requires at least 8 samples.
    """
    # imported here: scipy.stats would more than triple the package import time
    from scipy.stats import kstest

    x = np.asarray(samples, dtype=float)
    if x.size < 8:
        raise ValueError(f"KS test requires at least 8 samples, got {x.size}")
    res = kstest(x, "norm", mode="asymp")
    return float(res.statistic), float(res.pvalue)
