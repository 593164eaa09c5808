"""Monte-Carlo harness: data generation, MSE experiments, diagnostics.

Replications are keyed by a counter-based stream scheme: every
(root seed, replication index, stream role) triple maps to an
independent generator, so replications are order-independent,
parallelisable, and bit-reproducible.  The target domain always
receives ``2 n0`` observations; the first half feeds the pooled pilot
and the penalty matrix, the second half the fine-tuning step and the
target-side covariance plug-ins.

Experiments make one pass per replication over all of their cells
(``mc_sweep``): the dataset is generated once and split into one
``TransferProblem`` (the pipeline ``dvcm fit`` runs), which shares every
fit that does not depend on the bandwidth; the pooled pilot is fitted
once per bandwidth.  ``mc_mse`` and ``mc_inference`` are
single-cell uses of the same runner, and a multi-threaded experiment
runs in one process pool, chunked by replication.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.random  # at import: it would otherwise load on the first draw

from .bandwidth import BANDWIDTH_RULES
from .design import DomainSample, Panel
from .errors import DomainError, DvcmError, ExperimentError
from .families import FAMILIES, get_family
from .inference import TransferProblem, normal_quantile, wald_test

__all__ = [
    "SimConfig",
    "rng_stream",
    "generate_dataset",
    "mc_sweep",
    "mc_mse",
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("gamma", "noise_sd"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if not -1.0 < self.cov_rho < 1.0:
            raise ValueError("cov_rho must lie in (-1, 1)")
        half = self.gamma / 2.0
        try:  # each term of a curve is monotone in u or |u|: check the range's ends and u0
            for u in (-half, half, self.u0):
                self.theta(u)
        except OverflowError:
            raise ValueError(f"theta_spec {self.theta_spec!r} overflows on the source "
                             f"range [{-half!r}, {half!r}] of gamma={self.gamma!r}") from None

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


def _draw_x(
    rng: np.random.Generator, n: int, chol_t: np.ndarray, blocks: int = 1
) -> np.ndarray:
    """``blocks`` stacked designs of ``n`` rows: an intercept column plus
    N(0, Sigma) covariates, ``chol_t = _covariate_factor(p, rho)``.

    The normals come from one draw; each block is transformed on its own,
    so every block has the bits of a separate ``n``-row draw (a
    single-row product would otherwise take another BLAS path).
    """
    q = chol_t.shape[0]
    x = np.ones((blocks * n, q + 1))
    if q:
        normals = rng.standard_normal((blocks * n, q))
        for k in range(0, blocks * n, n):
            x[k : k + n, 1:] = normals[k : k + n] @ chol_t
    return x


def _draw_y(
    rng: np.random.Generator, eta: np.ndarray, family_kind: str, noise_sd: float
) -> np.ndarray:
    """Responses at linear predictor ``eta``: Gaussian noise of sd ``noise_sd``,
    or Bernoulli / Poisson draws at the family's mean ``b'(eta)``.  A Poisson
    mean beyond what numpy can draw raises DomainError."""
    family = get_family(family_kind)
    if family.kind == "gaussian":
        return eta + noise_sd * rng.standard_normal(eta.shape[0])
    if family.kind == "logistic":
        return rng.binomial(1, family.b1(eta)).astype(float)
    with np.errstate(over="ignore"):
        mean = family.b1(eta)
    try:
        return rng.poisson(mean).astype(float)
    except ValueError as exc:
        raise DomainError(f"the Poisson mean exp(eta) reaches {float(mean.max())!r}, "
                          f"which numpy cannot draw from ({exc}); lower --gamma or "
                          f"u0 so that theta(u) stays smaller") from None


def generate_dataset(config: SimConfig, rep: int) -> tuple[DomainSample, Panel]:
    """Draw one replication: target domain of size 2 n0 plus a panel of K sources.

    Source identifiers are uniform on (-gamma/2, gamma/2); the target sits
    at ``u0``.  Streams are derived from (config.seed, rep) per role, so
    identical inputs reproduce identical data.
    """
    theta = config.theta
    u_rng = rng_stream(config.seed, rep, "source_u")
    us = u_rng.uniform(-config.gamma / 2.0, config.gamma / 2.0, config.K)
    chol_t = _covariate_factor(config.p, config.cov_rho)

    # one draw per role for all K sources: the streams are consumed in the
    # same order as K per-source draws, so every value is the same; the
    # batched product has the bits of K per-source products
    x = _draw_x(rng_stream(config.seed, rep, "source_x"), config.n_bar, chol_t, config.K)
    thetas = np.stack([theta(u) for u in us.tolist()])[:, :, None]  # (K, p, 1)
    eta = np.matmul(x.reshape(config.K, config.n_bar, config.p), thetas).ravel()
    y = _draw_y(rng_stream(config.seed, rep, "source_y"), eta, config.family,
                config.noise_sd)
    sources = Panel(x=x, y=y, u=us, offsets=np.arange(config.K + 1) * config.n_bar)

    tx_rng = rng_stream(config.seed, rep, "target_x")
    ty_rng = rng_stream(config.seed, rep, "target_y")
    x0 = _draw_x(tx_rng, 2 * config.n0, chol_t)
    eta0 = x0 @ theta(config.u0)
    y0 = _draw_y(ty_rng, eta0, config.family, config.noise_sd)
    target = DomainSample(u=config.u0, x=x0, y=y0)
    return target, sources


def _replicate(
    config: SimConfig,
    grid: tuple,
    estimators: tuple,
    rep: int,
    *,
    q_matrices: Sequence | None = None,
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
    target, sources = generate_dataset(config, rep)
    n0 = target.n // 2
    problem = TransferProblem(
        target.rows(0, n0), target.rows(n0), sources, config.u0, get_family(config.family),
        order=config.order, beta=config.beta, delta=config.delta, gamma=config.gamma,
        e0=config.e0,
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
                pilot = problem.pilot(h)
                estimates["dvcm"] = pilot.theta
            if "tl" in estimators:
                q = q_matrices[i] if config.q_mode == "oracle" else fixed_q
                v_dvcm = None
                if q is None:  # data-driven; its penalty holds the pilot's sandwich
                    pen = problem.penalty(pilot)
                    q, v_dvcm = pen.q, pen.var_mat
                theta_tl = problem.fine_tune(pilot, q).theta_tl
                estimates["tl"] = (
                    (theta_tl, problem.covariance(pilot, q, v_dvcm).sigma_tl)
                    if want_sigma else theta_tl
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
    n_success: int


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
        m = np.zeros((config.p, config.p))
        for err in errors:
            m += np.outer(err, err)
        m /= len(errors)
        q_matrices.append(config.delta * nu / config.n0 * np.linalg.inv(0.5 * (m + m.T)))
    return q_matrices


def _outcomes(
    config: SimConfig, grid: tuple, estimators: tuple, threads: int, *,
    want_sigma: bool = False,
) -> list:
    """``_replicate`` of every replication, in order, after the oracle pass if tl
    needs one; serial at one thread, else chunked over one pool for both passes."""
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    reps, chunk = range(config.reps), max(1, config.reps // (4 * threads))
    # read from the module, which imports the class on first use (__getattr__)
    pool_type = sys.modules[__name__].ProcessPoolExecutor if threads > 1 else None
    with pool_type(max_workers=threads) if pool_type else nullcontext() as pool:
        def run(ests, **kwargs):
            replicate = functools.partial(_replicate, config, grid, ests, **kwargs)
            if pool is None:
                return [replicate(rep) for rep in reps]
            return list(pool.map(replicate, reps, chunksize=chunk))

        q_matrices = None
        if "tl" in estimators and config.q_mode == "oracle":
            q_matrices = _oracle_q_matrices(config, run(("dvcm",)))
        return run(estimators, q_matrices=q_matrices, want_sigma=want_sigma)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: the pool's modules
    (multiprocessing, socket, logging, queue, ...) load only when an
    experiment runs on more than one thread."""
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
    return McMseResult(mse=mse, se=se, fails=fails, n_success=int(errors.size))


def mc_sweep(
    config: SimConfig,
    grid: Sequence[float | None],
    estimators: Sequence[str],
    *,
    threads: int = 1,
) -> list[McMseResult]:
    """Monte-Carlo MSE of every (h, estimator) cell, in one pass per replication.

    Cells come back h outer; ``h=None`` uses the configured bandwidth
    rule.  Every cell equals the same cell run alone by ``mc_mse``; the
    first cell in grid order with more than 20% failed replications
    aborts the sweep, as does an oracle pass (``q_mode="oracle"``) in
    which some h never fits a pilot.  Results are averaged in replication
    order, so they are bit-identical for any ``threads``.
    """
    grid, estimators = tuple(grid), tuple(estimators)
    if not estimators or not set(estimators) <= set(_ESTIMATORS):
        raise ValueError(f"estimator must be one of {_ESTIMATORS}")
    if not grid:
        raise ValueError("mc_sweep needs a nonempty grid")
    if config.reps < 2:
        raise ValueError("mc_sweep needs at least 2 replications")
    outcomes = _outcomes(config, grid, estimators, threads)
    return [_mse_result(config, cell) for cell in zip(*outcomes)]


def mc_mse(
    config: SimConfig, estimator: str, h: float | None = None, *, threads: int = 1
) -> McMseResult:
    """Monte-Carlo mean of ||theta_hat - theta(u0)||^2 with its standard error.

    A one-cell ``mc_sweep``: failed replications are skipped and counted;
    more than 20% failures aborts the experiment.
    """
    return mc_sweep(config, [h], [estimator], threads=threads)[0]


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
    outcomes = _outcomes(config, (h,), ("tl",), threads, want_sigma=True)
    theta_true = config.theta(config.u0)
    thetas, ses, walds = [], [], []
    fails = 0
    for (r,) in outcomes:
        variances = None if r is None else np.diag(r[1])
        # variances at round-off scale (noiseless data) make the
        # standardisation meaningless: the replication counts as failed
        if variances is None or not np.all(np.isfinite(variances) & (variances > 1e-28)):
            fails += 1
            continue
        theta_tl, sigma = r
        thetas.append(theta_tl)
        ses.append(np.sqrt(variances))
        stat, df, p = wald_test(theta_tl, sigma, theta_true)
        walds.append(p)
    _check_tolerance(fails, config.reps)
    return InferenceRecords(
        theta_tl=np.array(thetas),
        se=np.array(ses),
        theta_true=theta_true,
        wald_p=np.array(walds),
        fails=fails,
    )


def fit_loglog_slopes(
    xs: Sequence[float], ys: Sequence[float], n_segments: int
) -> list[tuple[float, float]]:
    """Continuous piecewise-linear least squares in log-log space.

    Breakpoints are searched exhaustively over the grid points; each
    segment must span at least two grid intervals.  Returns one
    ``(segment_start_x, slope)`` pair per segment, in original units.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be one-dimensional with equal length")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    if xs.size < 2 * n_segments + 2:
        raise ValueError(
            f"need at least {2 * n_segments + 2} points for {n_segments} segments"
        )
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive xs and ys")
    lx, ly = np.log(xs), np.log(ys)
    n = xs.size

    best = None
    for combo in itertools.combinations(range(2, n - 2), n_segments - 1):
        if any(b - a < 2 for a, b in zip(combo, combo[1:])):
            continue  # each segment must cover at least two grid intervals
        cols = [np.ones(n), lx]
        for i in combo:
            cols.append(np.maximum(lx - lx[i], 0.0))
        a = np.column_stack(cols)
        coef, _, _, _ = np.linalg.lstsq(a, ly, rcond=None)
        sse = float(np.sum((a @ coef - ly) ** 2))
        if best is None or sse < best[0] - 1e-15:
            best = (sse, combo, coef)

    _, combo, coef = best
    slopes = np.cumsum(coef[1:])
    starts = [float(xs[0])] + [float(xs[i]) for i in combo]
    return list(zip(starts, [float(s) for s in slopes]))


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
