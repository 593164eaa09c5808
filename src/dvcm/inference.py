"""The transfer pipeline, its unified covariance, Wald tests, intervals,
and :class:`FitConfig`, the settings that ``dvcm fit`` and ``infer`` run it with.

:class:`TransferProblem` is the one estimation chain (pooled pilot,
penalty Q_hat, fine-tune, covariance), run by ``fit``/``infer``, which
also take their full-target lr and dvcm estimates from it, and by every
Monte-Carlo replication; :meth:`TransferProblem.penalty` is the one way
to Q_hat.  The problem takes its pooled panel as its caller made it,
pilot part first, stacks no rows of its own and keeps every ingredient
that does not depend on the pilot bandwidth (the target-only fits, the
Pearson scale, the derivative plug-in fitted at the median-rule
bandwidth), so each bandwidth fits only the pilot, whose kernel window
the penalty's bias reads: nothing is converted, re-checked or located
again.  Every later stage takes h, and the problem keeps the pilot and
its sandwich for the latest h: no caller passes a fit or matrix back in.

The transfer estimator is a matrix-weighted combination of the target-only
fit and the pooled pilot, so its covariance combines both ingredients:

    Sigma_TL = B^{-1} Q V_DVCM Q B^{-1} + B^{-1} Psi V_LR Psi B^{-1},
    B = Psi + Q.

``V_LR`` is the robust sandwich of the target-only fit divided by ``n0``
(estimator-variance scale, matching ``V_DVCM``), so Sigma_TL standardises
``theta_TL - theta(u0)`` directly; :meth:`TransferProblem.covariance`
assembles it on the ``gram`` / ``spd_factor`` primitives of
:mod:`dvcm.estimators`.  Tail probabilities use ``scipy.special``'s
ufuncs, loaded on first use as :mod:`dvcm._scipy` describes, so that
``import dvcm`` loads neither them nor ``scipy.stats``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field

import numpy as np

from ._scipy import special_ufuncs
from .bandwidth import BandwidthChoice, _check_settings, select_bandwidth
from .dataio import _check_bins, _check_fractions, _check_sigma_k, _check_u_source, _parse_list
from .design import Panel, _check_order
from .errors import DvcmError, SingularSystemError
from .estimators import (LocalFit, TLFit, fit_dvcm, fit_target_only, fit_tl, gram,
                         spd_factor, spd_solve)
from .families import FAMILIES, ModelFamily
from .penalty import (PenaltyEstimate, _check_delta, _penalty, estimate_derivative,
                      estimate_scale, estimate_variance_sandwich)

__all__ = [
    "FitConfig",
    "CovarianceReport",
    "TransferProblem",
    "psi_hat",
    "v_hat_target",
    "sigma_tl",
    "wald_test",
    "contrast_test",
    "confidence_intervals",
    "chi2_sf",
    "normal_sf",
    "normal_quantile",
]


@dataclass(frozen=True)
class CovarianceReport:
    """Unified covariance with all its ingredients."""

    sigma_tl: np.ndarray
    psi_hat: np.ndarray
    v_lr: np.ndarray
    v_dvcm: np.ndarray
    b_q: np.ndarray


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularised incomplete gamma."""
    if x < 0:
        return 1.0
    return float(special_ufuncs().gammaincc(df / 2.0, x / 2.0))


def normal_sf(z: float) -> float:
    """Standard normal upper tail via erfc."""
    return float(0.5 * special_ufuncs().erfc(z / np.sqrt(2.0)))


def normal_quantile(q: float) -> float:
    """Standard normal quantile."""
    return float(special_ufuncs().ndtri(q))


def psi_hat(
    target: Panel, theta_hat: np.ndarray, family: ModelFamily
) -> np.ndarray:
    """Second-moment matrix (1/n0) sum b''(x' theta) x x' (Gaussian: b'' = 1)."""
    x = target.x
    w = family.b2(x @ np.asarray(theta_hat, dtype=float))
    return gram(x, w) / target.n


def v_hat_target(target: Panel, theta_hat: np.ndarray, psi: np.ndarray,
                 family: ModelFamily) -> np.ndarray:
    """Robust sandwich variance of the target-only estimator itself.

    ``Psi^{-1} [(1/n0) sum x x' (y - b'(x' theta))^2] Psi^{-1} / n0`` with
    ``psi = psi_hat(target, theta_hat, family)``; the trailing ``1/n0`` puts
    the plug-in limit covariance on the estimator-variance scale.
    """
    x = target.x
    resid = target.y - family.b1(x @ theta_hat)
    meat = gram(x, resid**2) / target.n
    c = spd_factor(psi, "Psi_hat")
    v = spd_solve(c, spd_solve(c, meat).T) / target.n
    return 0.5 * (v + v.T)


def sigma_tl(
    psi: np.ndarray, q: np.ndarray, v_lr: np.ndarray, v_dvcm: np.ndarray
) -> CovarianceReport:
    """Assemble the unified covariance of the transfer estimator."""
    psi = np.asarray(psi, dtype=float)
    q = np.asarray(q, dtype=float)
    b_q = psi + q
    c = spd_factor(b_q, "B_Q = Psi_hat + Q_hat")

    def congruence(m, inner):
        # B^{-1} m inner m' B^{-1}
        left = spd_solve(c, m)
        return left @ inner @ left.T

    sig = congruence(q, np.asarray(v_dvcm, dtype=float)) + congruence(
        psi, np.asarray(v_lr, dtype=float)
    )
    sig = 0.5 * (sig + sig.T)
    return CovarianceReport(sigma_tl=sig, psi_hat=psi, v_lr=v_lr, v_dvcm=v_dvcm, b_q=b_q)


def _latest(compute):
    """``compute(self, *args)`` keeping its latest outcome on ``self``, a raised DvcmError
    without its traceback too: the same arguments return or raise it again, others
    replace it.  A method of ``self`` alone becomes a property."""
    key = f"_{compute.__name__}_latest"

    @functools.wraps(compute)
    def method(self, *args):
        kept = self.__dict__.get(key)
        if kept is None or kept[0] != args:
            try:
                kept = (args, compute(self, *args), None)
            except DvcmError as exc:
                kept = (args, None, exc.with_traceback(None))
            self.__dict__[key] = kept
        if kept[2] is None:
            return kept[1]
        del kept  # the error's traceback holds this frame: a replaced error is freed at once
        raise self.__dict__[key][2]

    return property(method) if compute.__code__.co_argcount == 1 else method


@dataclass(frozen=True)
class TransferProblem:
    """Transfer fit of theta(u0) from a split target and the source domains.

    ``pooled`` holds the target's pilot split as domain 0, followed by the
    sources; the pilot is fitted on it and the pilot split feeds the
    penalty.  ``fine``, the target's other split, is fine-tuned on and
    gives Psi_hat and V_LR.  ``pilot_part`` and ``sources`` view
    ``pooled``: the problem stacks no rows.  It keeps its results, a raised
    DvcmError too: the properties, which fits at every pilot bandwidth share,
    and ``pilot(h)`` and its sandwich for the latest ``h``.  Construction checks
    every response against ``family`` (:meth:`ModelFamily.check_response`).
    """

    pooled: Panel
    fine: Panel
    u0: float
    family: ModelFamily
    order: int = 1
    beta: float = 2.0
    delta: float = 1.0
    gamma: float = 1.0
    e0: float = 1.0
    pilot_part: Panel = field(init=False, repr=False, compare=False)
    sources: Panel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pooled) < 2:
            raise ValueError("the pooled panel needs the pilot split and a source domain")
        self.family.check_response(self.pooled.y)
        self.family.check_response(self.fine.y)
        self.__dict__.update(pilot_part=self.pooled[0], sources=self.pooled[1:])

    @_latest
    def theta_lr(self) -> np.ndarray:
        """Target-only fit on ``fine``."""
        return fit_target_only(self.fine, self.family)

    @_latest
    def theta_glr(self) -> np.ndarray:
        """Target-only fit on ``pilot_part``, for the penalty's scale."""
        return fit_target_only(self.pilot_part, self.family)

    @_latest
    def scale(self) -> float:
        """Pearson scale of ``theta_glr`` on ``pilot_part``, for the penalty."""
        return estimate_scale(self.pilot_part, self.theta_glr, self.family)

    def bandwidth(self, rule: str, *, c: float = 1.0, epsilon: float = 0.2,
                  h: float | None = None) -> BandwidthChoice:
        """:func:`select_bandwidth`'s ``rule`` on this problem's sources, whose
        rate term also counts the ``pilot_part`` rows pooled with them; ``c``
        and ``epsilon`` default to :func:`select_bandwidth`'s."""
        return select_bandwidth(rule, self.sources, self.u0, self.beta, self.gamma,
                                e0=self.e0, c=c, epsilon=epsilon,
                                n_extra=self.pilot_part.n, h=h)

    @_latest
    def h_deriv(self) -> float:
        """Derivative-fit bandwidth: the median rule, whatever the pilot's h."""
        return self.bandwidth("median").h

    @_latest
    def derivative(self) -> np.ndarray:
        """theta^(beta)(u0), for the penalty's bias."""
        return estimate_derivative(self.pooled, self.u0, self.h_deriv, self.beta,
                                   self.family, self._newton_start())

    @_latest
    def pilot(self, h: float) -> LocalFit:
        """The pooled local-polynomial fit at ``h``, kept for the latest ``h``."""
        return fit_dvcm(self.pooled, self.u0, h, self.order, self.family,
                        self._newton_start())

    @_latest
    def _sandwich(self, h: float) -> np.ndarray:
        """V_DVCM, the sandwich of ``pilot(h)``, kept for the latest ``h``."""
        return estimate_variance_sandwich(self.pilot(h), self.family)

    def full_target(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """``fit``'s lr and dvcm estimates: the target-only fit of ``pilot_part``
        and ``fine`` stacked in that order, then the pooled fit at ``h`` of those
        two domains with ``sources``, started from it."""
        panel = Panel.of([self.pilot_part, self.fine, self.sources])
        theta = fit_target_only(panel[:2], self.family)
        return theta, fit_dvcm(panel, self.u0, h, self.order, self.family, theta).theta

    def _newton_start(self) -> np.ndarray | None:
        """``theta_glr`` as the Newton start of the pooled fits, whose nearest
        domain is ``pilot_part``; zeros if singular, None (unused) for Gaussian."""
        if self.family.kind == "gaussian":
            return None
        try:
            return self.theta_glr
        except SingularSystemError:
            return np.zeros(self.pilot_part.p)

    def penalty(self, h: float) -> PenaltyEstimate:
        """Data-driven shrinkage matrix Q_hat at the pilot bandwidth ``h``: the
        bias reads the kernel window of ``pilot(h)``, V_hat is its sandwich."""
        pilot = self.pilot(h)
        self.h_deriv  # its argument checks run even when the bias needs no derivative
        return _penalty(pilot, self.beta, self.delta, self.scale, self.fine.n,
                        lambda: self.derivative,  # read only when the bias needs it
                        lambda: self._sandwich(h))

    def fine_tune(self, h: float, q: np.ndarray) -> TLFit:
        return fit_tl(self.fine, self.pilot(h).theta, q, self.family)

    def covariance(self, h: float, q: np.ndarray) -> CovarianceReport:
        """Sigma_TL of ``fine_tune(h, q)``, on the pilot's kept sandwich."""
        psi = psi_hat(self.fine, self.theta_lr, self.family)
        v_lr = v_hat_target(self.fine, self.theta_lr, psi, self.family)
        return sigma_tl(psi, q, v_lr, self._sandwich(h))


def wald_test(
    theta_tl: np.ndarray, sigma: np.ndarray, null_value: np.ndarray
) -> tuple[float, int, float]:
    """Chi-square test of theta(u0) = null_value.

    Returns ``(statistic, df, p_value)`` with
    ``statistic = (theta - w)' Sigma^{-1} (theta - w)``.
    """
    theta_tl = np.asarray(theta_tl, dtype=float)
    null_value = np.asarray(null_value, dtype=float)
    if theta_tl.shape != null_value.shape:
        raise ValueError("null vector dimension mismatch")
    diff = theta_tl - null_value
    c = spd_factor(np.asarray(sigma, dtype=float), "Sigma_TL")
    stat = float(diff @ spd_solve(c, diff))
    df = theta_tl.size
    return stat, df, chi2_sf(stat, df)


def contrast_test(
    theta_tl: np.ndarray, sigma: np.ndarray, v: np.ndarray, zeta: float
) -> tuple[float, float]:
    """Two-sided z-test of the linear contrast v' theta(u0) = zeta."""
    v = np.asarray(v, dtype=float)
    denom = float(v @ np.asarray(sigma, dtype=float) @ v)
    if denom <= 0:
        raise ValueError("contrast variance v' Sigma v must be positive")
    z = (float(v @ np.asarray(theta_tl, dtype=float)) - zeta) / np.sqrt(denom)
    return z, 2.0 * normal_sf(abs(z))


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")


def confidence_intervals(
    theta_tl: np.ndarray, sigma: np.ndarray, level: float
) -> np.ndarray:
    """Marginal normal intervals theta_j +/- z_{1-alpha/2} sqrt(Sigma_jj).

    Returns an array of shape (p, 2) of (low, high) pairs.
    """
    _check_level(level)
    theta_tl = np.asarray(theta_tl, dtype=float)
    se = np.sqrt(np.diag(np.asarray(sigma, dtype=float)))
    z = normal_quantile(0.5 + level / 2.0)
    return np.column_stack([theta_tl - z * se, theta_tl + z * se])


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _flag(default=MISSING, text=None, **metadata):
    """A field whose flag has the help ``text``; without a default the flag is required."""
    return field(default=default, metadata={"help": text, **metadata})


@dataclass(frozen=True, kw_only=True)
class FitConfig:
    """The flags of ``dvcm fit`` and ``infer`` as given (``infer`` alone offers the
    three with ``metadata["infer"]``), and the values read from them."""

    data: str = _flag(text="input CSV file")
    u_col: str | None = _flag(None, "domain identifier column")
    u_expr: str | None = _flag(None, "expression over columns defining U: + - * /, unary + -, "
                                     "parentheses, numbers and column names (keywords too)")
    x_cols: str = _flag(text="comma-separated covariate columns")
    y_col: str = _flag(text="response column")
    no_intercept: bool = _flag(False, "do not prepend an intercept column")
    u0: float = _flag(text="target domain identifier")
    family: str = _flag("gaussian", "response family", choices=tuple(FAMILIES))
    order: int = _flag(1, "local polynomial order l")
    beta: float = _flag(2.0, "smoothness parameter")
    bandwidth: str = _flag("auto", "auto | undersmooth | positive number")
    gamma: float | None = _flag(None, "domain dispersion scale (default: moment estimate)")
    e0: float = _flag(1.0, "median-rule constant")
    bw_c: float = _flag(1.0, "undersmoothing constant")
    epsilon: float = _flag(0.2, "undersmoothing exponent bump")
    delta: float = _flag(1.0, "penalty scale in (1/2, 2)")
    seed: int = _flag(0, "root RNG seed")
    split: str = _flag("1/3,1/3,1/3", "target split fractions, e.g. 1/3,1/3,1/3")
    bins: int = _flag(10, "number of identifier bins")
    sigma_k: float = _flag(3.0, "identifier outlier threshold in standard deviations")
    level: float = _flag(0.95, "confidence level")
    out: str | None = _flag(None, "output report path (default: stdout)")
    null_theta: str | None = _flag(None, "comma-separated null vector for the Wald test",
                                   infer=True)
    contrast: str | None = _flag(None, "comma-separated contrast vector", infer=True)
    zeta: float | None = _flag(None, "null value of the contrast (default: 0)", infer=True)
    # read from the flags: the covariate names, the split, select_bandwidth's rule
    # for --bandwidth and its fixed h, the Wald test's null and the contrast v
    x_columns: list = field(init=False, repr=False)
    fractions: list = field(init=False, repr=False)
    rule: str = field(init=False, repr=False)
    h: float | None = field(init=False, repr=False)
    null: np.ndarray | None = field(init=False, repr=False, compare=False)
    v: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_seed(self.seed)
        if not math.isfinite(self.u0):
            raise ValueError(f"--u0 must be a finite number, got {self.u0}")
        rule = {"auto": "median", "undersmooth": "undersmoothed"}.get(self.bandwidth, "fixed")
        try:
            h = float(self.bandwidth) if rule == "fixed" else None
        except ValueError:
            raise ValueError(f"--bandwidth {self.bandwidth!r} is not auto, undersmooth "
                             f"or a positive number") from None
        # the rule's, the median rule's (the derivative's h) and --bw-c, --epsilon always
        for each in (rule, "median", "undersmoothed"):
            _check_settings(each, self.beta, self.gamma, self.e0, self.bw_c, self.epsilon, h)
        _check_order(self.order)
        fractions = _parse_list(self.split, "--split", "fraction")
        if len(fractions) < 2:
            raise ValueError(
                f"--split needs at least 2 parts (pilot, fine-tune), got {self.split!r}")
        _check_fractions(fractions)
        _check_level(self.level)
        _check_delta(self.delta)
        _check_bins(self.bins)
        _check_sigma_k(self.sigma_k)
        _check_u_source(self.u_col, self.u_expr)
        x_columns = _parse_list(self.x_cols, "--x-cols", "name")
        if not x_columns and self.no_intercept:  # theta(u0) would have no coefficient
            raise ValueError("no coefficient to fit: --x-cols names no column "
                             "and --no-intercept drops the intercept")
        dim = len(x_columns) + (not self.no_intercept)  # theta(u0)'s coefficients
        for name, text, flag in (("null", self.null_theta, "--null-theta"),
                                 ("v", self.contrast, "--contrast")):
            vec = None if text is None else np.asarray(_parse_list(text, flag))
            if vec is not None and vec.size != dim:
                raise ValueError(f"{flag} has {vec.size} entries, expected {dim}")
            if vec is not None and not np.all(np.isfinite(vec)):
                raise ValueError(f"{flag} entries must be finite, got {vec.tolist()}")
            self.__dict__[name] = vec
        if self.v is not None and not self.v.any():  # v' Sigma v would be 0 after the fit
            raise ValueError(f"--contrast needs a nonzero entry, got {self.v.tolist()}")
        if self.zeta is not None and self.v is None:
            raise ValueError("--zeta is the null value of a contrast: it needs --contrast")
        if self.zeta is not None and not math.isfinite(self.zeta):
            raise ValueError(f"--zeta must be finite, got {self.zeta}")
        self.__dict__.update(x_columns=x_columns, fractions=fractions, rule=rule, h=h)
