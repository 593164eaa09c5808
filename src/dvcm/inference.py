"""The transfer pipeline, its unified covariance, Wald tests, intervals.

:class:`TransferProblem` is the one estimation chain (pooled pilot,
penalty Q_hat, fine-tune, covariance), run by ``fit``/``infer``, which
also take their full-target lr and dvcm estimates from it, and by every
Monte-Carlo replication; it is the one place that reuses work.  It
stacks its pooled panel once and keeps every ingredient that does not
depend on the pilot bandwidth (the target-only fits, the Pearson scale,
the derivative plug-in), so each bandwidth fits the pilot and hands it,
with the arrays the chain built itself, straight to the penalty's
implementation, which reads the bias's moments off the kernel window the
pilot located: nothing is converted, re-checked or located again.

The transfer estimator is a matrix-weighted combination of the target-only
fit and the pooled pilot, so its covariance combines both ingredients:

    Sigma_TL = B^{-1} Q V_DVCM Q B^{-1} + B^{-1} Psi V_LR Psi B^{-1},
    B = Psi + Q.

``V_LR`` is the robust sandwich of the target-only fit divided by ``n0``
(estimator-variance scale, matching ``V_DVCM``), so Sigma_TL standardises
``theta_TL - theta(u0)`` directly; :meth:`TransferProblem.covariance`
assembles it on the ``gram`` / ``spd_factor`` primitives of
:mod:`dvcm.estimators`.  Tail probabilities use ``scipy.special``'s
ufuncs, reached as :mod:`dvcm.estimators` describes, so that ``import dvcm``
never loads ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._scipy import extension
from .bandwidth import BandwidthChoice, select_bandwidth, select_bandwidth_median
from .design import DomainSample, Panel
from .errors import DvcmError, SingularSystemError
from .estimators import (LocalFit, TLFit, fit_dvcm, fit_target_only, fit_tl, gram,
                         spd_factor, spd_solve)
from .families import ModelFamily
from .penalty import (PenaltyEstimate, _penalty, estimate_derivative, estimate_scale,
                      estimate_variance_sandwich)

__all__ = [
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

_ufuncs = extension("special", "_ufuncs")
erfc, gammaincc, ndtri = _ufuncs.erfc, _ufuncs.gammaincc, _ufuncs.ndtri


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
    return float(gammaincc(df / 2.0, x / 2.0))


def normal_sf(z: float) -> float:
    """Standard normal upper tail via erfc."""
    return float(0.5 * erfc(z / np.sqrt(2.0)))


def normal_quantile(q: float) -> float:
    """Standard normal quantile."""
    return float(ndtri(q))


def psi_hat(
    target: DomainSample, theta_hat: np.ndarray, family: ModelFamily
) -> np.ndarray:
    """Second-moment matrix (1/n0) sum b''(x' theta) x x' (Gaussian: b'' = 1)."""
    x = target.x
    w = family.b2(x @ np.asarray(theta_hat, dtype=float))
    return gram(x, w) / target.n


def v_hat_target(
    target: DomainSample, theta_hat: np.ndarray, family: ModelFamily
) -> np.ndarray:
    """Robust sandwich variance of the target-only estimator itself.

    ``Psi^{-1} [(1/n0) sum x x' (y - b'(x' theta))^2] Psi^{-1} / n0``; the
    trailing ``1/n0`` puts the plug-in limit covariance on the
    estimator-variance scale.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    return _target_sandwich(target, theta_hat, psi_hat(target, theta_hat, family), family)


def _target_sandwich(target, theta_hat, psi, family) -> np.ndarray:
    """``v_hat_target`` given its ``psi = psi_hat(target, theta_hat, family)``."""
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


class _cached_outcome:
    """Like ``cached_property``, but a raised DvcmError is kept as well:
    the first read computes, every later read returns the same value or
    raises the same error."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.key = f"_{name}_outcome"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.key not in obj.__dict__:
            try:
                obj.__dict__[self.key] = (self.compute(obj), None)
            except DvcmError as exc:
                obj.__dict__[self.key] = (None, exc)
        value, exc = obj.__dict__[self.key]
        if exc is not None:
            raise exc
        return value


@dataclass(frozen=True)
class TransferProblem:
    """Transfer fit of theta(u0) from a split target and the source domains.

    ``pilot_part`` is pooled with ``sources`` for the pilot and feeds the
    penalty; ``fine`` is fine-tuned on and gives Psi_hat and V_LR.  The
    pooled panel, ``pilot_part`` followed by ``sources``, is stacked once,
    at construction, and ``sources`` then views it: the problem keeps no
    reference to the caller's source arrays.  The cached properties do
    not depend on the pilot bandwidth, so fits at several bandwidths
    share them, a raised DvcmError included.  Construction checks every
    response against ``family`` (:meth:`ModelFamily.check_response`).
    """

    pilot_part: DomainSample
    fine: DomainSample
    sources: Panel | Sequence[DomainSample]
    u0: float
    family: ModelFamily
    order: int = 1
    beta: float = 2.0
    delta: float = 1.0
    gamma: float = 1.0
    e0: float = 1.0
    pooled: Panel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pooled = Panel.pooled(self.pilot_part, self.sources)
        self.family.check_response(pooled.y)
        self.family.check_response(self.fine.y)
        self.__dict__.update(pooled=pooled, sources=pooled[1:])

    @_cached_outcome
    def theta_lr(self) -> np.ndarray:
        """Target-only fit on ``fine``."""
        return fit_target_only(self.fine, self.family)

    @_cached_outcome
    def theta_glr(self) -> np.ndarray:
        """Target-only fit on ``pilot_part``, for the penalty's scale."""
        return fit_target_only(self.pilot_part, self.family)

    @_cached_outcome
    def scale(self) -> float:
        """Pearson scale of ``theta_glr`` on ``pilot_part``, for the penalty."""
        return estimate_scale(self.pilot_part, self.theta_glr, self.family)

    def bandwidth(self, rule: str, *, c: float, epsilon: float,
                  h: float | None = None) -> BandwidthChoice:
        """:func:`select_bandwidth`'s ``rule`` on this problem's sources, whose
        rate term also counts the ``pilot_part`` rows pooled with them."""
        return select_bandwidth(rule, self.sources, self.u0, self.beta, self.gamma,
                                e0=self.e0, c=c, epsilon=epsilon,
                                n_extra=self.pilot_part.n, h=h)

    @_cached_outcome
    def h_deriv(self) -> float:
        """Derivative-fit bandwidth: the median rule, whatever the pilot's h."""
        return select_bandwidth_median(self.sources, self.u0, self.beta, self.gamma,
                                       self.e0, n_extra=self.pilot_part.n).h

    @_cached_outcome
    def derivative(self) -> np.ndarray:
        """theta^(beta)(u0), for the penalty's bias."""
        return estimate_derivative(self.pooled, self.u0, self.h_deriv, self.beta,
                                   self.family, self._newton_start())

    def pilot(self, h: float) -> LocalFit:
        return fit_dvcm(self.pooled, self.u0, h, self.order, self.family,
                        self._newton_start())

    def full_target(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """``fit``'s lr and dvcm estimates: the target-only fit of ``pilot_part``
        and ``fine`` stacked in that order, then the pooled fit at ``h`` of that
        union with ``sources``, started from it."""
        train = DomainSample._view(self.u0, np.vstack([self.pilot_part.x, self.fine.x]),
                                   np.concatenate([self.pilot_part.y, self.fine.y]))
        theta = fit_target_only(train, self.family)
        return theta, fit_dvcm(Panel.pooled(train, self.sources), self.u0, h, self.order,
                               self.family, theta).theta

    def _newton_start(self) -> np.ndarray | None:
        """``theta_glr`` as the Newton start of the pooled fits, whose nearest
        domain is ``pilot_part``; zeros if singular, None (unused) for Gaussian."""
        if self.family.kind == "gaussian":
            return None
        try:
            return self.theta_glr
        except SingularSystemError:
            return np.zeros(self.pilot_part.p)

    def _derivative(self) -> np.ndarray:  # read only when the bias needs it
        return self.derivative

    def penalty(self, pilot: LocalFit) -> PenaltyEstimate:
        """Data-driven shrinkage matrix Q_hat at the bandwidth of ``pilot``,
        which must come from this problem's ``pilot(h)``: the bias's moments
        read its kernel window."""
        design = pilot.design
        if not (design.window.panel is self.pooled and design.center == self.u0
                and design.order == self.order):
            raise ValueError("penalty() takes a pilot made by this problem's pilot(h)")
        self.h_deriv  # its argument checks run even when the bias needs no derivative
        return _penalty(pilot, self.beta, self.delta, self.family, self.scale, self.fine.n,
                        self._derivative)

    def fine_tune(self, pilot: LocalFit, q: np.ndarray) -> TLFit:
        return fit_tl(self.fine, pilot.theta, q, self.family)

    def covariance(self, pilot: LocalFit, q: np.ndarray,
                   v_dvcm: np.ndarray | None = None) -> CovarianceReport:
        """Sigma_TL of ``fine_tune(pilot, q)``; ``v_dvcm`` is the pilot's
        sandwich when already known (``penalty(pilot).var_mat``)."""
        psi = psi_hat(self.fine, self.theta_lr, self.family)
        v_lr = _target_sandwich(self.fine, self.theta_lr, psi, self.family)
        if v_dvcm is None:
            v_dvcm = estimate_variance_sandwich(pilot, self.family)
        return sigma_tl(psi, q, v_lr, v_dvcm)


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


def confidence_intervals(
    theta_tl: np.ndarray, sigma: np.ndarray, level: float
) -> np.ndarray:
    """Marginal normal intervals theta_j +/- z_{1-alpha/2} sqrt(Sigma_jj).

    Returns an array of shape (p, 2) of (low, high) pairs.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    theta_tl = np.asarray(theta_tl, dtype=float)
    se = np.sqrt(np.diag(np.asarray(sigma, dtype=float)))
    z = normal_quantile(0.5 + level / 2.0)
    return np.column_stack([theta_tl - z * se, theta_tl + z * se])
