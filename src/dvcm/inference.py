"""Unified covariance of the transfer estimator, Wald tests, intervals.

The transfer estimator is a matrix-weighted combination of the target-only
fit and the pooled pilot, so its covariance combines both ingredients:

    Sigma_TL = B^{-1} Q V_DVCM Q B^{-1} + B^{-1} Psi V_LR Psi B^{-1},
    B = Psi + Q.

``V_LR`` is the robust sandwich of the target-only fit divided by ``n0``
(estimator-variance scale, matching ``V_DVCM``), so Sigma_TL standardises
``theta_TL - theta(u0)`` directly; :func:`transfer_covariance` assembles
it from a fit, on the ``gram`` / ``spd_factor`` primitives of
:mod:`dvcm.estimators`.  Tail probabilities use ``scipy.special``
(``scipy.stats`` would double the package import time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import erfc, gammaincc, ndtri

from .design import DomainSample
from .estimators import LocalFit, gram, spd_factor
from .families import ModelFamily
from .penalty import estimate_variance_sandwich

__all__ = [
    "CovarianceReport",
    "psi_hat",
    "v_hat_target",
    "sigma_tl",
    "transfer_covariance",
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
    x = target.x
    theta_hat = np.asarray(theta_hat, dtype=float)
    psi = psi_hat(target, theta_hat, family)
    resid = target.y - family.b1(x @ theta_hat)
    meat = gram(x, resid**2) / target.n
    c = spd_factor(psi, "Psi_hat")
    v = cho_solve(c, cho_solve(c, meat).T) / target.n
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
        left = cho_solve(c, m)
        return left @ inner @ left.T

    sig = congruence(q, np.asarray(v_dvcm, dtype=float)) + congruence(
        psi, np.asarray(v_lr, dtype=float)
    )
    sig = 0.5 * (sig + sig.T)
    return CovarianceReport(sigma_tl=sig, psi_hat=psi, v_lr=v_lr, v_dvcm=v_dvcm, b_q=b_q)


def transfer_covariance(
    fine: DomainSample, theta_lr: np.ndarray, pilot: LocalFit, q: np.ndarray,
    family: ModelFamily,
) -> CovarianceReport:
    """Sigma_TL of a transfer fit that fine-tuned ``pilot`` on ``fine`` under ``q``.

    ``theta_lr`` is the target-only fit on ``fine``; it gives ``Psi_hat``
    and ``V_LR``.  The pilot's sandwich gives ``V_DVCM``.
    """
    psi = psi_hat(fine, theta_lr, family)
    v_lr = v_hat_target(fine, theta_lr, family)
    v_dvcm = estimate_variance_sandwich(pilot, family)
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
    stat = float(diff @ cho_solve(c, diff))
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
