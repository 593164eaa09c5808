"""Data-driven shrinkage matrix for the transfer-learning fine-tune step.

The penalty ``Q_hat = delta * (nu_hat / n0) * M_hat^{-1}`` mimics the
oracle inverse-MSE weighting of the pilot estimator, where
``M_hat = bias bias' + V_hat`` combines a plug-in bias estimate with a
sandwich variance estimate.  The scale ``nu_hat`` comes from Pearson
residuals of the target-only fit on the pilot split.  The plug-in bias
tracks the pilot's error at small ``h`` but overshoots at wide ``h``,
where ``Q_hat`` then trusts a biased pilot (the README sweep's negative
transfer at ``h >= 0.45``).  The bias's two moment matrices ``zeta``
come from one pass over a :func:`dvcm.design.kernel_window` of the
pooled domains, each in-window domain weighted by the uniform kernel's
one value ``W``.  The one implementation, ``_penalty``, takes a pooled
pilot fit and reads the bias's window and bandwidth off its design, the
window the fit itself located: ``estimate_q`` fits that pilot on the
pooled panel it stacks, and :class:`dvcm.inference.TransferProblem`
passes its own, so the bias locates no window of its own on either path.
Every factorisation and solve runs on the LAPACK core of
:mod:`dvcm.estimators` (``spd_factor`` / ``spd_solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .design import _KERNEL_HEIGHT, DomainSample, KernelWindow, Panel, _record, kernel_window
from .errors import DegenerateVarianceError, SingularSystemError
from .estimators import LocalFit, fit_dvcm, fit_target_only, gram, spd_factor, spd_solve
from .families import ModelFamily

__all__ = [
    "PenaltyEstimate",
    "estimate_scale",
    "zeta_hat",
    "estimate_derivative",
    "estimate_bias",
    "estimate_variance_sandwich",
    "estimate_q",
]


@dataclass(frozen=True)
class PenaltyEstimate:
    """Shrinkage matrix with the ingredients it was assembled from.

    The definitional identity ``q @ (bias bias' + var) = delta*scale/n0 * I``
    holds to solver precision.
    """

    q: np.ndarray
    scale: float
    bias_vec: np.ndarray
    var_mat: np.ndarray
    delta: float
    n0: int
    diagnostics: dict = field(default_factory=dict)


def estimate_scale(
    target: DomainSample, theta_hat: np.ndarray, family: ModelFamily
) -> float:
    """Mean squared Pearson residual of the target-only fit.

    ``r_i^2 = (y_i - b'(x_i' theta))^2 / b''(x_i' theta)``; for the
    Gaussian family this is the plain mean squared residual.
    """
    eta = target.x @ np.asarray(theta_hat, dtype=float)
    mu = family.b1(eta)
    var = family.b2(eta)
    if np.any(var <= 0):
        raise DegenerateVarianceError(
            "b'' vanishes at an observation; Pearson residuals undefined"
        )
    r2 = (target.y - mu) ** 2 / var
    return float(np.mean(r2))


def zeta_hat(
    domains: Panel | Sequence[DomainSample], u0: float, h: float, l: int, r: int, s: int
) -> np.ndarray:
    """Sample moment matrix (nh)^{-1} sum_k n_k Phi_l(t_k) Phi_l(t_k)' t_k^r W(t_k)^s.

    ``n`` counts every observation in ``domains``; domains outside the
    kernel window contribute nothing, so the zero matrix is a legal
    output.
    """
    return _zetas(kernel_window(domains, u0, h, l), h, (r, s))[0]


def _zetas(win: KernelWindow, h: float, *moments: tuple[int, int]) -> list[np.ndarray]:
    """``zeta_hat`` for each ``(r, s)`` of ``moments`` over one located window."""
    # coefficients as Python floats and the terms added in domain order,
    # so each result is bit-identical to a per-domain loop
    n, t = win.n.tolist(), win.t.tolist()
    coef = np.array([[nk * (tk**r) * (_KERNEL_HEIGHT**s) for nk, tk in zip(n, t)]
                     for r, s in moments]).reshape(len(moments), len(n), 1, 1)
    terms = coef * (win.phi[:, :, None] * win.phi[:, None, :])
    if n:
        # accumulate adds the domains one by one, in order; adding 0.0 turns
        # a -0.0 sum into the +0.0 that a loop starting from zeros gives
        acc = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
    else:
        acc = np.zeros((len(moments),) + terms.shape[2:])
    return list(acc / (win.n_total * h))


def estimate_derivative(
    domains: Panel | Sequence[DomainSample],
    u0: float,
    h: float,
    beta: int,
    family: ModelFamily,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate the beta-th derivative of theta at u0 by an order-beta local fit.

    Extracts the last ``p``-block of the stacked coefficients, rescaled by
    ``h^{-beta}``.  The fit needs at least ``beta + 1`` distinct domain
    identifiers inside the window; when there are fewer, the bandwidth is
    widened to the smallest feasible distance.  ``start`` is the Newton
    start of ``fit_dvcm``.  Fit errors propagate.
    """
    if beta < 1 or not float(beta).is_integer():
        raise ValueError(f"derivative order must be a positive integer, got {beta}")
    panel = Panel.of(domains)
    dist = np.abs(panel.u - u0)
    if len(set(panel.u[dist <= h].tolist())) < beta + 1:
        us = sorted(set(dist.tolist()))
        if len(us) < beta + 1:  # before int(beta): a huge order prints as given
            raise SingularSystemError(
                f"derivative of order {beta} needs {beta + 1} distinct domain "
                f"identifiers; only {len(us)} available"
            )
        h = us[int(beta)] * (1.0 + 1e-9)
    beta = int(beta)
    fit = fit_dvcm(panel, u0, h, beta, family, start)
    p = fit.design.p
    return fit.alpha[beta * p :] / h**beta


def estimate_bias(
    domains: Panel | Sequence[DomainSample],
    u0: float,
    h: float,
    l: int,
    beta: int,
    family: ModelFamily,
) -> np.ndarray:
    """Plug-in bias of the order-``l`` pooled fit under smoothness ``beta``.

    ``[zeta_{0,1}^{-1} zeta_{beta,1}]_{1,1} * theta^(beta)(u0) * h^beta / beta!``
    with the zeta moments of the main fit.  The derivative comes from
    ``estimate_derivative`` at the main bandwidth, which is not fitted
    when the moment factor is zero.
    """
    beta = _bias_order(beta)
    panel = Panel.of(domains)
    return _bias(kernel_window(panel, u0, h, l), h, beta,
                 partial(estimate_derivative, panel, u0, h, beta, family))


def _bias_order(beta) -> int:
    if not float(beta).is_integer() or beta < 1:
        raise ValueError(f"bias estimation needs a positive integer beta, got {beta}")
    return int(beta)


def _bias(win: KernelWindow, h: float, beta: int, derivative: Callable[[], np.ndarray]
          ) -> np.ndarray:
    """``estimate_bias`` over the located window ``win``."""
    beta = _bias_order(beta)
    z01, zb1 = _zetas(win, h, (0, 1), (beta, 1))
    rhs = zb1[:, 0]
    try:
        factor = float(spd_solve(spd_factor(z01, "zeta_{0,1} moment matrix"), rhs)[0])
    except SingularSystemError:
        # singular moment matrix: a zero first column still has the exact
        # solution 0 (single-domain-at-center case); otherwise hard error
        if np.max(np.abs(rhs)) > 1e-14 * max(1.0, np.max(np.abs(z01))):
            raise
        factor = 0.0
    if factor == 0.0:
        return np.zeros(win.panel.p)
    return factor * derivative() * h**beta / math.factorial(beta)


def estimate_variance_sandwich(fit: LocalFit, family: ModelFamily) -> np.ndarray:
    """Sandwich variance of the pooled local fit, on the estimator scale.

    ``A Lambda^{-1} Delta Lambda^{-1} A'`` with
    ``Delta = (nh)^{-2} sum s1^2 Z Z' W^2`` and
    ``Lambda = (nh)^{-1} sum s2 Z Z' W``, evaluated at the fitted stacked
    coefficients; ``A`` selects the leading ``p x p`` block.
    """
    design = fit.design
    z, y = design.z, design.y
    nh = design.n_total * design.bandwidth
    s1, s2 = family.score_curvature(z @ fit.alpha, y)
    delta = gram(z, (s1 * _KERNEL_HEIGHT) ** 2) / nh**2
    lam = gram(z, s2 * _KERNEL_HEIGHT) / nh
    c = spd_factor(lam, "sandwich bread matrix Lambda")
    inner = spd_solve(c, spd_solve(c, delta).T)
    p = design.p
    v = inner[:p, :p]
    return 0.5 * (v + v.T)


def estimate_q(
    domains: Panel | Sequence[DomainSample],
    target_pilot_split: DomainSample,
    u0: float,
    h: float,
    l: int,
    beta: int,
    delta: float,
    family: ModelFamily,
    *,
    n0: int | None = None,
) -> PenaltyEstimate:
    """Assemble the data-driven shrinkage matrix from the pilot split.

    Parameters
    ----------
    domains : Panel or sequence of DomainSample
        Source domains; the pooled pilot fit at ``h`` uses
        ``target_pilot_split`` followed by them, and the bias's moments
        come from that fit's kernel window.
    target_pilot_split : DomainSample
        Target observations reserved for the pilot step; they feed the
        scale estimate so the penalty stays independent of the
        fine-tuning data.
    n0 : int, optional
        Sample size entering the ``scale / n0`` factor; defaults to the
        pilot-split size (the fine-tune split has the same size under the
        even-split protocol).

    The bias's derivative plug-in is fitted at ``h``.  A caller sweeping
    ``h`` runs :class:`dvcm.inference.TransferProblem`, which fits it once
    at a rate-optimal bandwidth and reuses the other ``h``-free parts.
    """
    _check_delta(delta)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    pooled = Panel.pooled(target_pilot_split, Panel.of(domains))
    pilot_fit = fit_dvcm(pooled, u0, h, l, family)
    scale = estimate_scale(target_pilot_split,
                           fit_target_only(target_pilot_split, family), family)
    if n0 is None:
        n0 = target_pilot_split.n
    return _penalty(pilot_fit, beta, delta, family, scale, n0,
                    partial(estimate_derivative, pooled, u0, h, beta, family))


def _check_delta(delta: float) -> None:
    if not 0.5 < delta < 2.0:
        raise ValueError(f"delta must lie in (0.5, 2), got {delta}")


def _penalty(pilot_fit: LocalFit, beta: float, delta: float, family: ModelFamily,
             scale: float, n0: int, derivative: Callable[[], np.ndarray]
             ) -> PenaltyEstimate:
    """``estimate_q`` given its pooled pilot fit and every other ingredient;
    the bias's moments come from the window and bandwidth of the fit's design."""
    _check_delta(delta)
    design = pilot_fit.design
    diagnostics: dict = {}
    if not float(beta).is_integer():
        # no plug-in bias form exists for fractional smoothness
        bias = np.zeros(design.p)
        diagnostics["bias_skipped_noninteger_beta"] = float(beta)
    else:
        bias = _bias(design.window, design.bandwidth, beta, derivative)
    var = estimate_variance_sandwich(pilot_fit, family)

    m_hat = bias[:, None] * bias + var  # np.outer's product, without its wrapper
    m_hat = 0.5 * (m_hat + m_hat.T)
    c = spd_factor(m_hat, "pilot MSE matrix bias*bias' + V_hat")
    m_inv = spd_solve(c, np.eye(m_hat.shape[0]))
    q = delta * scale / n0 * m_inv
    q = 0.5 * (q + q.T)
    return _record(PenaltyEstimate, q=q, scale=scale, bias_vec=bias, var_mat=var,
                   delta=delta, n0=n0, diagnostics=diagnostics)
