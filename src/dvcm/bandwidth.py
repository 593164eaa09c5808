"""Bandwidth rules: :func:`select_bandwidth`'s median, undersmoothed and fixed.

The median rule ``h = med(e0 (n/gamma)^{-1/(2 beta + 1)}, d_(1), d_(K))``
truncates the rate-optimal bandwidth to the span of the source-domain
distances ``|U_k - u0|``, so the window always contains at least the
nearest source and never extends uselessly beyond the farthest.  The
undersmoothed rule ``c (gamma/n)^{(1+epsilon)/(2 beta + 1)}``, for
inference, bumps the rate exponent, making the pilot's bias asymptotically
negligible against its standard error.  The fixed rule keeps a given h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import Panel, _check_bandwidth

__all__ = [
    "BandwidthChoice",
    "select_bandwidth",
    "gamma_moment_estimate",
]


@dataclass(frozen=True)
class BandwidthChoice:
    """Selected bandwidth with the quantities that produced it."""

    h: float
    rule: str                  # "median_rule" | "undersmoothed" | "fixed"
    rate_term: float
    d1: float
    dK: float
    e0: float | None = None
    beta: float | None = None
    gamma: float | None = None
    n: int | None = None
    c: float | None = None
    epsilon: float | None = None
    feasible: bool = True
    clipped: bool = False
    diagnostics: dict = field(default_factory=dict)


def gamma_moment_estimate(sources: Panel) -> float:
    """Plug-in for the domain-dispersion scale: sd of the U_k times sqrt(12).

    Matches the length of a uniform distribution with the same variance.
    Falls back to the identifier range when a single source is available.
    """
    us = sources.u.tolist()
    if len(us) < 2:
        return max(abs(us[0]), 1e-12)
    import statistics  # here: it loads decimal and fractions, and only fit uses it

    sd = statistics.stdev(us)
    if sd == 0.0:
        return 1e-12
    return sd * np.sqrt(12.0)


# the data-driven rules, which an experiment's replications choose from
BANDWIDTH_RULES = ("median", "undersmoothed")


def _check_settings(rule: str, beta: float, gamma: float | None, e0: float, c: float,
                    epsilon: float, h: float | None) -> None:
    """Raise ValueError unless ``rule`` is known and the settings it reads
    are in range; ``gamma=None``, a moment estimate still to come, passes."""
    gamma_ok = gamma is None or 0 < gamma < math.inf
    if rule == "median":
        if not (gamma_ok and 0 < e0 < math.inf and 0 < beta < math.inf):
            raise ValueError(f"gamma, e0 and beta must be finite and positive, "
                             f"got gamma={gamma}, e0={e0}, beta={beta}")
    elif rule == "undersmoothed":
        if not (gamma_ok and 0 < c < math.inf and 0 < beta < math.inf
                and 0 <= epsilon < math.inf):
            raise ValueError(f"gamma, c and beta must be finite and positive and epsilon "
                             f"finite and nonnegative, got gamma={gamma}, c={c}, "
                             f"beta={beta}, epsilon={epsilon}")
    elif rule != "fixed":
        raise ValueError(f"bandwidth rule {rule!r} is none of {(*BANDWIDTH_RULES, 'fixed')}")
    else:
        _check_bandwidth(h)


def select_bandwidth(
    rule: str, sources: Panel, u0: float, beta: float, gamma: float,
    *, e0: float = 1.0, c: float = 1.0, epsilon: float = 0.2, n_extra: int = 0,
    h: float | None = None,
) -> BandwidthChoice:
    """Bandwidth of ``rule``: ``median`` (constant ``e0``), ``undersmoothed``
    (``c``, ``epsilon``) or ``fixed`` (the given ``h``).

    ``n_extra`` counts target observations pooled into the fit on top of
    the source samples, so the rate term sees the full sample size.  An
    undersmoothed h is clipped just above ``d_(1)`` so the window is never
    empty; diagnostics flag an infeasible clip (beyond the rate-optimal
    level), ``epsilon = 0`` (the rate-optimal exponent) and whether the
    effective-domain condition ``h K / gamma > 1`` holds.
    """
    _check_settings(rule, beta, gamma, e0, c, epsilon, h)
    dist = np.abs(sources.u - u0)
    d1, dK = float(dist.min()), float(dist.max())
    if rule == "fixed":
        return BandwidthChoice(h=h, rule="fixed", rate_term=h, d1=d1, dK=dK)
    n = n_extra + sources.n
    if rule == "median":
        rate = e0 * (n / gamma) ** (-1.0 / (2.0 * beta + 1.0))
        h = float(sorted([rate, d1, dK])[1])  # the median: no NaN can reach here
        return BandwidthChoice(
            h=h, rule="median_rule", rate_term=rate, d1=d1, dK=dK,
            e0=e0, beta=beta, gamma=gamma, n=n,
        )
    rate_cap = (gamma / n) ** (1.0 / (2.0 * beta + 1.0))
    h = c * (gamma / n) ** ((1.0 + epsilon) / (2.0 * beta + 1.0))
    diagnostics: dict = {}
    if epsilon == 0:
        diagnostics["epsilon_boundary"] = True
    clipped = False
    if h <= d1:
        h = d1 * (1.0 + 1e-9) if d1 > 0 else np.nextafter(0.0, 1.0)
        clipped = True
        diagnostics["clipped_to_d1"] = d1
    feasible = True
    if clipped and h > rate_cap:
        feasible = False
        diagnostics["infeasible_undersmoothing"] = {"h": h, "rate_cap": rate_cap}
    diagnostics["effective_domains_condition"] = bool(h * len(sources) / gamma > 1.0)
    return BandwidthChoice(
        h=float(h), rule="undersmoothed", rate_term=rate_cap, d1=d1, dK=dK,
        beta=beta, gamma=gamma, n=n, c=c, epsilon=epsilon,
        feasible=feasible, clipped=clipped, diagnostics=diagnostics,
    )
