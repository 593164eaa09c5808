"""Bandwidth rules: rate-optimal median rule and undersmoothed inference rule.

The median rule ``h = med(e0 (n/gamma)^{-1/(2 beta + 1)}, d_(1), d_(K))``
truncates the rate-optimal bandwidth to the span of the source-domain
distances, so the window always contains at least the nearest source and
never extends uselessly beyond the farthest.  The inference rule
undersmooths by bumping the rate exponent, making the pilot's bias
asymptotically negligible against its standard error.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .design import DomainSample, Panel, domain_distances

__all__ = [
    "BandwidthChoice",
    "select_bandwidth",
    "select_bandwidth_median",
    "select_bandwidth_undersmoothed",
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


def _row_count(sources: Panel | Sequence[DomainSample]) -> int:
    """Observations over all of ``sources``, from a panel's shape without views."""
    return sources.n if isinstance(sources, Panel) else sum(d.n for d in sources)


def gamma_moment_estimate(sources: Panel | Sequence[DomainSample]) -> float:
    """Plug-in for the domain-dispersion scale: sd of the U_k times sqrt(12).

    Matches the length of a uniform distribution with the same variance.
    Falls back to the identifier range when a single source is available.
    """
    us = [d.u for d in sources]
    if len(us) < 2:
        return max(abs(us[0]), 1e-12) if us else 1.0
    sd = statistics.stdev(us)
    if sd == 0.0:
        return 1e-12
    return sd * np.sqrt(12.0)


def select_bandwidth_median(
    sources: Panel | Sequence[DomainSample],
    u0: float,
    beta: float,
    gamma: float,
    e0: float = 1.0,
    *,
    n_extra: int = 0,
) -> BandwidthChoice:
    """Rate-optimal bandwidth: median of the rate term and d_(1), d_(K).

    ``n_extra`` counts target observations pooled into the fit on top of
    the source samples, so the rate term sees the full sample size.
    """
    if not (0 < gamma < math.inf and 0 < e0 < math.inf and 0 < beta < math.inf):
        raise ValueError(f"gamma, e0 and beta must be finite and positive, "
                         f"got gamma={gamma}, e0={e0}, beta={beta}")
    _, d1, dK = domain_distances(sources, u0)
    n = n_extra + _row_count(sources)
    rate = e0 * (n / gamma) ** (-1.0 / (2.0 * beta + 1.0))
    h = float(sorted([rate, d1, dK])[1])  # the median: no NaN can reach here
    return BandwidthChoice(
        h=h, rule="median_rule", rate_term=rate, d1=d1, dK=dK,
        e0=e0, beta=beta, gamma=gamma, n=n,
    )


def select_bandwidth_undersmoothed(
    sources: Panel | Sequence[DomainSample],
    u0: float,
    beta: float,
    gamma: float,
    c: float = 1.0,
    epsilon: float = 0.2,
    *,
    n_extra: int = 0,
) -> BandwidthChoice:
    """Undersmoothed bandwidth ``c (gamma/n)^{(1+epsilon)/(2 beta + 1)}``.

    The result is clipped just above ``d_(1)(u0)`` so the window is never
    empty; diagnostics flag an infeasible clip (beyond the rate-optimal
    level) and whether the effective-domain condition ``h K / gamma > 1``
    holds.  ``epsilon = 0`` recovers the rate-optimal exponent and is
    flagged as a boundary choice.
    """
    if not (0 < gamma < math.inf and 0 < c < math.inf and 0 < beta < math.inf
            and 0 <= epsilon < math.inf):
        raise ValueError(f"gamma, c and beta must be finite and positive and epsilon finite "
                         f"and nonnegative, got gamma={gamma}, c={c}, beta={beta}, "
                         f"epsilon={epsilon}")
    _, d1, dK = domain_distances(sources, u0)
    n = n_extra + _row_count(sources)
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


# the data-driven rules, which an experiment's replications choose from
BANDWIDTH_RULES = ("median", "undersmoothed")


def select_bandwidth(
    rule: str, sources: Panel | Sequence[DomainSample], u0: float, beta: float,
    gamma: float,
    *, e0: float, c: float, epsilon: float, n_extra: int, h: float | None = None,
) -> BandwidthChoice:
    """Bandwidth of ``rule``: ``median`` (constant ``e0``), ``undersmoothed``
    (``c``, ``epsilon``) or ``fixed`` (the given ``h``)."""
    if rule == "median":
        return select_bandwidth_median(sources, u0, beta, gamma, e0, n_extra=n_extra)
    if rule == "undersmoothed":
        return select_bandwidth_undersmoothed(
            sources, u0, beta, gamma, c, epsilon, n_extra=n_extra
        )
    if rule != "fixed":
        raise ValueError(f"bandwidth rule {rule!r} is none of {(*BANDWIDTH_RULES, 'fixed')}")
    if h is None or not 0 < h < math.inf:
        raise ValueError(f"bandwidth rule 'fixed' needs a finite positive h, got {h}")
    _, d1, dK = domain_distances(sources, u0)
    return BandwidthChoice(h=h, rule="fixed", rate_term=h, d1=d1, dK=dK)
