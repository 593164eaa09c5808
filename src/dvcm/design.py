"""Kernel weights, polynomial features, and the stacked local design.

The local-polynomial estimators regress on rows ``Phi_l(t_k) (x) X_ki``
where ``t_k = (U_k - u0) / h`` and ``(x)`` is the Kronecker product.
:func:`build_local_design` assembles those rows for every observation
whose domain falls inside the kernel window and normalises the kernel
weights by their total mass ``S_h``.  :func:`kernel_window` is the one
per-domain pass (window, ``t``, ``W(t)``, ``Phi_l(t)``, ``S_h``) that the
design and the moment matrices of :mod:`dvcm.penalty` share; the design
rows are then one broadcast product over the in-window covariates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyWindowError

__all__ = [
    "DomainSample",
    "LocalDesign",
    "KernelWindow",
    "uniform_kernel",
    "poly_features",
    "kernel_window",
    "build_local_design",
    "domain_distances",
]


@dataclass(frozen=True)
class DomainSample:
    """One domain: identifier ``u``, covariates ``x`` (n, p), responses ``y`` (n,)."""

    u: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1:
            raise ValueError("a domain needs at least one observation")
        if not (np.isfinite(self.u) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite value in domain sample")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class LocalDesign:
    """Stacked kernel-weighted design around ``center``.

    Rows with zero kernel weight are dropped before solving; ``n_total``
    still counts every observation that was offered, which is the ``n``
    entering the ``(nh)`` scalings of the variance estimators.
    ``weights`` are normalised by ``s_h`` and sum to one;
    ``kernel_values`` keep the raw ``W(t_k)`` per kept row.
    """

    z: np.ndarray              # (N_eff, (l+1) p)
    y: np.ndarray              # (N_eff,)
    weights: np.ndarray        # (N_eff,), W(t_k) / S_h
    kernel_values: np.ndarray  # (N_eff,), raw W(t_k)
    s_h: float
    order: int
    bandwidth: float
    center: float
    row_domain: np.ndarray     # (N_eff,) index into the input domain sequence
    n_total: int
    p: int

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]


def uniform_kernel(t):
    """Uniform kernel W(t) = 1/2 on |t| <= 1 (boundary included), 0 outside."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.5, 0.0)


def poly_features(t: float, l: int) -> np.ndarray:
    """Polynomial feature map (1, t, t^2/2!, ..., t^l/l!)."""
    if l < 0:
        raise ValueError(f"polynomial order must be >= 0, got {l}")
    return np.array([t**j / math.factorial(j) for j in range(l + 1)])


@dataclass(frozen=True)
class KernelWindow:
    """The domains with ``W(t_k) > 0``, ``t_k = (U_k - u0) / h``.

    Per in-window domain, in input order: its position ``index`` in the
    domain sequence, its size ``n``, ``t``, the kernel value ``w = W(t)``
    and the features ``phi = Phi_l(t)`` (one row each).
    ``s_h = sum n_k W(t_k)``; ``n_total`` counts every observation offered.
    """

    index: np.ndarray  # (D,)
    n: np.ndarray      # (D,)
    t: np.ndarray      # (D,)
    w: np.ndarray      # (D,)
    phi: np.ndarray    # (D, l+1)
    s_h: float
    n_total: int


def kernel_window(
    domains: Sequence[DomainSample], u0: float, h: float, l: int
) -> KernelWindow:
    """Locate the in-window domains of ``domains`` around ``u0``; may be empty.

    ``phi`` is :func:`poly_features` of each Python-float ``t``: numpy's
    vectorised power can differ from it in the last bit.
    """
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if l < 0:
        raise ValueError(f"polynomial order must be >= 0, got {l}")
    sizes = np.array([d.n for d in domains], dtype=int)
    t_all = (np.array([d.u for d in domains], dtype=float) - u0) / h
    w_all = uniform_kernel(t_all)
    index = np.flatnonzero(w_all)
    t = t_all[index]
    n = sizes[index]
    w = w_all[index]
    phi = np.array([poly_features(tk, l) for tk in t.tolist()])
    return KernelWindow(
        index=index, n=n, t=t, w=w, phi=phi.reshape(len(index), l + 1),
        s_h=float(np.sum(w * n)), n_total=int(sizes.sum()),
    )


def build_local_design(
    domains: Sequence[DomainSample], u0: float, h: float, l: int
) -> LocalDesign:
    """Stack ``Phi_l((U_k - u0)/h) (x) X_ki`` over all in-window observations.

    Parameters
    ----------
    domains : sequence of DomainSample
        Every domain contributing to the pooled fit (target split included
        when the caller pools it).
    u0, h, l : float, float, int
        Evaluation point, bandwidth (> 0), polynomial order.

    Raises
    ------
    EmptyWindowError
        If no domain satisfies ``|U_k - u0| <= h``; the error carries the
        nearest domain distance as a bandwidth hint.
    """
    if not domains:
        raise ValueError("at least one domain is required")
    p = domains[0].p
    if any(d.p != p for d in domains):
        raise ValueError("all domains must share the same covariate dimension")

    win = kernel_window(domains, u0, h, l)
    if not win.index.size:
        d1 = min(abs(d.u - u0) for d in domains)
        raise EmptyWindowError(
            f"no domain within bandwidth {h} of u0={u0}; nearest at distance {d1}",
            d1=d1,
        )

    inside = [domains[k] for k in win.index.tolist()]
    x = np.concatenate([d.x for d in inside])
    # row-wise Kronecker product: each row X_ki expands to
    # (phi_0 x, ..., phi_l x), one multiplication per entry
    phi_rows = np.repeat(win.phi, win.n, axis=0)
    z = (phi_rows[:, :, None] * x[:, None, :]).reshape(x.shape[0], (l + 1) * p)
    kernel_values = np.repeat(win.w, win.n)
    return LocalDesign(
        z=z,
        y=np.concatenate([d.y for d in inside]),
        weights=kernel_values / win.s_h,
        kernel_values=kernel_values,
        s_h=win.s_h,
        order=l,
        bandwidth=h,
        center=u0,
        row_domain=np.repeat(win.index, win.n),
        n_total=win.n_total,
        p=p,
    )


def domain_distances(
    domains: Sequence[DomainSample], u0: float
) -> tuple[np.ndarray, float, float]:
    """Sorted distances |u0 - U_k| over source domains, with d_(1) and d_(K).

    The target always sits at distance zero, so callers pass source
    domains only; an empty sequence is an argument error.
    """
    if not domains:
        raise ValueError("at least one source domain is required")
    d = np.sort(np.abs(np.array([dom.u for dom in domains]) - u0))
    return d, float(d[0]), float(d[-1])
