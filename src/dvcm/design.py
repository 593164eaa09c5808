"""Domains, kernel weights, polynomial features, and the stacked local design.

A :class:`Panel` is the package's one type for data, whatever its domain
count: covariates ``x (N, p)``, responses ``y (N,)``, one identifier per
domain ``u (D,)`` and row ``offsets (D+1,)``, so domain ``k`` owns rows
``offsets[k]:offsets[k+1]``.  One domain, such as a target split, is a
one-domain panel, and :meth:`Panel.domain` makes one from arrays.  The
shape and finiteness checks run once, at construction; ``panel[k]`` and
``panel[a:b]`` are views, and :meth:`Panel.of` is the one place that
stacks panels into a new one.  Records whose arrays the package built and
checked itself are made without ``__init__`` (:func:`_record`).

The local-polynomial estimators regress on rows ``Phi_l(t_k) (x) X_ki``
where ``t_k = (U_k - u0) / h`` and ``(x)`` is the Kronecker product.
:func:`kernel_window` locates the in-window domains, ``|t_k| <= 1``, from
the panel's arrays (``t``, ``Phi_l(t)``, ``S_h``); :func:`build_local_design`
takes their rows, the stacked arrays themselves when every domain is
inside, and forms the Kronecker rows with one broadcast product.  The
uniform kernel is ``W = 1/2`` on the window, so every row has the one
weight ``W / S_h``.  The design keeps its window, which the moment
matrices of :mod:`dvcm.penalty` reuse instead of locating it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyWindowError

__all__ = [
    "Panel",
    "LocalDesign",
    "KernelWindow",
    "uniform_kernel",
    "poly_features",
    "kernel_window",
    "build_local_design",
]

_KERNEL_HEIGHT = 0.5  # the uniform kernel's value on its support |t| <= 1


def _record(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, made without
    ``__init__``: for arrays the package built and checked itself."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True, eq=False)
class Panel:
    """Domains stacked in one array each: domain ``k`` owns rows
    ``offsets[k]:offsets[k+1]``.

    A sequence of domains: ``panel[k]`` is the one-domain view
    ``panel[k:k+1]``, ``panel[a:b]`` a panel viewing domains ``a`` to
    ``b - 1``, and iteration yields the one-domain views in order.
    Construction checks the shapes (one covariate at least), the
    finiteness of every value and that each domain has a row.
    """

    x: np.ndarray        # (N, p)
    y: np.ndarray        # (N,)
    u: np.ndarray        # (D,)
    offsets: np.ndarray  # (D+1,) integers, 0 = offsets[0] < ... < offsets[D] = N

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        u = np.asarray(self.u, dtype=float)
        offsets = np.asarray(self.offsets)
        if x.ndim != 2 or not x.shape[1] or y.ndim != 1 or u.ndim != 1:
            raise ValueError("a panel needs x of shape (N, p) with p >= 1, y (N,) and u (D,)")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if not u.size:
            raise ValueError("at least one domain is required")
        if (offsets.shape != (u.size + 1,) or not np.issubdtype(offsets.dtype, np.integer)
                or offsets[0] != 0 or offsets[-1] != x.shape[0]
                or np.any(np.diff(offsets) < 1)):
            raise ValueError("offsets must rise from 0 to the row count, "
                             "at least one row per domain")
        if not all(np.isfinite(a).all() for a in (u, x, y)):
            raise ValueError("non-finite value in domain sample")
        self.__dict__.update(x=x, y=y, u=u, offsets=offsets)

    @classmethod
    def domain(cls, u: float, x, y) -> "Panel":
        """One domain at identifier ``u``, checked: a 1-D ``x`` is one row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if not x.size:
            raise ValueError("a domain needs at least one observation and one covariate")
        return cls(x=x, y=np.asarray(y, dtype=float).ravel(), u=[u], offsets=[0, x.shape[0]])

    @classmethod
    def of(cls, panels: Iterable[Panel]) -> "Panel":
        """The domains of ``panels`` stacked in order in one new panel."""
        panels = list(panels)
        if not panels:
            raise ValueError("at least one domain is required")
        p = panels[0].p
        if any(d.p != p for d in panels):
            raise ValueError("all domains must share the same covariate dimension")
        # every panel validated its arrays when it was made
        return _record(cls, x=np.concatenate([d.x for d in panels]),
                       y=np.concatenate([d.y for d in panels]),
                       u=np.concatenate([d.u for d in panels]),
                       offsets=np.concatenate([[0], *(d.sizes for d in panels)]).cumsum())

    @cached_property
    def sizes(self) -> np.ndarray:
        """Observations per domain, (D,)."""
        return np.diff(self.offsets)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.u.shape[0]

    def __getitem__(self, k) -> "Panel":
        if not isinstance(k, slice):  # domain k alone
            k = range(len(self))[k]
            k = slice(k, k + 1)
        start, stop, step = k.indices(len(self))
        if step != 1 or start >= stop:
            raise ValueError("a panel view takes a nonempty run of domains")
        o = self.offsets[start : stop + 1]
        return _record(Panel, x=self.x[o[0] : o[-1]], y=self.y[o[0] : o[-1]],
                       u=self.u[start:stop], offsets=o - o[0])

    def __iter__(self) -> Iterator[Panel]:
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class LocalDesign:
    """Stacked kernel-weighted design of ``window``, at ``bandwidth`` around u0.

    Rows with zero kernel weight are dropped before solving; the panel
    of the ``window`` they were taken from still counts every observation
    that was offered (``window.panel.n``), which is the ``n`` entering
    the ``(nh)`` scalings of the variance estimators.  Every kept row has the
    weight ``weight = W / window.s_h``, so the row weights sum to one.
    """

    z: np.ndarray  # (N_eff, (l+1) p)
    y: np.ndarray  # (N_eff,)
    weight: float  # W / S_h, the weight of every row
    bandwidth: float
    window: KernelWindow


def uniform_kernel(t):
    """Uniform kernel W(t) = 1/2 on |t| <= 1 (boundary included), 0 outside."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, _KERNEL_HEIGHT, 0.0)


_MAX_ORDER = 170  # t^l / l! takes l! as a float, and 171! overflows one


def _powers(t: float, l: int) -> list[float]:
    return [t**j / math.factorial(j) for j in range(l + 1)]


def _check_order(l: int) -> None:
    if not 0 <= l <= _MAX_ORDER:
        raise ValueError(f"polynomial order must be between 0 and {_MAX_ORDER}, got {l}")


def _check_bandwidth(h: float | None) -> None:
    if h is None or not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {h}")


def poly_features(t: float, l: int) -> np.ndarray:
    """Polynomial feature map (1, t, t^2/2!, ..., t^l/l!)."""
    _check_order(l)
    return np.array(_powers(t, l))


@dataclass(frozen=True)
class KernelWindow:
    """The domains of ``panel`` with ``W(t_k) > 0``, ``t_k = (U_k - u0) / h``.

    Per in-window domain, in panel order: its position ``index`` in the
    panel, its size ``n``, ``t`` and the features ``phi = Phi_l(t)`` (one
    row each); each has the kernel value ``W(t) = _KERNEL_HEIGHT``.
    ``s_h = sum n_k W(t_k)``; ``panel.n`` counts every observation offered.
    """

    index: np.ndarray  # (D,)
    n: np.ndarray      # (D,)
    t: np.ndarray      # (D,)
    phi: np.ndarray    # (D, l+1)
    s_h: float
    panel: Panel


def kernel_window(domains: Panel, u0: float, h: float, l: int) -> KernelWindow:
    """Locate the in-window domains of ``domains`` around ``u0``; may be empty.

    A domain is inside when ``|t| <= 1``, where the uniform kernel is
    positive.  ``phi`` is :func:`poly_features` of each Python-float
    ``t``: numpy's vectorised power can differ from it in the last bit.
    """
    _check_bandwidth(h)
    _check_order(l)
    t_all = (domains.u - u0) / h
    index = (np.abs(t_all) <= 1.0).nonzero()[0]
    t = t_all[index]
    n = domains.sizes[index]
    phi = np.array([_powers(tk, l) for tk in t.tolist()])
    return _record(
        KernelWindow, index=index, n=n, t=t, phi=phi.reshape(index.size, l + 1),
        s_h=float((_KERNEL_HEIGHT * n).sum()), panel=domains,
    )


@lru_cache(maxsize=64)
def _kron_columns(p: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an order-``l`` Kronecker row over ``p`` covariates: the
    covariate it multiplies and the polynomial feature it multiplies by."""
    cols, blocks = np.tile(np.arange(p), l + 1), np.repeat(np.arange(l + 1), p)
    cols.flags.writeable = blocks.flags.writeable = False
    return cols, blocks


def build_local_design(domains: Panel, u0: float, h: float, l: int) -> LocalDesign:
    """Stack ``Phi_l((U_k - u0)/h) (x) X_ki`` over all in-window observations.

    Parameters
    ----------
    domains : Panel
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
    win = kernel_window(domains, u0, h, l)
    panel = win.panel
    if not win.index.size:
        d1 = float(np.min(np.abs(panel.u - u0)))
        raise EmptyWindowError(
            f"no domain within bandwidth {h} of u0={u0}; nearest at distance {d1}",
            d1=d1,
        )
    # row-wise Kronecker product: each row X_ki expands to
    # (phi_0 x, ..., phi_l x), one multiplication per entry.  Both factors
    # are spread to the (N_eff, (l+1) p) layout by indexing, so the product
    # is one same-shape multiplication (a broadcast one is several times
    # slower); compress copies the in-window rows faster than a mask index.
    cols, blocks = _kron_columns(panel.p, l)
    if win.index.size == len(panel):
        x, y = panel.x, panel.y
    else:
        inside = np.zeros(len(panel), dtype=bool)
        inside[win.index] = True
        rows = inside.repeat(panel.sizes)
        x, y = panel.x.compress(rows, axis=0), panel.y.compress(rows)
    z = x[:, cols] * win.phi[:, blocks].repeat(win.n, axis=0)
    return _record(LocalDesign, z=z, y=y, weight=_KERNEL_HEIGHT / win.s_h, bandwidth=h,
                   window=win)

