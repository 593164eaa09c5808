"""Domains, kernel weights, polynomial features, and the stacked local design.

A :class:`Panel` holds every domain of a fit in one array each: covariates
``x (N, p)``, responses ``y (N,)``, one identifier per domain ``u (D,)``
and row ``offsets (D+1,)``, so domain ``k`` owns rows
``offsets[k]:offsets[k+1]``.  Its shape and finiteness checks run once, at
construction.  A :class:`DomainSample` is one validated domain, and
indexing a panel gives one as a view.  Every public function here and in
the estimators takes a panel or any sequence of domains and converts it
once, at its boundary (:meth:`Panel.of`).  Records whose arrays the
package built and checked itself are made without ``__init__``
(:func:`_record`).

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyWindowError

__all__ = [
    "DomainSample",
    "Panel",
    "LocalDesign",
    "KernelWindow",
    "uniform_kernel",
    "poly_features",
    "kernel_window",
    "build_local_design",
    "domain_distances",
]

_KERNEL_HEIGHT = 0.5  # the uniform kernel's value on its support |t| <= 1


def _record(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, made without
    ``__init__``: for arrays the package built and checked itself."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


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

    @classmethod
    def _view(cls, u: float, x: np.ndarray, y: np.ndarray) -> "DomainSample":
        """A domain over arrays that were validated already, not checked again."""
        return _record(cls, u=u, x=x, y=y)

    def rows(self, start: int, stop: int | None = None) -> "DomainSample":
        """Observations ``start:stop`` as a domain viewing this one's arrays."""
        x = self.x[start:stop]
        if x.shape[0] < 1:
            raise ValueError("a domain needs at least one observation")
        return DomainSample._view(self.u, x, self.y[start:stop])

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class Panel:
    """Domains stacked in one array each: domain ``k`` owns rows
    ``offsets[k]:offsets[k+1]``.

    A sequence of domains: ``panel[k]`` is domain ``k`` as a DomainSample
    view, ``panel[a:b]`` a panel viewing domains ``a`` to ``b - 1``, and
    iteration yields the views in order.  Construction checks the shapes,
    the finiteness of every value and that each domain has a row.
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
        if x.ndim != 2 or y.ndim != 1 or u.ndim != 1:
            raise ValueError("a panel needs x of shape (N, p), y (N,) and u (D,)")
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
    def of(cls, domains: "Panel | Iterable[DomainSample]") -> "Panel":
        """``domains`` itself if it is a panel, else its domains stacked in order."""
        if isinstance(domains, Panel):
            return domains
        domains = list(domains)
        if not domains:
            raise ValueError("at least one domain is required")
        p = domains[0].p
        if any(d.p != p for d in domains):
            raise ValueError("all domains must share the same covariate dimension")
        # every DomainSample validated its arrays when it was made
        return _record(cls, x=np.concatenate([d.x for d in domains]),
                       y=np.concatenate([d.y for d in domains]),
                       u=np.array([d.u for d in domains], dtype=float),
                       offsets=np.cumsum([0] + [d.n for d in domains]))

    @classmethod
    def pooled(cls, first: DomainSample,
               rest: "Panel | Iterable[DomainSample]") -> "Panel":
        """``first`` followed by the domains of ``rest``, stacked in one new
        panel; a panel ``rest`` is stacked from its arrays, not its views."""
        if not isinstance(rest, Panel):
            return cls.of([first, *rest])
        if first.p != rest.p:
            raise ValueError("all domains must share the same covariate dimension")
        return _record(cls, x=np.concatenate([first.x, rest.x]),
                       y=np.concatenate([first.y, rest.y]),
                       u=np.concatenate([[first.u], rest.u]),
                       offsets=np.concatenate([[0], rest.offsets + first.n]))

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

    def __getitem__(self, k):
        if isinstance(k, slice):  # a view of domains start:stop
            start, stop, step = k.indices(len(self))
            if step != 1 or start >= stop:
                raise ValueError("a panel view takes a nonempty run of domains")
            o = self.offsets[start : stop + 1]
            return _record(Panel, x=self.x[o[0] : o[-1]], y=self.y[o[0] : o[-1]],
                           u=self.u[start:stop], offsets=o - o[0])
        k = range(len(self))[k]
        a, b = self.offsets[k], self.offsets[k + 1]
        return DomainSample._view(float(self.u[k]), self.x[a:b], self.y[a:b])

    def __iter__(self) -> Iterator[DomainSample]:
        o = self.offsets.tolist()
        for k, u in enumerate(self.u.tolist()):
            yield DomainSample._view(u, self.x[o[k] : o[k + 1]], self.y[o[k] : o[k + 1]])


@dataclass(frozen=True)
class LocalDesign:
    """Stacked kernel-weighted design around ``center``.

    Rows with zero kernel weight are dropped before solving; ``n_total``
    still counts every observation that was offered, which is the ``n``
    entering the ``(nh)`` scalings of the variance estimators.
    Every kept row has the weight ``weight = W / window.s_h``, so the row
    weights sum to one.  ``window`` is the kernel window the rows were
    taken from.
    """

    z: np.ndarray  # (N_eff, (l+1) p)
    y: np.ndarray  # (N_eff,)
    weight: float  # W / S_h, the weight of every row
    order: int
    bandwidth: float
    center: float
    n_total: int
    p: int
    window: KernelWindow


def uniform_kernel(t):
    """Uniform kernel W(t) = 1/2 on |t| <= 1 (boundary included), 0 outside."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, _KERNEL_HEIGHT, 0.0)


_MAX_ORDER = 170  # t^l / l! takes l! as a float, and 171! overflows one


def _powers(t: float, l: int) -> list[float]:
    return [t**j / math.factorial(j) for j in range(l + 1)]


def poly_features(t: float, l: int) -> np.ndarray:
    """Polynomial feature map (1, t, t^2/2!, ..., t^l/l!)."""
    if not 0 <= l <= _MAX_ORDER:
        raise ValueError(f"polynomial order must be between 0 and {_MAX_ORDER}, got {l}")
    return np.array(_powers(t, l))


@dataclass(frozen=True)
class KernelWindow:
    """The domains of ``panel`` with ``W(t_k) > 0``, ``t_k = (U_k - u0) / h``.

    Per in-window domain, in panel order: its position ``index`` in the
    panel, its size ``n``, ``t`` and the features ``phi = Phi_l(t)`` (one
    row each); each has the kernel value ``W(t) = _KERNEL_HEIGHT``.
    ``s_h = sum n_k W(t_k)``; ``n_total`` counts every observation offered.
    """

    index: np.ndarray  # (D,)
    n: np.ndarray      # (D,)
    t: np.ndarray      # (D,)
    phi: np.ndarray    # (D, l+1)
    s_h: float
    n_total: int
    panel: Panel


def kernel_window(
    domains: Panel | Sequence[DomainSample], u0: float, h: float, l: int
) -> KernelWindow:
    """Locate the in-window domains of ``domains`` around ``u0``; may be empty.

    A domain is inside when ``|t| <= 1``, where the uniform kernel is
    positive.  ``phi`` is :func:`poly_features` of each Python-float
    ``t``: numpy's vectorised power can differ from it in the last bit.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {h}")
    if not 0 <= l <= _MAX_ORDER:
        raise ValueError(f"polynomial order must be between 0 and {_MAX_ORDER}, got {l}")
    panel = Panel.of(domains)
    t_all = (panel.u - u0) / h
    index = (np.abs(t_all) <= 1.0).nonzero()[0]
    t = t_all[index]
    n = panel.sizes[index]
    phi = np.array([_powers(tk, l) for tk in t.tolist()])
    return _record(
        KernelWindow, index=index, n=n, t=t, phi=phi.reshape(index.size, l + 1),
        s_h=float((_KERNEL_HEIGHT * n).sum()), n_total=panel.n, panel=panel,
    )


@lru_cache(maxsize=64)
def _kron_columns(p: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an order-``l`` Kronecker row over ``p`` covariates: the
    covariate it multiplies and the polynomial feature it multiplies by."""
    cols, blocks = np.tile(np.arange(p), l + 1), np.repeat(np.arange(l + 1), p)
    cols.flags.writeable = blocks.flags.writeable = False
    return cols, blocks


def build_local_design(
    domains: Panel | Sequence[DomainSample], u0: float, h: float, l: int
) -> LocalDesign:
    """Stack ``Phi_l((U_k - u0)/h) (x) X_ki`` over all in-window observations.

    Parameters
    ----------
    domains : Panel or sequence of DomainSample
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
    return _record(
        LocalDesign, z=z, y=y, weight=_KERNEL_HEIGHT / win.s_h, order=l,
        bandwidth=h, center=u0, n_total=win.n_total, p=panel.p, window=win,
    )


def domain_distances(
    domains: Panel | Sequence[DomainSample], u0: float
) -> tuple[np.ndarray, float, float]:
    """Sorted distances |u0 - U_k| over source domains, with d_(1) and d_(K).

    The target always sits at distance zero, so callers pass source
    domains only; an empty sequence is an argument error.
    """
    if not domains:
        raise ValueError("at least one source domain is required")
    # a panel's identifiers are read from its array, not from views
    u = domains.u if isinstance(domains, Panel) else np.array([d.u for d in domains])
    d = np.sort(np.abs(u - u0))
    return d, float(d[0]), float(d[-1])
