"""Canonical exponential-family models: Gaussian, logistic, Poisson.

Each family is described through its cumulant function ``b`` and the
derivatives ``b', b'', b'''``; the per-observation loss is the negative
log-likelihood ``l(eta, y) = b(eta) - y * eta`` (Gaussian uses the exact
squared-error form ``(eta - y)^2 / 2``, which differs only by a term
constant in ``eta``, so that least-squares closed forms hold with
equality).  The mean function ``b'`` doubles as the inverse canonical
link.  All functions are vectorised and stateless.  The solvers use the
first two loss derivatives alone (``score_curvature``); b''' is computed
only when all three are asked for (``loss_derivatives``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._scipy import extension
from .errors import DomainError

__all__ = ["ModelFamily", "GAUSSIAN", "LOGISTIC", "POISSON", "FAMILIES", "get_family"]

expit = extension("special", "_ufuncs").expit


def _finite(a) -> bool:
    """Whether every entry of ``a`` is finite; counting the finite entries
    costs a fraction of ``np.isfinite(a).all()``'s call overhead."""
    finite = np.isfinite(a)
    return np.count_nonzero(finite) == finite.size


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not _finite(a):
            raise DomainError("non-finite value in loss input")


def _logistic_b(eta):
    # log(1 + e^eta) = log1p(e^{-|eta|}) + max(eta, 0); stable for |eta| > 35
    eta = np.asarray(eta, dtype=float)
    return np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0)


def _logistic_b2(eta):
    mu = expit(eta)
    return mu * (1.0 - mu)


def _logistic_b3(eta):
    mu = expit(eta)
    return mu * (1.0 - mu) * (1.0 - 2.0 * mu)


@dataclass(frozen=True)
class ModelFamily:
    """Exponential-family description used by every estimator.

    Attributes
    ----------
    kind : str
        One of ``"gaussian"``, ``"logistic"``, ``"poisson"``.
    b, b1, b2, b3 : callables
        Cumulant function and its first three derivatives; ``b1`` is the
        mean function and inverse canonical link, ``b2 >= 0`` everywhere.
    """

    kind: str
    b: Callable = field(repr=False)
    b1: Callable = field(repr=False)
    b2: Callable = field(repr=False)
    b3: Callable = field(repr=False)

    def check_response(self, y) -> None:
        """Raise DomainError, naming the family and the first value outside
        its support, unless logistic ``y`` lies in [0, 1] and Poisson ``y``
        is nonnegative; Gaussian takes any ``y`` and checks nothing."""
        if self.kind == "gaussian":
            return
        y = np.asarray(y, dtype=float)
        bad = (y < 0.0) | (y > 1.0) if self.kind == "logistic" else y < 0.0
        if bad.any():
            support = "[0, 1]" if self.kind == "logistic" else "[0, inf)"
            raise DomainError(f"the {self.kind} family needs responses in {support}, "
                              f"got {float(y[bad.argmax()])!r}")

    def loss(self, eta, y):
        """Negative log-likelihood l(eta, y), elementwise.

        Gaussian returns ``(eta - y)^2 / 2`` exactly; the GLM form
        ``b(eta) - y * eta`` is used otherwise.
        """
        _check_finite(eta, y)
        if self.kind == "gaussian":
            d = np.asarray(eta, dtype=float) - np.asarray(y, dtype=float)
            return 0.5 * d * d
        return self.b(eta) - np.asarray(y, dtype=float) * np.asarray(eta, dtype=float)

    def score_curvature(self, eta, y):
        """First two eta-derivatives of the loss: ``(b'(eta) - y, b''(eta))``."""
        _check_finite(eta, y)
        eta = np.asarray(eta, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "logistic":
            # one expit for both: b1 and b2 compute these same values
            mu = expit(eta)
            return mu - y, mu * (1.0 - mu)
        return self.b1(eta) - y, self.b2(eta)

    def loss_derivatives(self, eta, y):
        """First three eta-derivatives of the loss: (s1, s2, s3).

        ``s1 = b'(eta) - y``, ``s2 = b''(eta)``, ``s3 = b'''(eta)``.
        """
        s1, s2 = self.score_curvature(eta, y)
        return s1, s2, self.b3(np.asarray(eta, dtype=float))


GAUSSIAN = ModelFamily(
    kind="gaussian",
    b=lambda eta: 0.5 * np.asarray(eta, dtype=float) ** 2,
    b1=lambda eta: np.asarray(eta, dtype=float),
    b2=lambda eta: np.ones_like(np.asarray(eta, dtype=float)),
    b3=lambda eta: np.zeros_like(np.asarray(eta, dtype=float)),
)

LOGISTIC = ModelFamily(
    kind="logistic",
    b=_logistic_b,
    b1=expit,
    b2=_logistic_b2,
    b3=_logistic_b3,
)

POISSON = ModelFamily(
    kind="poisson",
    b=np.exp,
    b1=np.exp,
    b2=np.exp,
    b3=np.exp,
)

FAMILIES = {f.kind: f for f in (GAUSSIAN, LOGISTIC, POISSON)}


def get_family(name: str) -> ModelFamily:
    """Resolve a family from its string token (case-insensitive)."""
    try:
        return FAMILIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None
