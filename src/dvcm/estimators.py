"""Point estimators: target-only (G)LR, pooled (G)DVCM, penalized transfer.

All three reduce to minimising a weighted sum of convex per-observation
losses, optionally plus a quadratic penalty ``0.5 ||alpha - c||_Q^2``;
:func:`newton_weighted` is the shared solver.  For the Gaussian family
every problem is a linear system, solved exactly by symmetric
positive-definite factorisation.  Every weighted Gram matrix
``Z' diag(v) Z`` of the package is :func:`gram`, and every Cholesky
factorisation and solve is :func:`spd_factor` / :func:`spd_solve`, which
call LAPACK ``dpotrf`` / ``dpotrs`` directly: the routines behind
scipy's Cholesky helpers, so the bits are the same at a fraction of the
call cost.  A non-finite matrix raises DomainError and a singular one
SingularSystemError, never a regularised answer (that would mask data
problems).

The two routines are taken from scipy's f2py extension
``scipy.linalg._flapack``, and the four special functions the package
uses (``expit`` in :mod:`dvcm.families`; ``erfc``, ``gammaincc`` and
``ndtri`` in :mod:`dvcm.inference`) from ``scipy.special._ufuncs``.
:func:`dvcm._scipy.extension` loads each from its file in scipy's
directory, because importing them through ``scipy.linalg.lapack`` and
``scipy.special`` would first run both package inits, which load
scipy's array-API layer, ``numpy.testing``, ``numpy.f2py`` and more
that the package never uses.  ``_ufuncs`` imports its sibling extensions
relatively while it initialises, which needs a ``scipy.special`` entry
in ``sys.modules``: a bare stand-in for the package sits there for the
length of that one load (as one for ``scipy.linalg`` does while
``_flapack`` loads), so both are gone once ``import dvcm`` returns.  The
routines and ufuncs are the very objects the two scipy packages export,
so every result is bit for bit what they would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._scipy import extension
from .design import DomainSample, LocalDesign, Panel, _record, build_local_design
from .errors import DomainError, SingularSystemError
from .families import ModelFamily, _finite

__all__ = ["LocalFit", "TLFit", "newton_weighted", "fit_target_only", "fit_dvcm", "fit_tl"]


_flapack = extension("linalg", "_flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


@dataclass(frozen=True)
class LocalFit:
    """Fitted stacked coefficients of a local-polynomial regression.

    ``theta`` is the first ``p``-block of ``alpha`` (the action of the
    selector ``[I_p, 0]``).
    """

    alpha: np.ndarray
    theta: np.ndarray
    design: LocalDesign
    converged: bool
    iterations: int


@dataclass(frozen=True)
class TLFit:
    """Ridge-penalised fine-tuning estimate and its ingredients."""

    theta_tl: np.ndarray
    theta_pilot: np.ndarray
    q: np.ndarray
    converged: bool


def gram(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weighted Gram matrix ``Z' diag(v) Z``."""
    return (z * v[:, None]).T @ z


def spd_factor(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive-definite ``mat``.

    LAPACK ``dpotrf`` on the lower triangle, the upper one left as given;
    the result feeds :func:`spd_solve`.  A non-finite entry raises
    DomainError and a matrix that is not positive definite
    SingularSystemError, both naming ``what``.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    if not _finite(a):
        raise DomainError(f"{what} has a non-finite entry")
    c, info = dpotrf(a, 1, 0)  # lower, clean: positional, as keywords cost more
    if info > 0:
        raise SingularSystemError(f"{what} is singular", cond=float(np.linalg.cond(a)))
    return c


def spd_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` given ``factor = spd_factor(A, ...)`` (LAPACK ``dpotrs``)."""
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != factor.shape[0]:
        raise ValueError(f"right-hand side of shape {b.shape} does not match a "
                         f"{factor.shape[0]}-dimensional system")
    if not _finite(b):
        raise DomainError("right-hand side has a non-finite entry")
    return dpotrs(factor, b, 1)[0]  # lower


def _solve_spd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return spd_solve(spd_factor(mat, "symmetric system"), rhs)


def newton_weighted(
    design_rows: np.ndarray,
    weights: np.ndarray | float,
    y: np.ndarray,
    family: ModelFamily,
    init: np.ndarray,
    penalty: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Minimise ``sum_i w_i l(z_i' a, y_i) [+ 0.5 ||a - c||_Q^2]``.

    ``weights`` is one weight per row, or one number shared by every row.

    Newton iterations with backtracking step halving (factor 1/2, up to
    30 halvings) whenever the objective fails to decrease; convergence is
    declared on gradient max-norm <= ``NEWTON_TOL``.  For the Gaussian
    family the first step solves the normal equations exactly.

    Returns ``(solution, converged, iterations)``; after ``NEWTON_MAX_ITER``
    iterations the best iterate is returned with ``converged=False``.
    """
    z = np.asarray(design_rows, dtype=float)
    w = np.asarray(weights, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    alpha = np.asarray(init, dtype=float).copy()
    q, center = (None, None) if penalty is None else penalty
    if q is not None:
        q = np.asarray(q, dtype=float)
        center = np.asarray(center, dtype=float)

    def objective(a):
        val = float(np.sum(w * family.loss(z @ a, y)))
        if q is not None:
            d = a - center
            val += 0.5 * float(d @ q @ d)
        return val

    obj = objective(alpha)
    iterations = 0
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        eta = z @ alpha
        s1, s2 = family.score_curvature(eta, y)
        grad = z.T @ (w * s1)
        hess = gram(z, w * s2)
        if q is not None:
            grad = grad + q @ (alpha - center)
            hess = hess + q
        if np.max(np.abs(grad)) <= NEWTON_TOL:
            return alpha, True, iterations - 1
        step = _solve_spd(hess, grad)
        # backtracking: halve until the objective decreases; if no scale
        # helps (round-off floor), keep the current iterate
        accepted = False
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            candidate = alpha - scale * step
            cand_obj = objective(candidate)
            if cand_obj <= obj:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        alpha = candidate
        obj = cand_obj

    eta = z @ alpha
    s1, _ = family.score_curvature(eta, y)
    grad = z.T @ (w * s1)
    if q is not None:
        grad = grad + q @ (alpha - center)
    return alpha, bool(np.max(np.abs(grad)) <= NEWTON_TOL), iterations


def fit_target_only(target: DomainSample, family: ModelFamily) -> np.ndarray:
    """Unpenalised target-domain estimate: OLS (Gaussian) or GLM MLE."""
    x, y = target.x, target.y
    family.check_response(y)
    if family.kind == "gaussian":
        return _solve_spd(x.T @ x, x.T @ y)
    alpha, _, _ = newton_weighted(x, 1.0 / target.n, y, family, np.zeros(target.p))
    return alpha


def fit_dvcm(
    domains: Panel | Sequence[DomainSample],
    u0: float,
    h: float,
    l: int,
    family: ModelFamily,
    start: np.ndarray | None = None,
) -> LocalFit:
    """Pooled local-polynomial fit of order ``l`` at ``u0`` with bandwidth ``h``.

    Gaussian solves the weighted normal equations in closed form; other
    families run the weighted Newton solver, initialised with ``start`` in
    the leading block; it defaults to the target-only estimate of the
    nearest domain (zeros when that system is singular), and callers that
    already hold that estimate pass it.
    """
    panel = Panel.of(domains)
    family.check_response(panel.y)
    design = build_local_design(panel, u0, h, l)
    z, w, y = design.z, design.weight, design.y
    dim = z.shape[1]
    if family.kind == "gaussian":
        zw = z * w
        alpha = _solve_spd(zw.T @ z, zw.T @ y)
        converged, iterations = True, 0
    else:
        if start is None:
            nearest = panel[int(np.argmin(np.abs(panel.u - u0)))]
            try:
                start = fit_target_only(nearest, family)
            except SingularSystemError:
                start = 0.0
        init = np.zeros(dim)
        init[: design.p] = start
        alpha, converged, iterations = newton_weighted(z, w, y, family, init)
    return _record(LocalFit, alpha=alpha, theta=alpha[: design.p].copy(), design=design,
                   converged=converged, iterations=iterations)


def fit_tl(
    target_finetune: DomainSample,
    theta_pilot: np.ndarray,
    q: np.ndarray,
    family: ModelFamily,
) -> TLFit:
    """Fine-tune a pilot estimate by ridge-penalised regression on the target.

    Minimises ``(1/n0) sum_i l(x_i' a, y_i) + 0.5 ||a - pilot||_Q^2``;
    for the Gaussian family this is the closed form
    ``(X'X/n0 + Q)^{-1} (X'y/n0 + Q pilot)``.
    """
    theta_pilot = np.asarray(theta_pilot, dtype=float)
    q = np.asarray(q, dtype=float)
    x, y, n0 = target_finetune.x, target_finetune.y, target_finetune.n
    family.check_response(y)
    if family.kind == "gaussian":
        theta = _solve_spd(x.T @ x / n0 + q, x.T @ y / n0 + q @ theta_pilot)
        converged = True
    else:
        theta, converged, _ = newton_weighted(
            x, 1.0 / n0, y, family, theta_pilot.copy(), penalty=(q, theta_pilot)
        )
    return _record(TLFit, theta_tl=theta, theta_pilot=theta_pilot, q=q, converged=converged)
