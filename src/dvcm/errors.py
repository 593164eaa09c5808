"""Exception types shared across the package.

Every error raised by the library derives from :class:`DvcmError` and
carries a ``module`` attribute naming the subsystem that failed, so the
command-line layer can prefix diagnostics uniformly.
"""

from __future__ import annotations


class DvcmError(Exception):
    """Base class for all library errors."""

    module = "dvcm"

    def __str__(self) -> str:
        return f"{self.module}: {super().__str__()}"


class DomainError(DvcmError, ValueError):
    """Non-finite or out-of-domain numeric input."""

    module = "family"


class EmptyWindowError(DvcmError):
    """No domain falls inside the kernel window around ``u0``.

    ``d1`` carries the distance to the nearest source domain as a hint
    for the smallest usable bandwidth.
    """

    module = "design"

    def __init__(self, message: str, d1: float | None = None):
        super().__init__(message)
        self.d1 = d1


class SingularSystemError(DvcmError):
    """A linear system required by an estimator is (numerically) singular.

    ``cond``, the condition number of the failed ``matrix`` that ``str``
    also prints, is computed by ``np.linalg.cond`` when first read and then
    cached, so a caller that catches the error runs no SVD; the matrix (or
    the cached number) travels with the error through ``pickle``.
    """

    module = "estimators"

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self._matrix, self._cond = matrix, None

    @property
    def cond(self) -> float | None:
        if self._cond is None and self._matrix is not None:
            import numpy as np  # loaded already by whoever built the matrix

            self._cond, self._matrix = float(np.linalg.cond(self._matrix)), None
        return self._cond

    def __str__(self) -> str:
        cond = self.cond
        return super().__str__() + ("" if cond is None else f" (condition number ~ {cond:.3e})")


class DegenerateVarianceError(DvcmError):
    """The variance function b'' vanishes at some observation."""

    module = "penalty"


class DegenerateScaleError(DvcmError):
    """A rescaling operation received a constant vector."""

    module = "dataio"


class SchemaError(DvcmError):
    """A named column is missing from an input table, or is named for two roles."""

    module = "dataio"


class ParseError(DvcmError):
    """A cell of an input file failed to parse, with its location."""

    module = "dataio"

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        if row is not None or column is not None:
            message = f"{message} (row {row}, column {column!r})"
        super().__init__(message)
        self.row = row
        self.column = column


class ExperimentError(DvcmError):
    """A Monte-Carlo experiment failed in too many replications."""

    module = "simulation"
