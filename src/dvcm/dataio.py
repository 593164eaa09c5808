"""CSV ingestion and the real-data preprocessing pipeline.

The pipeline mirrors the survey-data protocol: filter identifier
outliers beyond k standard deviations, min-max scale the identifier to
[0, 1], bin into equal-width intervals whose midpoints become the domain
identifiers, and split the target bin into pilot / fine-tune / test
parts by a seeded shuffle.

Ingest is vectorised: ``load_csv`` reads the header with ``csv`` and
parses every data row in one ``numpy.loadtxt`` call (no comment
character, so ``#`` is an ordinary cell character).  Only a file that
call rejects, or one with no data rows or a width unlike the header's,
is scanned again cell by cell with ``csv`` and ``float()``; that scan
accepts what ``float()`` accepts (quoted cells, ``1_000``) or raises the
ParseError naming the first bad row and column.  Both give the same
floats for a cell both accept.  A ParseError's row is the line number in
the file, blank lines included; a clean file is never mapped to lines.

Every column of the file is parsed and checked finite, used or not.
Ingest then holds the parsed table plus one projected copy: ``load_csv``
writes ``(u, [1,] x..., y)`` straight from the parsed columns into one
preallocated array and releases the parsed table before it returns.
The caller owns that array, so the sigma filter gathers kept rows only
when it drops some, and the scaled identifier is written back in place.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .design import DomainSample, Panel
from .errors import DegenerateScaleError, ParseError, SchemaError

__all__ = [
    "RawTable",
    "BinnedPanel",
    "load_csv",
    "evaluate_column_expr",
    "sigma_filter",
    "minmax_scale",
    "bin_domains",
    "split_target",
]


@dataclass(frozen=True)
class RawTable:
    """Rectangular numeric table with columns ordered (u, x..., y)."""

    headers: tuple[str, ...]
    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def u(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.rows[:, 1:-1]

    @property
    def y(self) -> np.ndarray:
        return self.rows[:, -1]


@dataclass(frozen=True)
class BinnedPanel:
    """Domains produced by binning scaled identifiers to bin midpoints."""

    domains: Panel
    bin_edges: np.ndarray


def _records(fh, name: str):
    """``(line, cells)`` of every non-blank record of ``fh`` after the header,
    read from the start of the file; ``line`` is the file line it starts on."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise ParseError(f"{name}: {exc}", row=line) from None
        if row:
            yield line, row


def _scan_cells(fh, name: str, headers: Sequence[str]) -> np.ndarray:
    """Parse every data row of ``fh`` cell by cell with ``csv`` and ``float()``.

    The fallback of ``load_csv``: it reads from the start of the file,
    accepts what ``float()`` accepts (quoted cells, ``1_000``) and
    otherwise raises the ParseError that locates the first bad row, and
    the column of a bad cell.
    """
    width = len(headers)
    records = list(_records(fh, name))
    data = np.empty((len(records), width))
    for i, (line, row) in enumerate(records):
        if len(row) != width:
            raise ParseError(
                f"{name}: expected {width} cells, found {len(row)}", row=line
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{name}: non-numeric cell {cell!r}",
                    row=line,
                    column=headers[j],
                ) from None
    return data


def load_csv(
    path,
    u_column: str | None,
    x_columns: Sequence[str],
    y_column: str,
    add_intercept: bool = True,
    *,
    u_expr: str | None = None,
) -> RawTable:
    """Load a comma-separated numeric table, reordered to (u, x..., y).

    Exactly one of ``u_column`` / ``u_expr`` selects the domain
    identifier; ``u_expr`` is an arithmetic expression over column names
    (e.g. ``"age - education - 6"``).  ``add_intercept`` prepends a
    column of ones to the covariate block.

    ``csv.reader`` reads the header; every data row and every column is
    parsed (and checked finite) whether or not it is used, by numpy's C
    reader when it can take the file, else by a per-cell scan that names
    the row and column of the first bad cell.  Blank lines are skipped;
    a reported row is the line number in the file (the header is line 1,
    blank lines count).

    The used columns are copied once, into the returned table's rows;
    the parsed table is released before this returns, so the caller
    holds one copy of the data and may modify it.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    with open(path, newline="") as fh:
        try:
            headers = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path.name}: {exc}", row=1) from None
        index = {h: i for i, h in enumerate(headers)}

        if (u_column is None) == (u_expr is None):
            raise ValueError("exactly one of u_column / u_expr must be given")
        wanted = list(x_columns) + [y_column] + ([u_column] if u_column else [])
        for name in wanted:
            if name not in index:
                raise SchemaError(f"missing column {name!r} in {path.name}")

        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            data = None
        if data is None or not data.shape[0] or data.shape[1] != len(headers):
            data = _scan_cells(fh, path.name, headers)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path.name}: non-finite value in table")

    if u_expr is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = evaluate_column_expr(u_expr, headers, data)
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:
            with open(path, newline="") as fh:
                line, _ = next(itertools.islice(_records(fh, path.name), int(bad[0]), None))
            raise ParseError(
                f"{path.name}: expression gives non-finite value {float(u[bad[0]])!r}",
                row=line,
                column=u_expr,
            )
    else:
        u = data[:, index[u_column]]
    first = 2 if add_intercept else 1
    rows = np.empty((data.shape[0], first + len(x_columns) + 1))
    rows[:, 0] = u
    if add_intercept:
        rows[:, 1] = 1.0
    for j, name in enumerate(x_columns, start=first):
        rows[:, j] = data[:, index[name]]
    rows[:, -1] = data[:, index[y_column]]

    out_headers = (
        ("u",)
        + (("intercept",) if add_intercept else ())
        + tuple(x_columns)
        + (y_column,)
    )
    return RawTable(headers=out_headers, rows=rows)


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+\.?\d*(?:[eE][+-]?\d+)?|[-+*/()])")


def evaluate_column_expr(expr: str, headers: Sequence[str], data: np.ndarray) -> np.ndarray:
    """Evaluate an arithmetic expression over column names, row-wise.

    Supports + - * /, parentheses, numeric literals; column names resolve
    to table columns.  A tiny recursive-descent parser keeps this free of
    eval().
    """
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            raise ValueError(f"cannot parse column expression at: {expr[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel
    parser = _ExprParser(expr, tokens, {h: i for i, h in enumerate(headers)}, data)
    result = parser.parse_sum()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in expression {expr!r}")
    return np.broadcast_to(np.asarray(result, dtype=float), (data.shape[0],)).copy()


class _ExprParser:
    """The recursive descent of ``evaluate_column_expr`` over one token list.

    Methods, not nested closures: closures that call each other form a
    reference cycle, which would keep ``data`` alive until the cyclic
    garbage collector happens to run.
    """

    def __init__(self, expr: str, tokens: list, index: dict, data: np.ndarray):
        self.expr, self.tokens, self.index, self.data = expr, tokens, index, data
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_atom(self):
        tok = self.advance()
        if tok == "(":
            val = self.parse_sum()
            if self.advance() != ")":
                raise ValueError(f"unbalanced parentheses in {self.expr!r}")
            return val
        if tok == "-":
            return -self.parse_atom()
        if tok == "+":
            return self.parse_atom()
        if tok is None:
            raise ValueError(f"unexpected end of expression in {self.expr!r}")
        if tok[0].isdigit() or tok[0] == ".":
            return float(tok)
        if tok in self.index:
            return self.data[:, self.index[tok]]
        raise SchemaError(f"unknown column {tok!r} in expression {self.expr!r}")

    def parse_term(self):
        val = self.parse_atom()
        while self.peek() in ("*", "/"):
            op = self.advance()
            rhs = self.parse_atom()
            val = val * rhs if op == "*" else val / rhs
        return val

    def parse_sum(self):
        val = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val


def sigma_filter(values: Sequence[float], k: float = 3.0) -> np.ndarray:
    """Mask of entries within k sample standard deviations of the mean.

    Zero-variance input keeps everything.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("sigma filter needs at least 2 values")
    sd = np.std(v, ddof=1)
    if sd == 0:
        return np.ones(v.size, dtype=bool)
    return np.abs(v - np.mean(v)) <= k * sd


def minmax_scale(values: Sequence[float]) -> np.ndarray:
    """Rescale to [0, 1] by (v - min) / (max - min)."""
    v = np.asarray(values, dtype=float)
    lo, hi = np.min(v), np.max(v)
    if hi == lo:
        raise DegenerateScaleError("constant vector cannot be min-max scaled")
    return (v - lo) / (hi - lo)


def bin_domains(table: RawTable, n_bins: int = 10) -> BinnedPanel:
    """Group observations into equal-width identifier bins.

    The first bin is closed ``[0, 1/n_bins]``; the rest are left-open
    ``(a, b]``, matching midpoints ``(j - 0.5) / n_bins``.  Occupied bins
    become the domains of one panel, at their midpoints and in bin order.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    if table.n == 0:
        raise ValueError("cannot bin an empty table")
    u = table.u
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("identifiers must lie in [0, 1]; scale them first")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    # (a, b] bins with the first closed at 0: ceil(u * n_bins) - 1, u=0 -> bin 0
    idx = np.ceil(u * n_bins).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # rows grouped by bin, in file order within each bin; a stable sort of
    # the smallest integer type that holds the bin index runs as a radix sort
    idx = idx.astype(np.min_scalar_type(n_bins))
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(n_bins + 1))
    occupied = np.flatnonzero(np.diff(bounds))
    domains = Panel(x=table.x[order], y=table.y[order], u=(occupied + 0.5) / n_bins,
                    offsets=np.append(bounds[occupied], bounds[-1]))
    return BinnedPanel(domains=domains, bin_edges=edges)


def split_target(
    target: DomainSample, fractions: Sequence[float], rng: np.random.Generator
) -> list[DomainSample]:
    """Partition a domain by a seeded shuffle into the given proportions.

    Sizes follow the fractions with any remainder distributed one row at
    a time to the earliest parts; identical seeds give identical splits.
    """
    f = np.asarray(fractions, dtype=float)
    if np.any(f <= 0):
        raise ValueError("fractions must be positive")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {f.sum()}")
    n = target.n
    if n < f.size:
        raise ValueError(f"cannot split {n} rows into {f.size} nonempty parts")
    base = np.floor(f * n).astype(int)
    base = np.maximum(base, 1)
    while base.sum() > n:
        base[np.argmax(base)] -= 1
    rem = n - base.sum()
    for i in range(rem):
        base[i % f.size] += 1
    perm = rng.permutation(n)
    parts = []
    start = 0
    for size in base:
        take = np.sort(perm[start : start + size])
        parts.append(DomainSample(u=target.u, x=target.x[take], y=target.y[take]))
        start += size
    return parts
