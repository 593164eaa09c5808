"""CSV ingestion and the real-data preprocessing pipeline.

The pipeline mirrors the survey-data protocol: filter identifier
outliers beyond k standard deviations, min-max scale the identifier to
[0, 1], bin into equal-width intervals whose midpoints become the domain
identifiers, and split the target bin into pilot / fine-tune / test
parts by a seeded shuffle.

Ingest is vectorised: ``load_csv`` reads the header with ``csv``, and
numpy's C reader alone parses the data rows, ``"``-quoted cells included
(no comment character, so ``#`` is an ordinary cell character).  numpy
reads the file by name, in chunks; a name ending ``.gz``, ``.bz2``,
``.xz`` or ``.lzma`` is handed over as an open handle instead, so numpy
reads it as plain text, not through a decompressor.  A file numpy
refuses is read again with ``csv`` and ``float()`` only to locate the
error: the ParseError names the line and column of the first ragged
row or bad cell, or else repeats numpy's message (a cell only
``float()`` reads, such as ``1_000``).  Blank lines count in a
ParseError's row; a file that is not text in its encoding raises one
naming the first line with a byte that does not decode.

Every column of the file is parsed and checked finite, used or not.
Ingest then holds the parsed table plus one projected copy: ``load_csv``
writes ``(u, [1,] x..., y)`` straight from the parsed columns into one
preallocated array and releases the parsed table before it returns.
The caller owns that array, so the sigma filter gathers kept rows only
when it drops some, and the scaled identifier is written back in place.
"""

from __future__ import annotations

import ast
import csv
import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .design import Panel, _record
from .errors import DegenerateScaleError, ParseError, SchemaError

__all__ = [
    "RawTable",
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


# the lone surrogates a bad byte decodes to under errors="surrogateescape"
_ESCAPED = re.compile("[\udc80-\udcff]")
# numpy.loadtxt opens a file name with these suffixes through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _undecodable(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a file that is not text in ``exc.encoding``.

    A decoder fails on a whole buffer, not a line, so the file is read
    again with each undecodable byte escaped to a lone surrogate, which
    no valid text holds; the row is the first line holding one.
    """
    with open(path, newline="", encoding=exc.encoding, errors="surrogateescape") as fh:
        line = next((i for i, text in enumerate(fh, start=1) if _ESCAPED.search(text)),
                    None)
    return ParseError(f"{path.name}: not valid {exc.encoding} text: {exc.reason}",
                      row=line)


def _locate(path: Path, headers: Sequence[str], exc: ValueError) -> ParseError:
    """The ParseError for a file numpy's reader refused with ``exc``.

    The file is read again record by record with ``csv``, as plain text:
    the first row whose width is not the header's, or the first cell numpy
    refuses, is named by its line and column, and a byte that does not
    decode by its line.  numpy takes a cell exactly when ``float()`` reads
    it and its stripped text is ASCII without ``_`` (so not ``1_000``); a
    file with none of these gets numpy's own message.
    """
    try:
        with open(path, newline="") as fh:
            for line, row in _records(fh, path.name):
                if len(row) != len(headers):
                    return ParseError(f"{path.name}: expected {len(headers)} cells, "
                                      f"found {len(row)}", row=line)
                for column, cell in zip(headers, row):
                    try:
                        float(cell)
                        if not cell.strip().isascii() or "_" in cell:
                            raise ValueError  # read by float() alone
                    except ValueError:
                        return ParseError(f"{path.name}: non-numeric cell {cell!r}",
                                          row=line, column=column)
    except UnicodeDecodeError as err:
        return _undecodable(path, err)
    return ParseError(f"{path.name}: {exc}")


def _read_header(path: Path) -> tuple[list[str], int, str]:
    """The stripped header cells of ``path``, the file lines they took, and
    the encoding the file was read in.

    The handle, and the buffer the header was decoded from, are released
    on return: numpy parses the file from the start, not from this handle.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [h.strip() for h in next(reader)], reader.line_num, fh.encoding
        except StopIteration:
            raise ParseError(f"{path.name}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path.name}: {exc}", row=1) from None
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def _check_u_source(u_column: str | None, u_expr: str | None) -> None:
    if (u_column is None) == (u_expr is None):
        raise ValueError("exactly one of u_column / u_expr must be given")


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

    ``csv.reader`` reads the header; numpy's C reader parses every data
    row and every column, used or not, and each is checked finite.  A
    file numpy refuses raises a ParseError naming the file line (the
    header is line 1, blank lines count) and column of its first ragged
    row or bad cell, or its first line that does not decode.

    The used columns are copied once, into the returned table's rows;
    the parsed table is released before this returns, so the caller
    holds one copy of the data and may modify it.
    """
    _check_u_source(u_column, u_expr)
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    headers, header_lines, encoding = _read_header(path)
    index = {h: i for i, h in enumerate(headers)}
    wanted = list(x_columns) + [y_column] + ([u_column] if u_column else [])
    for name in wanted:
        if name not in index:
            raise SchemaError(f"missing column {name!r} in {path.name}")
    for i, name in enumerate(x_columns):
        if name == y_column:
            raise SchemaError(f"column {name!r} is both the response and a covariate")
        if name in x_columns[:i]:
            raise SchemaError(f"covariate column {name!r} is listed twice")
    # bins of an identifier that reads the response would select on the outcome
    u_names = ([u_column] if u_expr is None
               else [o for o in _OPERAND.findall(u_expr) if not o[0].isdecimal()])
    if y_column in u_names:
        raise SchemaError(f"column {y_column!r} is both the response and read by the "
                          f"domain identifier")

    width = len(headers)
    if u_expr is not None:  # its grammar and names, on no rows: before any row is parsed
        with np.errstate(all="ignore"):
            evaluate_column_expr(u_expr, headers, np.empty((0, width)))
    try:
        # numpy reads a file faster by name than from a handle, but opens a name
        # ending .gz, .bz2, .xz or .lzma through a decompressor: it gets the handle
        with open(path, newline="", encoding=encoding) as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh if path.suffix in _COMPRESSED_SUFFIXES else path,
                              delimiter=",", comments=None, quotechar='"', ndmin=2,
                              skiprows=header_lines, encoding=encoding)
        if data.shape[0] and data.shape[1] != width:
            raise ValueError(f"expected {width} cells, found {data.shape[1]}")
    except ValueError as exc:  # a UnicodeDecodeError too
        raise _locate(path, headers, exc) from None
    data = data.reshape(-1, width)  # a file without data rows gives shape (0, 1)
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

    out_headers = ("u", *(("intercept",) if add_intercept else ()), *x_columns, y_column)
    return RawTable(headers=out_headers, rows=rows)


# a column name, or a number as float() reads it; neither follows a word character
# or a point, so the "e3" of "1e3" and the "5" of ".5" are left to ast.parse
_OPERAND = re.compile(r"(?<![\w.])(?:[^\W\d]\w*|\d+\.?\d*(?:[eE][+-]?\d+)?(?![\w.]))")
_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
        ast.UAdd: np.positive, ast.USub: np.negative}


def evaluate_column_expr(expr: str, headers: Sequence[str], data: np.ndarray) -> np.ndarray:
    """Evaluate an arithmetic expression over column names, row-wise.

    The grammar: + - * /, unary + and -, parentheses, numbers, and column
    names (Python keywords such as ``class`` included), with any whitespace
    between.  Names and numbers are swapped for placeholders before
    ``ast.parse``; a walker evaluates the tree in float64, without eval().
    """
    operands = []  # the i-th name or number becomes the placeholder _i
    text = _OPERAND.sub(lambda m: operands.append(m[0]) or f"_{len(operands) - 1}",
                        " ".join(expr.split()))
    index = {h: i for i, h in enumerate(headers)}
    values = {}
    for i, operand in enumerate(operands):
        if operand[0].isdecimal():
            values[f"_{i}"] = np.float64(float(operand))
        elif operand in index:
            values[f"_{i}"] = data[:, index[operand]]
        else:
            raise SchemaError(f"unknown column {operand!r} in expression {expr!r}")
    try:
        if "#" in text:  # a comment would hide the rest of the expression
            raise SyntaxError
        result = _walk(ast.parse(text, mode="eval").body, values)
    except (SyntaxError, RecursionError, OverflowError):
        raise ValueError(f"cannot parse column expression {expr!r}") from None
    except ValueError as exc:  # from _walk: restore the names in the node's text
        part = re.sub(r"(?<![\w.])_(\d+)", lambda m: operands[int(m[1])], str(exc))
        raise ValueError(f"column expression {expr!r}: {part!r} is not + - * /, "
                         "unary + -, a number or a column name") from None
    return np.broadcast_to(np.asarray(result, dtype=float), (data.shape[0],)).copy()


def _walk(node: ast.AST, values: dict):
    """The float64 value of one node of a parsed column expression."""
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_walk(node.left, values), _walk(node.right, values))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_walk(node.operand, values))
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id in values:
        return values[node.id]
    raise ValueError(ast.unparse(node))


def _parse_list(text: str, option: str, kind: str = "number") -> list:
    """The comma-separated ``option``, each part stripped: a number, with ``kind="fraction"``
    also ``a/b``, or with ``kind="name"`` a nonempty name, of which an empty ``text`` is
    the empty list; a ValueError names ``option`` and the part it refuses."""
    if kind == "name":
        names = [tok.strip() for tok in text.split(",")] if text.strip() else []
        if "" in names:
            raise ValueError(f"{option} part '' is not a name, in {text!r}")
        return names
    values = []
    for tok in (tok.strip() for tok in text.split(",")):
        num, slash, den = tok.partition("/") if kind == "fraction" else (tok, "", "")
        try:
            a, b = float(num), float(den) if slash else 1.0
        except ValueError:
            noun = "a number or a fraction a/b" if kind == "fraction" else "a number"
            raise ValueError(f"{option} part {tok!r} is not {noun}") from None
        if b == 0:
            raise ValueError(f"{option} part {tok!r} has a zero denominator")
        values.append(a / b)
    return values


def _check_sigma_k(k: float) -> None:
    if not k >= 0:  # NaN too: either would drop every row
        raise ValueError(f"--sigma-k must be nonnegative, got {k}")


def sigma_filter(values: Sequence[float], k: float = 3.0) -> np.ndarray:
    """Mask of entries within k sample standard deviations of the mean.

    Zero-variance input keeps everything; ``k`` is nonnegative.
    """
    _check_sigma_k(k)
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


def _check_bins(n_bins: int) -> None:
    # bin indices and j + 0.5 are exact in float64, ceil(u * n_bins) in int64
    if not 2 <= n_bins <= 2**52:
        raise ValueError(f"need between 2 and 2**52 bins, got {n_bins}")


def bin_domains(table: RawTable, n_bins: int = 10) -> Panel:
    """Group observations into equal-width identifier bins.

    The first bin is closed ``[0, 1/n_bins]``; the rest are left-open
    ``(a, b]``, matching midpoints ``(j - 0.5) / n_bins``.  Occupied bins
    become the domains of one panel, at their midpoints and in bin order;
    ``n_bins`` lies in ``[2, 2**52]``.
    """
    _check_bins(n_bins)
    if table.n == 0:
        raise ValueError("cannot bin an empty table")
    u = table.u
    if not np.all((u >= 0) & (u <= 1)):  # NaN included
        raise ValueError("identifiers must lie in [0, 1]; scale them first")
    # (a, b] bins with the first closed at 0: ceil(u * n_bins) - 1, u=0 -> bin 0
    idx = np.ceil(u * n_bins).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # rows grouped by bin, in file order within each bin; a stable sort of
    # the smallest integer type that holds the bin index runs as a radix sort
    idx = idx.astype(np.min_scalar_type(n_bins))
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    # an occupied bin starts where the sorted index changes: no array per possible bin
    offsets = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1, [idx.size]))
    return Panel(x=np.take(table.x, order, axis=0), y=np.take(table.y, order),
                 u=(idx[offsets[:-1]] + 0.5) / n_bins, offsets=offsets)


def _check_fractions(fractions: Sequence[float]) -> None:
    f = np.asarray(fractions, dtype=float)
    if not np.all(f > 0):  # NaN too
        raise ValueError("fractions must be positive")
    if not abs(f.sum() - 1.0) <= 1e-9:
        raise ValueError(f"fractions must sum to 1, got {f.sum()}")


def split_target(
    target: Panel, fractions: Sequence[float], rng: np.random.Generator
) -> list[Panel]:
    """Partition a one-domain panel by a seeded shuffle into the given proportions.

    Sizes follow the fractions with any remainder distributed one row at
    a time to the earliest parts; identical seeds give identical splits.
    Each part is a one-domain panel at the target's identifier.
    """
    if len(target) != 1:
        raise ValueError(f"split_target takes one domain, got a panel of {len(target)} domains")
    _check_fractions(fractions)
    f = np.asarray(fractions, dtype=float)
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
    # rows of a checked panel: the parts need no check of their own
    return [_record(Panel, x=target.x[take], y=target.y[take], u=target.u,
                    offsets=np.array([0, take.size]))
            for take in map(np.sort, np.split(perm, np.cumsum(base)[:-1]))]
