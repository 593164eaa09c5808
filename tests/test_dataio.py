import csv
import gc
import gzip
import os
import re
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm import cli, dataio
from dvcm.dataio import (
    RawTable,
    bin_domains,
    evaluate_column_expr,
    load_csv,
    minmax_scale,
    sigma_filter,
    split_target,
)
from dvcm.design import DomainSample
from dvcm.errors import DegenerateScaleError, ParseError, SchemaError


@pytest.fixture
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write


class TestLoadCsv:
    def test_basic_three_rows(self, csv_file):
        path = csv_file("u,x1,y\n0.1,2,3\n0.2,4,5\n0.3,6,7\n")
        table = load_csv(path, "u", ["x1"], "y", add_intercept=False)
        assert table.n == 3
        assert table.headers == ("u", "x1", "y")
        assert np.allclose(table.u, [0.1, 0.2, 0.3])
        assert np.allclose(table.y, [3, 5, 7])

    def test_missing_column_named_in_error(self, csv_file):
        path = csv_file("u,x1,y\n0.1,2,3\n")
        with pytest.raises(SchemaError, match="wage"):
            load_csv(path, "u", ["x1"], "wage")

    def test_intercept_prepended(self, csv_file):
        path = csv_file("u,a,b,y\n0.1,2,3,4\n0.5,5,6,7\n")
        table = load_csv(path, "u", ["a", "b"], "y", add_intercept=True)
        assert table.x.shape == (2, 3)
        assert np.all(table.x[:, 0] == 1.0)

    def test_non_numeric_cell_located(self, csv_file):
        path = csv_file("u,x1,y\n0.1,2,3\n0.2,oops,5\n")
        with pytest.raises(ParseError, match=r"row 3.*x1"):
            load_csv(path, "u", ["x1"], "y")

    def test_u_expr(self, csv_file):
        path = csv_file("age,edu,x1,y\n30,10,1,2\n40,12,3,4\n")
        table = load_csv(path, None, ["x1"], "y", add_intercept=False,
                         u_expr="age - edu - 6")
        assert np.allclose(table.u, [14.0, 22.0])

    def test_u_col_xor_u_expr(self, csv_file):
        path = csv_file("u,x1,y\n0.1,2,3\n")
        with pytest.raises(ValueError):
            load_csv(path, "u", ["x1"], "y", u_expr="u + 1")
        with pytest.raises(ValueError):
            load_csv(path, None, ["x1"], "y")

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_csv("/nonexistent/file.csv", "u", ["x"], "y")


def float_reference(path):
    """The data rows of ``path`` as ``csv`` splits them and ``float()`` reads
    them, blank lines skipped; a ValueError for a row unlike the header's width."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        rows = [row for row in reader if row]
    if any(len(row) != width for row in rows):
        raise ValueError("a row's width is not the header's")
    return np.array([[float(cell) for cell in row] for row in rows]).reshape(-1, width)


def load_in_file_order(path, width):
    """``load_csv`` with u, x and y chosen so its rows keep the file's column order."""
    names = [f"c{j}" for j in range(width)]
    return load_csv(path, names[0], names[1:-1], names[-1], add_intercept=False)


_number = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda m, e, c: f"{m}{c}{e:+d}", st.integers(-999, 999),
              st.integers(-300, 300), st.sampled_from("eE")),
)
_cell = st.builds(lambda a, v, b: a + v + b, st.sampled_from(["", " ", "  ", "\t"]),
                  _number, st.sampled_from(["", " ", "\t "]))
_quoted_cell = _cell.map('"{}"'.format)


@st.composite
def numeric_tables(draw, cell=_cell):
    """CSV text of a clean numeric table: header c0..c{w-1}, blank lines, LF or CRLF."""
    width = draw(st.integers(2, 5))
    lines = [",".join(f"c{j}" for j in range(width))]
    for row in draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                             min_size=1, max_size=12)):
        lines.extend([""] * draw(st.integers(0, 2)) + [",".join(row)])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return width, eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


def handle_reference(path):
    """The parse of ``path`` by numpy's C reader taking the data rows as Python
    lines from the handle ``csv`` read the header from; None if it refuses it."""
    with open(path, newline="") as fh:
        width = len(next(csv.reader(fh)))
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            return None
    if data.size and data.shape[1] != width:
        return None
    return data.reshape(-1, width)


@st.composite
def line_ended_tables(draw):
    """CSV text of a numeric table as a file may end its lines.

    LF, CRLF or lone CR; blank lines, sometimes a whitespace-only line,
    a final line end or none, and a header whose first cell is quoted
    across two lines.
    """
    width = draw(st.integers(2, 5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    first = draw(st.sampled_from(["c0", '"c0"', f'"{eol}c0"', f'" c0{eol}{eol}"']))
    lines = [",".join([first] + [f"c{j}" for j in range(1, width)])]
    for row in draw(st.lists(st.lists(_cell, min_size=width, max_size=width),
                             min_size=1, max_size=12)):
        lines.extend([""] * draw(st.integers(0, 2)) + [",".join(row)])
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from([" ", "\t", "  "])))
    return width, eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


class TestIngestPaths:
    """numpy's C reader parses every file as ``float()`` would; a record scan
    runs only to locate the error in a file numpy refuses."""

    @given(numeric_tables(st.one_of(_cell, _quoted_cell)))
    @settings(max_examples=80, deadline=None)
    def test_matches_float_reference_bitwise(self, tmp_path_factory, table):
        width, text = table
        path = tmp_path_factory.mktemp("ingest") / "t.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataio, "_records", wraps=dataio._records) as records:
            rows = load_in_file_order(path, width).rows
        assert records.call_count == 0
        want = float_reference(path)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()

    # (text, str(error), row, column) as raised before numpy's reader was added,
    # except that a row now counts blank lines: it is the line in the file
    MALFORMED = {
        "ragged_row": ("u,x1,y\n0.1,2,3\n0.2,4\n",
            "dataio: data.csv: expected 3 cells, found 2 (row 3, column None)", 3, None),
        "empty_cell": ("u,x1,y\n0.1,,3\n",
            "dataio: data.csv: non-numeric cell '' (row 2, column 'x1')", 2, "x1"),
        "trailing_comma": ("u,x1,y\n0.1,2,3,\n",
            "dataio: data.csv: expected 3 cells, found 4 (row 2, column None)", 2, None),
        "word": ("u,x1,y\n0.1,2,3\n0.2,abc,5\n",
            "dataio: data.csv: non-numeric cell 'abc' (row 3, column 'x1')", 3, "x1"),
        "hash_is_not_a_comment": ("u,x1,y\n0.1,2 # c,3\n",
            "dataio: data.csv: non-numeric cell '2 # c' (row 2, column 'x1')", 2, "x1"),
        "hash_in_last_cell": ("u,x1,y\n0.1,2,3 # c\n",
            "dataio: data.csv: non-numeric cell '3 # c' (row 2, column 'y')", 2, "y"),
        "whitespace_only_line": ("u,x1,y\n0.1,2,3\n   \n0.2,3,4\n",
            "dataio: data.csv: expected 3 cells, found 1 (row 3, column None)", 3, None),
        "every_row_too_short": ("u,x1,y\n1,2\n3,4\n",
            "dataio: data.csv: expected 3 cells, found 2 (row 2, column None)", 2, None),
        "blank_lines_counted": ("u,x1,y\n\n0.1,2,3\n\n0.2,x,4\n",
            "dataio: data.csv: non-numeric cell 'x' (row 5, column 'x1')", 5, "x1"),
        "oversized_cell_after_blank_line": ("u,x1,y\n\n0.1," + "9" * 200_000 + "x,3\n",
            "dataio: data.csv: field larger than field limit (131072) (row 3, column None)",
            3, None),
        "hex_literal_crlf": ("u,x1,y\r\n0.1,0x1,3\r\n",
            "dataio: data.csv: non-numeric cell '0x1' (row 2, column 'x1')", 2, "x1"),
        "nan": ("u,x1,y\n0.1,2,nan\n",
            "dataio: data.csv: non-finite value in table", None, None),
        "quoted_word": ('u,x1,y\n0.1,"2",3\n0.2,"b",4\n',
            "dataio: data.csv: non-numeric cell 'b' (row 3, column 'x1')", 3, "x1"),
        "word_in_unused_column": ("u,x1,y,z\n0.1,2,3,4\n0.2,3,4,abc\n",
            "dataio: data.csv: non-numeric cell 'abc' (row 3, column 'z')", 3, "z"),
        "nan_in_unused_column": ("u,z,x1,y\n0.1,2,3,4\n0.2,nan,4,5\n",
            "dataio: data.csv: non-finite value in table", None, None),
        # not valid text: a bare UnicodeDecodeError before, now located
        "bad_byte_in_header": ("u,x\udcff1,y\n0.1,2,3\n",
            "dataio: data.csv: not valid utf-8 text: invalid start byte (row 1, column None)",
            1, None),
        "bad_byte_in_cell": ("u,x1,y\n0.1,2,3\n\n0.2,\udcff3,4\n",
            "dataio: data.csv: not valid utf-8 text: invalid start byte (row 4, column None)",
            4, None),
        "bad_byte_past_the_header_buffer": ("u,x1,y\n" + "0.1,2,3\n" * 3000 + "0.2,3,\udcff\n",
            "dataio: data.csv: not valid utf-8 text: invalid start byte (row 3002, column None)",
            3002, None),
        # read by float() alone, which numpy refuses: named by file line and column
        "underscore_literal": ("u,x1,y\n0.5,1_000,2\n",
            "dataio: data.csv: non-numeric cell '1_000' (row 2, column 'x1')", 2, "x1"),
        "non_ascii_digits": ("u,x1,y\n0.5,2,\u0663\n",
            "dataio: data.csv: non-numeric cell '\u0663' (row 2, column 'y')", 2, "y"),
        "underscore_literal_after_blank_line": ("u,x1,y\n0.1,2,3\n\n0.5,1_000,2\n",
            "dataio: data.csv: non-numeric cell '1_000' (row 4, column 'x1')", 4, "x1"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_error_unchanged(self, case, tmp_path):
        text, message, row, column = self.MALFORMED[case]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode(errors="surrogateescape"))  # "\udcff" -> byte 0xff
        with pytest.raises(ParseError) as err:
            load_csv(path, "u", ["x1"], "y")
        assert (str(err.value), err.value.row, err.value.column) == (message, row, column)

    def test_u_expr_error_row_counts_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,edu,x1,y\n30,12,1,0\n\n\n40,0,1,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, None, ["x1"], "y", u_expr="age / edu")
        assert (err.value.row, err.value.column) == (5, "age / edu")

    def test_clean_file_never_scanned(self, tmp_path, count_calls):
        rng = np.random.default_rng(4)
        path = tmp_path / "clean.csv"
        path.write_text("c0,c1,c2\n" + "".join(
            f"{a!r},{b!r},{c}\n" for a, b, c in
            zip(rng.random(1000).tolist(), rng.normal(size=1000).tolist(),
                rng.integers(0, 9, 1000).tolist())))
        records = count_calls(dataio._records)
        assert load_in_file_order(path, 3).n == 1000
        assert records[0] == 0

    def test_quoted_cell_read_by_numpy_to_same_numbers(self, tmp_path, count_calls):
        plain = tmp_path / "plain.csv"
        plain.write_text("c0,c1,c2\n0.1,2,3\n0.25,4.5,7\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('c0,c1,c2\n0.1,2,3\n0.25," 4.5",7\n"8"\t,"9","1e1"\n')
        records = count_calls(dataio._records)
        want = load_in_file_order(plain, 3).rows
        got = load_in_file_order(quoted, 3).rows
        assert records[0] == 0
        assert got.tobytes() == np.vstack([want, [8.0, 9.0, 10.0]]).tobytes()

    def test_header_only_loads_empty_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "h.csv"
        path.write_text("u,x1,y\n\n")
        assert load_csv(path, "u", ["x1"], "y").rows.shape == (0, 4)
        assert len(recwarn) == 0

    def test_clean_file_parsed_by_name(self, tmp_path, count_calls):
        path = write_wage_csv(tmp_path / "wage.csv", 500)
        records = count_calls(dataio._records)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            load_csv(path, None, ["female", "education"], "highwage",
                     u_expr="age - education - 6")
        assert loadtxt.call_count == 1
        assert isinstance(loadtxt.call_args.args[0], (str, os.PathLike))
        assert records[0] == 0

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_compressed_suffix_loads(self, tmp_path, suffix):
        text = "c0,c1,c2\n0.1,2,3\n\n0.25,4.5,7\n"
        (tmp_path / "t.csv").write_text(text)
        (tmp_path / f"t.csv{suffix}").write_text(text)
        want = load_in_file_order(tmp_path / "t.csv", 3).rows
        got = load_in_file_order(tmp_path / f"t.csv{suffix}", 3).rows
        assert got.shape == (2, 3) and got.tobytes() == want.tobytes()

    def test_every_suffix_numpy_decompresses_is_kept_from_it(self):
        numpy_suffixes = set(np.lib._datasource._file_openers.keys()) - {None}
        assert numpy_suffixes <= set(dataio._COMPRESSED_SUFFIXES)

    def test_gzipped_file_fails_its_header_decode(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        path.write_bytes(gzip.compress(b"u,x1,y\n0.1,2,3\n", mtime=0))
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            with pytest.raises(ParseError) as err:
                load_csv(path, "u", ["x1"], "y")
        assert str(err.value) == ("dataio: t.csv.gz: not valid utf-8 text: "
                                  "invalid start byte (row 1, column None)")
        assert loadtxt.call_count == 0

    @given(line_ended_tables())
    @settings(max_examples=100, deadline=None)
    def test_by_name_matches_handle_read_bitwise(self, tmp_path_factory, table):
        width, text = table
        path = tmp_path_factory.mktemp("ingest") / "t.csv"
        path.write_bytes(text.encode())
        want = handle_reference(path)
        if want is None:  # a whitespace-only line is a ragged row
            with pytest.raises(ValueError):
                float_reference(path)
            with pytest.raises(ParseError, match="expected .* cells, found"):
                load_in_file_order(path, width)
            return
        rows = load_in_file_order(path, width).rows
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
        assert rows.tobytes() == float_reference(path).tobytes()


def ingest_args(path, *extra):
    """``dvcm fit`` arguments for ``cli._ingest``: the fit options keep their defaults."""
    return cli.build_parser().parse_args(["fit", "--data", str(path), "--u0", "0.25", *extra])


def write_wage_csv(path, rows, seed=0):
    """A wage-like table of six columns, experience = age - education - 6."""
    rng = np.random.default_rng(seed)
    education = rng.integers(8, 21, rows)
    age = education + 6 + rng.integers(0, 46, rows)
    female = rng.integers(0, 2, rows)
    hours = rng.normal(40.0, 8.0, rows)
    logwage = rng.normal(3.0, 0.5, rows)
    highwage = (logwage > 3.2).astype(int)
    path.write_text("age,education,female,hours,logwage,highwage\n" + "".join(
        f"{a},{e},{f},{h!r},{w!r},{y}\n" for a, e, f, h, w, y in
        zip(age.tolist(), education.tolist(), female.tolist(), hours.tolist(),
            logwage.tolist(), highwage.tolist())))
    return path


WAGE_FIT = ("--u-expr", "age - education - 6", "--x-cols", "female,education",
            "--y-col", "highwage")


@pytest.fixture
def gc_off():
    """Only reference counting frees objects: whatever a cycle holds stays alive."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TestParsedTableReleased:
    """Once ingest is done with the parsed table, nothing keeps it alive."""

    def test_expression_keeps_no_reference_to_data(self, gc_off):
        data = np.array([[30.0, 10.0], [40.0, 12.0]])
        ref = weakref.ref(data)
        u = evaluate_column_expr("-(edu - age) / 2 - -1", ["age", "edu"], data)
        del data
        assert ref() is None
        assert u.tolist() == [11.0, 15.0]

    def test_load_csv_releases_the_parsed_table(self, gc_off, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("age,edu,x1,y\n30,10,1,2\n40,12,3,4\n")
        parsed = []
        loadtxt = np.loadtxt

        def recording_loadtxt(*args, **kwargs):
            out = loadtxt(*args, **kwargs)
            parsed.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        table = load_csv(path, None, ["x1"], "y", u_expr="age - edu - 6")
        assert len(parsed) == 1 and parsed[0]() is None
        assert table.rows.tolist() == [[14.0, 1.0, 1.0, 2.0], [22.0, 1.0, 3.0, 4.0]]


class TestIngestMemory:
    def test_ingest_holds_one_projected_copy(self, tmp_path, traced_peak):
        rows = 20_000
        args = ingest_args(write_wage_csv(tmp_path / "wage.csv", rows), *WAGE_FIT)
        cli._ingest(args)  # lazy imports and caches stay out of the measurement
        with traced_peak() as mem:
            panel, diag = cli._ingest(args)
        parsed_bytes = rows * 6 * 8
        assert diag["rows_kept"] == rows
        assert mem.peak <= 3 * parsed_bytes
        assert mem.live <= parsed_bytes


def old_ingest(path, u_col, u_expr, x_cols, y_col, intercept, sigma_k, bins):
    """The ingest chain as it was before the single projection, kept as an oracle.

    A per-cell parse, the ``column_stack`` projection, the ``RawTable.keep``
    and ``replace_u`` copies, and rows grouped bin by bin in file order.
    ``u_expr`` is evaluated by Python over the columns.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        headers = [h.strip() for h in next(reader)]
        data = np.array([[float(c) for c in row] for row in reader if row])
    n = data.shape[0]
    cols = {h: data[:, j] for j, h in enumerate(headers)}
    if u_expr is None:
        u = cols[u_col]
    else:
        u = np.broadcast_to(eval(u_expr, {"__builtins__": {}}, cols), (n,)).copy()
    x = data[:, [headers.index(c) for c in x_cols]]
    if intercept:
        x = np.column_stack([np.ones(n), x])
    rows = np.column_stack([u, x, cols[y_col]])
    kept = rows[sigma_filter(rows[:, 0], k=sigma_k)]
    scaled = kept.copy()
    scaled[:, 0] = minmax_scale(kept[:, 0])
    idx = np.clip(np.ceil(scaled[:, 0] * bins).astype(int) - 1, 0, bins - 1)
    occupied = [j for j in range(bins) if np.any(idx == j)]
    counts = [int(np.count_nonzero(idx == j)) for j in occupied]
    mids = (np.array(occupied) + 0.5) / bins
    diag = {"rows_read": n, "rows_kept": kept.shape[0], "bins_occupied": len(occupied),
            "bin_counts": {str(float(m)): c for m, c in zip(mids, counts)}}
    return (np.concatenate([scaled[idx == j, 1:-1] for j in occupied]),
            np.concatenate([scaled[idx == j, -1] for j in occupied]),
            mids, np.cumsum([0] + counts), diag)


@st.composite
def ingest_cases(draw, drops):
    """A table a,b,c,y,z (z unused) and the ingest options to run on it.

    When ``drops`` the first row's ``a`` is an outlier the one-sigma filter
    removes; otherwise the filter is at 100 sigma and keeps every row.
    """
    n = draw(st.integers(4, 30))
    value = st.one_of(st.integers(-50, 50).map(float),
                      st.floats(-50, 50, allow_nan=False, allow_subnormal=False))
    table = {c: draw(st.lists(value, min_size=n, max_size=n)) for c in "abcyz"}
    if drops:
        table["a"][0] = 1e6
    lines = ["a,b,c,y,z"] + [",".join(repr(table[c][i]) for c in "abcyz") for i in range(n)]
    if draw(st.booleans()):  # numpy's reader takes quoted cells too
        lines[1] = ",".join(f'"{cell}"' for cell in lines[1].split(","))
    u_expr = draw(st.sampled_from([None, "a - b - 6", "(a + b) / 2", "-a * 3 + b",
                                   "a / (b + 100)"]))
    return dict(
        text="\n".join(lines) + "\n", u_col="a" if u_expr is None else None,
        u_expr=u_expr, x_cols=draw(st.sampled_from([["b", "c"], ["c"], ["c", "b", "a"]])),
        y_col="y", intercept=draw(st.booleans()), sigma_k=1.0 if drops else 100.0,
        bins=draw(st.integers(2, 10)))


class TestIngestMatchesOldChain:
    """``cli._ingest`` gives the old chain's panel and counts, byte for byte."""

    @pytest.mark.parametrize("drops", [True, False], ids=["filter_drops", "filter_keeps_all"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_panel_bytes_equal(self, tmp_path_factory, drops, data):
        case = data.draw(ingest_cases(drops))
        path = tmp_path_factory.mktemp("ingest") / "t.csv"
        path.write_text(case["text"])
        args = ingest_args(
            path, "--x-cols", ",".join(case["x_cols"]), "--y-col", case["y_col"],
            "--sigma-k", repr(case["sigma_k"]), "--bins", str(case["bins"]),
            *(["--u-col", case["u_col"]] if case["u_col"] else ["--u-expr", case["u_expr"]]),
            *([] if case["intercept"] else ["--no-intercept"]))
        try:
            want = old_ingest(path, case["u_col"], case["u_expr"], case["x_cols"], case["y_col"],
                              case["intercept"], case["sigma_k"], case["bins"])
        except DegenerateScaleError as exc:
            with pytest.raises(DegenerateScaleError, match=re.escape(str(exc))):
                cli._ingest(args)
            return
        with mock.patch.object(dataio, "_records", wraps=dataio._records) as records:
            got, diag = cli._ingest(args)
        assert records.call_count == 0
        x, y, u, offsets, want_diag = want
        assert got.x.shape == x.shape and got.x.tobytes() == x.tobytes()
        assert got.y.tobytes() == y.tobytes() and got.u.tobytes() == u.tobytes()
        assert got.offsets.tolist() == offsets.tolist()
        assert diag == want_diag
        assert (diag["rows_kept"] < diag["rows_read"]) == drops


# columns named by Python keywords, and a zero column for 1/0 and 0/0
EXPR_HEADERS = ["age", "class", "lambda", "None", "edu_2"]
EXPR_DATA = np.array([[30.0, 1.5, -2.0, 7.0, 0.0],
                      [41.0, -3.25, 0.5, 1e-3, 0.0],
                      [-0.0, 1e300, 3.0, -12.0, 0.0]])
EXPR_LITERALS = ["6", "0", "007", "2.", "12.50", "1e3", "3E-2", "7.25e+1", "2.e1"]
EXPR_BLANKS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n "])
EXPR_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


@st.composite
def column_exprs(draw, depth=4):
    """``(text, value, precedence)`` of a random expression in the column
    grammar, its value computed in numpy from the tree it was drawn as.

    Precedence is 3 for an operand, a sign or parentheses, 2 for * and /,
    1 for + and -; an operand that binds looser than its operator, or as
    loose on the right, is parenthesised, so the text parses as drawn.
    """
    kinds = ["column", "number"] + (["sign", "parens", "binary", "binary"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "column":
        j = draw(st.integers(0, len(EXPR_HEADERS) - 1))
        return EXPR_HEADERS[j], EXPR_DATA[:, j], 3
    if kind == "number":
        text = draw(st.sampled_from(EXPR_LITERALS))
        return text, np.float64(float(text)), 3
    text, value, prec = draw(column_exprs(depth - 1))
    if kind == "parens":
        return f"({draw(EXPR_BLANKS)}{text}{draw(EXPR_BLANKS)})", value, 3
    if kind == "sign":
        sign = draw(st.sampled_from("+-"))
        text = text if prec == 3 else f"({text})"
        return sign + draw(EXPR_BLANKS) + text, value if sign == "+" else -value, 3
    op = draw(st.sampled_from(sorted(EXPR_OPS)))
    op_prec = 1 if op in "+-" else 2
    right, right_value, right_prec = draw(column_exprs(depth - 1))
    left = text if prec >= op_prec else f"({text})"
    right = right if right_prec > op_prec else f"({right})"
    with np.errstate(all="ignore"):
        value = EXPR_OPS[op](value, right_value)
    return f"{left}{draw(EXPR_BLANKS)}{op}{draw(EXPR_BLANKS)}{right}", value, op_prec


class TestColumnExpr:
    def test_arithmetic(self):
        data = np.array([[30.0, 10.0], [40.0, 12.0]])
        got = evaluate_column_expr("(age - edu) / 2 + 1", ["age", "edu"], data)
        assert np.allclose(got, [11.0, 15.0])

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            evaluate_column_expr("age + height", ["age"], np.ones((2, 1)))

    def test_bad_syntax(self):
        with pytest.raises(ValueError):
            evaluate_column_expr("age +", ["age"], np.ones((2, 1)))

    @given(column_exprs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_drawn_tree_bit_for_bit(self, drawn):
        text, value, _ = drawn
        with np.errstate(all="ignore"):
            got = evaluate_column_expr(text, EXPR_HEADERS, EXPR_DATA)
        want = np.broadcast_to(np.asarray(value, dtype=float), (EXPR_DATA.shape[0],))
        assert got.tobytes() == want.tobytes(), text

    def test_keyword_column_reads_as_its_renamed_twin(self, csv_file):
        rows = "30,10,1,2\n47,12,3,4\n"
        tables = [load_csv(csv_file(f"{name},edu,x1,y\n" + rows, f"{name}.csv"), None,
                           ["x1"], "y", u_expr=f"-{name}  -edu\n-6 * {name}")
                  for name in ("class", "age")]
        assert tables[0].rows.tobytes() == tables[1].rows.tobytes()
        assert tables[0].u.tolist() == [-220.0, -341.0]

    def test_other_python_numbers(self):
        got = evaluate_column_expr(".5 + 1_000 + 0x10 + 0o7", ["age"], np.ones((2, 1)))
        assert got.tolist() == [1023.5, 1023.5]

    @pytest.mark.parametrize("expr, needle", [
        ("age ** 2", "'age ** 2' is not + - * /"),
        ("age // class", "'age // class' is not + - * /"),
        ("-age % 2 + 1", "'-age % 2' is not"),
        ("~age", "'~age' is not"),
        ("age < 1", "'age < 1' is not"),
        ("age.real", "'age.real' is not"),
        ("(age)(1)", "'age(1)' is not"),
        ("'age'", "\"'age'\" is not"),
        ("2j", "'2j' is not"),
        ("age, class", "'(age, class)' is not"),
        ("age +", "cannot parse column expression 'age +'"),
        ("age # - class", "cannot parse"),
        ("age -\\\n class", "cannot parse"),
        ("", "cannot parse"),
    ])
    def test_outside_the_grammar(self, expr, needle):
        with pytest.raises(ValueError, match=re.escape(needle)) as caught:
            evaluate_column_expr(expr, ["age", "class"], np.ones((2, 2)))
        assert type(caught.value) is ValueError and "\n" not in str(caught.value)

    def test_too_deep_or_too_large_cannot_parse(self):
        for expr in ["(" * 3000 + "age" + ")" * 3000, "-" * 3000 + "age",
                     "+".join(["age"] * 3000), "0x" + "f" * 300]:
            with pytest.raises(ValueError, match="^cannot parse column expression"):
                evaluate_column_expr(expr, ["age"], np.ones((2, 1)))

    def test_division_by_zero_is_inf(self):
        with np.errstate(divide="ignore"):
            got = evaluate_column_expr("age + 1/0 - 1/-0.", ["age"], np.ones((2, 1)))
        assert got.tolist() == [np.inf, np.inf]


class TestSigmaFilter:
    def test_all_kept_at_three_sigma(self):
        # sd (ddof=1) of (0,0,0,100) is 50; max deviation 75 < 150
        mask = sigma_filter([0.0, 0.0, 0.0, 100.0], k=3.0)
        assert mask.tolist() == [True, True, True, True]

    def test_symmetric_data_symmetric_mask(self):
        v = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        mask = sigma_filter(v, k=1.0)
        assert mask.tolist() == mask[::-1].tolist()

    def test_k_zero_keeps_only_mean(self):
        mask = sigma_filter([1.0, 1.0, 4.0], k=0.0)
        assert mask.tolist() == [False, False, False]
        mask = sigma_filter([2.0, 2.0, 2.0, 5.0], k=0.0)
        assert not mask[3]

    def test_zero_variance_keeps_all(self):
        assert sigma_filter([3.0, 3.0, 3.0]).all()

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            sigma_filter([1.0])


class TestMinmaxScale:
    def test_basic(self):
        assert np.allclose(minmax_scale([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_idempotent_once_unit_range(self):
        v = np.array([0.0, 0.25, 0.6, 1.0])
        assert np.allclose(minmax_scale(v), v)

    def test_negation_reverses(self):
        v = np.array([1.0, 3.0, 7.0, 10.0])
        assert np.allclose(minmax_scale(-v), 1.0 - minmax_scale(v))

    def test_constant_rejected(self):
        with pytest.raises(DegenerateScaleError):
            minmax_scale([2.0, 2.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_range_is_unit(self, values):
        v = np.asarray(values)
        if np.max(v) == np.min(v):
            return
        scaled = minmax_scale(v)
        assert np.min(scaled) == 0.0 and np.max(scaled) == 1.0


def table_from_u(us):
    us = np.asarray(us, dtype=float)
    n = us.size
    rows = np.column_stack([us, np.ones(n), np.arange(n, dtype=float)])
    return RawTable(headers=("u", "x", "y"), rows=rows)


class TestBinDomains:
    def test_interior_point(self):
        panel = bin_domains(table_from_u([0.23]), 10)
        assert panel[0].u == pytest.approx(0.25)

    def test_left_boundary_goes_down(self):
        panel = bin_domains(table_from_u([0.2]), 10)
        assert panel[0].u == pytest.approx(0.15)

    def test_zero_in_first_bin(self):
        panel = bin_domains(table_from_u([0.0]), 10)
        assert panel[0].u == pytest.approx(0.05)

    def test_partition_is_exact(self):
        rng = np.random.default_rng(0)
        us = rng.uniform(0, 1, 200)
        panel = bin_domains(table_from_u(us), 10)
        assert sum(d.n for d in panel) == 200
        mids = {round(0.05 + 0.1 * j, 2) for j in range(10)}
        assert {round(d.u, 2) for d in panel} <= mids

    def test_rows_follow_their_bin(self):
        panel = bin_domains(table_from_u([0.95, 0.05, 0.5]), 10)
        by_mid = {round(d.u, 2): d for d in panel}
        assert by_mid[0.05].y.tolist() == [1.0]
        assert by_mid[0.95].y.tolist() == [0.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bin_domains(table_from_u([1.2]), 10)

    def test_min_bins(self):
        with pytest.raises(ValueError):
            bin_domains(table_from_u([0.5]), 1)


class TestSplitTarget:
    def make_target(self, n):
        rng = np.random.default_rng(1)
        return DomainSample(u=0.5, x=rng.normal(size=(n, 2)),
                            y=np.arange(n, dtype=float))

    def test_thirds_of_nine(self):
        parts = split_target(self.make_target(9), [1 / 3, 1 / 3, 1 / 3],
                             np.random.default_rng(0))
        assert [p.n for p in parts] == [3, 3, 3]

    def test_thirds_of_ten_remainder_to_earliest(self):
        parts = split_target(self.make_target(10), [1 / 3, 1 / 3, 1 / 3],
                             np.random.default_rng(0))
        assert [p.n for p in parts] == [4, 3, 3]

    def test_partition_disjoint_exhaustive(self):
        target = self.make_target(23)
        parts = split_target(target, [0.5, 0.25, 0.25], np.random.default_rng(5))
        ys = np.concatenate([p.y for p in parts])
        assert sorted(ys.tolist()) == target.y.tolist()

    def test_same_seed_same_partition(self):
        target = self.make_target(12)
        a = split_target(target, [0.5, 0.5], np.random.default_rng(9))
        b = split_target(target, [0.5, 0.5], np.random.default_rng(9))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.y, pb.y)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_target(self.make_target(2), [0.4, 0.3, 0.3],
                         np.random.default_rng(0))

    def test_fraction_validation(self):
        target = self.make_target(6)
        with pytest.raises(ValueError):
            split_target(target, [0.5, 0.6], np.random.default_rng(0))
        with pytest.raises(ValueError):
            split_target(target, [1.2, -0.2], np.random.default_rng(0))
