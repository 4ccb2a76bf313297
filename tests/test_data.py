"""Tests for mesh I/O, synthetic generation, and the noise stream.

The noise cross-check reimplements the counter-based generator with
pure Python integers, so the numpy uint64 arithmetic (including its
intentional modular overflow) is verified against an independent route.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corneafit import cli, data
from corneafit.data import (
    SurfaceMesh,
    SynthSpec,
    _gaussian_field,
    generate_synthetic,
    read_mesh,
    write_mesh,
)
from corneafit.errors import DimensionMismatch, ParseError
from corneafit.fit import DomainEllipse
from corneafit.kernel import ModelParams
from corneafit.special import bessel_i

CIRCLE = DomainEllipse.from_signed_ecc_sq(0.0)
REFERENCE = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5, ellipse=CIRCLE)


class TestSurfaceMesh:
    def test_coordinates(self):
        mesh = SurfaceMesh(n_x=3, n_y=2, spacing_x=0.5, spacing_y=0.25,
                           origin_x=-0.5, origin_y=1.0, z=np.zeros((2, 3)))
        np.testing.assert_array_equal(mesh.x_coords, [-0.5, 0.0, 0.5])
        np.testing.assert_array_equal(mesh.y_coords, [1.0, 1.25])

    def test_valid_defaults_to_finite(self):
        z = np.array([[1.0, np.nan], [np.nan, 4.0]])
        mesh = SurfaceMesh(n_x=2, n_y=2, spacing_x=1.0, spacing_y=1.0,
                           origin_x=0.0, origin_y=0.0, z=z)
        np.testing.assert_array_equal(mesh.valid, [[True, False], [False, True]])

    @pytest.mark.parametrize("field,value", [
        ("spacing_x", math.inf), ("spacing_y", math.inf), ("spacing_x", math.nan),
        ("origin_x", math.nan), ("origin_y", math.inf), ("origin_x", -math.inf),
    ])
    def test_spacing_and_origin_must_be_finite(self, field, value):
        geometry = dict(spacing_x=1.0, spacing_y=1.0, origin_x=0.0, origin_y=0.0)
        geometry[field] = value
        with pytest.raises(ValueError):
            SurfaceMesh(n_x=2, n_y=2, z=np.zeros((2, 2)), **geometry)

    def test_explicit_valid_must_match_finite(self):
        z = np.array([[1.0, np.nan], [3.0, 4.0]])
        ok = np.isfinite(z)
        SurfaceMesh(n_x=2, n_y=2, spacing_x=1.0, spacing_y=1.0,
                    origin_x=0.0, origin_y=0.0, z=z, valid=ok)
        with pytest.raises(ValueError):
            SurfaceMesh(n_x=2, n_y=2, spacing_x=1.0, spacing_y=1.0,
                        origin_x=0.0, origin_y=0.0, z=z, valid=~ok)

    def test_validation(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError):
            SurfaceMesh(n_x=1, n_y=2, spacing_x=1.0, spacing_y=1.0,
                        origin_x=0.0, origin_y=0.0, z=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SurfaceMesh(n_x=2, n_y=2, spacing_x=0.0, spacing_y=1.0,
                        origin_x=0.0, origin_y=0.0, z=z)
        with pytest.raises(ValueError):
            SurfaceMesh(n_x=2, n_y=2, spacing_x=1.0, spacing_y=1.0,
                        origin_x=0.0, origin_y=0.0, z=np.zeros((3, 2)))


class TestTextFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = SynthSpec(params=ModelParams(a=1.7, b=2.3), scale_radius=5.5,
                         ellipse=DomainEllipse.from_signed_ecc_sq(0.0234),
                         noise_sigma=0.01, seed=3, n_x=41, n_y=37)
        mesh = generate_synthetic(spec)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert (back.n_x, back.n_y) == (mesh.n_x, mesh.n_y)
        assert back.spacing_x == mesh.spacing_x
        assert back.spacing_y == mesh.spacing_y
        assert back.origin_x == mesh.origin_x
        assert back.origin_y == mesh.origin_y
        assert np.array_equal(back.z, mesh.z, equal_nan=True)
        np.testing.assert_array_equal(back.valid, mesh.valid)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "mesh.txt"
        cases = [
            ("", "empty"),
            ("2 2 1.0 1.0 0.0\n", "5 fields"),
            ("2.5 2 1.0 1.0 0.0 0.0\n", "non-integer rows"),
            ("2 2 1.0 x 0.0 0.0\n", "non-numeric spacing"),
            ("1 2 1.0 1.0 0.0 0.0\n", "too few rows"),
            ("2 2 -1.0 1.0 0.0 0.0\n", "negative spacing"),
        ]
        for text, _label in cases:
            path.write_text(text)
            with pytest.raises(ParseError) as excinfo:
                read_mesh(path)
            assert excinfo.value.line == 1

    @pytest.mark.parametrize("header", [
        "2 2 inf 1.0 0.0 0.0",
        "2 2 1.0 inf 0.0 0.0",
        "2 2 nan 1.0 0.0 0.0",
        "2 2 1.0 1.0 nan 0.0",
        "2 2 1.0 1.0 0.0 inf",
        "2 2 1.0 1.0 -inf 0.0",
    ])
    def test_non_finite_header_values(self, tmp_path, header):
        path = tmp_path / "mesh.txt"
        path.write_text(header + "\n1.0 2.0\n3.0 4.0\n")
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("text", [
        "2 1 1.0 1.0 0.0 0.0\n1.0\n2.0\n",
        "2 2 0.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n",
        "0 2 1.0 1.0 0.0 0.0\n",
        "-2 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n",
        "2 2.5 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n",
        "2 2 1.0 1.0 0.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n",
        "1_0 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n",
    ], ids=["one-column", "zero-spacing", "zero-rows", "negative-rows", "fractional-columns",
            "seven-fields", "digit-separator"])
    def test_header_refusal_is_a_line_1_error_and_fit_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 1
        assert cli.main(["fit", "--mesh", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {excinfo.value}\n"

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("3 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n")
        with pytest.raises(DimensionMismatch):
            read_mesh(path)

    def test_ragged_row_reports_its_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 3 1.0 1.0 0.0 0.0\n1.0 2.0 3.0\n4.0 5.0\n")
        with pytest.raises(DimensionMismatch) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 3

    def test_bad_token_reports_line_and_column(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 3 1.0 1.0 0.0 0.0\n1.0 2.0 3.0\n4.0 oops 6.0\n")
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 3
        assert excinfo.value.column == 2

    def test_ragged_row_after_blank_lines_reports_its_file_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 3 1.0 1.0 0.0 0.0\n\n1.0 2.0 3.0\n\n4.0 5.0\n")
        with pytest.raises(DimensionMismatch) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 5

    def test_bad_token_after_blank_lines_reports_its_file_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 3 1.0 1.0 0.0 0.0\n\n \n1.0 2.0 3.0\n4.0 oops 6.0\n")
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 5
        assert excinfo.value.column == 2

    @pytest.mark.parametrize("text,line,column", [
        ("2 2 1.0 1.0 0.0 0.0\n1_5 2.0\n3.0 4.0\n", 2, 1),
        ("2 2 1.0 1.0 0.0 0.0\n\n1.0 2.0\n3.0 1e1_0\n", 4, 2),
        ("2 2 1.0 1_0 0.0 0.0\n1.0 2.0\n3.0 4.0\n", 1, 4),
    ])
    def test_digit_separator_is_a_bad_value(self, tmp_path, text, line, column):
        # Python's float() reads "1_5" as 15; the text format has no "_"
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
        assert str(excinfo.value).startswith("bad value '")

    def test_oversized_header_is_refused_before_any_allocation(self, tmp_path):
        # numpy refuses a (2, 10**12) array outright, so a reader that sizes
        # its array from the header fails here instead of naming the row
        path = tmp_path / "mesh.txt"
        path.write_text("2 1000000000000 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n")
        with pytest.raises(DimensionMismatch) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == "row has 2 values, expected 1000000000000 (line 2)"

    def test_dimension_mismatch_is_a_parse_error(self):
        assert issubclass(DimensionMismatch, ParseError)

    def test_nan_literal_round_trips(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 2 1.0 1.0 0.0 0.0\nnan 1.0\n2.0 nan\n")
        mesh = read_mesh(path)
        np.testing.assert_array_equal(mesh.valid, [[False, True], [True, False]])

    def test_blank_lines_in_body_ignored(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("2 2 1.0 1.0 0.0 0.0\n\n1.0 2.0\n\n3.0 4.0\n")
        mesh = read_mesh(path)
        np.testing.assert_array_equal(mesh.z, [[1.0, 2.0], [3.0, 4.0]])


class TestMeshWriter:
    def test_text_matches_per_value_format(self, tmp_path):
        # special values in every column position, then random rows
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, -2.5e-7, 1e16, 1e17]
        rows = [np.roll(special, k) for k in range(len(special))]
        noise = np.random.default_rng(1).standard_normal((20, len(special))) * 1e3
        z = np.vstack(rows + [noise])
        mesh = SurfaceMesh(n_x=z.shape[1], n_y=z.shape[0], spacing_x=0.1,
                           spacing_y=1.0 / 3.0, origin_x=-0.0, origin_y=-5.5, z=z)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        expected = (
            f"{mesh.n_y} {mesh.n_x} {mesh.spacing_x:.17g} {mesh.spacing_y:.17g} "
            f"{mesh.origin_x:.17g} {mesh.origin_y:.17g}\n"
            + "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in z)
        )
        assert path.read_text() == expected

    def test_wide_mesh_spanning_several_blocks(self, tmp_path):
        # 300 columns leave a few rows per write block; the row count ends
        # on a partial block
        n_x = 300
        n_y = 3 * (data._TABLE_BLOCK_VALUES // n_x) + 1
        z = np.random.default_rng(2).standard_normal((n_y, n_x)) * 1e3
        special = [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, np.nan,
                   np.inf, -np.inf, 1.7976931348623157e308]
        z[:, :len(special)] = special
        z[n_y // 2, ::7] = np.nan
        mesh = SurfaceMesh(n_x=n_x, n_y=n_y, spacing_x=0.1, spacing_y=0.2,
                           origin_x=-30.0, origin_y=-0.0, z=z)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().split("\n")
        assert lines[0] == f"{n_y} {n_x} 0.10000000000000001 0.20000000000000001 -30 -0"
        assert lines[1:] == [" ".join(format(v, ".17g") for v in row) for row in z] + [""]
        back = read_mesh(path)
        np.testing.assert_array_equal(back.z, z)
        assert np.array_equal(np.signbit(back.z), np.signbit(z))

    def test_rows_wider_than_a_block(self, tmp_path):
        # a row of more values than a block holds is a block on its own
        n_x = data._TABLE_BLOCK_VALUES + 3
        z = np.random.default_rng(3).standard_normal((3, n_x)) * 1e3
        special = [-0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan, 1e300, -1e300]
        z[:, :len(special)] = special
        z[:, -len(special):] = special[::-1]
        mesh = SurfaceMesh(n_x=n_x, n_y=3, spacing_x=0.1, spacing_y=0.2,
                           origin_x=-0.0, origin_y=1.5, z=z)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().split("\n")
        assert lines[1:] == [" ".join(format(v, ".17g") for v in row) for row in z] + [""]
        back = read_mesh(path)
        np.testing.assert_array_equal(back.z, z)
        assert np.array_equal(np.signbit(back.z), np.signbit(z))

    def test_non_ascii_byte_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_bytes(b"2 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4\xc3\xa9\n")
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_non_ascii_byte_names_the_line_str_splitlines_gives(self, tmp_path, end):
        # the line a bad ASCII token at the same place is reported on
        lines = ["3 2 1.0 1.0 0.0 0.0", "1.0 2.0", "3.0 4.0", "5.0 {}"]
        path = tmp_path / "mesh.txt"
        path.write_bytes(end.join(lines).format("x").encode("ascii") + end.encode("ascii"))
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert (excinfo.value.line, excinfo.value.column) == (4, 2)
        path.write_bytes(end.join(lines).format("\xff").encode("latin-1") + end.encode("ascii"))
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert str(excinfo.value) == "non-ASCII byte 0xff (line 4)"


def read_text(directory, text):
    path = directory / "mesh.txt"
    path.write_bytes(text.encode("ascii"))
    return read_mesh(path)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


HEADER_2X2 = "2 2 1.0 1.0 0.0 0.0\n"


class TestTextFormatEdges:
    """Where np.loadtxt's defaults differ from the text format, the
    reader still gives float()'s value or the error at its line and
    column."""

    @pytest.mark.parametrize("body,message,line,column", [
        ("1 #\n3 4\n", "bad value '#'", 2, 2),
        ("1 2\n#3 4\n", "bad value '#3'", 3, 1),
        ('"1" 2\n3 4\n', "bad value '\"1\"'", 2, 1),
        ("1 2\n3 '4'\n", "bad value \"'4'\"", 3, 2),
        ("1\x00 2\n3 4\n", "bad value '1\\x00'", 2, 1),
        ("1 2\n3 4\x00\n", "bad value '4\\x00'", 3, 2),
    ], ids=["hash", "hash-prefix", "double-quote", "single-quote", "nul", "nul-last"])
    def test_comment_quote_and_nul_are_bad_values(self, tmp_path, body, message, line, column):
        with pytest.raises(ParseError) as excinfo:
            read_text(tmp_path, HEADER_2X2 + body)
        assert type(excinfo.value) is ParseError
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
        assert str(excinfo.value) == f"{message} (line {line}, column {column})"

    def test_trailing_comment_is_a_ragged_row(self, tmp_path):
        with pytest.raises(DimensionMismatch) as excinfo:
            read_text(tmp_path, HEADER_2X2 + "1 2\n3 4 # x\n")
        assert str(excinfo.value) == "row has 4 values, expected 2 (line 3)"

    @pytest.mark.parametrize("body", [
        "1\x1f2\n3\x1f\x1f4\n",
        "1 \x1f 2\n\x1f3 4\x1f\n",
        "1\t2\n3\t \t4\n",
        "1 2\x0b3 4\n",
        "1 2\x0c3 4\n",
        "1 2\x1c3 4\x1e",
        "1 2\r3 4\r",
        "1 2\r\n3 4\r\n",
        "\n1 2\n   \n\t\n\x1f\n3 4\n\n",
        "\r\r1 2\r \r3 4",
    ], ids=["unit-separator", "unit-separator-padding", "tab", "vertical-tab-line",
            "form-feed-line", "file-record-separator-lines", "cr-only", "crlf", "blank-lines",
            "cr-blank-lines"])
    def test_separators_and_line_ends_load_float_values(self, tmp_path, body):
        mesh = read_text(tmp_path, HEADER_2X2 + body)
        np.testing.assert_array_equal(bits(mesh.z), bits([[1.0, 2.0], [3.0, 4.0]]))

    def test_form_feed_between_values_ends_the_line(self, tmp_path):
        # str.splitlines breaks at \x0c (and \x0b, \x1c-\x1e), so "1\x0c2"
        # is two lines
        with pytest.raises(DimensionMismatch) as excinfo:
            read_text(tmp_path, HEADER_2X2 + "1\x0c2\n3 4\n")
        assert str(excinfo.value) == "header declares 2 rows, file has 3 (line 4)"

    def test_float_spellings_keep_their_bits(self, tmp_path):
        tokens = ["Infinity", "+inf", "-INF", "1e400", "-nan", "NaN", "-0", "+.5e-3",
                  "4.9406564584124654e-324", "1.7976931348623157e308"]
        text = "5 2 1.0 1.0 0.0 0.0\n" + "".join(
            f"{tokens[i]} {tokens[i + 1]}\n" for i in range(0, len(tokens), 2))
        mesh = read_text(tmp_path, text)
        np.testing.assert_array_equal(bits(mesh.z).ravel(), bits([float(t) for t in tokens]))

    @pytest.mark.parametrize("body,message", [
        ("1 2\n3\n", "row has 1 values, expected 2 (line 3)"),
        ("1 2 5\n3 4\n", "row has 3 values, expected 2 (line 2)"),
        ("1 2\n\n3 4 5\n\n", "row has 3 values, expected 2 (line 4)"),
        ("1 2\n3 4\n5 6\n", "header declares 2 rows, file has 3 (line 4)"),
        ("1 2\n3 4\n\n5 6\n\n", "header declares 2 rows, file has 3 (line 6)"),
        ("1 2\n\n \n", "header declares 2 rows, file has 1 (line 4)"),
        ("\n \t\n\x1f\n", "header declares 2 rows, file has 0 (line 4)"),
        ("", "header declares 2 rows, file has 0 (line 1)"),
    ], ids=["short-row", "long-row", "long-row-after-blank", "extra-row",
            "extra-row-after-blank", "missing-row", "only-blank-lines", "no-body"])
    def test_ragged_and_extra_rows_name_their_line(self, tmp_path, body, message):
        with pytest.raises(DimensionMismatch) as excinfo:
            read_text(tmp_path, HEADER_2X2 + body)
        assert str(excinfo.value) == message

    def test_bad_value_before_a_ragged_row_is_reported_first(self, tmp_path):
        with pytest.raises(ParseError) as excinfo:
            read_text(tmp_path, "3 2 1.0 1.0 0.0 0.0\n1 2\n3 0x10\n5\n")
        assert type(excinfo.value) is ParseError
        assert (excinfo.value.line, excinfo.value.column) == (3, 2)


def reference_read(text):
    """The body grammar of the text format in plain Python, for a file
    whose header is valid: float() per token, `_` refused, blank lines
    skipped. The z values as a list, or (exception type, line, column)."""
    lines = text.splitlines()
    rows, cols = int(lines[0].split()[0]), int(lines[0].split()[1])
    body = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != rows:
        return DimensionMismatch, len(lines), None
    values = []
    for number, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            return DimensionMismatch, number, None
        for column, token in enumerate(tokens, start=1):
            try:
                if "_" in token:
                    raise ValueError(token)
                values.append(float(token))
            except ValueError:
                return ParseError, number, column
    return values


WRITER_TOKENS = st.one_of(
    st.floats().map(lambda x: format(x, ".17g")),
    st.sampled_from(["nan", "-0", "inf", "-inf"]),
)
HOSTILE_TOKENS = st.sampled_from([
    "1_5", "1e1_0", "0x10", "1d5", "nan(123)", "#", "#1", '"1"', "'2'", "\x00", "1\x00",
    "Infinity", "+inf", "-INFINITY", "1e400", "-1e-400", "-nan", "+nan", ".5", "5.", "+", "e5",
])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", " \x1f "])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x1e"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "\x1f", " \x0b "])


@st.composite
def mesh_texts(draw):
    """A header declaring rows x cols, then rows lines of about cols
    tokens: writer tokens only, or mixed with hostile tokens, separators,
    blank lines and a line count or widths off by one, for the whole
    body or for single lines."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    hostile = draw(st.booleans())
    tokens = st.one_of(WRITER_TOKENS, HOSTILE_TOKENS) if hostile else WRITER_TOKENS
    separators = SEPARATORS if hostile else st.just(" ")
    off_by_one = st.sampled_from([0, 0, 0, -1, 1]) if hostile else st.just(0)
    n_lines = rows + draw(off_by_one)
    body_width = cols + draw(off_by_one)
    lines = []
    for _ in range(n_lines):
        width = body_width + draw(off_by_one)
        row = draw(st.lists(tokens, min_size=width, max_size=width))
        line = ""
        for token in row:
            line += draw(separators) + token if line else token
        lines.append(line)
        if hostile and draw(st.integers(0, 3)) == 0:
            lines.append(draw(BLANK_LINES))
    end = draw(LINE_ENDS) if hostile else "\n"
    return f"{rows} {cols} 1.0 1.0 0.0 0.0" + end + "".join(line + end for line in lines)


class TestReaderGrammar:
    @settings(max_examples=400, deadline=None)
    @given(mesh_texts())
    def test_read_mesh_matches_the_reference_grammar(self, tmp_path_factory, text):
        expected = reference_read(text)
        if isinstance(expected, list):
            mesh = read_text(tmp_path_factory.mktemp("mesh"), text)
            np.testing.assert_array_equal(bits(mesh.z).ravel(), bits(expected))
        else:
            with pytest.raises(ParseError) as excinfo:
                read_text(tmp_path_factory.mktemp("mesh"), text)
            error = excinfo.value
            assert (type(error), error.line, error.column) == expected


def read_result(directory, text):
    """read_mesh's result in reference_read's terms: the z values as a
    list, or (exception type, line, column)."""
    try:
        return read_text(directory, text).z.ravel().tolist()
    except ParseError as error:
        return type(error), error.line, error.column


def same_result(result, expected):
    if isinstance(expected, list):
        return isinstance(result, list) and np.array_equal(bits(result), bits(expected))
    return result == expected


def refuse_locator(*args):
    pytest.fail("read_mesh entered the error locator")


class TestOneBodyParser:
    """np.loadtxt is the only parser of a body: the error locator runs
    only for a text with an error, and every ASCII character, as a
    separator or a token suffix, reads as the reference grammar says."""

    @settings(max_examples=200, deadline=None)
    @given(mesh_texts())
    def test_well_formed_texts_never_enter_the_locator(self, tmp_path_factory, text):
        expected = reference_read(text)
        assume(isinstance(expected, list))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_raise_first_error", refuse_locator)
            mesh = read_text(tmp_path_factory.mktemp("mesh"), text)
        np.testing.assert_array_equal(bits(mesh.z).ravel(), bits(expected))

    def test_separator_cases_never_enter_the_locator(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_raise_first_error", refuse_locator)
        for body in ["1\x1f2\n3\x1f\x1f4\n", "1 \x1f 2\n\x1f3 4\x1f\n", "1\t2\n3\t \t4\n",
                     "1 2\x0b3 4\n", "1 2\x0c3 4\n", "1 2\x1c3 4\x1e", "1 2\r3 4\r",
                     "1 2\r\n3 4\r\n", "\n1 2\n   \n\t\n\x1f\n3 4\n\n", "\r\r1 2\r \r3 4"]:
            mesh = read_text(tmp_path, HEADER_2X2 + body)
            np.testing.assert_array_equal(bits(mesh.z), bits([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("role", ["separator", "suffix"])
    def test_every_ascii_character_reads_as_the_reference(self, tmp_path, role):
        mismatches = []
        for code in range(128):
            c = chr(code)
            if role == "separator":
                body = f"1{c}2\n3{c}4\n-0.5{c}nan{c}\n"
            else:
                body = f"1{c} 2\n3 4.5{c}\n-0{c} inf\n"
            text = "3 2 1.0 1.0 0.0 0.0\n" + body
            result, expected = read_result(tmp_path, text), reference_read(text)
            if not same_result(result, expected):
                mismatches.append((c, result, expected))
        assert mismatches == []


def format_mismatches(directory, values, n_cols=3):
    """(value, written, expected) for every value whose text from
    _write_table differs from format(v, ".17g"); the values fill a table
    of n_cols columns, the last row padded by repeating them."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.resize(values, (-(-values.size // n_cols), n_cols))
    path = directory / "table.csv"
    data._write_table(path, "h", table, ",")
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines[0] == "h" and lines[-1] == ""
    written = [text for line in lines[1:-1] for text in line.split(",")]
    assert len(written) == table.size
    return [(v, text, format(v, ".17g"))
            for v, text in zip(table.ravel().tolist(), written)
            if text != format(v, ".17g")]


def neighbours(center, ulps):
    """The doubles within `ulps` steps of center, center included."""
    below, above, out = center, center, [center]
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


@pytest.fixture
def format_calls(monkeypatch):
    """The values the table writer sends through format(), in order."""
    sent = []

    def recording_format(value, spec):
        sent.append(value)
        return format(value, spec)

    monkeypatch.setattr(data, "format", recording_format, raising=False)
    return sent


class TestTableWriterText:
    """_write_table against format(v, ".17g"), value by value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=300))
    def test_any_bit_pattern(self, tmp_path_factory, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert format_mismatches(tmp_path_factory.mktemp("bits"), values) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_ending_at_a_block_edge(self, tmp_path_factory, draw):
        # tables whose last row ends one row before, on or one row after
        # the edge of a block, for rows narrower and wider than a block
        size = data._TABLE_BLOCK_VALUES
        n_cols = draw.draw(st.one_of(
            st.integers(1, 12),
            st.sampled_from([size // 3, size // 2 - 1, size // 2, size // 2 + 1,
                             size - 1, size, size + 1])))
        step = max(1, size // n_cols)
        blocks, offset = draw.draw(st.integers(1, 3)), draw.draw(st.sampled_from([-1, 0, 1]))
        n_rows = max(1, blocks * step + offset)
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        shape = (n_rows, n_cols)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
        wild = rng.random(shape) < 0.1  # any bit pattern: subnormals, inf, nan, 1e300
        table[wild] = rng.integers(0, 2**64, wild.sum(), dtype=np.uint64).view(np.float64)
        path = tmp_path_factory.mktemp("edge") / "table.csv"
        data._write_table(path, "h", table, ",")
        rows = [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
        assert path.read_text().split("\n") == ["h"] + rows + [""]

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        values = [v for j in range(-300, 301) for v in neighbours(float(f"1e{j}"), 1)]
        assert format_mismatches(tmp_path, values + [-v for v in values]) == []

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_fixed_to_exponent_switch(self, tmp_path, edge):
        values = neighbours(edge, 40)
        assert format_mismatches(tmp_path, values + [-v for v in values]) == []

    def test_values_rounding_up_to_the_next_decade(self, tmp_path):
        # doubles just below 10^j whose 17 digits round up to 10^j
        values = []
        for j in range(-300, 301):
            for v in neighbours(float(f"1e{j}"), 3):
                num, den = v.as_integer_ratio()
                below = num * 10 ** max(-j, 0) < den * 10 ** max(j, 0)
                mantissa = format(v, ".17g").split("e")[0]
                if below and mantissa.replace(".", "").strip("0") == "1":
                    values.append(v)
        assert len(values) >= 10
        assert format_mismatches(tmp_path, values + [-v for v in values]) == []

    def test_eighteen_digit_decimals_ending_in_5(self, tmp_path):
        rng = np.random.default_rng(9)
        mantissas = rng.integers(10**16, 10**17, 20000).tolist()
        exponents = rng.integers(-290, 291, 20000).tolist()
        values = [float(f"{m}5e{e}") for m, e in zip(mantissas, exponents)]
        # exact ties: 18 significant digits ending in 5, rounded half-even
        values += [2.0**50 + k + 0.25 for k in range(50)] + [2.0**50 + k + 0.75 for k in range(50)]
        assert format_mismatches(tmp_path, values) == []

    def test_near_ties_go_through_format(self, tmp_path, format_calls):
        # x = m 2^-s with x 10^k within 32 2^(k-s) <= 2^-39 of a half-integer
        # in [1e16, 1e17): finer than the double-double resolves, so every
        # one must be decided by format()
        values = []
        for k in range(20, 120):
            for s in range(k + 44, k + 120):
                mod = 2 ** (s - k)
                if not 5e15 < 2**52 * 5**k / mod < 1e17:  # no 53-bit m lands in range
                    continue
                inverse = pow(5**k, -1, mod)
                for r in range(-32, 33):
                    m = (mod // 2 + r) * inverse % mod
                    if r and 2**52 <= m < 2**53 and 1e16 <= m * 5**k / mod < 1e17:
                        values.append(m / 2**s)
        assert len(values) >= 50
        assert format_mismatches(tmp_path, values, n_cols=1) == []
        assert format_calls == values

    def test_decade_edges_go_through_format(self, tmp_path, format_calls):
        # log10 floors these a decade off, or their 17 digits round up
        # to 10^17: the scaling pass leaves them to format()
        values = [1e23, 1e-7, float(np.nextafter(1e16, 0))]
        for j in range(-300, 301):
            for v in neighbours(float(f"1e{j}"), 3):
                num, den = v.as_integer_ratio()
                below = num * 10 ** max(-j, 0) < den * 10 ** max(j, 0)
                if below and format(v, ".17g").split("e")[0].replace(".", "").strip("0") == "1":
                    values.append(v)
        values += [-v for v in values]
        assert len(values) >= 26
        assert format_mismatches(tmp_path, values, n_cols=1) == []
        assert format_calls == values

    def test_special_values(self, tmp_path):
        subnormals = np.random.default_rng(10).integers(1, 2**52, 500, dtype=np.uint64)
        values = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.0, math.inf, 1e-280, 1e280, 9.99e279, 1.01e-280]
        values = values + [-v for v in values] + [math.nan] + subnormals.view(np.float64).tolist()
        assert format_mismatches(tmp_path, values) == []

    def test_fallback_runs_for_what_the_array_path_cannot_decide(self, tmp_path, format_calls):
        # zeros, subnormals, infinities, magnitudes past 1e280 and exact
        # ties go through format() one by one; ordinary values do not
        tie = 2.0**50 + 0.25
        slow = [0.0, -0.0, 5e-324, math.inf, -math.inf, 1e300, tie]
        fast = [0.1, -1.5, 123456.789, 2.5e-7, 1e16, 6.02214076e23]
        values = slow + fast + [math.nan]
        assert format_mismatches(tmp_path, values, n_cols=len(values)) == []
        assert format_calls == slow
        assert format(tie, ".17g") == "1125899906842624.2"

    def test_memory_peak_is_per_block(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        mesh = rng.standard_normal((161, 161)) * 1e3
        mesh[rng.random(mesh.shape) < 0.4] = np.nan
        csv = rng.standard_normal((4001, 5))
        data._write_table(tmp_path / "warm.csv", "h", csv[:2], ",")  # builds the lookup tables

        def peak(table, sep):
            tracemalloc.start()
            try:
                data._write_table(tmp_path / "table.txt", "h", table, sep)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = 2_000_000
        assert peak(mesh, " ") < bound
        assert peak(csv, ",") < bound
        # formatting the whole table at once breaks the bound
        monkeypatch.setattr(data, "_TABLE_BLOCK_VALUES", mesh.size)
        assert peak(mesh, " ") > bound
        assert peak(csv, ",") > bound


def noisy_mesh(n_rows, n_cols=40, seed=5):
    """A mesh of n_rows x n_cols normal draws, a fifth of them missing."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_rows, n_cols))
    z[rng.random(z.shape) < 0.2] = np.nan
    return SurfaceMesh(n_x=n_cols, n_y=n_rows, spacing_x=0.1, spacing_y=0.2,
                       origin_x=-2.0, origin_y=-7.5, z=z)


def write_csv_of(mesh, path):
    data._write_csv(path, [f"c{j}" for j in range(mesh.n_x)], list(mesh.z.T))


class TestInPlaceRewrite:
    """An existing regular file is rewritten in place, not truncated first."""

    @pytest.mark.parametrize("old_rows", [300, 20])
    @pytest.mark.parametrize("write", [write_mesh, write_csv_of])
    def test_rewrite_leaves_the_bytes_of_a_fresh_write(self, tmp_path, write, old_rows):
        # the old file is longer (300 rows) or shorter (20 rows) than the new one
        mesh = noisy_mesh(150)
        fresh, path = tmp_path / "fresh", tmp_path / "rewritten"
        write(mesh, fresh)
        write(noisy_mesh(old_rows, seed=6), path)
        write(mesh, path)
        assert path.read_bytes() == fresh.read_bytes()

    def test_rewrite_keeps_mode_and_hard_links(self, tmp_path):
        path, link = tmp_path / "mesh.txt", tmp_path / "link.txt"
        write_mesh(noisy_mesh(30, seed=6), path)
        path.chmod(0o600)
        os.link(path, link)
        write_mesh(noisy_mesh(30), path)
        assert path.stat().st_mode & 0o777 == 0o600
        assert link.read_bytes() == path.read_bytes()
        assert np.array_equal(read_mesh(link).z, noisy_mesh(30).z, equal_nan=True)

    def test_interrupted_rewrite_reads_as_an_empty_mesh(self, tmp_path, monkeypatch):
        # same shape, so the new rows exactly cover the old ones: only the
        # placeholder header tells a half-written file from a whole one
        old, new = noisy_mesh(150, seed=6), noisy_mesh(150)
        path = tmp_path / "mesh.txt"
        write_mesh(old, path)
        format_block, calls = data._format_block, []

        def fail_on_second_call(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return format_block(*args)

        monkeypatch.setattr(data, "_format_block", fail_on_second_call)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_mesh(new, path)
        with pytest.raises(ParseError, match="empty mesh file"):
            read_mesh(path)

    def test_table_to_devnull(self):
        write_mesh(noisy_mesh(150), os.devnull)
        write_csv_of(noisy_mesh(20), os.devnull)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_csv_to_a_piped_stdout(self, tmp_path):
        # a pipe cannot seek or truncate: the header goes first, as it always did
        src = os.path.dirname(os.path.dirname(data.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "corneafit", "solve", "--a", "2", "--b", "2",
             "--n-nodes", "5", "--out", "/dev/stdout"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("r,h,dh,h0,A_h1\n")


class TestSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                         ellipse=CIRCLE, noise_sigma=0.01, seed=11)
        first = generate_synthetic(spec)
        second = generate_synthetic(spec)
        assert np.array_equal(first.z, second.z, equal_nan=True)

    def test_apex_value_exact(self):
        # odd node counts put a node exactly at the center, where the
        # surface equals S (b/a)(1 - 1/I0(sqrt(a)))
        mesh = generate_synthetic(REFERENCE)
        apex = 5.5 * (1.0 - 1.0 / bessel_i(0, math.sqrt(2.0)))
        assert mesh.z[61, 61] == apex

    def test_rim_nodes_on_axes_are_valid_zeros(self):
        mesh = generate_synthetic(REFERENCE)
        for i, j in [(61, 0), (61, 122), (0, 61), (122, 61)]:
            assert mesh.valid[i, j]
            assert mesh.z[i, j] == 0.0

    @pytest.mark.parametrize("n_x,n_y", [(2, 2), (2, 4), (4, 2)])
    def test_grid_with_no_point_inside_raises(self, n_x, n_y):
        spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                         ellipse=CIRCLE, n_x=n_x, n_y=n_y)
        with pytest.raises(ValueError, match="footprint"):
            generate_synthetic(spec)

    def test_grid_with_only_rim_points_inside_is_kept(self):
        # 2 x 3: the middle row's two points sit on the rim, at radius 1
        spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                         ellipse=CIRCLE, n_x=2, n_y=3)
        assert generate_synthetic(spec).valid.tolist() == [[False, False], [True, True],
                                                           [False, False]]

    def test_mask_is_elliptical_footprint(self):
        spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                         ellipse=DomainEllipse.from_signed_ecc_sq(0.0234),
                         n_x=51, n_y=41)
        mesh = generate_synthetic(spec)
        grid_x, grid_y = np.meshgrid(mesh.x_coords, mesh.y_coords)
        half_x = 5.5 * spec.ellipse.semi_axis_x
        half_y = 5.5 * spec.ellipse.semi_axis_y
        rel = np.sqrt((grid_x / half_x) ** 2 + (grid_y / half_y) ** 2)
        np.testing.assert_array_equal(mesh.valid, rel <= 1.0)
        assert not mesh.valid[0, 0]

    def test_geometry_matches_footprint(self):
        spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=4.0,
                         ellipse=CIRCLE, n_x=81, n_y=61)
        mesh = generate_synthetic(spec)
        assert mesh.origin_x == -4.0 and mesh.origin_y == -4.0
        assert mesh.x_coords[-1] == pytest.approx(4.0, abs=1e-12)
        assert mesh.spacing_x == pytest.approx(8.0 / 80.0, rel=1e-15)
        assert mesh.spacing_y == pytest.approx(8.0 / 60.0, rel=1e-15)

    def test_noise_perturbs_only_valid_samples(self):
        clean = generate_synthetic(REFERENCE)
        noisy_spec = SynthSpec(params=REFERENCE.params, scale_radius=5.5,
                               ellipse=CIRCLE, noise_sigma=0.01, seed=5)
        noisy = generate_synthetic(noisy_spec)
        np.testing.assert_array_equal(noisy.valid, clean.valid)
        diff = noisy.z[noisy.valid] - clean.z[clean.valid]
        assert np.all(diff != 0.0)
        assert np.max(np.abs(diff)) < 0.01 * 6.0

    def test_seeds_give_different_fields(self):
        base = SynthSpec(params=REFERENCE.params, scale_radius=5.5,
                         ellipse=CIRCLE, noise_sigma=0.01, seed=1)
        other = SynthSpec(params=REFERENCE.params, scale_radius=5.5,
                          ellipse=CIRCLE, noise_sigma=0.01, seed=2)
        a = generate_synthetic(base)
        b = generate_synthetic(other)
        assert not np.array_equal(a.z, b.z, equal_nan=True)

    def test_anisotropic_footprint(self):
        ellipse = DomainEllipse.from_signed_ecc_sq(0.0234)
        spec = SynthSpec(params=REFERENCE.params, scale_radius=5.5, ellipse=ellipse)
        mesh = generate_synthetic(spec)
        assert mesh.spacing_x > mesh.spacing_y  # wider axis along x
        assert -mesh.origin_x == pytest.approx(5.5 * ellipse.semi_axis_x, rel=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(params=REFERENCE.params, scale_radius=0.0, ellipse=CIRCLE)
        with pytest.raises(ValueError):
            SynthSpec(params=REFERENCE.params, scale_radius=5.5, ellipse=CIRCLE,
                      noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(params=REFERENCE.params, scale_radius=5.5, ellipse=CIRCLE,
                      n_x=1)

    @pytest.mark.parametrize("scale_radius,ecc2", [(1e308, 0.0), (8.98e307, 0.5)])
    def test_scale_radius_whose_footprint_width_overflows_is_refused(self, scale_radius,
                                                                    ecc2):
        # 2 S max(semi-axis) is not finite: linspace would overflow
        with pytest.raises(ValueError, match="scale_radius"):
            SynthSpec(params=REFERENCE.params, scale_radius=scale_radius,
                      ellipse=DomainEllipse.from_signed_ecc_sq(ecc2))

    def test_scale_radius_just_below_the_overflow_generates_without_warning(self):
        spec = SynthSpec(params=REFERENCE.params, scale_radius=8.98e307, ellipse=CIRCLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = generate_synthetic(spec)
        assert math.isfinite(mesh.spacing_x) and math.isfinite(mesh.origin_x)
        assert mesh.valid.sum() == generate_synthetic(REFERENCE).valid.sum()


class TestFootprint:
    # the mask is taken on the unit grid, so a rim point exactly on the
    # ellipse is kept at every scale; x / half_x used to round it either way
    @pytest.mark.parametrize("n_x,n_y,count", [(21, 21, 317), (41, 51, 1559),
                                               (123, 123, 11677)])
    def test_n_valid_depends_only_on_the_grid(self, n_x, n_y, count):
        counts = {
            int(generate_synthetic(SynthSpec(
                params=REFERENCE.params, scale_radius=scale_radius,
                ellipse=DomainEllipse.from_signed_ecc_sq(ecc2), n_x=n_x, n_y=n_y)).valid.sum())
            for scale_radius in (0.1, 1.0, 3.3, 5.5, 7.8)
            for ecc2 in (0.0, 0.0234, 0.5, -0.3)
        }
        assert counts == {count}


class TestNoiseStream:
    def test_matches_pure_python_reference(self):
        # independent reimplementation with unbounded Python ints
        mask = (1 << 64) - 1
        golden = 0x9E3779B97F4A7C15

        def mix(value):
            value &= mask
            value ^= value >> 30
            value = (value * 0xBF58476D1CE4E5B9) & mask
            value ^= value >> 27
            value = (value * 0x94D049BB133111EB) & mask
            value ^= value >> 31
            return value

        def reference_draw(seed, k):
            word1 = mix((seed + (2 * k + 1) * golden) & mask)
            word2 = mix((seed + (2 * k + 2) * golden) & mask)
            u1 = ((word1 >> 11) + 1) * 2.0**-53
            u2 = (word2 >> 11) * 2.0**-53
            return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

        for seed in (0, 7, 2**63 + 12345):
            field = _gaussian_field(seed, 6)
            for k in range(6):
                assert field[k] == reference_draw(seed, k)

    def test_moments(self):
        field = _gaussian_field(7, 123 * 123)
        assert abs(field.mean()) < 0.03
        assert abs(field.std() - 1.0) < 0.03
        within_one_sigma = np.mean(np.abs(field) < 1.0)
        assert abs(within_one_sigma - 0.6827) < 0.02

    def test_prefix_stability(self):
        # draws are indexed by position, so a longer request extends
        # the stream without changing earlier values
        short = _gaussian_field(3, 100)
        long = _gaussian_field(3, 1000)
        np.testing.assert_array_equal(short, long[:100])


class TestSynthSpecGuards:
    @pytest.mark.parametrize("axes", [(0.0, 1.0), (1.0, -2.0)])
    def test_non_positive_semi_axis_rejected(self, axes):
        ellipse = SimpleNamespace(semi_axis_x=axes[0], semi_axis_y=axes[1])
        with pytest.raises(ValueError, match="semi-axes"):
            SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5, ellipse=ellipse)
