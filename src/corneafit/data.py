"""Surface meshes: container, text format, synthetic generation.

A mesh is a rectangular grid of elevation samples z[i, j] in mm at
x = origin_x + j * spacing_x, y = origin_y + i * spacing_y. Points
without data hold NaN; the valid mask marks exactly the finite samples.

Text format (ASCII): a header line

    rows cols spacing_x spacing_y origin_x origin_y

followed by `rows` lines of `cols` whitespace-separated values, missing
samples written as the literal ``nan``. Floats are written with 17
significant digits, so write -> read is bit-exact. The reader also takes
``inf`` and ``-inf`` (and ``float``'s other spellings, such as ``Infinity``);
they load as non-finite samples, which the valid mask counts as missing.
It refuses the ``_`` digit separator that Python's ``float`` accepts:
``1_5`` is a bad value, not 15. ``#``, quotes and NUL are bad values too;
values are separated by ASCII whitespace, lines end at any break
``str.splitlines`` knows, and blank lines are skipped. CSV tables (a line
of column names, then comma-separated rows) share the mesh writer.

One ``np.loadtxt`` call (``comments=None``, so ``#`` is a token) parses
the body with ``float``'s string-to-double routine; its array is kept
when its shape is the header's and the text holds no ``_``. Otherwise an
error locator walks the non-blank lines and raises the first ragged row
or bad value with its line and column. ``_number`` holds the number rule
(``float`` with ``_`` refused), which fit reports follow too.

The writer produces exactly the bytes of format(v, ".17g") per value,
computed in numpy for a block of whole rows, about 4096 values, at once.
Each of a block's temporaries is 1-D, 32 KB as int64 or float64, and is
dropped once dead; the 48-byte text cells are one array per table. A
block makes a fixed number of numpy calls, so larger blocks cost less per
value up to the point where glibc trims and re-faults the heap pages of a
block's live set (see _TABLE_BLOCK_VALUES). A finite x with
1e-280 <= |x| <= 1e280 gets E = floor(log10 |x|) and, in one scaling
pass, y = |x| * 10^(16-E) as a double-double: Dekker's exact product of
x with the nearest double of 10^k, plus x times the nearest double of
the remainder 10^k minus that double. y is then within about 2^-46 of a
unit of its exact value, so it rounds to the 17 digits of x, laid out
by the %g rules. NaN is the constant ``nan``, spelt by a lead digit of
10 that no other value reaches. Zeros, subnormals, infinities and
magnitudes outside that range are written by format() one at a time,
and so is every value the scaling pass cannot decide:
y outside [1e16, 1e17) (log10 one decade off next to a power of ten),
17 digits that round up to 10^17, or a fractional part of y within a
margin of 1e-6 of one half.

The writer rewrites an existing regular file in place rather than
truncating it first: truncating a 240-450 KB table cost 0.58-0.64 ms on
ext4 mounted with ``discard``, against 0.03 ms for the in-place rewrite.
It writes a header line of spaces, the body, truncates the file at its
end and only then writes the real header over the spaces, so a rewrite
cut short reads as an empty mesh file, never as a whole mesh that mixes
new rows with old ones. A target that is not a regular file (a pipe, a
terminal, /dev/null) gets the header first and is never truncated or
seeked.

Synthetic meshes sample the closed-form linearized surface over an
elliptical footprint. Noise is generated by a counter-based scheme so a
(seed, point index) pair names its draw without any generator state:
draw m is splitmix64 applied to seed + (m + 1) * 0x9E3779B97F4A7C15
(mod 2^64), where splitmix64's output mix is

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27;  z *= 0x94D049BB133111EB;
    z ^= z >> 31;

and the flat point k = i * n_x + j turns draws 2k and 2k + 1 into one
standard normal via Box-Muller: u1 = ((v_{2k} >> 11) + 1) * 2^-53 in
(0, 1], u2 = (v_{2k+1} >> 11) * 2^-53 in [0, 1),
n = sqrt(-2 ln u1) cos(2 pi u2). The stream is reproducible across
platforms and numpy versions by construction.
"""

import functools
import math
import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParseError, _check_count, _check_positive, _check_size
from .kernel import ModelParams, _h0_values

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _check_grid(n_x, n_y, spacing_x, spacing_y, origin_x, origin_y):
    """SurfaceMesh's grid rule, which read_mesh applies to its header:
    2 or more samples a side, positive finite spacings, a finite origin."""
    _check_count("n_x", n_x, 2)
    _check_count("n_y", n_y, 2)
    _check_positive("spacing_x", spacing_x)
    _check_positive("spacing_y", spacing_y)
    if not (math.isfinite(origin_x) and math.isfinite(origin_y)):
        raise ValueError("mesh origin must be finite")


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    n_x: int
    n_y: int
    spacing_x: float
    spacing_y: float
    origin_x: float
    origin_y: float
    z: np.ndarray
    valid: np.ndarray = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        _check_grid(self.n_x, self.n_y, self.spacing_x, self.spacing_y,
                    self.origin_x, self.origin_y)
        if z.shape != (self.n_y, self.n_x):
            raise ValueError(f"z must have shape (n_y, n_x) = {(self.n_y, self.n_x)}")
        finite = np.isfinite(z)
        if self.valid is None:
            object.__setattr__(self, "valid", finite)
        else:
            valid = np.asarray(self.valid, dtype=bool)
            object.__setattr__(self, "valid", valid)
            if valid.shape != z.shape or not np.array_equal(valid, finite):
                raise ValueError("valid mask must mark exactly the finite samples")

    @property
    def x_coords(self):
        return self.origin_x + self.spacing_x * np.arange(self.n_x)

    @property
    def y_coords(self):
        return self.origin_y + self.spacing_y * np.arange(self.n_y)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic mesh.

    ellipse is any object with semi_axis_x / semi_axis_y attributes
    (nondimensional, geometric mean 1); scale_radius converts to mm.
    noise_sigma is the additive Gaussian amplitude in mm.
    """

    params: ModelParams
    scale_radius: float
    ellipse: object
    noise_sigma: float = 0.0
    seed: int = 0
    n_x: int = 123
    n_y: int = 123

    def __post_init__(self):
        _check_positive("scale_radius", self.scale_radius)
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be nonnegative and finite")
        _check_count("n_x", self.n_x, 2)
        _check_count("n_y", self.n_y, 2)
        _check_size("n_x * n_y", self.n_x * self.n_y)
        if not (self.ellipse.semi_axis_x > 0.0 and self.ellipse.semi_axis_y > 0.0):
            raise ValueError("ellipse semi-axes must be positive")
        # every value generate_synthetic forms is finite and its grid spacing keeps its
        # digits when these are: h0 peaks at the apex, so |z| <= S h0(0) + 8.572 sigma
        # (a Box-Muller draw has |n| <= sqrt(106 ln 2) < 8.572); h0(0) is a Python float,
        # so its overflow raises no numpy warning
        scale, axes = self.scale_radius, (self.ellipse.semi_axis_x, self.ellipse.semi_axis_y)
        steps = max(self.n_x, self.n_y) - 1
        for message, value in (
                ("scale_radius makes the footprint width overflow", 2.0 * scale * max(axes)),
                ("scale_radius makes the grid spacing too small", steps / 2.0 / scale / min(axes)),
                ("scale_radius, b or noise_sigma make the largest |z| overflow",
                 scale * _h0_values(self.params, 0.0) + 8.572 * self.noise_sigma)):
            if not math.isfinite(value):
                raise ValueError(message)


def _mix(z):
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX_1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX_2
    return z ^ (z >> np.uint64(31))


def _gaussian_field(seed, count):
    """count standard-normal draws for flat point indices 0 .. count-1."""
    base = np.uint64(seed % 2**64)
    k = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        word1 = _mix(base + (np.uint64(2) * k + np.uint64(1)) * _GOLDEN)
        word2 = _mix(base + (np.uint64(2) * k + np.uint64(2)) * _GOLDEN)
    u1 = ((word1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (word2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def generate_synthetic(spec):
    """Sample the linearized surface (plus noise) on a rectangular grid.

    The grid spans the ellipse's bounding box exactly: x runs over
    linspace(-S R1, S R1, n_x) and y over linspace(-S R2, S R2, n_y),
    so the rim points on the axes land on the footprint boundary and are
    kept (the mask is elliptical radius <= 1). The elliptical radius is
    taken on the unit grid u = linspace(-1, 1, n_x), v = linspace(-1, 1,
    n_y), so the footprint, and with it n_valid, depends on n_x and n_y
    alone. Outside the footprint z is NaN; a grid with no point inside it
    raises ValueError.
    """
    scale = spec.scale_radius
    half_x = scale * spec.ellipse.semi_axis_x
    half_y = scale * spec.ellipse.semi_axis_y
    u = np.linspace(-1.0, 1.0, spec.n_x)
    v = np.linspace(-1.0, 1.0, spec.n_y)
    rel = np.sqrt(u ** 2 + v[:, None] ** 2)
    valid = rel <= 1.0
    if not valid.any():
        raise ValueError("no grid point lies inside the footprint; use more samples")

    z = np.full((spec.n_y, spec.n_x), np.nan)
    z[valid] = scale * _h0_values(spec.params, rel[valid])
    if spec.noise_sigma > 0.0:
        noise = _gaussian_field(spec.seed, spec.n_x * spec.n_y)
        z[valid] += spec.noise_sigma * noise.reshape(spec.n_y, spec.n_x)[valid]

    return SurfaceMesh(
        n_x=spec.n_x,
        n_y=spec.n_y,
        spacing_x=2.0 * half_x / (spec.n_x - 1),
        spacing_y=2.0 * half_y / (spec.n_y - 1),
        origin_x=-half_x,
        origin_y=-half_y,
        z=z,
    )


def _read_ascii(path):
    """The text of an ASCII file; a non-ASCII byte raises ParseError
    naming its line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # lines break where str.splitlines breaks them, as in the readers;
        # the byte sits on the last line of its prefix plus one character
        line = len((raw[:exc.start].decode("ascii") + "?").splitlines())
        raise ParseError(f"non-ASCII byte 0x{raw[exc.start]:02x}", line=line) from None


def read_mesh(path):
    """Parse the text format; see the module docstring.

    Raises ParseError for non-ASCII bytes, malformed headers or tokens
    (with line and column) and DimensionMismatch when the body disagrees
    with the declared shape. np.loadtxt parses the body; only when it
    fails does _raise_first_error walk the lines to name the error.
    """
    text = _read_ascii(path)
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty mesh file", line=1)

    header = lines[0].split()
    if len(header) != 6:
        raise ParseError(f"expected 6 header fields, got {len(header)}", line=1)
    if "_" in lines[0]:
        _raise_first_error([(1, lines[0])], 6)
    try:
        rows, cols = int(header[0]), int(header[1])
        spacing_x, spacing_y, origin_x, origin_y = map(float, header[2:])
        _check_grid(cols, rows, spacing_x, spacing_y, origin_x, origin_y)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from None

    body = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != rows:
        raise DimensionMismatch(
            f"header declares {rows} rows, file has {len(body)}", line=len(lines)
        )
    try:
        # np.loadtxt reads tokens with float()'s string-to-double routine;
        # the text check is _number's "_" rule for every token at once
        z = None if "_" in text else np.loadtxt(lines[1:], dtype=float, comments=None, ndmin=2)
    except ValueError:
        z = None
    if z is None or z.shape != (rows, cols):
        _raise_first_error(body, cols)

    return SurfaceMesh(
        n_x=cols,
        n_y=rows,
        spacing_x=spacing_x,
        spacing_y=spacing_y,
        origin_x=origin_x,
        origin_y=origin_y,
        z=z,
    )


def _number(token):
    """A number of the text format: what float() reads, except that the
    `_` digit separator is refused. Raises ValueError."""
    if "_" in token:
        raise ValueError(f"the text format refuses '_': {token!r}")
    return float(token)


def _raise_first_error(lines, cols):
    """Raise the error of the first bad line among the non-blank (line
    number, line) pairs: DimensionMismatch when it does not hold cols
    values, else ParseError at its first token that is not a _number.
    It runs only once a parse has failed: finding no bad line is a bug."""
    for number, line in lines:
        tokens = line.split()
        if len(tokens) != cols:
            raise DimensionMismatch(f"row has {len(tokens)} values, expected {cols}",
                                    line=number)
        for column, token in enumerate(tokens, start=1):
            try:
                _number(token)
            except ValueError:
                raise ParseError(f"bad value {token!r}", line=number, column=column) from None
    raise AssertionError("no bad line in a text that failed to parse")


def write_mesh(mesh, path):
    """Write the text format with 17 significant digits (bit-exact)."""
    header = (f"{mesh.n_y} {mesh.n_x} {mesh.spacing_x:.17g} {mesh.spacing_y:.17g} "
              f"{mesh.origin_x:.17g} {mesh.origin_y:.17g}")
    _write_table(path, header, mesh.z, " ")


def _write_csv(path, header, columns):
    """A CSV with one column per array, under a row of column names."""
    _write_table(path, ",".join(header), np.column_stack(columns), ",")


# 4096 values: every per-block temporary is 1-D and 32 KB (int64 or
# float64), under glibc's default 128 KB mmap threshold, so it comes from
# the heap. The cells array, 48 bytes a value (192 KB), is made once per
# table; freeing it raises glibc's dynamic mmap threshold to its size and
# its trim threshold to twice that, so the pages one block frees are
# reused by the next rather than trimmed and faulted back in (cli.main
# fixes both thresholds higher still). At 8192 every temporary doubles,
# and a solve or fit op under glibc's defaults faults 1.4 to 6 times as
# many pages.
_TABLE_BLOCK_VALUES = 4096

# a cell is six 8-byte words: the sign, "0.000"-prefix and lead digit;
# the integer digits after the lead and the point; the fraction digits;
# the exponent and the separator (bytes 5-7 of the last word)
_CELL_BYTES = 48
_CELL_TEXT = 45
# inside these magnitudes every partial product of the double-double
# stays a normal double; outside them format() writes the value
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# the exponents E of such values and the powers 10^k, k = 16 - E, they need
_EXPONENT_MIN, _EXPONENT_MAX = round(math.log10(_FAST_MIN)), round(math.log10(_FAST_MAX))
_POWER_MIN, _POWER_MAX = 16 - _EXPONENT_MAX, 16 - _EXPONENT_MIN
# far above the double-double's error of about 2^-46 of a unit
_TIE_MARGIN = 1e-6


class _FormatTables(NamedTuple):
    """Lookup tables of the table writer, built on first use."""

    power_hi: np.ndarray  # nearest double of 10^k, k = _POWER_MIN.._POWER_MAX
    power_lo: np.ndarray  # nearest double of 10^k - power_hi
    quad_text: np.ndarray  # (2, 10000) uint64 words: 0..9999 as 4 digits at bytes 0-3 or 4-7
    quad_end: np.ndarray  # (4, 10000): where 0..9999 as quad j of 16 digits ends, zeros cut
    first: np.ndarray  # (2, 17) words: the first m of 16 bytes set
    point_at: np.ndarray  # (2, 17) words: "." at byte m of 16 (none at 16)
    head: np.ndarray  # 12 words: sign ("" or "-") then "0.000"[:m], m < 6
    lead: np.ndarray  # 11 words: digit d at byte 6 for d < 10, then "nan"
    exponent: np.ndarray  # words: "" then "e%+03d" for each exponent


def _bytes_words(texts):
    """Each ASCII text NUL-padded to 8 bytes, as one uint64 word."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), np.uint64)


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _format_tables():
    """The writer's tables; 10^k is split exactly with Python ints."""
    powers = range(_POWER_MIN, _POWER_MAX + 1)
    power_hi = np.empty(len(powers))
    power_lo = np.empty(len(powers))
    for index, k in enumerate(powers):
        if k >= 0:
            power_hi[index] = near = float(10**k)
            power_lo[index] = float(10**k - int(near))
        else:
            power_hi[index] = near = 1 / 10**-k
            num, den = near.as_integer_ratio()
            power_lo[index] = (den - num * 10**-k) / (den * 10**-k)
    place = np.array([1000, 100, 10, 1], np.uint16)
    quads = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10 + 48).astype(np.uint8)
    padded = np.zeros((2, 10000, 8), np.uint8)
    padded[0, :, :4] = padded[1, :, 4:] = quads
    zeros = np.cumprod(quads[:, ::-1] == 48, axis=1, dtype=np.uint8).sum(1, np.uint8)
    byte = np.arange(16)
    rows = np.arange(17)[:, None]
    return _FormatTables(
        power_hi,
        power_lo,
        quad_text=padded.view(np.uint64).reshape(2, 10000),
        quad_end=np.where(zeros < 4, 4 * np.arange(1, 5)[:, None] - zeros, 0).astype(np.uint8),
        first=(np.uint8(255) * (byte < rows)).view(np.uint64).T.copy(),
        point_at=(np.uint8(46) * (byte == rows)).view(np.uint64).T.copy(),
        head=_bytes_words(sign + b"0.000"[:m] for sign in (b"", b"-") for m in range(6)),
        lead=_bytes_words([b"\0" * 6 + b"%d" % d for d in range(10)] + [b"nan"]),
        exponent=_bytes_words(
            [b""] + [b"e%+03d" % e for e in range(_EXPONENT_MIN, _EXPONENT_MAX + 1)]
        ),
    )


def _scaled(x, exponent, tables):
    """x * 10^(16 - exponent) as a double-double (hi, lo): Dekker's exact
    product with the nearest double of the power, plus x times the
    power's remainder, renormalized so |lo| <= ulp(hi) / 2."""
    k = 16 - _POWER_MIN - exponent
    p_hi, p_lo = tables.power_hi[k], tables.power_lo[k]
    del k
    p_hi_hi, p_hi_lo = _split(p_hi)
    x_hi, x_lo = _split(x)
    product = x * p_hi
    del p_hi
    # Dekker's exact error of that product, then x times the remainder,
    # summed in place in left-to-right order
    low = x_hi * p_hi_hi
    low -= product
    low += x_hi * p_hi_lo
    del x_hi
    low += x_lo * p_hi_hi
    low += x_lo * p_hi_lo
    del x_lo, p_hi_hi, p_hi_lo
    low += x * p_lo
    hi = product + low
    product -= hi
    low += product
    return hi, low


def _format_block(values, ends, cells):
    """Fill cells, a (values.size, _CELL_BYTES) uint8 array, with the
    NUL-padded text of format(v, ".17g") for each value, each followed by
    ends[index], the uint64 word that closes that value's cell. Every
    temporary is 1-D and is dropped once dead."""
    tables = _format_tables()
    words = cells.view(np.uint64)
    magnitude = np.abs(values)
    with np.errstate(invalid="ignore"):
        fast = (magnitude >= _FAST_MIN) & (magnitude <= _FAST_MAX)
    x = np.where(fast, magnitude, 1.0)
    del magnitude

    # the exponent E of the leading digit; log10 may land a unit off
    # next to a power of ten, and then y leaves [1e16, 1e17) (the clip
    # keeps such an E at the ends of the range inside the tables)
    exponent = np.floor(np.log10(x)).astype(np.int64)
    np.clip(exponent, _EXPONENT_MIN, _EXPONENT_MAX, out=exponent)
    hi, lo = _scaled(x, exponent, tables)
    del x
    # where y >= 2^53, hi is an integer and `whole` is floor(y); below
    # that it is less than y, so the value falls back
    floor_lo = np.floor(lo)
    remainder = lo - floor_lo
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)
    del hi, lo, floor_lo
    digits = whole + (remainder > 0.5)
    fast &= (whole >= 10**16) & (digits < 10**17) & (np.abs(remainder - 0.5) > _TIE_MARGIN)
    del whole, remainder
    # 10^17 is no fast value's digits: its lead, 10, spells nan, and
    # format() rewrites the other values that get it
    digits[~fast] = 10**17

    # the lead digit, then the other 16 as four 4-digit quads q0..q3,
    # whose text lands in the two tail words of 8 digit bytes each
    lead = digits // 10**16
    rest = digits - lead * 10**16
    del digits
    upper = rest // 10**8
    lower = rest - upper * 10**8
    del rest
    q0 = upper // 10**4
    q1 = upper - q0 * 10**4
    del upper
    q2 = lower // 10**4
    q3 = lower - q2 * 10**4
    del lower
    quad_text, quad_end = tables.quad_text, tables.quad_end
    tail = (quad_text[0][q0] | quad_text[1][q1], quad_text[0][q2] | quad_text[1][q3])
    n_tail = np.maximum(np.maximum(quad_end[0][q0], quad_end[1][q1]),
                        np.maximum(quad_end[2][q2], quad_end[3][q3]))
    del q0, q1, q2, q3

    # %g: fixed notation for -4 <= E < 17, else d.ddd with an exponent;
    # of the tail, `integer` digits precede the point and the fraction
    # runs to `end`, trailing zeros dropped
    small = (exponent >= -4) & (exponent < 0)
    scientific = (exponent < -4) | (exponent > 16)
    integer = np.where(small | scientific, 0, exponent)
    kept = np.where(small, n_tail, integer)
    end = np.where(small, 0, np.maximum(n_tail, integer))
    del n_tail
    point = np.where(end > integer, integer, 16)
    words[:, 0] = tables.head[6 * (values < 0) + small * (1 - exponent)] | tables.lead[lead]
    del small, lead
    for w in (0, 1):
        first = tables.first[w]
        words[:, 1 + w] = tail[w] & first[kept] | tables.point_at[w][point]
        words[:, 3 + w] = tail[w] & first[end] & ~first[integer]
    del tail, kept, end, point, integer
    words[:, 5] = ends | tables.exponent[scientific * (exponent - _EXPONENT_MIN + 1)]

    for index in np.flatnonzero(~fast & ~np.isnan(values)):
        text = format(float(values[index]), ".17g").encode("ascii")
        cells[index, :_CELL_TEXT] = np.frombuffer(text.ljust(_CELL_TEXT, b"\0"), np.uint8)


def _write_table(path, header, table, sep):
    """The header line, then each row of the 2-D float array `table` as
    %.17g values joined by the one-character `sep`: byte for byte the
    text of format(v, ".17g") per value, nan, inf and -0 included.

    Values are formatted in numpy a block of about _TABLE_BLOCK_VALUES
    at a time, never the whole table at once; the module docstring
    describes how, and which values go through format() one by one.

    A regular file is rewritten in place, not truncated first: a header
    of spaces, the body, a truncate at its end, then the header at offset
    0 (the module docstring says why). Any other target gets the header
    first and is never truncated or seeked, so --out /dev/stdout works."""
    n_rows, n_cols = table.shape
    step = min(max(1, _TABLE_BLOCK_VALUES // n_cols), n_rows)
    # the word that closes each cell of a block: sep, or a line break at
    # the end of a row
    ends = np.zeros((step, n_cols, 8), np.uint8)
    ends[:, :, 5] = ord(sep)
    ends[:, -1, 5] = ord("\n")
    ends = ends.view(np.uint64).ravel()
    cells = np.empty((step * n_cols, _CELL_BYTES), np.uint8)
    head = header.encode("ascii") + b"\n"
    # no O_TRUNC: mode, symlinks and hard links behave as with open(path, "wb")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        in_place = stat.S_ISREG(os.fstat(fd).st_mode)
        handle.write(b" " * (len(head) - 1) + b"\n" if in_place else head)
        for start in range(0, n_rows, step):
            block = np.ascontiguousarray(table[start:start + step], dtype=np.float64).ravel()
            _format_block(block, ends[:block.size], cells[:block.size])
            handle.write(cells[:block.size].tobytes().translate(None, b"\0"))
        if in_place:
            handle.truncate()
            handle.seek(0)
            handle.write(head)
