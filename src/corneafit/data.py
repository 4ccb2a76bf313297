"""Surface meshes: container, text format, synthetic generation.

A mesh is a rectangular grid of elevation samples z[i, j] in mm at
x = origin_x + j * spacing_x, y = origin_y + i * spacing_y. Points
without data hold NaN; the valid mask marks exactly the finite samples.

Text format (ASCII): a header line

    rows cols spacing_x spacing_y origin_x origin_y

followed by `rows` lines of `cols` whitespace-separated values, missing
samples written as the literal ``nan``. Floats are written with 17
significant digits, so write -> read is bit-exact.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError
from .kernel import ModelParams
from .solver import _h0_values

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


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
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError("mesh needs at least 2 samples per axis")
        if not (0.0 < self.spacing_x < math.inf and 0.0 < self.spacing_y < math.inf):
            raise ValueError("mesh spacing must be positive and finite")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError("mesh origin must be finite")
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
        if not (self.scale_radius > 0.0 and math.isfinite(self.scale_radius)):
            raise ValueError("scale_radius must be positive and finite")
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be nonnegative and finite")
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError("mesh needs at least 2 samples per axis")
        if not (self.ellipse.semi_axis_x > 0.0 and self.ellipse.semi_axis_y > 0.0):
            raise ValueError("ellipse semi-axes must be positive")


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
    kept (the mask is elliptical radius <= 1). Outside the footprint
    z is NaN.
    """
    scale = spec.scale_radius
    half_x = scale * spec.ellipse.semi_axis_x
    half_y = scale * spec.ellipse.semi_axis_y
    x = np.linspace(-half_x, half_x, spec.n_x)
    y = np.linspace(-half_y, half_y, spec.n_y)
    grid_x, grid_y = np.meshgrid(x, y)
    rel = np.sqrt((grid_x / half_x) ** 2 + (grid_y / half_y) ** 2)
    valid = rel <= 1.0

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


def _file_line(lines, row):
    """1-based file line of body row `row` (blank lines hold no row).

    Only error paths call this, so the parse loop keeps no line count.
    """
    numbers = [number for number, line in enumerate(lines[1:], start=2) if line.strip()]
    return numbers[row]


def _read_ascii(path):
    """The text of an ASCII file; a non-ASCII byte raises ParseError
    naming its line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte 0x{raw[exc.start]:02x}", line=line) from None


def read_mesh(path):
    """Parse the text format; see the module docstring.

    Raises ParseError for non-ASCII bytes, malformed headers or tokens
    (with line and column) and DimensionMismatch when the body disagrees
    with the declared shape.
    """
    lines = _read_ascii(path).splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty mesh file", line=1)

    header = lines[0].split()
    if len(header) != 6:
        raise ParseError(f"expected 6 header fields, got {len(header)}", line=1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header rows/cols must be integers", line=1) from None
    try:
        spacing_x, spacing_y = float(header[2]), float(header[3])
        origin_x, origin_y = float(header[4]), float(header[5])
    except ValueError:
        raise ParseError("header spacings/origins must be numbers", line=1) from None
    if rows < 2 or cols < 2:
        raise ParseError("header declares fewer than 2 rows or columns", line=1)
    if not (0.0 < spacing_x < math.inf and 0.0 < spacing_y < math.inf):
        raise ParseError("header spacings must be positive and finite", line=1)
    if not (math.isfinite(origin_x) and math.isfinite(origin_y)):
        raise ParseError("header origins must be finite", line=1)

    body = [line for line in lines[1:] if line.strip()]
    if len(body) != rows:
        raise DimensionMismatch(
            f"header declares {rows} rows, file has {len(body)}", line=len(lines)
        )
    z = np.empty((rows, cols))
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise DimensionMismatch(
                f"row has {len(tokens)} values, expected {cols}",
                line=_file_line(lines, i),
            )
        try:
            z[i] = [float(token) for token in tokens]
        except ValueError:
            for j, token in enumerate(tokens):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(
                        f"bad value {token!r}", line=_file_line(lines, i), column=j + 1
                    ) from None
            raise

    return SurfaceMesh(
        n_x=cols,
        n_y=rows,
        spacing_x=spacing_x,
        spacing_y=spacing_y,
        origin_x=origin_x,
        origin_y=origin_y,
        z=z,
    )


def write_mesh(mesh, path):
    """Write the text format with 17 significant digits (bit-exact)."""
    # One %-format per row over Python floats gives the same text as
    # format(v, ".17g") per value, nan and inf included. Converting a row
    # at a time keeps one row of Python floats alive, not the whole mesh.
    row_format = " ".join(["%.17g"] * mesh.n_x) + "\n"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            f"{mesh.n_y} {mesh.n_x} {mesh.spacing_x:.17g} {mesh.spacing_y:.17g} "
            f"{mesh.origin_x:.17g} {mesh.origin_y:.17g}\n"
        )
        handle.writelines(row_format % tuple(row.tolist()) for row in mesh.z)
