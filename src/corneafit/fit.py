"""Fitting the model to elevation meshes.

Calibration uses two apex measurements. With h'(0) = 0 the central
radius of curvature of the linearized surface is rho(0) = 2 I0(sqrt(a))/b,
and the apex height is h0(0) = (b/a)(1 - 1/I0(sqrt(a))); eliminating b
leaves a scalar root problem for a,

    g(a) = (1/2) h0(0) rho(0) a - I0(sqrt(a)) + 1 = 0,

whose trivial root a = 0 is excluded by bracketing a sign change on
(1e-8, 100]. Both measurements enter nondimensionally (divided by the
scale radius), so the root is very sensitive to their ratio: d(a)/a is
roughly 8x the relative error of h0(0) rho(0) near a = 2. The pipeline
below is ordered to keep that product clean.

Elliptical domains: the footprint and the level curves of real corneas
are mildly elliptical, so the radial coordinate is replaced by
sqrt(x^2/R1^2 + y^2/R2^2) with the semi-axes normalized to geometric
mean 1. Eccentricity is estimated from the half-maximum level curve.

Axial distance: d = sqrt(x^2 + y^2) sqrt(1 + 1/(h_x^2 + h_y^2)), the
distance from the surface point to the axis along the surface normal.
It is undefined where the gradient vanishes (the apex), so points with
gradient norm below a floor are masked to NaN rather than reported.
axial_error_grid is the one mesh-versus-model comparison of these maps,
taken about the fitted apex; fit_mesh averages it and the axial command
writes it.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SurfaceMesh
from .errors import ApexNotFound, DegenerateLevelSet, NoConvergence, NoRoot
from .kernel import ModelParams
from .solver import _dh0_values, _h0_values
from .special import bessel_i


@dataclass(frozen=True)
class ApexMeasurements:
    """The two dimensional calibration inputs plus the length scale, mm."""

    max_deflection: float
    central_radius: float
    scale_radius: float

    def __post_init__(self):
        for name in ("max_deflection", "central_radius", "scale_radius"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if not self.max_deflection < self.scale_radius:
            raise ValueError("max_deflection must be smaller than scale_radius")


def _signed_ecc_sq(semi_axis_x, semi_axis_y):
    """1 - (min/max)^2, negated when the y semi-axis is the longer one."""
    ecc = 1.0 - (min(semi_axis_x, semi_axis_y) / max(semi_axis_x, semi_axis_y)) ** 2
    return -ecc if semi_axis_y > semi_axis_x else ecc


@dataclass(frozen=True)
class DomainEllipse:
    """Axis-aligned footprint ellipse, semi-axes normalized to geometric mean 1.

    signed_ecc_sq = 1 - (min/max)^2, negative when the y semi-axis is the
    longer one (prolate), positive when x is (oblate).
    """

    semi_axis_x: float
    semi_axis_y: float
    signed_ecc_sq: float

    def __post_init__(self):
        if not (self.semi_axis_x > 0.0 and self.semi_axis_y > 0.0):
            raise ValueError("semi-axes must be positive")
        if abs(self.semi_axis_x * self.semi_axis_y - 1.0) > 1e-9:
            raise ValueError("semi-axes must have geometric mean 1")
        implied = _signed_ecc_sq(self.semi_axis_x, self.semi_axis_y)
        if abs(self.signed_ecc_sq - implied) > 1e-9:
            raise ValueError("signed_ecc_sq inconsistent with the semi-axes")

    @classmethod
    def from_semi_axes(cls, semi_axis_x, semi_axis_y):
        if not (semi_axis_x > 0.0 and semi_axis_y > 0.0):
            raise ValueError("semi-axes must be positive")
        mean = math.sqrt(semi_axis_x * semi_axis_y)
        rx, ry = semi_axis_x / mean, semi_axis_y / mean
        return cls(semi_axis_x=rx, semi_axis_y=ry, signed_ecc_sq=_signed_ecc_sq(rx, ry))

    @classmethod
    def from_signed_ecc_sq(cls, signed_ecc_sq):
        if not abs(signed_ecc_sq) < 1.0:
            raise ValueError("signed_ecc_sq must lie in (-1, 1)")
        rest = 1.0 - abs(signed_ecc_sq)
        big, small = rest**-0.25, rest**0.25
        if signed_ecc_sq >= 0.0:
            return cls(semi_axis_x=big, semi_axis_y=small, signed_ecc_sq=signed_ecc_sq)
        return cls(semi_axis_x=small, semi_axis_y=big, signed_ecc_sq=signed_ecc_sq)


@dataclass(frozen=True)
class FitOptions:
    level_fraction: float = 0.5
    apex_window_fraction: float = 0.4
    gradient_floor: float = 1e-8
    apex_mask_radius: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.level_fraction < 1.0:
            raise ValueError("level_fraction must lie in (0, 1)")
        if not 0.0 < self.apex_window_fraction <= 1.0:
            raise ValueError("apex_window_fraction must lie in (0, 1]")
        if not self.gradient_floor > 0.0:
            raise ValueError("gradient_floor must be positive")
        # every valid point has rel <= 1, so a mask of radius 1 leaves none
        if not 0.0 <= self.apex_mask_radius < 1.0:
            raise ValueError("apex_mask_radius must lie in [0, 1)")


@dataclass(frozen=True)
class FitResult:
    """Calibrated model and error statistics of one fit_mesh call.

    apex_x_mm and apex_y_mm locate the fitted apex in the mesh's
    coordinates. error_grid_mm has the mesh's shape: |z - model| at the
    n_points_used points the elevation statistics cover, NaN elsewhere.
    """

    params: ModelParams
    ellipse: DomainEllipse
    scale_radius: float
    mean_abs_error_mm: float
    mean_rel_error: float
    axial_mean_abs_error_mm: float
    axial_mean_rel_error: float
    n_points_used: int
    apex_x_mm: float = field(default=0.0, compare=False)
    apex_y_mm: float = field(default=0.0, compare=False)
    error_grid_mm: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        errors = (
            self.mean_abs_error_mm,
            self.mean_rel_error,
            self.axial_mean_abs_error_mm,
            self.axial_mean_rel_error,
        )
        if any(not (e >= 0.0) for e in errors):
            raise ValueError("error statistics must be nonnegative")
        if self.n_points_used < 0:
            raise ValueError("n_points_used must be nonnegative")

    def error_summary(self):
        """Elevation error in the conventional form, e.g. '0.035 mm (3.6%)'."""
        return f"{self.mean_abs_error_mm:.3f} mm ({100.0 * self.mean_rel_error:.1f}%)"


@dataclass(frozen=True, eq=False)
class ModelSurface:
    """Analytic surface z = S h0(elliptical radius) on a template's grid.

    The template supplies grid geometry only (its z is ignored); the
    apex is assumed at the template's coordinate origin.
    """

    params: ModelParams
    scale_radius: float
    template: SurfaceMesh

    def __post_init__(self):
        if not (self.scale_radius > 0.0 and math.isfinite(self.scale_radius)):
            raise ValueError("scale_radius must be positive and finite")


def calibrate_b(a, rho0_nondim):
    """b from the central radius of curvature: b = 2 I0(sqrt(a))/rho(0)."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("a must be positive and finite")
    if not (rho0_nondim > 0.0 and math.isfinite(rho0_nondim)):
        raise ValueError("rho0_nondim must be positive and finite")
    return 2.0 * bessel_i(0, math.sqrt(a)) / rho0_nondim


def _calibration_g(half_product, a):
    """g(a) = half_product a - I0(sqrt(a)) + 1, for a float or an array."""
    return half_product * a - bessel_i(0, np.sqrt(a)) + 1.0


def _calibration_scan(half_product):
    """g on the 600-point scan grid, in one array Bessel call."""
    grid = np.geomspace(1e-8, 100.0, 600)
    return grid, _calibration_g(half_product, grid)


def calibrate_a(h00_nondim, rho0_nondim):
    """Smallest positive root of g(a) = (1/2) h00 rho0 a - I0(sqrt(a)) + 1.

    g(0) = 0 always, so the trivial root is excluded by scanning
    (1e-8, 100] for the first sign change from g > 0 to g <= 0, then
    polishing with Newton to |g| <= 1e-12 inside that bracket: each
    iterate shrinks the bracket, and a step that would leave it is
    replaced by the bracket midpoint. Raises NoRoot when the scan finds
    no sign change, which signals measurements inconsistent with the
    model (h00 rho0 <= 1/2 leaves g negative everywhere), and
    NoConvergence when the polish cannot reach the tolerance.
    """
    if not (h00_nondim > 0.0 and math.isfinite(h00_nondim)):
        raise ValueError("h00_nondim must be positive and finite")
    if not (rho0_nondim > 0.0 and math.isfinite(rho0_nondim)):
        raise ValueError("rho0_nondim must be positive and finite")
    half_product = 0.5 * h00_nondim * rho0_nondim

    def dg(a):
        root = math.sqrt(a)
        return half_product - bessel_i(1, root) / (2.0 * root)

    grid, values = _calibration_scan(half_product)
    falls = np.flatnonzero((values[:-1] > 0.0) & (values[1:] <= 0.0))
    if falls.size == 0:
        raise NoRoot("no sign change of the calibration function in (1e-8, 100]")

    lo, hi = float(grid[falls[0]]), float(grid[falls[0] + 1])  # g(lo) > 0 >= g(hi)
    a = 0.5 * (lo + hi)
    # a scan bracket (about 4% wide) reaches float resolution after about
    # 55 midpoint steps, so 80 suffice even if every Newton step is rejected
    for _ in range(80):
        value = _calibration_g(half_product, a)
        if abs(value) <= 1e-12:
            return a
        if value > 0.0:
            lo = a
        else:
            hi = a
        slope = dg(a)
        trial = a - value / slope if slope != 0.0 else math.nan
        a = trial if lo < trial < hi else 0.5 * (lo + hi)
    raise NoConvergence("calibration root polish did not reach |g| <= 1e-12")


def elliptical_radius(x, y, ellipse):
    """sqrt(x^2/R1^2 + y^2/R2^2); the Euclidean radius when R1 = R2 = 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.sqrt((x / ellipse.semi_axis_x) ** 2 + (y / ellipse.semi_axis_y) ** 2)
    if out.ndim == 0:
        return float(out)
    return out


def _measure_apex(mesh, options):
    """Locate the apex and return (x, y, height, central radius), all mm.

    Least squares of a quartic even-order surface over the valid points
    within apex_window_fraction of the footprint radius around the
    highest node, refined by Newton to the polynomial's critical point.
    The quartic terms matter: the true profile's fourth-order variation
    over a window wide enough to average noise would otherwise bias the
    curvature (and the calibrated a with it) by several percent.
    """
    z, valid = mesh.z, mesh.valid
    if not np.any(valid):
        raise ApexNotFound("mesh has no valid samples")
    flat = int(np.argmax(np.where(valid, z, -np.inf)))
    i0, j0 = divmod(flat, mesh.n_x)
    if i0 in (0, mesh.n_y - 1) or j0 in (0, mesh.n_x - 1):
        raise ApexNotFound("maximum elevation lies on the mesh boundary")

    x_coords, y_coords = mesh.x_coords, mesh.y_coords
    node_x, node_y = x_coords[j0], y_coords[i0]
    # read-only broadcast views: no full grid of either offset is built
    offset_x = np.broadcast_to(x_coords - node_x, z.shape)
    offset_y = np.broadcast_to((y_coords - node_y)[:, None], z.shape)
    dist = np.hypot(offset_x, offset_y)
    footprint = float(dist[valid].max())
    if footprint <= 0.0:
        raise ApexNotFound("footprint is a single point")
    window_radius = options.apex_window_fraction * footprint
    window = valid & (dist <= window_radius)
    # window-normalized coordinates keep the quartic basis conditioned
    # regardless of the mesh's length unit
    u = offset_x[window] / window_radius
    v = offset_y[window] / window_radius
    w = z[window]
    if u.size < 9:
        raise ApexNotFound("too few valid samples near the maximum")

    basis = np.column_stack(
        [np.ones_like(u), u, v, u * u, u * v, v * v, u**4, u * u * v * v, v**4]
    )
    c, *_ = np.linalg.lstsq(basis, w, rcond=None)

    def gradient_hessian(p, q):
        gu = c[1] + 2.0 * c[3] * p + c[4] * q + 4.0 * c[6] * p**3 + 2.0 * c[7] * p * q * q
        gv = c[2] + c[4] * p + 2.0 * c[5] * q + 2.0 * c[7] * p * p * q + 4.0 * c[8] * q**3
        huu = 2.0 * c[3] + 12.0 * c[6] * p * p + 2.0 * c[7] * q * q
        huv = c[4] + 4.0 * c[7] * p * q
        hvv = 2.0 * c[5] + 2.0 * c[7] * p * p + 12.0 * c[8] * q * q
        return gu, gv, huu, huv, hvv

    p = q = 0.0
    for _ in range(12):
        gu, gv, huu, huv, hvv = gradient_hessian(p, q)
        det = huu * hvv - huv * huv
        if not (math.isfinite(det) and det != 0.0):
            raise ApexNotFound("apex surface fit has a singular Hessian")
        dp = -(hvv * gu - huv * gv) / det
        dq = -(huu * gv - huv * gu) / det
        p += dp
        q += dq
        if math.hypot(dp, dq) <= 1e-13:
            break
    if math.hypot(p, q) > 1.0:
        raise ApexNotFound("apex estimate left the fit window")

    height = float(
        c[0] + c[1] * p + c[2] * q + c[3] * p * p + c[4] * p * q + c[5] * q * q
        + c[6] * p**4 + c[7] * p * p * q * q + c[8] * q**4
    )
    _, _, huu, _, hvv = gradient_hessian(p, q)
    curvature = -0.5 * (huu + hvv) / window_radius**2
    if not (height > 0.0 and curvature > 0.0):
        raise ApexNotFound("no dome-shaped maximum in the fit window")
    return node_x + window_radius * p, node_y + window_radius * q, height, 1.0 / curvature


def _level_crossings(coords, values, valid, level):
    """Linear-interpolation crossings of values == level along every row.

    values and valid are 2-D; coords gives the position of each column.
    A pair of adjacent valid samples yields a crossing at its first
    sample when that sample lies exactly on the level, else where the
    straight line between the two passes the level, if it does. Returns
    (row index, position) arrays ordered by row, then along the row.
    """
    offset = values - level
    first, second = offset[:, :-1], offset[:, 1:]
    pairs = valid[:, :-1] & valid[:, 1:]
    with np.errstate(invalid="ignore"):
        on_level = pairs & (first == 0.0)
        hit = on_level | (pairs & (first * second < 0.0))
    rows, cols = np.nonzero(hit)
    positions = coords[cols]
    between = ~on_level[rows, cols]
    s0 = first[rows[between], cols[between]]
    s1 = second[rows[between], cols[between]]
    start = positions[between]
    t = s0 / (s0 - s1)
    positions[between] = start + t * (coords[cols[between] + 1] - start)
    return rows, positions


def _level_curve_points(mesh, center, level):
    """Crossings of z == level along every row, then every column, as
    (x, y) arrays relative to center.

    Row crossings come by row, then x; column crossings by column, then
    y. The order fixes the ellipse's normal-equation sums bit for bit.
    """
    x, y = mesh.x_coords, mesh.y_coords
    rows, row_x = _level_crossings(x, mesh.z, mesh.valid, level)
    cols, col_y = _level_crossings(y, mesh.z.T, mesh.valid.T, level)
    u = np.concatenate([row_x - center[0], x[cols] - center[0]])
    v = np.concatenate([y[rows] - center[1], col_y - center[1]])
    return u, v


def estimate_ellipse(mesh, level_fraction=0.5, *, center=None, level=None):
    """Fit an axis-aligned ellipse to a level curve of the elevation.

    The curve at level_fraction x (apex height) is located by linear
    interpolation along every mesh row and column; the points (relative
    to the apex) are fitted by least squares on alpha x^2 + beta y^2 = 1,
    which is linear in (alpha, beta); the half-maximum default stays
    away from both apex flatness and the ragged footprint rim. center
    and level override the internal apex fit when the caller has already
    measured it. Raises DegenerateLevelSet when fewer than 8 crossings
    are found or the fit does not describe an ellipse.
    """
    if center is None or level is None:
        apex_x, apex_y, height, _ = _measure_apex(mesh, FitOptions())
        if center is None:
            center = (apex_x, apex_y)
        if level is None:
            if not 0.0 < level_fraction < 1.0:
                raise ValueError("level_fraction must lie in (0, 1)")
            level = level_fraction * height

    u, v = _level_curve_points(mesh, center, level)
    if u.size < 8:
        raise DegenerateLevelSet(f"only {u.size} level-curve points")
    u2, v2 = u * u, v * v
    normal = np.array([[np.sum(u2 * u2), np.sum(u2 * v2)], [np.sum(u2 * v2), np.sum(v2 * v2)]])
    rhs = np.array([np.sum(u2), np.sum(v2)])
    try:
        alpha, beta = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateLevelSet("level-curve points do not span both axes") from None
    if not (alpha > 0.0 and beta > 0.0):
        raise DegenerateLevelSet("level curve is not an ellipse")
    return DomainEllipse.from_semi_axes(1.0 / math.sqrt(alpha), 1.0 / math.sqrt(beta))


def fit_mesh(mesh, options=None):
    """Calibrate (a, b), ellipse and scale from a mesh; report errors.

    Pipeline: apex fit (height and central curvature), level-curve
    ellipse, then footprint scale as the largest elliptical radial
    extent of the valid data about the apex. The scale must be measured
    in the elliptical metric: a Euclidean footprint radius over an
    eccentric domain is biased by up to half the eccentricity, and the
    calibration amplifies that ~8x into a. Apex measurements divided by
    the scale then calibrate a and b, and the model surface
    S h0(elliptical radius / S) is compared against the data; axial
    distance statistics are means of axial_error_grid's errors outside
    apex_mask_radius. Each stage runs once; the result also carries the
    apex position and the per-point elevation error grid.
    """
    if options is None:
        options = FitOptions()
    apex_x, apex_y, height_mm, rho0_mm = _measure_apex(mesh, options)
    ellipse = estimate_ellipse(
        mesh,
        options.level_fraction,
        center=(apex_x, apex_y),
        level=options.level_fraction * height_mm,
    )

    radial_mm = elliptical_radius(
        mesh.x_coords - apex_x, mesh.y_coords[:, None] - apex_y, ellipse
    )
    scale = float(radial_mm[mesh.valid].max())
    apex = ApexMeasurements(
        max_deflection=height_mm, central_radius=rho0_mm, scale_radius=scale
    )
    a = calibrate_a(apex.max_deflection / scale, apex.central_radius / scale)
    b = calibrate_b(a, apex.central_radius / scale)
    params = ModelParams(a=a, b=b)

    rel = radial_mm / scale
    # every valid point has rel <= 1: the scale is their largest radius
    model_z = scale * _h0_values(params, rel[mesh.valid])
    abs_errors = np.abs(mesh.z[mesh.valid] - model_z)
    mean_abs = float(abs_errors.mean())
    mean_rel = mean_abs / height_mm
    error_grid = np.full(mesh.z.shape, np.nan)
    error_grid[mesh.valid] = abs_errors

    d_mesh, axial_errors = axial_error_grid(
        mesh, params, ellipse, scale, (apex_x, apex_y), options.gradient_floor
    )
    common = ~np.isnan(axial_errors) & (rel > options.apex_mask_radius)
    if not np.any(common):
        # axial_error_grid found points with both maps, all inside the disk
        raise ValueError(
            f"apex_mask_radius = {options.apex_mask_radius!r} masks every point "
            "where both axial-distance maps are defined"
        )
    axial_diff = axial_errors[common]
    axial_mean_abs = float(axial_diff.mean())
    axial_mean_rel = float((axial_diff / d_mesh[common]).mean())

    return FitResult(
        params=params,
        ellipse=ellipse,
        scale_radius=scale,
        mean_abs_error_mm=mean_abs,
        mean_rel_error=mean_rel,
        axial_mean_abs_error_mm=axial_mean_abs,
        axial_mean_rel_error=axial_mean_rel,
        n_points_used=int(mesh.valid.sum()),
        apex_x_mm=float(apex_x),
        apex_y_mm=float(apex_y),
        error_grid_mm=error_grid,
    )


def axial_error_grid(mesh, params, ellipse, scale_radius, apex,
                     gradient_floor=FitOptions.gradient_floor):
    """The mesh's axial-distance field and its error against the model.

    Both fields are taken about apex = (x, y), the fitted apex in the
    mesh's coordinates: the mesh is re-centered there and the model
    surface S h0(elliptical radius / S) sits on the re-centered grid.
    Returns (d_mesh, |d_mesh - d_model|), both with the mesh's shape;
    the error grid is NaN wherever either map is undefined. Raises
    ValueError when the apex is not finite or no point has both maps.
    """
    apex_x, apex_y = apex
    if not (math.isfinite(apex_x) and math.isfinite(apex_y)):
        raise ValueError(f"apex position must be finite, got ({apex_x}, {apex_y})")
    shifted = replace(mesh, origin_x=mesh.origin_x - apex_x, origin_y=mesh.origin_y - apex_y)
    d_mesh = axial_distance_map(shifted, ellipse, gradient_floor=gradient_floor)
    d_model = axial_distance_map(
        ModelSurface(params=params, scale_radius=scale_radius, template=shifted),
        ellipse,
        gradient_floor=gradient_floor,
    )
    # each map is NaN exactly where it is undefined, so the difference is too
    errors = np.abs(d_mesh - d_model)
    if np.isnan(errors).all():
        raise ValueError("no overlap between mesh and model axial-distance maps")
    return d_mesh, errors


def axial_distance_map(mesh_or_model, ellipse, gradient_floor=FitOptions.gradient_floor):
    """Axial distance d = sqrt(x^2+y^2) sqrt(1 + 1/||grad h||^2), in mm.

    The surface axis is the coordinate origin of the source grid. For a
    SurfaceMesh the gradient is centered differences (defined where both
    neighbors along each axis are valid, so boundary rows and columns
    are not); for a ModelSurface it is the chain rule on S h0(rel),
    using the given ellipse, defined where rel <= 1. Points with
    gradient norm below gradient_floor come out NaN, not raised: the
    formula diverges at the apex. Raises ValueError when gradient_floor
    is not positive and finite.
    """
    if not (0.0 < gradient_floor < math.inf):
        raise ValueError("gradient_floor must be positive and finite")
    if isinstance(mesh_or_model, ModelSurface):
        model = mesh_or_model
        template = model.template
        x, y = template.x_coords, template.y_coords[:, None]
        scale = model.scale_radius
        rel = elliptical_radius(x / scale, y / scale, ellipse)
        inside = rel <= 1.0
        # z_x = q x / (S R1^2), z_y = q y / (S R2^2) with q = h0'(rel)/rel;
        # q stays NaN at the apex, where x = y = 0 and the gradient floor
        # masks the point whatever q holds
        q = np.full(rel.shape, np.nan)
        positive = inside & (rel > 0.0)
        q[positive] = _dh0_values(model.params, rel[positive]) / rel[positive]
        grad_x = q * x / (scale * ellipse.semi_axis_x**2)
        grad_y = q * y / (scale * ellipse.semi_axis_y**2)
        defined = inside
    else:
        mesh = mesh_or_model
        x, y = mesh.x_coords, mesh.y_coords[:, None]
        z, valid = mesh.z, mesh.valid
        grad_x = np.full(z.shape, np.nan)
        grad_y = np.full(z.shape, np.nan)
        # a missing (non-finite) neighbor makes the difference non-finite
        with np.errstate(invalid="ignore"):
            grad_x[:, 1:-1] = (z[:, 2:] - z[:, :-2]) / (2.0 * mesh.spacing_x)
            grad_y[1:-1, :] = (z[2:, :] - z[:-2, :]) / (2.0 * mesh.spacing_y)
        defined = valid & np.isfinite(grad_x) & np.isfinite(grad_y)

    norm_sq = grad_x * grad_x + grad_y * grad_y
    with np.errstate(invalid="ignore"):
        usable = defined & (norm_sq >= gradient_floor**2)
    out = np.full(norm_sq.shape, np.nan)
    radius = np.hypot(x, y)
    out[usable] = radius[usable] * np.sqrt(1.0 + 1.0 / norm_sq[usable])
    return out
