"""Tests for calibration, ellipse estimation, surface fitting, and the
axial distance map.

Frozen nondimensional calibration inputs below (apex height h0(0) and
central radius rho(0)) were generated with mpmath at 40 significant
digits from the closed forms h0(0) = (b/a)(1 - 1/I0(sqrt(a))) and
rho(0) = 2 I0(sqrt(a))/b, so recovering (a, b) from them is a genuine
round trip through the root solve.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from corneafit import fit as fit_module
from corneafit.data import SurfaceMesh, SynthSpec, generate_synthetic
from corneafit.errors import ApexNotFound, DegenerateLevelSet, NoRoot
from corneafit.fit import (
    ApexMeasurements,
    DomainEllipse,
    FitOptions,
    FitResult,
    ModelSurface,
    _calibration_scan,
    _level_curve_points,
    _measure_apex,
    axial_distance_map,
    axial_error_grid,
    calibrate_a,
    calibrate_b,
    elliptical_radius,
    estimate_ellipse,
    fit_mesh,
)
from corneafit.kernel import ModelParams
from corneafit.solver import _h0_values
from corneafit.special import bessel_i

CIRCLE = DomainEllipse.from_signed_ecc_sq(0.0)

# h0(0) and rho(0) at a = b = 2 and at (a, b) = (2.07883, 2.76741)
H00_TWO = 0.3614642104836817919756
RHO0_TWO = 1.566082929756350537292
H00_PAIR = 0.4946430106209490164907
RHO0_PAIR = 1.149999447560114129899


def synthetic(a, b, signed_ecc_sq=0.0, scale=5.5, sigma=0.0, seed=0, n=123):
    spec = SynthSpec(
        params=ModelParams(a=a, b=b),
        scale_radius=scale,
        ellipse=DomainEllipse.from_signed_ecc_sq(signed_ecc_sq),
        noise_sigma=sigma,
        seed=seed,
        n_x=n,
        n_y=n,
    )
    return generate_synthetic(spec)


def sphere_cap(radius=7.8, aperture=4.0, n=123):
    """Mesh of a sphere cap; its axial distance is the radius everywhere."""
    coords = np.linspace(-aperture, aperture, n)
    grid_x, grid_y = np.meshgrid(coords, coords)
    r_sq = grid_x**2 + grid_y**2
    z = np.full((n, n), np.nan)
    inside = r_sq <= aperture**2
    z[inside] = np.sqrt(radius**2 - r_sq[inside]) - math.sqrt(
        radius**2 - aperture**2
    )
    spacing = 2.0 * aperture / (n - 1)
    return SurfaceMesh(n_x=n, n_y=n, spacing_x=spacing, spacing_y=spacing,
                       origin_x=-aperture, origin_y=-aperture, z=z)


class TestCalibrateB:
    def test_round_trip_at_reference(self):
        assert calibrate_b(2.0, RHO0_TWO) == pytest.approx(2.0, rel=1e-13)

    def test_round_trip_at_paper_pair(self):
        assert calibrate_b(2.07883, RHO0_PAIR) == pytest.approx(2.76741, rel=1e-13)

    def test_inverse_in_radius(self):
        assert calibrate_b(1.3, 2.4) == pytest.approx(calibrate_b(1.3, 1.2) / 2.0,
                                                      rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_b(-1.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_b(1.0, 0.0)


class TestCalibrateA:
    def test_round_trip_at_reference(self):
        assert calibrate_a(H00_TWO, RHO0_TWO) == pytest.approx(2.0, rel=1e-9)

    def test_round_trip_at_paper_pair(self):
        assert calibrate_a(H00_PAIR, RHO0_PAIR) == pytest.approx(2.07883, rel=1e-9)

    def test_against_brentq_oracle(self):
        for h00, rho0 in [(H00_TWO, RHO0_TWO), (H00_PAIR, RHO0_PAIR), (0.3, 2.1)]:
            half = 0.5 * h00 * rho0

            def g(a):
                return half * a - bessel_i(0, math.sqrt(a)) + 1.0

            grid = np.geomspace(1e-8, 100.0, 4000)
            signs = np.sign([g(a) for a in grid])
            flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
            oracle = brentq(g, grid[flips[0]], grid[flips[0] + 1], xtol=1e-14)
            assert calibrate_a(h00, rho0) == pytest.approx(oracle, rel=1e-9)

    def test_sensitivity_to_height(self):
        # shallow root: a 1% height error moves a by several percent
        base = calibrate_a(H00_TWO, RHO0_TWO)
        moved = calibrate_a(1.01 * H00_TWO, RHO0_TWO)
        shift = abs(moved - base) / base
        assert 0.02 < shift < 0.15

    def test_no_root_for_inconsistent_measurements(self):
        # h00 rho0 <= 1/2 keeps g negative for every a > 0
        with pytest.raises(NoRoot):
            calibrate_a(0.1, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_a(0.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_a(0.3, math.inf)


class TestDomainEllipse:
    @pytest.mark.parametrize("signed", [0.0, 0.0234, -0.0214, 0.6, -0.6])
    def test_signed_ecc_round_trip(self, signed):
        ellipse = DomainEllipse.from_signed_ecc_sq(signed)
        assert ellipse.signed_ecc_sq == pytest.approx(signed, abs=1e-12)
        assert ellipse.semi_axis_x * ellipse.semi_axis_y == pytest.approx(1.0,
                                                                          rel=1e-12)

    def test_sign_convention(self):
        wide = DomainEllipse.from_signed_ecc_sq(0.3)
        tall = DomainEllipse.from_signed_ecc_sq(-0.3)
        assert wide.semi_axis_x > wide.semi_axis_y
        assert tall.semi_axis_y > tall.semi_axis_x

    def test_from_semi_axes_normalizes(self):
        ellipse = DomainEllipse.from_semi_axes(3.0, 1.5)
        assert ellipse.semi_axis_x * ellipse.semi_axis_y == pytest.approx(1.0,
                                                                          rel=1e-12)
        assert ellipse.semi_axis_x / ellipse.semi_axis_y == pytest.approx(2.0,
                                                                          rel=1e-12)
        assert ellipse.signed_ecc_sq == pytest.approx(0.75, rel=1e-12)
        assert DomainEllipse.from_semi_axes(1.5, 3.0).signed_ecc_sq == pytest.approx(
            -0.75, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainEllipse(semi_axis_x=2.0, semi_axis_y=1.0, signed_ecc_sq=0.75)
        with pytest.raises(ValueError):
            DomainEllipse(semi_axis_x=1.1, semi_axis_y=1.0 / 1.1, signed_ecc_sq=0.5)
        with pytest.raises(ValueError):
            DomainEllipse.from_signed_ecc_sq(1.0)
        with pytest.raises(ValueError):
            DomainEllipse.from_semi_axes(0.0, 1.0)


class TestEllipticalRadius:
    def test_circle_is_euclidean(self):
        assert elliptical_radius(0.3, 0.4, CIRCLE) == pytest.approx(0.5, rel=1e-15)

    def test_axis_points_reach_one(self):
        ellipse = DomainEllipse.from_signed_ecc_sq(0.0234)
        assert elliptical_radius(ellipse.semi_axis_x, 0.0, ellipse) == pytest.approx(
            1.0, rel=1e-14)
        assert elliptical_radius(0.0, ellipse.semi_axis_y, ellipse) == pytest.approx(
            1.0, rel=1e-14)

    def test_array_shape(self):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = elliptical_radius(x, x, CIRCLE)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, math.sqrt(2.0) * x, rtol=1e-14)


class TestMeasureApex:
    def test_recovers_apex_height_and_radius(self):
        mesh = synthetic(2.0, 2.0)
        apex_x, apex_y, height, rho0 = _measure_apex(mesh, FitOptions())
        assert abs(apex_x) < 1e-6 and abs(apex_y) < 1e-6
        assert height == pytest.approx(5.5 * H00_TWO, rel=1e-4)
        assert rho0 == pytest.approx(5.5 * RHO0_TWO, rel=1e-3)

    def test_flat_surface_rejected(self):
        z = np.zeros((33, 33))
        mesh = SurfaceMesh(n_x=33, n_y=33, spacing_x=0.1, spacing_y=0.1,
                           origin_x=-1.6, origin_y=-1.6, z=z)
        with pytest.raises(ApexNotFound):
            _measure_apex(mesh, FitOptions())

    def test_apex_on_boundary_rejected(self):
        coords = np.linspace(0.0, 1.0, 21)
        grid_x, grid_y = np.meshgrid(coords, coords)
        z = 2.0 - grid_x - grid_y  # maximum at the corner
        mesh = SurfaceMesh(n_x=21, n_y=21, spacing_x=0.05, spacing_y=0.05,
                           origin_x=0.0, origin_y=0.0, z=z)
        with pytest.raises(ApexNotFound):
            _measure_apex(mesh, FitOptions())


class TestEstimateEllipse:
    def test_circular_footprint(self):
        ellipse = estimate_ellipse(synthetic(2.0, 2.0))
        assert abs(ellipse.signed_ecc_sq) <= 1e-3

    @pytest.mark.parametrize("signed", [0.0234, -0.0214])
    def test_eccentric_footprints(self, signed):
        ellipse = estimate_ellipse(synthetic(1.94398, 2.27534, signed_ecc_sq=signed))
        assert math.copysign(1.0, ellipse.signed_ecc_sq) == math.copysign(1.0, signed)
        assert ellipse.signed_ecc_sq == pytest.approx(signed, rel=0.10)

    def test_degenerate_level_set(self):
        z = np.zeros((4, 4))
        mesh = SurfaceMesh(n_x=4, n_y=4, spacing_x=1.0, spacing_y=1.0,
                           origin_x=-1.5, origin_y=-1.5, z=z)
        with pytest.raises(DegenerateLevelSet):
            estimate_ellipse(mesh, center=(0.0, 0.0), level=0.5)


class TestFitMesh:
    def test_noiseless_circular_recovery(self):
        result = fit_mesh(synthetic(2.07883, 2.76741))
        assert result.params.a == pytest.approx(2.07883, rel=0.01)
        assert result.params.b == pytest.approx(2.76741, rel=0.01)
        assert abs(result.ellipse.signed_ecc_sq) <= 0.005
        assert result.scale_radius == pytest.approx(5.5, rel=0.01)
        assert result.mean_abs_error_mm <= 1e-4
        assert 0 < result.n_points_used <= 123 * 123

    def test_noiseless_eccentric_recovery(self):
        result = fit_mesh(synthetic(1.94398, 2.27534, signed_ecc_sq=0.0234))
        assert result.params.a == pytest.approx(1.94398, rel=0.01)
        assert result.params.b == pytest.approx(2.27534, rel=0.01)
        assert result.ellipse.signed_ecc_sq == pytest.approx(0.0234, abs=0.005)

    def test_noisy_error_statistics(self):
        result = fit_mesh(synthetic(1.94398, 2.27534, signed_ecc_sq=0.0234,
                                    sigma=0.01, seed=7))
        assert 0.005 <= result.mean_abs_error_mm <= 0.02

    def test_off_center_apex(self):
        base = synthetic(2.0, 2.0)
        shifted = SurfaceMesh(n_x=base.n_x, n_y=base.n_y,
                              spacing_x=base.spacing_x, spacing_y=base.spacing_y,
                              origin_x=base.origin_x + 0.7,
                              origin_y=base.origin_y - 0.3, z=base.z)
        result = fit_mesh(shifted)
        assert result.params.a == pytest.approx(2.0, rel=0.01)
        assert result.params.b == pytest.approx(2.0, rel=0.01)

    def test_unit_scaling_covariance(self):
        # mm -> um: nondimensional outputs unchanged, lengths scale
        base = synthetic(2.0, 2.0)
        scaled = SurfaceMesh(n_x=base.n_x, n_y=base.n_y,
                             spacing_x=1000.0 * base.spacing_x,
                             spacing_y=1000.0 * base.spacing_y,
                             origin_x=1000.0 * base.origin_x,
                             origin_y=1000.0 * base.origin_y,
                             z=1000.0 * base.z)
        small = fit_mesh(base)
        big = fit_mesh(scaled)
        assert big.params.a == pytest.approx(small.params.a, rel=1e-6)
        assert big.params.b == pytest.approx(small.params.b, rel=1e-6)
        assert big.scale_radius == pytest.approx(1000.0 * small.scale_radius,
                                                 rel=1e-9)
        assert big.mean_abs_error_mm == pytest.approx(
            1000.0 * small.mean_abs_error_mm, rel=1e-6)
        assert big.mean_rel_error == pytest.approx(small.mean_rel_error, rel=1e-6)

    def test_flat_mesh_raises(self):
        z = np.zeros((33, 33))
        mesh = SurfaceMesh(n_x=33, n_y=33, spacing_x=0.1, spacing_y=0.1,
                           origin_x=-1.6, origin_y=-1.6, z=z)
        with pytest.raises(ApexNotFound):
            fit_mesh(mesh)


class TestResultTypes:
    def test_error_summary_format(self):
        result = FitResult(params=ModelParams(a=2.0, b=2.0), ellipse=CIRCLE,
                           scale_radius=5.5, mean_abs_error_mm=0.0351,
                           mean_rel_error=0.0361, axial_mean_abs_error_mm=0.01,
                           axial_mean_rel_error=0.005, n_points_used=100)
        assert result.error_summary() == "0.035 mm (3.6%)"

    def test_result_validation(self):
        with pytest.raises(ValueError):
            FitResult(params=ModelParams(a=2.0, b=2.0), ellipse=CIRCLE,
                      scale_radius=5.5, mean_abs_error_mm=-0.1,
                      mean_rel_error=0.0, axial_mean_abs_error_mm=0.0,
                      axial_mean_rel_error=0.0, n_points_used=1)

    def test_apex_measurements_validation(self):
        ApexMeasurements(max_deflection=1.9, central_radius=8.6, scale_radius=5.5)
        with pytest.raises(ValueError):
            ApexMeasurements(max_deflection=5.5, central_radius=8.6,
                             scale_radius=5.5)
        with pytest.raises(ValueError):
            ApexMeasurements(max_deflection=-1.0, central_radius=8.6,
                             scale_radius=5.5)

    def test_fit_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(level_fraction=0.0)
        with pytest.raises(ValueError):
            FitOptions(apex_window_fraction=1.5)
        with pytest.raises(ValueError):
            FitOptions(gradient_floor=0.0)
        with pytest.raises(ValueError):
            FitOptions(apex_mask_radius=-0.1)

    def test_model_surface_validation(self):
        template = synthetic(2.0, 2.0, n=11)
        with pytest.raises(ValueError):
            ModelSurface(params=ModelParams(a=2.0, b=2.0), scale_radius=0.0,
                         template=template)


class TestAxialDistanceMap:
    def test_sphere_cap_recovers_its_radius(self):
        # every surface normal of a sphere passes through its center, so
        # the axial distance equals the radius at every point
        mesh = sphere_cap(radius=7.8, aperture=4.0, n=123)
        distances = axial_distance_map(mesh, CIRCLE)
        grid_x, grid_y = np.meshgrid(mesh.x_coords, mesh.y_coords)
        outside_apex = np.hypot(grid_x, grid_y) / 4.0 > 0.05
        mask = np.isfinite(distances) & outside_apex
        assert mask.sum() > 5000
        assert np.max(np.abs(distances[mask] / 7.8 - 1.0)) <= 1e-4

    def test_apex_is_masked(self):
        mesh = sphere_cap(n=123)
        distances = axial_distance_map(mesh, CIRCLE)
        assert math.isnan(distances[61, 61])

    def test_boundary_rows_undefined(self):
        mesh = sphere_cap(n=61)
        distances = axial_distance_map(mesh, CIRCLE)
        assert np.all(np.isnan(distances[0])) and np.all(np.isnan(distances[-1]))
        assert np.all(np.isnan(distances[:, 0])) and np.all(np.isnan(distances[:, -1]))

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_gradient_floor_must_be_positive_and_finite(self, floor):
        mesh = sphere_cap(n=61)
        model = ModelSurface(params=ModelParams(a=2.0, b=2.0), scale_radius=4.0,
                             template=mesh)
        for source in (mesh, model):
            with pytest.raises(ValueError, match="gradient_floor"):
                axial_distance_map(source, CIRCLE, gradient_floor=floor)

    def test_gradient_floor_masks_everything_when_huge(self):
        mesh = sphere_cap(n=61)
        distances = axial_distance_map(mesh, CIRCLE, gradient_floor=1e6)
        assert np.all(np.isnan(distances))

    def test_model_route_matches_mesh_route(self):
        mesh = synthetic(2.0, 2.0)
        model = ModelSurface(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                             template=mesh)
        d_mesh = axial_distance_map(mesh, CIRCLE)
        d_model = axial_distance_map(model, CIRCLE)
        grid_x, grid_y = np.meshgrid(mesh.x_coords, mesh.y_coords)
        outside_apex = np.hypot(grid_x, grid_y) / 5.5 > 0.05
        common = np.isfinite(d_mesh) & np.isfinite(d_model) & outside_apex
        assert common.sum() > 5000
        assert np.max(np.abs(d_mesh[common] - d_model[common])) <= 1e-3

    def test_model_route_apex_limit(self):
        # the analytic gradient at rel = 0 uses the series limit
        # h0'(r)/r -> -b/(2 I0(sqrt(a))), so near-apex values are finite
        mesh = synthetic(2.0, 2.0, n=41)
        model = ModelSurface(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                             template=mesh)
        d_model = axial_distance_map(model, CIRCLE)
        assert math.isnan(d_model[20, 20])  # the exact axis point diverges
        assert np.isfinite(d_model[20, 21])


def reference_mesh_axial_map(mesh, floor):
    """The mesh route of axial_distance_map with explicit masks: a
    centered difference only where both neighbors are valid."""
    z, valid = mesh.z, mesh.valid
    grad_x = np.full(z.shape, np.nan)
    grad_y = np.full(z.shape, np.nan)
    both_x = valid[:, 2:] & valid[:, :-2]
    both_y = valid[2:, :] & valid[:-2, :]
    with np.errstate(invalid="ignore"):
        grad_x[:, 1:-1] = np.where(
            both_x, (z[:, 2:] - z[:, :-2]) / (2.0 * mesh.spacing_x), np.nan)
        grad_y[1:-1, :] = np.where(
            both_y, (z[2:, :] - z[:-2, :]) / (2.0 * mesh.spacing_y), np.nan)
    defined = valid & np.isfinite(grad_x) & np.isfinite(grad_y)
    norm_sq = grad_x * grad_x + grad_y * grad_y
    with np.errstate(invalid="ignore"):
        usable = defined & (norm_sq >= floor**2)
    out = np.full(z.shape, np.nan)
    radius = np.hypot(mesh.x_coords, mesh.y_coords[:, None])
    out[usable] = radius[usable] * np.sqrt(1.0 + 1.0 / norm_sq[usable])
    return out


class TestAxialMapNonFiniteSamples:
    @pytest.mark.parametrize("floor", [1e-8, 0.05])
    def test_nan_and_infinite_neighbours_match_the_masked_map(self, floor):
        mesh = sphere_cap(n=61)
        z = mesh.z.copy()
        z[30, 10] = np.nan
        z[12, 20], z[40, 44] = np.inf, -np.inf
        z[20, 40:42] = np.inf, -np.inf  # inf - (-inf) is inf
        z[25:28:2, 15] = np.inf  # inf - inf is nan
        z[35, 35:38:2] = -np.inf
        mesh = SurfaceMesh(n_x=61, n_y=61, spacing_x=mesh.spacing_x,
                           spacing_y=mesh.spacing_y, origin_x=mesh.origin_x,
                           origin_y=mesh.origin_y, z=z)
        got = axial_distance_map(mesh, CIRCLE, gradient_floor=floor)
        want = reference_mesh_axial_map(mesh, floor)
        assert np.isfinite(want).sum() > 1000
        assert np.all(np.isnan(got[11:14, 20])) and np.all(np.isnan(got[12, 19:22]))
        np.testing.assert_array_equal(got, want)


# References for the one-pass fit: the per-row and per-column loop the
# level-curve search replaced, and a plain scalar scan plus bisection for
# the calibration root.


def reference_level_crossings(coords, values, valid, level):
    crossings = []
    for j in range(values.size - 1):
        if not (valid[j] and valid[j + 1]):
            continue
        s0, s1 = values[j] - level, values[j + 1] - level
        if s0 == 0.0:
            crossings.append(coords[j])
        elif s0 * s1 < 0.0:
            t = s0 / (s0 - s1)
            crossings.append(coords[j] + t * (coords[j + 1] - coords[j]))
    return crossings


def reference_level_curve_points(mesh, center, level):
    x, y = mesh.x_coords, mesh.y_coords
    points_u, points_v = [], []
    for i in range(mesh.n_y):
        for u in reference_level_crossings(x, mesh.z[i], mesh.valid[i], level):
            points_u.append(u - center[0])
            points_v.append(y[i] - center[1])
    for j in range(mesh.n_x):
        for v in reference_level_crossings(y, mesh.z[:, j], mesh.valid[:, j], level):
            points_u.append(x[j] - center[0])
            points_v.append(v - center[1])
    return np.array(points_u), np.array(points_v)


def reference_ellipse(u, v):
    u2, v2 = u * u, v * v
    normal = np.array([[np.sum(u2 * u2), np.sum(u2 * v2)], [np.sum(u2 * v2), np.sum(v2 * v2)]])
    rhs = np.array([np.sum(u2), np.sum(v2)])
    alpha, beta = np.linalg.solve(normal, rhs)
    return DomainEllipse.from_semi_axes(1.0 / math.sqrt(alpha), 1.0 / math.sqrt(beta))


def reference_calibrate_a(h00, rho0):
    half = 0.5 * h00 * rho0

    def g(a):
        return half * a - bessel_i(0, math.sqrt(a)) + 1.0

    grid = np.geomspace(1e-8, 100.0, 600)
    values = [g(a) for a in grid]
    for i in range(grid.size - 1):
        if values[i] > 0.0 and values[i + 1] <= 0.0:
            lo, hi = grid[i], grid[i + 1]
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def holed_mesh():
    # NaN holes scattered over the footprint, some on the level curve
    base = synthetic(1.94398, 2.27534, signed_ecc_sq=0.0234, sigma=0.01, seed=3)
    z = base.z.copy()
    holes = np.random.default_rng(5).random(z.shape) < 0.08
    z[holes] = np.nan
    z[60:64, 20:90] = np.nan
    return SurfaceMesh(n_x=base.n_x, n_y=base.n_y, spacing_x=base.spacing_x,
                       spacing_y=base.spacing_y, origin_x=base.origin_x,
                       origin_y=base.origin_y, z=z)


def terraced_mesh():
    # integer-valued dome: many nodes lie exactly on the level 6, some in
    # runs of equal neighbours, and the dome reaches the last column
    n = 41
    index = np.arange(n) - 20.0
    z = 10.0 - np.floor(np.hypot(*np.meshgrid(index, index)) / 2.5)
    z[z < 0.0] = np.nan
    z[:, -1] = 6.0
    return SurfaceMesh(n_x=n, n_y=n, spacing_x=0.25, spacing_y=0.2,
                       origin_x=-5.0, origin_y=-4.0, z=z)


class TestOnePassEllipse:
    @pytest.mark.parametrize("case", ["holes", "terraces", "eccentric", "prolate"])
    def test_points_and_ellipse_match_the_loop(self, case):
        if case == "holes":
            mesh, center, level = holed_mesh(), (0.013, -0.021), 1.0
        elif case == "terraces":
            mesh, center, level = terraced_mesh(), (0.0, 0.0), 6.0
        else:
            ecc = 0.2 if case == "eccentric" else -0.1
            mesh = synthetic(1.94398, 2.27534, signed_ecc_sq=ecc, sigma=0.003, seed=11, n=97)
            apex_x, apex_y, height, _ = _measure_apex(mesh, FitOptions())
            center, level = (apex_x, apex_y), 0.5 * height
        want_u, want_v = reference_level_curve_points(mesh, center, level)
        got_u, got_v = _level_curve_points(mesh, center, level)
        assert want_u.size > 40
        np.testing.assert_array_equal(got_u, want_u)
        np.testing.assert_array_equal(got_v, want_v)
        assert estimate_ellipse(mesh, center=center, level=level) == reference_ellipse(
            want_u, want_v)

    def test_terraced_mesh_has_nodes_on_the_level(self):
        mesh = terraced_mesh()
        assert np.count_nonzero(mesh.z == 6.0) > 20
        assert np.any((mesh.z[:, :-1] == 6.0) & (mesh.z[:, 1:] == 6.0))


class TestOnePassCalibration:
    @pytest.mark.parametrize("half", [0.2, 0.26, 0.28, 0.3, 0.5, 2.0])
    def test_array_scan_equals_scalar_g(self, half):
        grid, values = _calibration_scan(half)
        np.testing.assert_array_equal(grid, np.geomspace(1e-8, 100.0, 600))
        scalar = [half * a - bessel_i(0, math.sqrt(a)) + 1.0 for a in grid]
        np.testing.assert_array_equal(values, scalar)

    def test_agrees_with_bisection_over_quality_seeds(self, monkeypatch):
        # the inputs are those fit_mesh hands calibrate_a on the paper's
        # noisy 123x123 meshes, noise seeds 0-19
        seen = []
        original = fit_module.calibrate_a

        def recorded(h00, rho0):
            a = original(h00, rho0)
            seen.append((h00, rho0, a))
            return a

        monkeypatch.setattr(fit_module, "calibrate_a", recorded)
        for seed in range(20):
            fit_mesh(synthetic(1.94398, 2.27534, signed_ecc_sq=0.0234, sigma=0.01,
                               seed=seed))
        assert len(seen) == 20
        for h00, rho0, a in seen:
            assert a == pytest.approx(reference_calibrate_a(h00, rho0), rel=1e-10)

    def test_root_meets_tolerance(self):
        for h00, rho0 in [(H00_TWO, RHO0_TWO), (H00_PAIR, RHO0_PAIR), (0.3, 2.1),
                          (0.26, 2.0), (2.0, 1.0)]:
            a = calibrate_a(h00, rho0)
            assert abs(0.5 * h00 * rho0 * a - bessel_i(0, math.sqrt(a)) + 1.0) <= 1e-12


class TestFitResultCarriesItsGrids:
    def test_apex_and_error_grid(self):
        mesh = holed_mesh()
        result = fit_mesh(mesh)
        apex_x, apex_y, _, _ = _measure_apex(mesh, FitOptions())
        assert (result.apex_x_mm, result.apex_y_mm) == (apex_x, apex_y)

        grid_x, grid_y = np.meshgrid(mesh.x_coords, mesh.y_coords)
        rel = elliptical_radius(grid_x - apex_x, grid_y - apex_y,
                                result.ellipse) / result.scale_radius
        use = mesh.valid & (rel <= 1.0)
        expected = np.full(mesh.z.shape, np.nan)
        expected[use] = np.abs(mesh.z[use] - result.scale_radius * _h0_values(
            result.params, np.clip(rel[use], 0.0, 1.0)))
        np.testing.assert_array_equal(result.error_grid_mm, expected)
        assert np.count_nonzero(np.isfinite(result.error_grid_mm)) == result.n_points_used
        assert np.nanmean(result.error_grid_mm) == pytest.approx(result.mean_abs_error_mm,
                                                                 rel=1e-12)

    def test_results_still_compare_by_value(self):
        mesh = synthetic(2.0, 2.0)
        assert fit_mesh(mesh) == fit_mesh(mesh)


# Reference for the axial comparison: the inline mesh-versus-model code
# that fit_mesh and the axial command each carried before
# axial_error_grid, with the apex-recentred mesh built field by field.


def reference_axial_maps(mesh, params, ellipse, scale, apex_x, apex_y, floor=1e-8):
    shifted = SurfaceMesh(n_x=mesh.n_x, n_y=mesh.n_y, spacing_x=mesh.spacing_x,
                          spacing_y=mesh.spacing_y, origin_x=mesh.origin_x - apex_x,
                          origin_y=mesh.origin_y - apex_y, z=mesh.z)
    d_mesh = axial_distance_map(shifted, ellipse, gradient_floor=floor)
    d_model = axial_distance_map(
        ModelSurface(params=params, scale_radius=scale, template=shifted),
        ellipse,
        gradient_floor=floor,
    )
    return d_mesh, d_model


def noisy_paper_mesh(seed, n=123):
    # noisy, with the NaN rim outside the elliptical footprint and a hole
    mesh = synthetic(1.94398, 2.27534, signed_ecc_sq=0.0234, sigma=0.01, seed=seed, n=n)
    z = mesh.z.copy()
    z[n // 3:n // 3 + 3, n // 4:n // 2] = np.nan
    return SurfaceMesh(n_x=n, n_y=n, spacing_x=mesh.spacing_x, spacing_y=mesh.spacing_y,
                       origin_x=mesh.origin_x, origin_y=mesh.origin_y, z=z)


class TestAxialErrorGrid:
    @pytest.mark.parametrize("floor", [1e-8, 0.05])
    @pytest.mark.parametrize("case", ["holes", "paper"])
    def test_matches_the_inline_comparison(self, case, floor):
        mesh = holed_mesh() if case == "holes" else noisy_paper_mesh(seed=4)
        result = fit_mesh(mesh)
        apex = (result.apex_x_mm, result.apex_y_mm)
        d_mesh, errors = axial_error_grid(mesh, result.params, result.ellipse,
                                          result.scale_radius, apex, floor)
        want_mesh, want_model = reference_axial_maps(
            mesh, result.params, result.ellipse, result.scale_radius, *apex, floor=floor)
        common = np.isfinite(want_mesh) & np.isfinite(want_model)
        assert common.sum() > 5000
        expected = np.full(mesh.z.shape, np.nan)
        expected[common] = np.abs(want_mesh[common] - want_model[common])
        np.testing.assert_array_equal(d_mesh, want_mesh)
        np.testing.assert_array_equal(errors, expected)
        # the axial command's mean is over every point both maps define
        assert errors[~np.isnan(errors)].mean() == np.abs(
            want_mesh[common] - want_model[common]).mean()

    @pytest.mark.parametrize("n", [123, 161])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_statistics_match_the_inline_comparison(self, seed, n):
        mesh = noisy_paper_mesh(seed, n)
        options = FitOptions()
        result = fit_mesh(mesh, options)
        apex_x, apex_y = result.apex_x_mm, result.apex_y_mm
        want_mesh, want_model = reference_axial_maps(
            mesh, result.params, result.ellipse, result.scale_radius, apex_x, apex_y)
        grid_x, grid_y = np.meshgrid(mesh.x_coords, mesh.y_coords)
        rel = elliptical_radius(grid_x - apex_x, grid_y - apex_y,
                                result.ellipse) / result.scale_radius
        common = (np.isfinite(want_mesh) & np.isfinite(want_model)
                  & (rel > options.apex_mask_radius))
        axial_diff = np.abs(want_mesh[common] - want_model[common])
        assert result.axial_mean_abs_error_mm == float(axial_diff.mean())
        assert result.axial_mean_rel_error == float((axial_diff / want_mesh[common]).mean())

    @pytest.mark.parametrize("apex", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_apex_rejected(self, apex):
        mesh = synthetic(2.0, 2.0, n=41)
        with pytest.raises(ValueError, match="apex"):
            axial_error_grid(mesh, ModelParams(a=2.0, b=2.0), CIRCLE, 5.5, apex)

    def test_no_overlap_rejected(self):
        mesh = synthetic(2.0, 2.0, n=41)
        with pytest.raises(ValueError, match="no overlap"):
            axial_error_grid(mesh, ModelParams(a=2.0, b=2.0), CIRCLE, 5.5, (100.0, 0.0))


class TestInputGuards:
    def test_negative_semi_axis_rejected(self):
        with pytest.raises(ValueError, match="semi-axes"):
            DomainEllipse.from_semi_axes(-1.0, 2.0)

    @pytest.mark.parametrize("axes", [(-1.0, -1.0), (0.0, 1.0)])
    def test_constructor_rejects_non_positive_semi_axes(self, axes):
        with pytest.raises(ValueError, match="semi-axes must be positive"):
            DomainEllipse(semi_axis_x=axes[0], semi_axis_y=axes[1], signed_ecc_sq=0.0)

    def test_negative_point_count_rejected(self):
        with pytest.raises(ValueError, match="n_points_used"):
            FitResult(params=ModelParams(a=2.0, b=2.0), ellipse=CIRCLE,
                      scale_radius=5.5, mean_abs_error_mm=0.0,
                      mean_rel_error=0.0, axial_mean_abs_error_mm=0.0,
                      axial_mean_rel_error=0.0, n_points_used=-1)

    def test_level_fraction_checked_when_the_apex_is_measured(self):
        with pytest.raises(ValueError, match="level_fraction"):
            estimate_ellipse(synthetic(2.0, 2.0, n=41), level_fraction=1.5)

    @pytest.mark.parametrize("radius", [1.0, 1.5, math.inf])
    def test_apex_mask_radius_must_leave_points(self, radius):
        with pytest.raises(ValueError, match="apex_mask_radius"):
            FitOptions(apex_mask_radius=radius)
        assert FitOptions(apex_mask_radius=0.999).apex_mask_radius == 0.999
