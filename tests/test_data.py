"""Tests for mesh I/O, synthetic generation, and the noise stream.

The noise cross-check reimplements the counter-based generator with
pure Python integers, so the numpy uint64 arithmetic (including its
intentional modular overflow) is verified against an independent route.
"""

import math

import numpy as np
import pytest

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

    def test_non_ascii_byte_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_bytes(b"2 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4\xc3\xa9\n")
        with pytest.raises(ParseError) as excinfo:
            read_mesh(path)
        assert excinfo.value.line == 3


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
