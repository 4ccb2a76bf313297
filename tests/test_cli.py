"""End-to-end tests of the command-line interface, run in process."""

import dataclasses

import numpy as np
import pytest

from corneafit import __version__, cli, fit
from corneafit.cli import _write_csv, main
from corneafit.data import SurfaceMesh, write_mesh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    values = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            values[key] = value
    return values


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in handle]
    return header, np.array(rows)


def write_sphere_mesh(path, radius=7.8, aperture=4.0, n=123):
    coords = np.linspace(-aperture, aperture, n)
    grid_x, grid_y = np.meshgrid(coords, coords)
    r_sq = grid_x**2 + grid_y**2
    z = np.full((n, n), np.nan)
    inside = r_sq <= aperture**2
    z[inside] = np.sqrt(radius**2 - r_sq[inside])
    spacing = 2.0 * aperture / (n - 1)
    mesh = SurfaceMesh(n_x=n, n_y=n, spacing_x=spacing, spacing_y=spacing,
                       origin_x=-aperture, origin_y=-aperture, z=z)
    write_mesh(mesh, path)


class TestSolveCommand:
    def test_report_and_profile(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2",
                              "--out", str(out))
        assert code == 0
        report = parse_report(stdout)
        assert report["command"] == "solve"
        assert report["envelope_ok"] == "true"
        assert float(report["final_sup_diff_nondim"]) <= 1e-10
        assert float(report["residual_sup_nondim"]) < 1e-3

        header, rows = read_csv(out)
        assert header == ["r", "h", "dh", "h0", "A_h1"]
        assert rows.shape == (401, 5)
        r, h, dh, h0, a_h1 = rows.T
        assert r[0] == 0.0 and r[-1] == 1.0
        # converged profile sits inside the written envelope columns
        assert np.all(a_h1 - 1e-9 <= h) and np.all(h <= h0 + 1e-9)
        assert np.all(dh <= 0.0)

    def test_loose_tolerance_iteration_budget(self, capsys):
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2",
                              "--tol", "1e-8")
        assert code == 0
        assert int(parse_report(stdout)["iterations"]) <= 8

    def test_zero_pressure(self, capsys):
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "0")
        assert code == 0
        report = parse_report(stdout)
        assert float(report["max_elevation_nondim"]) == 0.0
        assert int(report["iterations"]) == 1

    def test_enforce_bound_rejects_large_pressure(self, capsys):
        code, _, stderr = run(capsys, "solve", "--a", "2", "--b", "4",
                              "--enforce-bound")
        assert code == 2
        assert stderr.startswith("error:")

    def test_invalid_parameter(self, capsys):
        code, _, stderr = run(capsys, "solve", "--a", "-1", "--b", "2")
        assert code == 2
        assert "error:" in stderr


class TestCsvWriter:
    def test_text_matches_per_value_format(self, tmp_path):
        # special values, then enough rows to span several write blocks
        noise = np.random.default_rng(0).standard_normal((2, 1200)) * 1e3
        first = np.concatenate([[0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.5,
                                 1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1],
                                noise[0]])
        second = np.concatenate([[1.0 / 3.0, -2.5e-7, 1e16, 1e17, 123456789.125,
                                  -0.0, 1e-5, np.nan, 7.0, -1e-300],
                                 noise[1]])
        path = tmp_path / "table.csv"
        _write_csv(str(path), ["x", "y"], [first, second])
        expected = "x,y\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n"
            for row in zip(first, second)
        )
        assert path.read_text() == expected


class TestBoundsCommand:
    def test_table(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, stdout, _ = run(capsys, "bounds", "--a-min", "0.5", "--a-max", "5",
                              "--n-samples", "64", "--out", str(out))
        assert code == 0
        assert int(parse_report(stdout)["n_rows"]) == 64
        header, rows = read_csv(out)
        assert header == ["a", "theorem1_b_max", "lemma_b_max"]
        assert rows.shape == (64, 3)
        assert np.all(rows[:, 1] > 0.0) and np.all(rows[:, 2] > 0.0)
        # the published operating points sit inside both bound curves
        for a, b in [(2.07883, 2.76741), (1.94398, 2.27534)]:
            assert b < np.interp(a, rows[:, 0], rows[:, 1])
            assert b < np.interp(a, rows[:, 0], rows[:, 2])

    def test_bad_range(self, capsys):
        code, _, stderr = run(capsys, "bounds", "--a-min", "5", "--a-max", "1")
        assert code == 2
        assert "error:" in stderr


class TestPipeline:
    def test_synth_fit_axial_round_trip(self, capsys, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        code, stdout, _ = run(capsys, "synth", "--a", "1.94398", "--b", "2.27534",
                              "--ecc2", "0.0234", "--out", str(mesh_path))
        assert code == 0
        synth_report = parse_report(stdout)
        assert mesh_path.exists()
        assert int(synth_report["n_valid"]) > 10000

        fit_path = tmp_path / "fit.txt"
        code, stdout, _ = run(capsys, "fit", "--mesh", str(mesh_path),
                              "--out", str(fit_path))
        assert code == 0
        fit_report = parse_report(stdout)
        assert float(fit_report["a_nondim"]) == pytest.approx(1.94398, rel=0.01)
        assert float(fit_report["b_nondim"]) == pytest.approx(2.27534, rel=0.01)
        assert float(fit_report["signed_ecc_sq_nondim"]) == pytest.approx(0.0234,
                                                                          abs=0.005)
        assert float(fit_report["mean_abs_error_mm"]) <= 1e-3
        assert fit_path.exists()
        assert (tmp_path / "fit.txt.errors").exists()
        # the saved report round-trips through the same parser
        saved = parse_report(fit_path.read_text())
        assert saved["a_nondim"] == fit_report["a_nondim"]

        d_path = tmp_path / "axial.txt"
        code, stdout, _ = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path), "--out", str(d_path))
        assert code == 0
        axial_report = parse_report(stdout)
        assert int(axial_report["n_defined"]) > 5000
        assert float(axial_report["axial_mean_abs_error_mm"]) <= 1e-3
        assert d_path.exists()
        assert (tmp_path / "axial.txt.errors").exists()

    def test_axial_without_fit_on_sphere(self, capsys, tmp_path):
        mesh_path = tmp_path / "sphere.txt"
        write_sphere_mesh(str(mesh_path))
        code, stdout, _ = run(capsys, "axial", "--mesh", str(mesh_path))
        assert code == 0
        report = parse_report(stdout)
        assert float(report["d_mean_mm"]) == pytest.approx(7.8, rel=1e-4)
        assert "axial_mean_abs_error_mm" not in report

    def test_noise_flag_changes_mesh(self, capsys, tmp_path):
        clean, noisy = tmp_path / "clean.txt", tmp_path / "noisy.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--out", str(clean))
        run(capsys, "synth", "--a", "2", "--b", "2", "--noise-sigma", "0.01",
            "--seed", "3", "--out", str(noisy))
        assert clean.read_text() != noisy.read_text()


class TestFailureModes:
    def test_missing_mesh_file(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "fit", "--mesh", str(tmp_path / "missing.txt"))
        assert code == 1
        assert "error:" in stderr

    def test_malformed_mesh_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a mesh\n")
        code, _, stderr = run(capsys, "fit", "--mesh", str(path))
        assert code == 1
        assert "error:" in stderr

    def test_flat_mesh_has_no_apex(self, capsys, tmp_path):
        path = tmp_path / "flat.txt"
        mesh = SurfaceMesh(n_x=33, n_y=33, spacing_x=0.1, spacing_y=0.1,
                           origin_x=-1.6, origin_y=-1.6, z=np.zeros((33, 33)))
        write_mesh(mesh, str(path))
        code, _, stderr = run(capsys, "fit", "--mesh", str(path))
        assert code == 3
        assert "error:" in stderr

    def test_axial_with_non_report_fit_file(self, capsys, tmp_path):
        mesh_path = tmp_path / "sphere.txt"
        write_sphere_mesh(str(mesh_path), n=61)
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("this is not a fit report\n")
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(bogus))
        assert code == 1
        assert "error:" in stderr

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "solve", "--a", "2", "--b", "2", "--frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


def fit_report(capsys, tmp_path):
    """A synthetic mesh and the fit report of it, as paths."""
    mesh_path, fit_path = tmp_path / "mesh.txt", tmp_path / "fit.txt"
    run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
        "--out", str(mesh_path))
    code, _, _ = run(capsys, "fit", "--mesh", str(mesh_path), "--out", str(fit_path))
    assert code == 0
    return mesh_path, fit_path


def replace_report_value(path, key, value):
    lines = path.read_text().splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in lines]
    path.write_text("\n".join(lines) + "\n")


class TestBadInputFiles:
    def test_non_ascii_mesh_exits_1(self, capsys, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_bytes(b"2 2 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 \xe9\n")
        code, _, stderr = run(capsys, "fit", "--mesh", str(path))
        assert code == 1
        assert "line 3" in stderr

    def test_non_ascii_fit_report_exits_1(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        fit_path.write_bytes(fit_path.read_bytes() + b"note = caf\xc3\xa9\n")
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path))
        assert code == 1
        assert stderr.startswith("error:")

    def test_unparsable_report_value_exits_1_naming_the_key(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, "a_nondim", "x")
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path))
        assert code == 1
        assert "a_nondim" in stderr

    @pytest.mark.parametrize("key,value", [("a_nondim", "nan"), ("a_nondim", "-2"),
                                           ("signed_ecc_sq_nondim", "1.5")])
    def test_out_of_range_report_value_exits_2(self, capsys, tmp_path, key, value):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, key, value)
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path))
        assert code == 2
        assert stderr.startswith("error:")


class TestSilentFailuresExitLoudly:
    @pytest.mark.parametrize("key,value", [("apex_x_mm", "nan"), ("apex_y_mm", "inf")])
    def test_non_finite_apex_exits_2(self, capsys, tmp_path, key, value):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, key, value)
        code, stdout, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                                   "--fit", str(fit_path))
        assert code == 2
        assert "apex" in stderr
        assert stdout == ""

    def test_apex_outside_the_mesh_exits_2(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, "apex_x_mm", "100")
        code, stdout, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                                   "--fit", str(fit_path))
        assert code == 2
        assert "no overlap" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("floor", ["-1", "nan"])
    def test_bad_gradient_floor_exits_2(self, capsys, tmp_path, floor):
        mesh_path = tmp_path / "sphere.txt"
        write_sphere_mesh(str(mesh_path), n=61)
        code, stdout, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                                   "--gradient-floor", floor)
        assert code == 2
        assert "gradient_floor" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("command", ["fit", "axial"])
    @pytest.mark.parametrize("field,value", [(2, "inf"), (4, "nan"), (5, "inf")])
    def test_non_finite_mesh_header_exits_1(self, capsys, tmp_path, command, field, value):
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
            "--out", str(mesh_path))
        lines = mesh_path.read_text().split("\n")
        header = lines[0].split()
        header[field] = value
        mesh_path.write_text("\n".join([" ".join(header)] + lines[1:]))
        code, _, stderr = run(capsys, command, "--mesh", str(mesh_path))
        assert code == 1
        assert "line 1" in stderr


class TestRunReport:
    def test_renders_the_package_version(self):
        assert "version" not in {f.name for f in dataclasses.fields(cli.RunReport)}
        report = cli.cmd_bounds(0.5, 5.0, n_samples=4)
        assert report.render().splitlines()[:2] == ["command = bounds",
                                                    f"version = {__version__}"]


class TestOnePassFit:
    def test_fit_command_measures_the_apex_once(self, capsys, monkeypatch, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
            "--out", str(mesh_path))
        calls = []
        original = fit._measure_apex

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (fit, cli):
            if getattr(module, "_measure_apex", None) is original:
                monkeypatch.setattr(module, "_measure_apex", counted)
        code, _, _ = run(capsys, "fit", "--mesh", str(mesh_path),
                         "--out", str(tmp_path / "fit.txt"))
        assert code == 0
        assert len(calls) == 1

    def test_report_and_error_grid_come_from_the_fit_result(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        result = fit.fit_mesh(cli.read_mesh(str(mesh_path)))
        report = parse_report(fit_path.read_text())
        assert float(report["apex_x_mm"]) == result.apex_x_mm
        assert float(report["apex_y_mm"]) == result.apex_y_mm
        errors = cli.read_mesh(str(fit_path) + ".errors")
        np.testing.assert_array_equal(errors.z, result.error_grid_mm)


class TestDeterminism:
    def test_identical_runs_identical_reports(self, capsys):
        def stable_lines(text):
            return [line for line in text.splitlines()
                    if not line.startswith("timing_ms")]

        _, first, _ = run(capsys, "solve", "--a", "1.7", "--b", "2.1")
        _, second, _ = run(capsys, "solve", "--a", "1.7", "--b", "2.1")
        assert stable_lines(first) == stable_lines(second)
