"""End-to-end tests of the command-line interface, run in process."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import corneafit
from corneafit import __version__, cli, data, fit
from corneafit.cli import _write_csv, main
from corneafit.data import SurfaceMesh, SynthSpec, write_mesh
from corneafit.kernel import ModelParams


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

    def test_tall_table_spanning_several_blocks(self, tmp_path):
        # two columns put many rows in each write block; this table fills
        # two blocks and part of a third, with special values straddling
        # the first block boundary
        n_rows = 2 * (data._TABLE_BLOCK_VALUES // 2) + 5
        first = np.random.default_rng(3).standard_normal(n_rows)
        second = np.linspace(-1.0, 1.0, n_rows) ** 3
        special = [-0.0, 5e-324, -4.9e-322, np.nan, np.inf, -np.inf, 0.1, 1e300]
        for start in (0, data._TABLE_BLOCK_VALUES // 2 - 3, n_rows - len(special)):
            first[start:start + len(special)] = special
            second[start:start + len(special)] = special[::-1]
        path = tmp_path / "table.csv"
        _write_csv(str(path), ["p", "q"], [first, second])
        expected = "p,q\n" + "".join(
            f"{format(u, '.17g')},{format(v, '.17g')}\n" for u, v in zip(first, second)
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

    @pytest.mark.parametrize("mesh_name,out_name", [
        ("edge/h\u00f6he.txt", "fit.txt"), ("mesh.txt", "bericht-\u00fc.txt"),
    ])
    def test_non_ascii_fit_path_exits_1_and_writes_nothing(self, capsys, tmp_path,
                                                           mesh_name, out_name):
        # the ASCII report names both paths: a path it cannot hold is an
        # I/O failure, named in the message, before any file is written
        mesh_path, out_path = tmp_path / mesh_name, tmp_path / out_name
        mesh_path.parent.mkdir(exist_ok=True)
        run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
            "--out", str(mesh_path))
        code, _, stderr = run(capsys, "fit", "--mesh", str(mesh_path), "--out", str(out_path))
        assert code == 1
        assert stderr.startswith("error:")
        non_ascii = mesh_name if not mesh_name.isascii() else out_name
        assert os.path.basename(non_ascii) in stderr
        assert not out_path.exists()
        assert not (tmp_path / (out_name + ".errors")).exists()

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
    def test_oversized_mesh_header_exits_1_naming_the_row(self, capsys, tmp_path, command):
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_text("2 1000000000000 1.0 1.0 0.0 0.0\n1.0 2.0\n3.0 4.0\n")
        code, stdout, stderr = run(capsys, command, "--mesh", str(mesh_path))
        assert code == 1
        assert stderr == "error: row has 2 values, expected 1000000000000 (line 2)\n"
        assert stdout == ""

    @pytest.mark.parametrize("command", ["fit", "axial"])
    def test_digit_separator_in_mesh_exits_1(self, capsys, tmp_path, command):
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_text("2 2 1.0 1.0 0.0 0.0\n1_5 2.0\n3.0 4.0\n")
        code, stdout, stderr = run(capsys, command, "--mesh", str(mesh_path))
        assert code == 1
        assert stderr == "error: bad value '1_5' (line 2, column 1)\n"
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


# `corneafit <command> --help` at 80 columns. Renamed dests carry the
# flag's own metavar, so the text names the flags, not the keywords.
HELP_TEXT = {
    "solve": """\
usage: corneafit solve [-h] --a A --b B [--n-nodes N_NODES] [--tol TOL]
                       [--enforce-bound] [--out OUT]

options:
  -h, --help         show this help message and exit
  --a A              elastic parameter a > 0
  --b B              pressure parameter b >= 0
  --n-nodes N_NODES
  --tol TOL
  --enforce-bound    fail instead of warn when b >= theorem1_b_max(a)
  --out OUT          profile CSV path
""",
    "bounds": """\
usage: corneafit bounds [-h] --a-min A_MIN --a-max A_MAX
                        [--n-samples N_SAMPLES] [--out OUT]

options:
  -h, --help            show this help message and exit
  --a-min A_MIN
  --a-max A_MAX
  --n-samples N_SAMPLES
  --out OUT             bounds CSV path
""",
    "synth": """\
usage: corneafit synth [-h] --a A --b B [--ecc2 ECC2]
                       [--scale-radius SCALE_RADIUS]
                       [--noise-sigma NOISE_SIGMA] [--seed SEED] [--n-x N_X]
                       [--n-y N_Y] --out OUT

options:
  -h, --help            show this help message and exit
  --a A
  --b B
  --ecc2 ECC2           signed squared eccentricity of the footprint
  --scale-radius SCALE_RADIUS
                        mm
  --noise-sigma NOISE_SIGMA
                        mm
  --seed SEED
  --n-x N_X
  --n-y N_Y
  --out OUT             mesh file path
""",
    "fit": """\
usage: corneafit fit [-h] --mesh MESH [--level-fraction LEVEL_FRACTION]
                     [--apex-window-fraction APEX_WINDOW_FRACTION]
                     [--gradient-floor GRADIENT_FLOOR]
                     [--apex-mask-radius APEX_MASK_RADIUS] [--out OUT]

options:
  -h, --help            show this help message and exit
  --mesh MESH
  --level-fraction LEVEL_FRACTION
  --apex-window-fraction APEX_WINDOW_FRACTION
  --gradient-floor GRADIENT_FLOOR
  --apex-mask-radius APEX_MASK_RADIUS
  --out OUT             report path; the error grid goes to <out>.errors
""",
    "axial": """\
usage: corneafit axial [-h] --mesh MESH [--fit FIT]
                       [--gradient-floor GRADIENT_FLOOR] [--out OUT]

options:
  -h, --help            show this help message and exit
  --mesh MESH
  --fit FIT             fit report path; adds the model comparison grid
  --gradient-floor GRADIENT_FLOOR
  --out OUT             d-field mesh path; errors go to <out>.errors
""",
}


def recorder(monkeypatch, name):
    """Replace cli.<name> by a wrapper that records its arguments."""
    calls = []
    original = getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


# The required flags of each command; paths are relative to the test's
# working directory, which holds mesh.txt and its fit report fit.txt.
REQUIRED = {
    "solve": ["--a", "2", "--b", "2"],
    "bounds": ["--a-min", "0.5", "--a-max", "5"],
    "synth": ["--a", "2", "--b", "2", "--out", "new_mesh.txt"],
    "fit": ["--mesh", "mesh.txt"],
    "axial": ["--mesh", "mesh.txt"],
}

# Every optional flag but those of FitOptions, a value other than its
# default, and the report key that echoes the parameter the flag reached.
ECHOED_FLAGS = [
    ("solve", ["--n-nodes", "201"], "n_nodes", 201),
    ("solve", ["--tol", "1e-9"], "tol_nondim", 1e-9),
    ("solve", ["--enforce-bound"], "enforce_bound", True),
    ("solve", ["--out", "profile.csv"], "profile_csv", "profile.csv"),
    ("bounds", ["--n-samples", "17"], "n_samples", 17),
    ("bounds", ["--out", "bounds.csv"], "bounds_csv", "bounds.csv"),
    ("synth", ["--ecc2", "0.02"], "ecc2_nondim", 0.02),
    ("synth", ["--scale-radius", "5.2"], "scale_radius_mm", 5.2),
    ("synth", ["--noise-sigma", "0.01"], "noise_sigma_mm", 0.01),
    ("synth", ["--seed", "5"], "seed", 5),
    ("synth", ["--n-x", "41"], "n_x", 41),
    ("synth", ["--n-y", "43"], "n_y", 43),
    ("fit", ["--out", "fit2.txt"], "report_path", "fit2.txt"),
    ("axial", ["--fit", "fit.txt"], "fit_path", "fit.txt"),
    ("axial", ["--out", "d.txt"], "d_mesh_path", "d.txt"),
]

FIT_FLAGS = [
    ("--level-fraction", "level_fraction", 0.45),
    ("--apex-window-fraction", "apex_window_fraction", 0.35),
    ("--gradient-floor", "gradient_floor", 1e-7),
    ("--apex-mask-radius", "apex_mask_radius", 0.06),
]


class TestFlagTable:
    @pytest.fixture
    def workdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
                     "--out", "mesh.txt"]) == 0
        assert main(["fit", "--mesh", "mesh.txt", "--out", "fit.txt"]) == 0
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize("command,flag,key,value", ECHOED_FLAGS)
    def test_flag_reaches_its_parameter(self, capsys, workdir, command, flag, key, value):
        default = parse_report(run(capsys, command, *REQUIRED[command])[1]).get(key)
        code, stdout, _ = run(capsys, command, *REQUIRED[command], *flag)
        assert code == 0
        assert parse_report(stdout)[key] == cli._format_value(value) != default

    @pytest.mark.parametrize("flag,field,value", FIT_FLAGS)
    def test_fit_flag_reaches_fit_options(self, capsys, monkeypatch, workdir,
                                          flag, field, value):
        calls = recorder(monkeypatch, "fit_mesh")
        code, _, _ = run(capsys, "fit", *REQUIRED["fit"], flag, str(value))
        assert code == 0
        (_, options), _ = calls[0]
        assert getattr(fit.FitOptions(), field) != value
        assert options == dataclasses.replace(fit.FitOptions(), **{field: value})

    @pytest.mark.parametrize("route,extra", [("axial_distance_map", []),
                                             ("axial_error_grid", ["--fit", "fit.txt"])])
    def test_axial_gradient_floor_reaches_the_map(self, capsys, monkeypatch, workdir,
                                                  route, extra):
        def floor_of(call):
            args, kwargs = call
            return kwargs["gradient_floor"] if "gradient_floor" in kwargs else args[5]

        calls = recorder(monkeypatch, route)
        assert run(capsys, "axial", *REQUIRED["axial"], *extra)[0] == 0
        assert run(capsys, "axial", *REQUIRED["axial"], *extra,
                   "--gradient-floor", "1e-7")[0] == 0
        assert [floor_of(call) for call in calls] == [fit.FitOptions().gradient_floor, 1e-7]

    def test_synth_flags_build_the_spec(self, capsys, monkeypatch, workdir):
        calls = recorder(monkeypatch, "generate_synthetic")
        code, stdout, _ = run(capsys, "synth", *REQUIRED["synth"], "--ecc2", "0.02",
                              "--scale-radius", "5.2", "--noise-sigma", "0.01",
                              "--seed", "5", "--n-x", "41", "--n-y", "43")
        assert code == 0
        (spec,), _ = calls[0]
        assert spec == SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.2,
                                 ellipse=fit.DomainEllipse.from_signed_ecc_sq(0.02),
                                 noise_sigma=0.01, seed=5, n_x=41, n_y=43)

    def test_omitted_fit_flags_give_fit_options_defaults(self, capsys, monkeypatch, workdir):
        calls = recorder(monkeypatch, "fit_mesh")
        assert run(capsys, "fit", *REQUIRED["fit"])[0] == 0
        assert calls[0][0][1] == fit.FitOptions()

    def test_omitted_synth_flags_give_synth_spec_defaults(self, capsys, monkeypatch, workdir):
        calls = recorder(monkeypatch, "generate_synthetic")
        assert run(capsys, "synth", *REQUIRED["synth"])[0] == 0
        (spec,), _ = calls[0]
        assert spec == SynthSpec(params=spec.params, scale_radius=spec.scale_radius,
                                 ellipse=spec.ellipse)

    @pytest.mark.parametrize("argv,direct", [
        (["solve", "--a", "2", "--b", "2"], lambda: cli.cmd_solve(2.0, 2.0)),
        (["bounds", "--a-min", "0.5", "--a-max", "5"], lambda: cli.cmd_bounds(0.5, 5.0)),
    ])
    def test_omitted_flags_match_a_direct_call(self, capsys, argv, direct):
        def stable(text):
            return [line for line in text.splitlines() if not line.startswith("timing_ms")]

        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert stable(stdout) == stable(direct().render())

    @pytest.mark.parametrize("command,keys", [
        ("solve", {"a", "b"}), ("bounds", {"a_min", "a_max"}),
        ("synth", {"a", "b", "out_path"}), ("fit", {"mesh_path"}), ("axial", {"mesh_path"}),
    ])
    def test_omitted_flags_leave_no_key(self, command, keys):
        args = vars(cli._build_parser().parse_args([command, *REQUIRED[command]]))
        assert set(args) == keys | {"command", "run"}

    @pytest.mark.parametrize("command", sorted(HELP_TEXT))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, stdout, _ = run(capsys, command, "--help")
        assert code == 0
        assert stdout == HELP_TEXT[command]

    @pytest.mark.parametrize("argv", [["solve", "--a", "2"], ["bounds", "--a-min", "1"],
                                      ["synth", "--a", "2", "--b", "2"], ["fit"], ["axial"],
                                      ["solve", "--a", "2", "--b", "2", "--n-nodes", "x"]])
    def test_argparse_errors_exit_2(self, capsys, argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("usage: corneafit " + argv[0])


class TestParserReuse:
    # main builds its parser once per process; no flag of one call may
    # reach the next
    def test_one_parser_serves_every_call(self):
        assert cli._build_parser() is cli._build_parser()

    def test_solve_flag_does_not_outlive_its_call(self, capsys):
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2", "--n-nodes", "201")
        assert code == 0
        assert parse_report(stdout)["n_nodes"] == "201"
        assert run(capsys, "solve", "--a", "2", "--n-nodes", "x")[0] == 2
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2")
        assert code == 0
        assert parse_report(stdout)["n_nodes"] == "401"

    def test_fit_flag_does_not_outlive_its_call(self, capsys, tmp_path):
        mesh_path, _ = fit_report(capsys, tmp_path)
        code, stdout, _ = run(capsys, "fit", "--mesh", str(mesh_path), "--level-fraction", "0.4")
        assert code == 0
        assert parse_report(stdout)["level_fraction_nondim"] == cli._format_value(0.4)
        code, stdout, _ = run(capsys, "fit", "--mesh", str(mesh_path))
        assert code == 0
        assert parse_report(stdout)["level_fraction_nondim"] == "0.5"


def test_cli_import_loads_no_scipy():
    # scipy serves only fd_oracle, which no command calls
    src = os.path.dirname(os.path.dirname(corneafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, corneafit.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
