"""End-to-end tests of the command-line interface, run in process."""

import dataclasses
import errno
import io
import os
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import corneafit
from corneafit import __version__, cli, data, fit, solver
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

    def test_a_past_the_bounds_limit_exits_2_with_no_warning(self, capsys):
        # the Bessel tables overflow at a = 6e5; a is refused before them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(capsys, "solve", "--a", "6e5", "--b", "1e-300")
        assert code == 2
        assert stdout == ""
        assert stderr == "error: the admissibility bounds need a <= 125000, got 600000.0\n"
        assert [str(warning.message) for warning in caught] == []

    def test_infinite_tolerance_exits_2_naming_it(self, capsys, tmp_path):
        # an infinite tol would accept the first Picard iterate as converged
        out = tmp_path / "profile.csv"
        code, stdout, stderr = run(capsys, "solve", "--a", "2", "--b", "2",
                                   "--tol", "inf", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "tol" in stderr
        assert not out.exists()


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

    @pytest.mark.parametrize("a_max", ["1e6", "1e308"])
    def test_a_past_the_largest_exits_2_without_nan(self, capsys, tmp_path, a_max):
        # I0(sqrt(a)) overflows here; the bounds used to print nan, exit 0
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(capsys, "bounds", "--a-min", "0.5", "--a-max", a_max,
                                       "--n-samples", "3", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr == ("error: the admissibility bounds need a <= 125000, "
                          f"got {float(a_max)!r}\n")
        assert not out.exists()


    def test_tiny_a_gives_finite_bounds_without_warnings(self, capsys, tmp_path):
        # lemma_b_max read inf here, after a divide-by-zero warning
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, _ = run(capsys, "bounds", "--a-min", "1e-300", "--a-max", "1e-299",
                                  "--out", str(out))
        assert code == 0
        report = parse_report(stdout)
        assert float(report["lemma_b_max_min_nondim"]) == pytest.approx(8e299, rel=1e-12)
        _, rows = read_csv(out)
        assert np.all(np.isfinite(rows))

    def test_a_below_the_smallest_exits_2(self, capsys):
        code, stdout, stderr = run(capsys, "bounds", "--a-min", "1e-308", "--a-max", "1")
        assert code == 2
        assert stdout == ""
        assert stderr == "error: the admissibility bounds need a >= 4.5e-308, got 1e-308\n"

    def test_solve_at_tiny_a_matches_the_oracle(self, capsys):
        # h(0) read -0.0069 here, against the oracle's 0.2431
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, _ = run(capsys, "solve", "--a", "1e-20", "--b", "1")
        assert code == 0
        oracle = solver.fd_oracle(ModelParams(a=1e-20, b=1.0), solver.RadialGrid.uniform(401))
        assert abs(float(parse_report(stdout)["max_elevation_nondim"]) - oracle.h[0]) <= 1e-8


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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_non_ascii_fit_report_names_its_line(self, capsys, tmp_path, end):
        # the report's lines break where str.splitlines breaks them, and
        # the error names the line of the byte by the same rule
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        lines = fit_path.read_text().splitlines()
        lines.insert(2, "note = caf\xff")
        fit_path.write_bytes(end.join(lines).encode("latin-1") + end.encode("ascii"))
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path))
        assert code == 1
        assert stderr == "error: non-ASCII byte 0xff (line 3)\n"

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

    @pytest.mark.parametrize("blocked", ["report", "grid"])
    def test_unwritable_fit_output_exits_1_and_writes_nothing(self, capsys, tmp_path, blocked):
        # a directory where the report or its .errors grid should go
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "41", "--n-y", "41",
            "--out", str(mesh_path))
        if blocked == "report":
            out_path = str(tmp_path / "reports") + os.sep
            (tmp_path / "reports").mkdir()
        else:
            out_path = str(tmp_path / "fit.txt")
            (tmp_path / "fit.txt.errors").mkdir()
        code, _, stderr = run(capsys, "fit", "--mesh", str(mesh_path), "--out", out_path)
        assert code == 1
        assert stderr.startswith("error:")
        assert (out_path if blocked == "report" else out_path + ".errors") in stderr
        assert sorted(path.name for path in tmp_path.rglob("*")) == sorted(
            ["mesh.txt", "reports" if blocked == "report" else "fit.txt.errors"]
        )

    @pytest.mark.parametrize("argv,blocked", [
        (["solve", "--a", "2", "--b", "2", "--out", "out.csv"], "out.csv"),
        (["bounds", "--a-min", "0.5", "--a-max", "5", "--out", "out.csv"], "out.csv"),
        (["synth", "--a", "2", "--b", "2", "--out", "out.txt"], "out.txt"),
        (["axial", "--mesh", "mesh.txt", "--out", "d.txt"], "d.txt"),
        (["axial", "--mesh", "mesh.txt", "--fit", "fit.txt", "--out", "d.txt"], "d.txt"),
        (["axial", "--mesh", "mesh.txt", "--fit", "fit.txt", "--out", "d.txt"],
         "d.txt.errors"),
        (["fit", "--mesh", "mesh.txt", "--out", "report.txt"], "report.txt"),
    ], ids=["solve", "bounds", "synth", "axial", "axial-fit-field", "axial-fit-errors", "fit"])
    def test_unwritable_output_exits_1_and_leaves_no_file(self, capsys, tmp_path,
                                                          monkeypatch, argv, blocked):
        # a directory where one of the command's files should go: the command
        # names it, writes none of its files, and leaves every file already
        # there as it was, the fit case's pre-existing report.txt.errors too
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--a", "2", "--b", "2", "--n-x", "41", "--n-y", "41",
                     "--out", "mesh.txt"]) == 0
        assert main(["fit", "--mesh", "mesh.txt", "--out", "fit.txt"]) == 0
        (tmp_path / "report.txt.errors").write_text("kept\n")
        (tmp_path / blocked).mkdir()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()
                  if path.is_file()}
        capsys.readouterr()
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and repr(blocked) in stderr
        assert sorted(os.listdir(tmp_path)) == sorted([*before, blocked])
        assert not any((tmp_path / blocked).iterdir())
        assert {name: (tmp_path / name).read_bytes() for name in before} == before

    def test_failed_write_leaves_its_own_path_alone(self, capsys, tmp_path, monkeypatch):
        # a path the command could not write may be the user's file: only the
        # files the command finished are removed
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        out = tmp_path / "d.txt"
        (tmp_path / "d.txt.errors").write_text("kept\n")
        write_mesh = cli.write_mesh

        def refuse_errors(mesh, path):
            if path.endswith(".errors"):
                raise PermissionError(errno.EACCES, "Permission denied", path)
            write_mesh(mesh, path)

        monkeypatch.setattr(cli, "write_mesh", refuse_errors)
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path), "--fit", str(fit_path),
                              "--out", str(out))
        assert code == 1
        assert "d.txt.errors" in stderr
        assert not out.exists()
        assert (tmp_path / "d.txt.errors").read_text() == "kept\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_failed_command_keeps_a_fifo_output(self, capsys, tmp_path):
        # only regular files are removed: the d-field goes into a FIFO that
        # a reader drains, then the .errors grid fails on a directory
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        (tmp_path / "pipe.errors").mkdir()
        received = []

        def drain():
            with open(pipe, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path), "--fit", str(fit_path),
                              "--out", str(pipe))
        reader.join(timeout=30)
        assert code == 1
        assert stderr == f"error: [Errno {errno.EISDIR}] Is a directory: '{pipe}.errors'\n"
        assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
        assert not reader.is_alive() and received[0].startswith(b"61 61 ")

    def test_failed_command_keeps_a_symlink_output(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        target, link = tmp_path / "target.txt", tmp_path / "link"
        target.write_text("old\n")
        os.symlink(target, link)
        (tmp_path / "link.errors").mkdir()
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path), "--fit", str(fit_path),
                              "--out", str(link))
        assert code == 1
        assert stderr.startswith("error:") and "link.errors" in stderr
        assert os.path.islink(link) and os.readlink(link) == str(target)
        assert data.read_mesh(str(target)).z.shape == (61, 61)

    def test_unparsable_report_value_exits_1_naming_the_key(self, capsys, tmp_path):
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, "a_nondim", "x")
        code, _, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                              "--fit", str(fit_path))
        assert code == 1
        assert "a_nondim" in stderr

    def test_underscore_report_value_exits_1_and_writes_nothing(self, capsys, tmp_path):
        # float() reads 1_9 as 19; the report follows the mesh number rule
        mesh_path, fit_path = fit_report(capsys, tmp_path)
        replace_report_value(fit_path, "a_nondim", "1_9")
        out = tmp_path / "d.txt"
        code, stdout, stderr = run(capsys, "axial", "--mesh", str(mesh_path),
                                   "--fit", str(fit_path), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr == "error: fit report value of a_nondim is not a number: '1_9'\n"
        assert not out.exists()
        assert not (tmp_path / "d.txt.errors").exists()

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
    def test_empty_synthetic_mesh_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # a 2 x 2 grid has no point inside the footprint: its corners lie
        # at elliptical radius sqrt(2)
        out = tmp_path / "mesh.txt"
        code, stdout, stderr = run(capsys, "synth", "--a", "2", "--b", "2",
                                   "--n-x", "2", "--n-y", "2", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "footprint" in stderr
        assert "Warning" not in stderr
        assert not out.exists()

    def test_overflowing_scale_radius_exits_2_naming_it(self, capsys, tmp_path):
        # the footprint width 2 S max(semi-axis) overflows inside linspace
        out = tmp_path / "mesh.txt"
        code, stdout, stderr = run(capsys, "synth", "--a", "2", "--b", "2",
                                   "--scale-radius", "1e308", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error:") and "scale_radius" in stderr
        assert not out.exists()

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
    def test_underflowing_gradient_floor_exits_2_without_warning(self, capsys, tmp_path,
                                                                 command):
        # 1e-200 squared underflows to 0, which a zero gradient passes
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--seed", "3", "--out", str(mesh_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(capsys, command, "--mesh", str(mesh_path),
                                       "--gradient-floor", "1e-200")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "gradient_floor" in stderr
        assert [str(warning.message) for warning in caught] == []

    @pytest.mark.parametrize("command", ["fit", "axial"])
    def test_overflowing_gradient_floor_exits_2_without_warning(self, capsys, tmp_path,
                                                                command):
        # 1e200 squared overflows a double
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "2", "--b", "2", "--n-x", "41", "--n-y", "41",
            "--seed", "3", "--noise-sigma", "0.01", "--out", str(mesh_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(capsys, command, "--mesh", str(mesh_path),
                                       "--gradient-floor", "1e200")
        assert code == 2
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("error:") and "gradient_floor" in stderr
        assert [str(warning.message) for warning in caught] == []

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


def geometric_failure_mesh(kind):
    """A 41 x 41 mesh, spacing 0.05, on which fit fails in the named way."""
    n, h = 41, 0.05
    c = h * (np.arange(n) - 20)  # offsets from the central node
    x, y = c, c[:, None]
    z = np.full((n, n), np.nan)  # the "all nan" mesh
    origin = -20 * h
    if kind == "one sample":
        z[20, 20] = 1.0
    elif kind == "few samples":
        z[19:22, 19:22] = 1.0 - x[19:22] ** 2 - y[19:22] ** 2
    elif kind == "one row":
        # every window sample has v = 0, so the fitted v-terms vanish
        z[20, :] = 1.0 - x**2
    elif kind == "saddle edge":
        # the highest samples sit on the disc's rim, and the fitted
        # surface's critical point is the saddle at the center
        z = np.where(x**2 + y**2 <= 0.9**2, 1.0 - 2.0 * x**2 + 0.5 * y**2, np.nan)
    elif kind == "negative dome":
        z = -5.0 - x**2 - y**2
    elif kind == "saddle spike":
        # a spike makes the center a dome for the apex fit, but the half
        # level of the saddle around it is a hyperbola
        box = (np.abs(x) <= 0.75) & (np.abs(y) <= 0.75)
        z = np.where(box, 1.0 - 2.0 * x**2 + 0.5 * y**2, np.nan)
        z[20, 20] = 10.0
    elif kind == "level on one row":
        # a dome patch, and one row whose ripple crosses the half level;
        # away from the origin the fitted apex rounds onto that row
        z[16:25, 16:25] = 1.0 - x[16:25] ** 2 - y[16:25] ** 2
        z[20, :] = np.where(np.abs(c) > 0.45, np.where(np.arange(n) % 2, 0.7, 0.3),
                            1.0 - x**2)
        origin = 4.0
    return SurfaceMesh(n_x=n, n_y=n, spacing_x=h, spacing_y=h,
                       origin_x=origin, origin_y=origin, z=z)


class TestGeometricFailures:
    @pytest.mark.parametrize("kind,message", [
        ("all nan", "mesh has no valid samples"),
        ("one sample", "footprint is a single point"),
        ("few samples", "too few valid samples near the maximum"),
        ("one row", "apex surface fit has a singular Hessian"),
        ("saddle edge", "apex estimate left the fit window"),
        ("negative dome", "no dome-shaped maximum in the fit window"),
        ("saddle spike", "level curve is not an ellipse"),
        ("level on one row", "level-curve points do not span both axes"),
    ])
    def test_fit_exits_3_and_writes_no_report(self, capsys, tmp_path, kind, message):
        mesh_path, out = tmp_path / "mesh.txt", tmp_path / "fit.txt"
        write_mesh(geometric_failure_mesh(kind), str(mesh_path))
        code, stdout, stderr = run(capsys, "fit", "--mesh", str(mesh_path),
                                   "--out", str(out))
        assert code == 3
        assert stdout == ""
        assert stderr == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [mesh_path]


class TestRunReport:
    def test_renders_the_package_version(self):
        assert "version" not in {f.name for f in dataclasses.fields(cli.RunReport)}
        report = cli.cmd_bounds(0.5, 5.0, n_samples=4)
        assert report.render().splitlines()[:2] == ["command = bounds",
                                                    f"version = {__version__}"]

    def test_key_order_of_every_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        head = ["command", "version"]
        solve = head + ["a_nondim", "b_nondim", "n_nodes", "tol_nondim", "enforce_bound",
                        "iterations", "final_sup_diff_nondim", "residual_sup_nondim",
                        "envelope_ok", "envelope_A_nondim", "max_elevation_nondim"]
        bounds = head + ["a_min_nondim", "a_max_nondim", "n_samples", "n_rows",
                         "theorem1_b_max_min_nondim", "lemma_b_max_min_nondim"]
        synth = head + ["a_nondim", "b_nondim", "ecc2_nondim", "scale_radius_mm",
                        "noise_sigma_mm", "seed", "n_x", "n_y", "mesh_path", "n_valid",
                        "max_elevation_mm"]
        fit_keys = head + ["mesh_path", "level_fraction_nondim", "a_nondim", "b_nondim",
                           "signed_ecc_sq_nondim", "scale_radius_mm", "apex_x_mm",
                           "apex_y_mm", "mean_abs_error_mm", "mean_rel_error_nondim",
                           "axial_mean_abs_error_mm", "axial_mean_rel_error_nondim",
                           "n_points_used", "error_summary"]
        timing = ["timing_ms"]
        cases = [
            (["solve", "--a", "2", "--b", "2"], solve + timing),
            (["solve", "--a", "2", "--b", "2", "--out", "p.csv"],
             solve + ["profile_csv"] + timing),
            (["bounds", "--a-min", "0.5", "--a-max", "5", "--n-samples", "4"],
             bounds + timing),
            (["bounds", "--a-min", "0.5", "--a-max", "5", "--n-samples", "4",
              "--out", "b.csv"], bounds + ["bounds_csv"] + timing),
            (["synth", "--a", "2", "--b", "2", "--n-x", "61", "--n-y", "61",
              "--out", "m.txt"], synth + timing),
            (["fit", "--mesh", "m.txt"], fit_keys + timing),
            (["fit", "--mesh", "m.txt", "--out", "f.txt"],
             fit_keys + ["report_path", "errors_mesh_path"] + timing),
            (["axial", "--mesh", "m.txt"], head + ["mesh_path", "n_defined", "d_mean_mm"]
             + timing),
            (["axial", "--mesh", "m.txt", "--fit", "f.txt", "--out", "d.txt"],
             head + ["mesh_path", "fit_path", "n_defined", "d_mean_mm",
                     "axial_mean_abs_error_mm", "d_mesh_path", "errors_mesh_path"] + timing),
        ]

        def keys(text):
            return [line.split(" = ")[0] for line in text.splitlines()]

        for argv, expected in cases:
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            assert keys(stdout) == expected, argv
        assert keys((tmp_path / "f.txt").read_text()) == fit_keys + [
            "report_path", "errors_mesh_path"] + timing


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


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    # __main__.py is the one module that no in-process test runs
    src = os.path.dirname(os.path.dirname(corneafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "corneafit", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    result = module_run("solve", "--a", "2", "--b", "2")
    assert result.returncode == 0, result.stderr
    code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2")
    assert code == 0
    reports = [[line for line in text.splitlines() if not line.startswith("timing_ms = ")]
               for text in (result.stdout, stdout)]
    assert len(reports[0]) > 1 and reports[0] == reports[1]
    assert module_run("solve", "--a", "-1", "--b", "2").returncode == 2


def test_warning_is_one_stderr_line(tmp_path):
    # b = 5 is past theorem1_b_max(2) = 3.0011, so solve warns and still
    # exits 0; the warning names no file, line or source text
    src = os.path.dirname(os.path.dirname(corneafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "corneafit", "solve", "--a", "2", "--b", "5"],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ("warning: parameters violate the contraction bound; "
                             "iterating without a guarantee\n")


def closed_stdout_run(tmp_path, *argv):
    """python -m corneafit argv with stdout a pipe whose read end is closed."""
    src = os.path.dirname(os.path.dirname(corneafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "corneafit", *argv], cwd=tmp_path, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "2", "--b", "2"],
    pytest.param(["solve", "--a", "2", "--b", "2", "--n-nodes", "4001", "--out", "/dev/stdout"],
                 marks=pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                                          reason="no /dev/stdout here")),
], ids=["report", "csv"])
def test_closed_stdout_exits_1_with_one_error_line(tmp_path, argv):
    # the report write (or, with --out /dev/stdout, the CSV write before it)
    # fails on the closed pipe; nothing else may reach stderr, not even the
    # interpreter's flush of stdout at exit
    result = closed_stdout_run(tmp_path, *argv)
    assert result.returncode == 1
    assert result.stderr == f"error: [Errno {errno.EPIPE}] Broken pipe\n"


def test_failing_stdout_write_returns_1(capsys, monkeypatch):
    # an in-process stdout has no file descriptor to point elsewhere
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["solve", "--a", "2", "--b", "2"]) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"


def test_failed_stdout_descriptor_is_pointed_at_the_null_device(capsys, monkeypatch):
    # whatever the interpreter still holds for stdout, its flush at exit
    # then writes to the null device instead of failing on the pipe again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["solve", "--a", "2", "--b", "2"]) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        stdout.write("after\n")
        stdout.flush()
    assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"


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


def glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not glibc(), reason="main sets glibc's heap thresholds only")
def test_second_mesh_pair_faults_almost_no_pages(capsys, tmp_path):
    # main holds freed heap pages, and tables are rewritten in place, so a
    # second fit plus axial --fit pair on the paper's 123 x 123 mesh reuses
    # the pages of the first; under glibc's default thresholds it faults
    # about 1,130
    import resource

    mesh, report, axial = (str(tmp_path / name) for name in ("mesh.txt", "fit.txt", "axial.txt"))
    code, _, _ = run(capsys, "synth", "--a", "1.94398", "--b", "2.27534", "--ecc2", "0.0234",
                     "--noise-sigma", "0.01", "--seed", "7", "--out", mesh)
    assert code == 0
    faults = []
    for _ in range(2):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for argv in (["fit", "--mesh", mesh, "--out", report],
                     ["axial", "--mesh", mesh, "--fit", report, "--out", axial]):
            assert run(capsys, *argv)[0] == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    assert faults[1] < 100, faults


def test_main_runs_where_no_glibc_is_reported(capsys, monkeypatch):
    # without glibc the allocator is left alone and every command still runs
    asked = []

    def confstr(name):
        asked.append(name)
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", confstr, raising=False)
    cli._hold_freed_heap.cache_clear()
    try:
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2")
    finally:
        cli._hold_freed_heap.cache_clear()
    assert code == 0 and parse_report(stdout)["command"] == "solve"
    assert asked == ["CS_GNU_LIBC_VERSION"]


@pytest.mark.parametrize("libc", [None, "musl 1.2.4"])
def test_main_leaves_a_libc_other_than_glibc_alone(capsys, monkeypatch, libc):
    # confstr answers, but not with glibc: no library is loaded
    import ctypes

    def cdll(*args, **kwargs):
        raise AssertionError(f"ctypes.CDLL{args} called under {libc!r}")

    monkeypatch.setattr(os, "confstr", lambda name: libc, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._hold_freed_heap.cache_clear()
    try:
        code, stdout, _ = run(capsys, "solve", "--a", "2", "--b", "2")
    finally:
        cli._hold_freed_heap.cache_clear()
    assert code == 0 and parse_report(stdout)["command"] == "solve"


def test_every_command_and_fd_oracle_run_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: here any import of scipy raises
    src = os.path.dirname(os.path.dirname(corneafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = """
import sys
sys.modules["scipy"] = None
from corneafit import ModelParams, RadialGrid, cli, fd_oracle
for argv in (["solve", "--a", "2", "--b", "2", "--out", "profile.csv"],
             ["bounds", "--a-min", "0.5", "--a-max", "5", "--out", "bounds.csv"],
             ["synth", "--a", "2", "--b", "2", "--noise-sigma", "0.01", "--seed", "7",
              "--out", "mesh.txt"],
             ["fit", "--mesh", "mesh.txt", "--out", "fit.txt"],
             ["axial", "--mesh", "mesh.txt", "--fit", "fit.txt", "--out", "axial.txt"]):
    assert cli.main(argv) == 0, argv
fd_oracle(ModelParams(2, 2), RadialGrid.uniform(401))
print("ok")
"""
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("ok\n")


class TestInputGuards:
    @pytest.mark.parametrize("radius", ["1", "1.5"])
    def test_apex_mask_radius_of_one_or_more_exits_2_naming_it(self, capsys, tmp_path, radius):
        # every valid point has rel <= 1, so such a mask leaves no point;
        # the fit used to blame a missing overlap of the axial maps
        mesh_path, _ = fit_report(capsys, tmp_path)
        out = tmp_path / "refit.txt"
        code, stdout, stderr = run(capsys, "fit", "--mesh", str(mesh_path),
                                   "--apex-mask-radius", radius, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "apex_mask_radius" in stderr
        assert "no overlap" not in stderr
        assert not out.exists()

    def test_apex_mask_that_covers_the_shared_points_exits_2_naming_it(self, capsys, tmp_path):
        # on the paper's mesh the axial maps overlap, but only inside
        # rel <= 0.99; the fit used to blame a missing overlap of the maps
        mesh_path = tmp_path / "mesh.txt"
        run(capsys, "synth", "--a", "1.94398", "--b", "2.27534", "--ecc2", "0.0234",
            "--noise-sigma", "0.01", "--seed", "3", "--out", str(mesh_path))
        code, _, _ = run(capsys, "fit", "--mesh", str(mesh_path), "--apex-mask-radius", "0.98")
        assert code == 0
        code, stdout, stderr = run(capsys, "fit", "--mesh", str(mesh_path),
                                   "--apex-mask-radius", "0.99")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: apex_mask_radius = 0.99 ")
        assert "no overlap" not in stderr

    def test_bounds_with_one_sample_exits_2(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, stdout, stderr = run(capsys, "bounds", "--a-min", "0.5", "--a-max", "5",
                                   "--n-samples", "1", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:")
        assert not out.exists()

    def test_synth_without_output_path_raises(self):
        with pytest.raises(ValueError, match="output path"):
            cli.cmd_synth(2.0, 2.0)
