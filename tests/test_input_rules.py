"""Extreme numeric inputs fail loudly.

Every command either answers with finite numbers or exits 2 with one
`error:` line and leaves no file; no numpy warning escapes. The flags are
drawn from the edges of the doubles and of the model's ranges, and from
hypothesis' own floats.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corneafit import cli
from corneafit.data import SynthSpec, generate_synthetic
from corneafit.errors import _MAX_VALUES
from corneafit.fit import DomainEllipse
from corneafit.kernel import ModelParams

EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-20, 1e-6, 0.5, 2.0, 50.0, 1e5, 1.25e5, 2e5, 1e300,
         1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0]
NUMBERS = st.sampled_from(EDGES) | st.floats()
CONTRACTION = "parameters violate the contraction bound"


def run(*argv):
    """main's exit code, stdout, stderr and the messages of the warnings
    it raised, with every warning recorded rather than raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught]


def flags(**values):
    # --flag=value keeps argparse from reading "-inf" or "-1e+300" as a flag
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def footprint_count(ecc2, n_x, n_y):
    """The number of grid points inside the footprint, at a plain spec."""
    spec = SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                     ellipse=DomainEllipse.from_signed_ecc_sq(ecc2), n_x=n_x, n_y=n_y)
    return int(generate_synthetic(spec).valid.sum())


def check_outcome(code, stdout, stderr, caught, out, allowed_warnings=()):
    """The contract of every command on any input; the report on exit 0."""
    assert code in (0, 2), (code, stderr)
    assert all(any(text in message for text in allowed_warnings) for message in caught), caught
    if code == 2:
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error:"), stderr
        assert not out.exists()
        return None
    assert stderr == ""
    report = dict(line.split(" = ", 1) for line in stdout.splitlines())
    for key, value in report.items():
        try:
            number = float(value)
        except ValueError:
            continue
        assert math.isfinite(number), (key, value)
    return report


def assert_csv_finite(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.isfinite(table).all()


class TestSweep:
    @settings(max_examples=100, deadline=None)
    @given(a=NUMBERS, b=NUMBERS, tol=NUMBERS)
    def test_solve(self, a, b, tol):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "profile.csv"
            result = run("solve", *flags(a=a, b=b, tol=tol), "--n-nodes=41", f"--out={out}")
            if check_outcome(*result, out, allowed_warnings=[CONTRACTION]) is not None:
                assert_csv_finite(out)

    @settings(max_examples=100, deadline=None)
    @given(a_min=NUMBERS, a_max=NUMBERS)
    def test_bounds(self, a_min, a_max):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bounds.csv"
            result = run("bounds", *flags(a_min=a_min, a_max=a_max), "--n-samples=5",
                         f"--out={out}")
            if check_outcome(*result, out) is not None:
                assert_csv_finite(out)

    @settings(max_examples=100, deadline=None)
    @given(a=NUMBERS, b=NUMBERS, scale_radius=NUMBERS, noise_sigma=NUMBERS,
           ecc2=st.sampled_from([0.0, 0.5, -0.9]) | NUMBERS)
    def test_synth(self, a, b, scale_radius, noise_sigma, ecc2):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "mesh.txt"
            result = run("synth", *flags(a=a, b=b, scale_radius=scale_radius,
                                         noise_sigma=noise_sigma, ecc2=ecc2),
                         "--seed=1", "--n-x=9", "--n-y=9", f"--out={out}")
            report = check_outcome(*result, out)
            if report is not None:
                assert int(report["n_valid"]) == footprint_count(ecc2, 9, 9)


@settings(max_examples=100, deadline=None)
@given(a=NUMBERS, b=NUMBERS, scale_radius=NUMBERS, noise_sigma=NUMBERS,
       ecc2=st.sampled_from([0.0, 0.5, -0.9]) | NUMBERS)
def test_synth_spec_refuses_or_generates_finite_samples(a, b, scale_radius, noise_sigma, ecc2):
    try:
        spec = SynthSpec(params=ModelParams(a=a, b=b), scale_radius=scale_radius,
                         ellipse=DomainEllipse.from_signed_ecc_sq(ecc2),
                         noise_sigma=noise_sigma, seed=1, n_x=9, n_y=9)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = generate_synthetic(spec)
    assert mesh.valid.sum() == footprint_count(ecc2, 9, 9)
    assert np.isfinite(mesh.z[mesh.valid]).all()


class TestExactCases:
    @pytest.mark.parametrize("argv,message", [
        # S b / 4 overflows: used to write inf samples around the apex, exit 0
        (["--a=1e-3", "--b=100", "--scale-radius=1e307"], "scale_radius, b or noise_sigma"),
        (["--a=2", "--b=2", "--noise-sigma=1e308", "--seed=1"], "noise_sigma"),
        # past the bounds' range h0 overflowed and half the footprint was lost
        (["--a=1e6", "--b=2"], "the admissibility bounds need a <= 125000, got 1000000.0"),
        (["--a=2", "--b=2", "--n-x=1025", "--n-y=1024"],
         f"n_x * n_y must be at most {_MAX_VALUES}, got 1049600"),
        # h0's factor b / a overflows, so S h0(0) is not finite
        (["--a=1e-5", "--b=1e304"], "scale_radius, b or noise_sigma"),
        (["--a=2", "--b=2", "--n-x=1"], "n_x must be an integer of at least 2, got 1"),
    ])
    def test_synth_refusals(self, tmp_path, argv, message):
        out = tmp_path / "mesh.txt"
        code, stdout, stderr, caught = run("synth", *argv, f"--out={out}")
        assert code == 2 and stdout == "" and caught == []
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert message in stderr
        assert not out.exists()

    def test_synth_whose_largest_z_is_finite_generates(self, tmp_path):
        # S b / 4 overflows but S h0(0) ~ S b / a does not: used to exit 2
        out = tmp_path / "mesh.txt"
        result = run("synth", "--a=100", "--b=1.7e308", "--n-x=21", "--n-y=21", f"--out={out}")
        report = check_outcome(*result, out)
        assert report is not None and out.exists()
        assert math.isfinite(float(report["max_elevation_mm"]))

    def test_solve_whose_iterate_overflows_exits_2(self, tmp_path):
        # used to end in an OverflowError traceback with exit 1
        out = tmp_path / "profile.csv"
        code, stdout, stderr, caught = run("solve", "--a=2", "--b=1e300", "--n-nodes=41",
                                           f"--out={out}")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: overflow encountered in") and stderr.count("\n") == 1
        assert len(caught) == 1 and CONTRACTION in caught[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--a=2", "--b=2", "--n-nodes=1048577"],
         "n_nodes must be at most 1048576, got 1048577"),
        (["bounds", "--a-min=0.5", "--a-max=5", "--n-samples=1048577"],
         "n_samples must be at most 1048576, got 1048577"),
        # linspace used to warn, then the message listed all 200 samples
        (["bounds", "--a-min=0.5", "--a-max=inf"], "a_max must be positive and finite, got inf"),
        (["solve", "--a=2", "--b=2", "--n-nodes=2"], "n_nodes must be an integer of at least 3, got 2"),
        (["bounds", "--a-min=0.5", "--a-max=5", "--n-samples=1"],
         "n_samples must be an integer of at least 2, got 1"),
    ])
    def test_solve_and_bounds_refusals(self, argv, message):
        code, stdout, stderr, caught = run(*argv)
        assert (code, stdout, stderr, caught) == (2, "", f"error: {message}\n", [])

    @pytest.mark.parametrize("make,message", [
        # 10.5 used to build 10 rows, and 21.5 failed with a bare TypeError
        (lambda: cli.cmd_bounds(0.5, 5.0, n_samples=10.5), "n_samples must be an integer"),
        (lambda: SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                           ellipse=DomainEllipse.from_signed_ecc_sq(0.0), n_x=21.5),
         "n_x must be an integer"),
        (lambda: SynthSpec(params=ModelParams(a=2.0, b=2.0), scale_radius=5.5,
                           ellipse=DomainEllipse.from_signed_ecc_sq(0.0), n_y=np.float64(21)),
         "n_y must be an integer"),
    ])
    def test_counts_must_be_integers(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numeric_exception_in_a_command_exits_2(self, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(cli, "solve", overflow)
        code, stdout, stderr, _ = run("solve", "--a=2", "--b=2")
        assert (code, stdout) == (2, "")
        assert stderr == "error: (34, 'Numerical result out of range')\n"

    def test_memory_error_in_a_command_exits_2(self, monkeypatch, tmp_path):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "generate_synthetic", no_memory)
        out = tmp_path / "mesh.txt"
        code, stdout, stderr, _ = run("synth", "--a=2", "--b=2", f"--out={out}")
        assert (code, stdout, stderr) == (2, "", "error: Unable to allocate 74.5 GiB\n")
        assert not out.exists()
