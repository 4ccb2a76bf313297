"""Command line front end.

Subcommands: solve, bounds, synth, fit, axial. Each prints a report, one
ordered mapping written as `key = value` lines (command, version, the
command's entries in the order it adds them, timing_ms), to stdout and
optionally writes CSV or mesh artifacts for plotting. Numeric report keys
carry a unit suffix (_mm or _nondim); counts, flags, paths and timing_ms
are exempt. Floats are written with 17 significant digits so reports can
be parsed back losslessly (the axial command reads the fit's report).

Every command returns through _finish, so a command that exits non-zero
leaves none of the files it opened or finished: the fit report is opened
before any other file, and a write that raises takes every file already
opened or written with it. Only regular files are removed: a path that
could not be opened, a FIFO, a device such as /dev/stdout or a symlink
is never removed, since it may be the user's; a write that fails
part-way through its own file (a full disk) is out of scope and leaves
that file. timing_ms covers every file written before the report.

Exit codes: 0 success; 1 I/O and parse failures, a closed or failing
stdout among them (one error line on stderr, no traceback); 2 numeric
and domain failures (bad parameter values, bound violations, no
convergence, no calibration root, no memory, floating-point overflow,
division by zero or invalid operation, which main raises); 3 degenerate
data (no apex or level curve). A warning, such as solve's past the
contraction bound, is one `warning:` line on stderr and keeps exit 0.

Under glibc, the first call of main in a process fixes the allocator's
mmap threshold at 32 MiB and its trim threshold at 64 MiB, the most
that glibc's own dynamic rule sets on 64-bit systems. By default glibc
trims the 1-4 MB that a mesh stage frees and faults it back in on the
next stage or command, about 1,130 minor page faults per fit plus axial
--fit pair at the paper's 123 x 123 mesh and 2,410 at 161 x 161; with the
thresholds held, a second pair in the same process makes none. A process
that embeds main keeps up to 64 MiB of freed heap for reuse instead of
returning it. Without glibc, and in the library, the allocator is left
alone.
"""

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .data import (
    SynthSpec,
    _number,
    _read_ascii,
    _write_csv,
    generate_synthetic,
    read_mesh,
    write_mesh,
)
from .errors import (
    ApexNotFound,
    BoundViolation,
    DegenerateLevelSet,
    HypothesisViolation,
    NoConvergence,
    NoRoot,
    ParseError,
    _check_count,
    _check_positive,
    _check_size,
)
from .fit import DomainEllipse, FitOptions, axial_distance_map, axial_error_grid, fit_mesh
from .kernel import ModelParams, lemma_b_max, theorem1_b_max
from .solver import RadialGrid, solve


@dataclass(frozen=True)
class RunReport:
    """One command's report; render writes entries in insertion order."""

    command: str
    entries: dict
    timing_ms: float

    def render(self):
        lines = [f"command = {self.command}", f"version = {__version__}"]
        for key, value in self.entries.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append(f"timing_ms = {_format_value(self.timing_ms)}")
        return "\n".join(lines) + "\n"


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _finish(command, start, entries, writes, report_path=None):
    """The RunReport of the ordered mapping entries. Its files are written
    all-or-nothing (see the module docstring): report_path, if any, opens
    first, then write(path) runs for each (path, write) pair in writes, in
    order, and the report, timed up to here, goes into report_path last.
    On failure each path already opened or written is removed when
    os.lstat shows a regular file; a FIFO, device or symlink is kept."""
    handle = None if report_path is None else open(report_path, "w", encoding="ascii")
    done = [] if handle is None else [report_path]
    try:
        with handle or contextlib.nullcontext():
            for path, write in writes:
                write(path)
                done.append(path)
            report = RunReport(command, entries, 1e3 * (time.perf_counter() - start))
            if handle is not None:
                handle.write(report.render())
    except BaseException:
        for path in done:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise
    return report


def _grid_writer(mesh, z):
    """A writer of the values z on mesh's grid."""
    return functools.partial(write_mesh, replace(mesh, z=z, valid=None))


def cmd_solve(a, b, n_nodes=401, tol=1e-10, out_path=None, enforce_bound=False):
    start = time.perf_counter()
    params = ModelParams(a=a, b=b)
    grid = RadialGrid.uniform(n_nodes)
    report = solve(params, grid, tol=tol, enforce_bound=enforce_bound)
    entries = {
        "a_nondim": float(a),
        "b_nondim": float(b),
        "n_nodes": grid.n_nodes,
        "tol_nondim": float(tol),
        "enforce_bound": bool(enforce_bound),
        "iterations": report.iterations,
        "final_sup_diff_nondim": report.final_sup_diff,
        "residual_sup_nondim": report.residual_sup,
        "envelope_ok": report.envelope_ok,
        "envelope_A_nondim": report.envelope_constant_A,
        "max_elevation_nondim": float(report.profile.h.max()),
    }
    writes = []
    if out_path is not None:
        entries["profile_csv"] = out_path
        columns = [grid.nodes, report.profile.h, report.profile.dh, report.h0.h,
                   report.envelope_constant_A * report.h1.h]
        writes.append((out_path, functools.partial(
            _write_csv, header=["r", "h", "dh", "h0", "A_h1"], columns=columns)))
    return _finish("solve", start, entries, writes)


def cmd_bounds(a_min, a_max, n_samples=200, out_path=None):
    start = time.perf_counter()
    _check_positive("a_min", a_min)
    _check_positive("a_max", a_max)
    if not a_min < a_max:
        raise ValueError("need a_min < a_max")
    _check_count("n_samples", n_samples, 2)
    _check_size("n_samples", n_samples)
    grid = np.linspace(a_min, a_max, n_samples)
    upper_t = theorem1_b_max(grid)
    upper_l = lemma_b_max(grid)
    entries = {
        "a_min_nondim": float(a_min),
        "a_max_nondim": float(a_max),
        "n_samples": int(n_samples),
        "n_rows": int(grid.size),
        "theorem1_b_max_min_nondim": float(upper_t.min()),
        "lemma_b_max_min_nondim": float(upper_l.min()),
    }
    writes = []
    if out_path is not None:
        entries["bounds_csv"] = out_path
        writes.append((out_path, functools.partial(
            _write_csv, header=["a", "theorem1_b_max", "lemma_b_max"],
            columns=[grid, upper_t, upper_l])))
    return _finish("bounds", start, entries, writes)


def cmd_synth(a, b, ecc2=0.0, scale_radius=5.5, out_path=None, **fields):
    """Write a synthetic mesh; fields are SynthSpec's noise_sigma, seed,
    n_x and n_y."""
    start = time.perf_counter()
    if out_path is None:
        raise ValueError("synth requires an output path")
    spec = SynthSpec(
        params=ModelParams(a=a, b=b),
        scale_radius=scale_radius,
        ellipse=DomainEllipse.from_signed_ecc_sq(ecc2),
        **fields,
    )
    mesh = generate_synthetic(spec)
    entries = {
        "a_nondim": float(spec.params.a),
        "b_nondim": float(spec.params.b),
        "ecc2_nondim": float(spec.ellipse.signed_ecc_sq),
        "scale_radius_mm": float(spec.scale_radius),
        "noise_sigma_mm": float(spec.noise_sigma),
        "seed": int(spec.seed),
        "n_x": int(spec.n_x),
        "n_y": int(spec.n_y),
        "mesh_path": out_path,
        "n_valid": int(mesh.valid.sum()),
        "max_elevation_mm": float(np.nanmax(mesh.z)),
    }
    return _finish("synth", start, entries, [(out_path, functools.partial(write_mesh, mesh))])


def cmd_fit(mesh_path, out_path=None, **fields):
    """Fit a mesh file; fields are FitOptions fields."""
    start = time.perf_counter()
    options = FitOptions(**fields)
    if out_path is not None:
        # the report is ASCII and names both paths; refuse before writing
        # anything, so no partial report or error grid is left behind
        for path in (mesh_path, out_path):
            if not str(path).isascii():
                raise OSError(errno.EILSEQ, "the fit report cannot name a non-ASCII path", path)
    mesh = read_mesh(mesh_path)
    result = fit_mesh(mesh, options)
    entries = {
        "mesh_path": mesh_path,
        "level_fraction_nondim": options.level_fraction,
        "a_nondim": result.params.a,
        "b_nondim": result.params.b,
        "signed_ecc_sq_nondim": result.ellipse.signed_ecc_sq,
        "scale_radius_mm": result.scale_radius,
        "apex_x_mm": result.apex_x_mm,
        "apex_y_mm": result.apex_y_mm,
        "mean_abs_error_mm": result.mean_abs_error_mm,
        "mean_rel_error_nondim": result.mean_rel_error,
        "axial_mean_abs_error_mm": result.axial_mean_abs_error_mm,
        "axial_mean_rel_error_nondim": result.axial_mean_rel_error,
        "n_points_used": result.n_points_used,
        "error_summary": result.error_summary(),
    }
    writes = []
    if out_path is not None:
        entries.update(report_path=out_path, errors_mesh_path=out_path + ".errors")
        writes.append((out_path + ".errors", _grid_writer(mesh, result.error_grid_mm)))
    return _finish("fit", start, entries, writes, report_path=out_path)


def _read_fit_report(path, keys):
    """The values of keys in a fit report, read as mesh numbers."""
    entries = dict(line.split(" = ", 1) for line in _read_ascii(path).splitlines()
                   if " = " in line)
    values = []
    for key in keys:
        text = entries.get(key)
        if text is None:
            raise ParseError(f"fit report is missing key {key!r}")
        try:
            values.append(_number(text))
        except ValueError:
            raise ParseError(f"fit report value of {key} is not a number: {text!r}") from None
    return values


def cmd_axial(mesh_path, fit_path=None, out_path=None,
              gradient_floor=FitOptions.gradient_floor):
    """Axial-distance field of a mesh; with a fit report, also the model's.

    Without fit_path the surface axis is the mesh's coordinate origin
    and only the mesh-route field is written; with it, axial_error_grid
    re-centers on the fitted apex and its |d_mesh - d_model| grid
    accompanies the field. Its axial_mean_abs_error_mm averages every
    point where both maps are defined, the apex disk included, so it is
    not fit's value of that name, which leaves out rel <= apex_mask_radius.
    """
    start = time.perf_counter()
    mesh = read_mesh(mesh_path)
    entries = {"mesh_path": mesh_path}
    if fit_path is None:
        circle = DomainEllipse.from_signed_ecc_sq(0.0)
        d_mesh = axial_distance_map(mesh, circle, gradient_floor=gradient_floor)
        errors = None
    else:
        entries["fit_path"] = fit_path
        a, b, signed_ecc_sq, scale, apex_x, apex_y = _read_fit_report(
            fit_path, ("a_nondim", "b_nondim", "signed_ecc_sq_nondim",
                       "scale_radius_mm", "apex_x_mm", "apex_y_mm"))
        d_mesh, errors = axial_error_grid(
            mesh, ModelParams(a=a, b=b), DomainEllipse.from_signed_ecc_sq(signed_ecc_sq),
            scale, (apex_x, apex_y), gradient_floor)

    defined = np.isfinite(d_mesh)
    entries["n_defined"] = int(defined.sum())
    if defined.any():
        entries["d_mean_mm"] = float(d_mesh[defined].mean())
    if errors is not None:
        entries["axial_mean_abs_error_mm"] = float(errors[~np.isnan(errors)].mean())
    writes = []
    if out_path is not None:
        entries["d_mesh_path"] = out_path
        writes.append((out_path, _grid_writer(mesh, d_mesh)))
        if errors is not None:
            entries["errors_mesh_path"] = out_path + ".errors"
            writes.append((out_path + ".errors", _grid_writer(mesh, errors)))
    return _finish("axial", start, entries, writes)


@functools.cache
def _build_parser():
    """One subparser per cmd_* function, each flag's dest its keyword.
    Flags declare no defaults: an omitted flag is left out of the
    namespace, so the command's or the library's default applies.

    Built once per process: every parse_args call fills a fresh
    namespace, so main can reuse the parser for each call."""
    parser = argparse.ArgumentParser(
        prog="corneafit",
        description="Membrane-model corneal topography: solve, calibrate, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        return p

    p = command("solve", cmd_solve, "solve the radial profile and write it as CSV")
    p.add_argument("--a", type=float, required=True, help="elastic parameter a > 0")
    p.add_argument("--b", type=float, required=True, help="pressure parameter b >= 0")
    p.add_argument("--n-nodes", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--enforce-bound", action="store_true",
                   help="fail instead of warn when b >= theorem1_b_max(a)")
    p.add_argument("--out", dest="out_path", metavar="OUT", help="profile CSV path")

    p = command("bounds", cmd_bounds, "tabulate admissibility bounds over an a range")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--out", dest="out_path", metavar="OUT", help="bounds CSV path")

    p = command("synth", cmd_synth, "generate a synthetic elevation mesh")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--ecc2", type=float, help="signed squared eccentricity of the footprint")
    p.add_argument("--scale-radius", type=float, help="mm")
    p.add_argument("--noise-sigma", type=float, help="mm")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-x", type=int)
    p.add_argument("--n-y", type=int)
    p.add_argument("--out", dest="out_path", metavar="OUT", required=True,
                   help="mesh file path")

    p = command("fit", cmd_fit, "fit the model to a mesh file")
    p.add_argument("--mesh", dest="mesh_path", metavar="MESH", required=True)
    p.add_argument("--level-fraction", type=float)
    p.add_argument("--apex-window-fraction", type=float)
    p.add_argument("--gradient-floor", type=float)
    p.add_argument("--apex-mask-radius", type=float)
    p.add_argument("--out", dest="out_path", metavar="OUT",
                   help="report path; the error grid goes to <out>.errors")

    p = command("axial", cmd_axial, "axial-distance map of a mesh")
    p.add_argument("--mesh", dest="mesh_path", metavar="MESH", required=True)
    p.add_argument("--fit", dest="fit_path", metavar="FIT",
                   help="fit report path; adds the model comparison grid")
    p.add_argument("--gradient-floor", type=float)
    p.add_argument("--out", dest="out_path", metavar="OUT",
                   help="d-field mesh path; errors go to <out>.errors")
    return parser


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _hold_freed_heap():
    """Keep freed heap pages for reuse under glibc; see the module
    docstring. If glibc refuses the mmap threshold, its defaults stand."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _discard_stdout():
    """Point stdout's file descriptor, if it has one, at the null device,
    so the interpreter's flush at exit finds nowhere to fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _format_warning(message, category, filename, lineno, line=None):
    """A warning as one stderr line, like an error; main sets it while a
    command runs."""
    return f"warning: {message}\n"


def main(argv=None):
    _hold_freed_heap()
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    del args["command"]
    run = args.pop("run")

    report = None
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = run(**args)
        sys.stdout.write(report.render())
        sys.stdout.flush()
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if report is not None:
            _discard_stdout()
        return 1
    except (ApexNotFound, DegenerateLevelSet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError, BoundViolation, NoConvergence, NoRoot,
            HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning
    return 0
