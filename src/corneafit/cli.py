"""Command line front end.

Subcommands: solve, bounds, synth, fit, axial. Each prints a report of
`key = value` lines to stdout and optionally writes CSV or mesh
artifacts for plotting. Numeric report keys carry a unit suffix (_mm or
_nondim); counts, flags, paths and timing_ms are exempt. Floats are
written with 17 significant digits so reports can be parsed back
losslessly (the axial command reads the fit command's report).

Exit codes: 0 success; 1 I/O and parse failures; 2 numeric and domain
failures (bad parameter values, bound violations, no convergence, no
calibration root); 3 degenerate data (no apex, no level curve).
"""

import argparse
import errno
import functools
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .data import (
    SynthSpec,
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
)
from .fit import DomainEllipse, FitOptions, axial_distance_map, axial_error_grid, fit_mesh
from .kernel import ModelParams, lemma_b_max, theorem1_b_max
from .solver import RadialGrid, solve


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    outputs: dict
    timing_ms: float

    def render(self):
        lines = [f"command = {self.command}", f"version = {__version__}"]
        for key, value in self.inputs.items():
            lines.append(f"{key} = {_format_value(value)}")
        for key, value in self.outputs.items():
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


def cmd_solve(a, b, n_nodes=401, tol=1e-10, out_path=None, enforce_bound=False):
    start = time.perf_counter()
    params = ModelParams(a=a, b=b)
    grid = RadialGrid.uniform(n_nodes)
    report = solve(params, grid, tol=tol, enforce_bound=enforce_bound)
    if out_path is not None:
        _write_csv(
            out_path,
            ["r", "h", "dh", "h0", "A_h1"],
            [
                grid.nodes,
                report.profile.h,
                report.profile.dh,
                report.h0.h,
                report.envelope_constant_A * report.h1.h,
            ],
        )
    outputs = {
        "iterations": report.iterations,
        "final_sup_diff_nondim": report.final_sup_diff,
        "residual_sup_nondim": report.residual_sup,
        "envelope_ok": report.envelope_ok,
        "envelope_A_nondim": report.envelope_constant_A,
        "max_elevation_nondim": float(report.profile.h.max()),
    }
    if out_path is not None:
        outputs["profile_csv"] = out_path
    return RunReport(
        command="solve",
        inputs={
            "a_nondim": float(a),
            "b_nondim": float(b),
            "n_nodes": int(n_nodes),
            "tol_nondim": float(tol),
            "enforce_bound": bool(enforce_bound),
        },
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
    )


def cmd_bounds(a_min, a_max, n_samples=200, out_path=None):
    start = time.perf_counter()
    if not (0.0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(a_min, a_max, int(n_samples))
    upper_t = theorem1_b_max(grid)
    upper_l = lemma_b_max(grid)
    if out_path is not None:
        _write_csv(out_path, ["a", "theorem1_b_max", "lemma_b_max"], [grid, upper_t, upper_l])
    outputs = {
        "n_rows": int(grid.size),
        "theorem1_b_max_min_nondim": float(upper_t.min()),
        "lemma_b_max_min_nondim": float(upper_l.min()),
    }
    if out_path is not None:
        outputs["bounds_csv"] = out_path
    return RunReport(
        command="bounds",
        inputs={
            "a_min_nondim": float(a_min),
            "a_max_nondim": float(a_max),
            "n_samples": int(n_samples),
        },
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
    )


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
    write_mesh(mesh, out_path)
    return RunReport(
        command="synth",
        inputs={
            "a_nondim": float(spec.params.a),
            "b_nondim": float(spec.params.b),
            "ecc2_nondim": float(spec.ellipse.signed_ecc_sq),
            "scale_radius_mm": float(spec.scale_radius),
            "noise_sigma_mm": float(spec.noise_sigma),
            "seed": int(spec.seed),
            "n_x": int(spec.n_x),
            "n_y": int(spec.n_y),
        },
        outputs={
            "mesh_path": out_path,
            "n_valid": int(mesh.valid.sum()),
            "max_elevation_mm": float(np.nanmax(mesh.z)),
        },
        timing_ms=1e3 * (time.perf_counter() - start),
    )


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

    outputs = {
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
    if out_path is not None:
        write_mesh(replace(mesh, z=result.error_grid_mm, valid=None), out_path + ".errors")
        outputs["report_path"] = out_path
        outputs["errors_mesh_path"] = out_path + ".errors"

    report = RunReport(
        command="fit",
        inputs={"mesh_path": mesh_path, "level_fraction_nondim": options.level_fraction},
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
    )
    if out_path is not None:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(report.render())
    return report


def _parse_report(path):
    entries = {}
    for raw in _read_ascii(path).splitlines():
        key, sep, value = raw.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def _report_float(entries, key):
    try:
        text = entries[key]
    except KeyError:
        raise ParseError(f"fit report is missing key {key!r}") from None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"fit report value of {key} is not a number: {text!r}") from None


def cmd_axial(mesh_path, fit_path=None, out_path=None,
              gradient_floor=FitOptions.gradient_floor):
    """Axial-distance field of a mesh; with a fit report, also the model's.

    Without fit_path the surface axis is the mesh's coordinate origin
    and only the mesh-route field is written; with it, axial_error_grid
    re-centers on the fitted apex and its |d_mesh - d_model| grid
    accompanies the field.
    """
    start = time.perf_counter()
    mesh = read_mesh(mesh_path)
    inputs = {"mesh_path": mesh_path}
    outputs = {}

    if fit_path is None:
        circle = DomainEllipse.from_signed_ecc_sq(0.0)
        d_mesh = axial_distance_map(mesh, circle, gradient_floor=gradient_floor)
        errors = None
    else:
        inputs["fit_path"] = fit_path
        entries = _parse_report(fit_path)
        a, b, signed_ecc_sq, scale, apex_x, apex_y = (
            _report_float(entries, key)
            for key in ("a_nondim", "b_nondim", "signed_ecc_sq_nondim",
                        "scale_radius_mm", "apex_x_mm", "apex_y_mm")
        )
        d_mesh, errors = axial_error_grid(
            mesh,
            ModelParams(a=a, b=b),
            DomainEllipse.from_signed_ecc_sq(signed_ecc_sq),
            scale,
            (apex_x, apex_y),
            gradient_floor,
        )

    defined = np.isfinite(d_mesh)
    outputs["n_defined"] = int(defined.sum())
    if defined.any():
        outputs["d_mean_mm"] = float(d_mesh[defined].mean())
    if errors is not None:
        outputs["axial_mean_abs_error_mm"] = float(errors[~np.isnan(errors)].mean())
    if out_path is not None:
        write_mesh(replace(mesh, z=d_mesh, valid=None), out_path)
        outputs["d_mesh_path"] = out_path
        if errors is not None:
            write_mesh(replace(mesh, z=errors, valid=None), out_path + ".errors")
            outputs["errors_mesh_path"] = out_path + ".errors"

    return RunReport(
        command="axial",
        inputs=inputs,
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
    )


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


def main(argv=None):
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    del args["command"]
    run = args.pop("run")

    try:
        report = run(**args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ApexNotFound, DegenerateLevelSet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, BoundViolation, NoConvergence, NoRoot, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(report.render())
    return 0
