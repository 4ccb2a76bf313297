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
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .data import (
    SurfaceMesh,
    SynthSpec,
    _read_ascii,
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
from .fit import (
    DomainEllipse,
    FitOptions,
    ModelSurface,
    _recentred,
    axial_distance_map,
    fit_mesh,
)
from .kernel import ModelParams, lemma_b_max, theorem1_b_max
from .solver import RadialGrid, solve


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    outputs: dict
    timing_ms: float
    version: str

    def render(self):
        lines = [f"command = {self.command}", f"version = {self.version}"]
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


_CSV_BLOCK_ROWS = 512


def _write_csv(path, header, columns):
    # One %-format per row over Python floats gives the same text as
    # format(v, ".17g") per value. Rows go out in blocks, so only one
    # block's values exist as Python floats at a time.
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    columns = [np.asarray(column) for column in columns]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [column[start:start + _CSV_BLOCK_ROWS].tolist() for column in columns]
            handle.writelines(row_format % row for row in zip(*block))


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
        version=__version__,
    )


def cmd_bounds(a_min, a_max, n_samples=200, out_path=None):
    start = time.perf_counter()
    if not (0.0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(a_min, a_max, int(n_samples))
    upper_t = np.array([theorem1_b_max(a) for a in grid])
    upper_l = np.array([lemma_b_max(a) for a in grid])
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
        version=__version__,
    )


def cmd_synth(a, b, ecc2=0.0, scale_radius=5.5, noise_sigma=0.0, seed=0,
              n_x=123, n_y=123, out_path=None):
    start = time.perf_counter()
    if out_path is None:
        raise ValueError("synth requires an output path")
    spec = SynthSpec(
        params=ModelParams(a=a, b=b),
        scale_radius=scale_radius,
        ellipse=DomainEllipse.from_signed_ecc_sq(ecc2),
        noise_sigma=noise_sigma,
        seed=seed,
        n_x=n_x,
        n_y=n_y,
    )
    mesh = generate_synthetic(spec)
    write_mesh(mesh, out_path)
    return RunReport(
        command="synth",
        inputs={
            "a_nondim": float(a),
            "b_nondim": float(b),
            "ecc2_nondim": float(ecc2),
            "scale_radius_mm": float(scale_radius),
            "noise_sigma_mm": float(noise_sigma),
            "seed": int(seed),
            "n_x": int(n_x),
            "n_y": int(n_y),
        },
        outputs={
            "mesh_path": out_path,
            "n_valid": int(mesh.valid.sum()),
            "max_elevation_mm": float(np.nanmax(mesh.z)),
        },
        timing_ms=1e3 * (time.perf_counter() - start),
        version=__version__,
    )


def _same_grid(mesh, z):
    """A mesh on mesh's grid holding z."""
    return SurfaceMesh(
        n_x=mesh.n_x,
        n_y=mesh.n_y,
        spacing_x=mesh.spacing_x,
        spacing_y=mesh.spacing_y,
        origin_x=mesh.origin_x,
        origin_y=mesh.origin_y,
        z=z,
    )


def cmd_fit(mesh_path, options=None, out_path=None):
    start = time.perf_counter()
    if options is None:
        options = FitOptions()
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
        write_mesh(_same_grid(mesh, result.error_grid_mm), out_path + ".errors")
        outputs["report_path"] = out_path
        outputs["errors_mesh_path"] = out_path + ".errors"

    report = RunReport(
        command="fit",
        inputs={"mesh_path": mesh_path, "level_fraction_nondim": options.level_fraction},
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
        version=__version__,
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


def cmd_axial(mesh_path, fit_path=None, out_path=None, gradient_floor=1e-8):
    """Axial-distance field of a mesh; with a fit report, also the model's.

    Without fit_path the surface axis is the mesh's coordinate origin
    and only the mesh-route field is written; with it, coordinates are
    re-centered on the fitted apex and a |d_mesh - d_model| grid
    accompanies the field.
    """
    start = time.perf_counter()
    mesh = read_mesh(mesh_path)
    inputs = {"mesh_path": mesh_path}
    outputs = {}

    if fit_path is None:
        circle = DomainEllipse.from_signed_ecc_sq(0.0)
        d_mesh = axial_distance_map(mesh, circle, gradient_floor=gradient_floor)
        d_model = None
    else:
        inputs["fit_path"] = fit_path
        entries = _parse_report(fit_path)
        a, b, signed_ecc_sq, scale, apex_x, apex_y = (
            _report_float(entries, key)
            for key in ("a_nondim", "b_nondim", "signed_ecc_sq_nondim",
                        "scale_radius_mm", "apex_x_mm", "apex_y_mm")
        )
        params = ModelParams(a=a, b=b)
        ellipse = DomainEllipse.from_signed_ecc_sq(signed_ecc_sq)
        source = _recentred(mesh, apex_x, apex_y)
        d_mesh = axial_distance_map(source, ellipse, gradient_floor=gradient_floor)
        d_model = axial_distance_map(
            ModelSurface(params=params, scale_radius=scale, template=source),
            ellipse,
            gradient_floor=gradient_floor,
        )

    defined = np.isfinite(d_mesh)
    outputs["n_defined"] = int(defined.sum())
    if defined.any():
        outputs["d_mean_mm"] = float(d_mesh[defined].mean())
    if d_model is not None:
        common = defined & np.isfinite(d_model)
        if common.any():
            outputs["axial_mean_abs_error_mm"] = float(
                np.abs(d_mesh[common] - d_model[common]).mean()
            )
    if out_path is not None:
        write_mesh(_same_grid(mesh, d_mesh), out_path)
        outputs["d_mesh_path"] = out_path
        if d_model is not None:
            diff = np.full(d_mesh.shape, np.nan)
            diff[common] = np.abs(d_mesh[common] - d_model[common])
            write_mesh(_same_grid(mesh, diff), out_path + ".errors")
            outputs["errors_mesh_path"] = out_path + ".errors"

    return RunReport(
        command="axial",
        inputs=inputs,
        outputs=outputs,
        timing_ms=1e3 * (time.perf_counter() - start),
        version=__version__,
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="corneafit",
        description="Membrane-model corneal topography: solve, calibrate, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the radial profile and write it as CSV")
    p.add_argument("--a", type=float, required=True, help="elastic parameter a > 0")
    p.add_argument("--b", type=float, required=True, help="pressure parameter b >= 0")
    p.add_argument("--n-nodes", type=int, default=401)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--enforce-bound", action="store_true",
                   help="fail instead of warn when b >= theorem1_b_max(a)")
    p.add_argument("--out", default=None, help="profile CSV path")

    p = sub.add_parser("bounds", help="tabulate admissibility bounds over an a range")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--out", default=None, help="bounds CSV path")

    p = sub.add_parser("synth", help="generate a synthetic elevation mesh")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--ecc2", type=float, default=0.0,
                   help="signed squared eccentricity of the footprint")
    p.add_argument("--scale-radius", type=float, default=5.5, help="mm")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="mm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-x", type=int, default=123)
    p.add_argument("--n-y", type=int, default=123)
    p.add_argument("--out", required=True, help="mesh file path")

    p = sub.add_parser("fit", help="fit the model to a mesh file")
    p.add_argument("--mesh", required=True)
    p.add_argument("--level-fraction", type=float, default=0.5)
    p.add_argument("--apex-window-fraction", type=float, default=0.4)
    p.add_argument("--gradient-floor", type=float, default=1e-8)
    p.add_argument("--apex-mask-radius", type=float, default=0.05)
    p.add_argument("--out", default=None,
                   help="report path; the error grid goes to <out>.errors")

    p = sub.add_parser("axial", help="axial-distance map of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--fit", default=None,
                   help="fit report path; adds the model comparison grid")
    p.add_argument("--gradient-floor", type=float, default=1e-8)
    p.add_argument("--out", default=None,
                   help="d-field mesh path; errors go to <out>.errors")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "solve":
            report = cmd_solve(args.a, args.b, n_nodes=args.n_nodes, tol=args.tol,
                               out_path=args.out, enforce_bound=args.enforce_bound)
        elif args.command == "bounds":
            report = cmd_bounds(args.a_min, args.a_max, n_samples=args.n_samples,
                                out_path=args.out)
        elif args.command == "synth":
            report = cmd_synth(args.a, args.b, ecc2=args.ecc2,
                               scale_radius=args.scale_radius,
                               noise_sigma=args.noise_sigma, seed=args.seed,
                               n_x=args.n_x, n_y=args.n_y, out_path=args.out)
        elif args.command == "fit":
            options = FitOptions(
                level_fraction=args.level_fraction,
                apex_window_fraction=args.apex_window_fraction,
                gradient_floor=args.gradient_floor,
                apex_mask_radius=args.apex_mask_radius,
            )
            report = cmd_fit(args.mesh, options=options, out_path=args.out)
        else:
            report = cmd_axial(args.mesh, fit_path=args.fit, out_path=args.out,
                               gradient_floor=args.gradient_floor)
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
