"""Nonlinear membrane model of corneal topography.

The cornea is modeled as a clamped circular membrane under intraocular
pressure; its nondimensional elevation solves a radial boundary-value
problem whose fixed-point integral form converges by Picard iteration.
The package provides the modified Bessel functions the kernels are
built from, admissibility bounds and solution envelopes, a
finite-difference cross-check, parameter calibration from two apex
measurements, synthetic mesh generation, mesh fitting with elliptical
footprints, and axial-distance curvature maps. The ``corneafit`` CLI
wraps the same operations.
"""

__version__ = "0.1.0"

from .data import SurfaceMesh, SynthSpec, generate_synthetic, read_mesh, write_mesh
from .errors import (
    ApexNotFound,
    BoundViolation,
    DegenerateLevelSet,
    DimensionMismatch,
    HypothesisViolation,
    NoConvergence,
    NoRoot,
    ParseError,
)
from .fit import (
    ApexMeasurements,
    DomainEllipse,
    FitOptions,
    FitResult,
    ModelSurface,
    axial_distance_map,
    axial_error_grid,
    calibrate_a,
    calibrate_b,
    elliptical_radius,
    estimate_ellipse,
    fit_mesh,
)
from .kernel import (
    AdmissibilityReport,
    DimensionalParams,
    KernelBounds,
    ModelParams,
    admissibility,
    bound_constants,
    dv0,
    dv1,
    lemma_b_max,
    theorem1_b_max,
    v0,
    v1,
)
from .solver import (
    RadialGrid,
    RadialProfile,
    SolveReport,
    envelope_check,
    fd_oracle,
    h0_profile,
    picard_step,
    residual_sup,
    solve,
)
from .special import bessel_i, bessel_k, wronskian_defect

__all__ = [
    "__version__",
    "AdmissibilityReport",
    "ApexMeasurements",
    "ApexNotFound",
    "BoundViolation",
    "DegenerateLevelSet",
    "DimensionMismatch",
    "DimensionalParams",
    "DomainEllipse",
    "FitOptions",
    "FitResult",
    "HypothesisViolation",
    "KernelBounds",
    "ModelParams",
    "ModelSurface",
    "NoConvergence",
    "NoRoot",
    "ParseError",
    "RadialGrid",
    "RadialProfile",
    "SolveReport",
    "SurfaceMesh",
    "SynthSpec",
    "admissibility",
    "axial_distance_map",
    "axial_error_grid",
    "bessel_i",
    "bessel_k",
    "bound_constants",
    "calibrate_a",
    "calibrate_b",
    "dv0",
    "dv1",
    "elliptical_radius",
    "envelope_check",
    "estimate_ellipse",
    "fd_oracle",
    "fit_mesh",
    "generate_synthetic",
    "h0_profile",
    "lemma_b_max",
    "picard_step",
    "read_mesh",
    "residual_sup",
    "solve",
    "theorem1_b_max",
    "v0",
    "v1",
    "wronskian_defect",
    "write_mesh",
]
