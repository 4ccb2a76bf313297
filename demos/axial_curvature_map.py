"""Axial-distance maps: a sphere sanity check, then model-vs-data errors.

A sphere's surface normals all pass through its center, so its axial
distance map is constant at the radius; that pins down the convention
before the model comparison. Writes axial_map.txt (d-field of the
synthetic surface, mesh text format).
"""

from dataclasses import replace

import numpy as np

from corneafit import (
    DomainEllipse,
    ModelParams,
    SurfaceMesh,
    SynthSpec,
    axial_distance_map,
    axial_error_grid,
    generate_synthetic,
    write_mesh,
)

CIRCLE = DomainEllipse.from_signed_ecc_sq(0.0)

# sphere cap: radius 7.8 mm over a 4 mm-radius aperture
radius, aperture, n = 7.8, 4.0, 123
coords = np.linspace(-aperture, aperture, n)
grid_x, grid_y = np.meshgrid(coords, coords)
r_sq = grid_x**2 + grid_y**2
z = np.full((n, n), np.nan)
inside = r_sq <= aperture**2
z[inside] = np.sqrt(radius**2 - r_sq[inside])
sphere = SurfaceMesh(n_x=n, n_y=n, spacing_x=2 * aperture / (n - 1),
                     spacing_y=2 * aperture / (n - 1),
                     origin_x=-aperture, origin_y=-aperture, z=z)

d_sphere = axial_distance_map(sphere, CIRCLE)
defined = np.isfinite(d_sphere)
print(f"sphere cap, radius {radius} mm: d defined at {int(defined.sum())} points")
print(f"  mean d = {d_sphere[defined].mean():.5f} mm, "
      f"max |d/{radius} - 1| = {np.max(np.abs(d_sphere[defined] / radius - 1)):.2e}")
print()

# membrane surface: finite-difference route vs analytic-gradient route
params = ModelParams(a=1.94398, b=2.27534)
spec = SynthSpec(params=params, scale_radius=5.5, ellipse=CIRCLE)
mesh = generate_synthetic(spec)

# the synthetic apex sits at the coordinate origin
d_mesh, errors = axial_error_grid(mesh, params, CIRCLE, 5.5, (0.0, 0.0))
gx, gy = np.meshgrid(mesh.x_coords, mesh.y_coords)
outside_apex = np.hypot(gx, gy) / 5.5 > 0.05
common = ~np.isnan(errors) & outside_apex

gap = errors[common]
print(f"membrane surface at (a, b) = ({params.a}, {params.b}):")
print(f"  {int(common.sum())} comparable points outside the apex disk")
print(f"  d range {d_mesh[common].min():.3f} .. {d_mesh[common].max():.3f} mm")
print(f"  FD-vs-analytic gap: mean {gap.mean():.2e} mm, max {gap.max():.2e} mm")

write_mesh(replace(mesh, z=d_mesh, valid=None), "axial_map.txt")
print()
print("wrote axial_map.txt")
