"""Solve the radial profile at a = b = 2 and tabulate its envelope.

Writes solution_envelopes.csv with the converged profile sandwiched
between its analytic lower and upper envelopes.
"""

import numpy as np

from corneafit import ModelParams, RadialGrid, solve
from corneafit.data import _write_csv

params = ModelParams(a=2.0, b=2.0)
grid = RadialGrid.uniform(401)

# the report carries h0 and the first iterate h1, the two sides of the
# envelope A h1 <= h <= h0
report = solve(params, grid)
lower = report.envelope_constant_A * report.h1.h
upper = report.h0.h

print(f"parameters:        a = {params.a}, b = {params.b}")
print(f"iterations:        {report.iterations}")
print(f"final sup diff:    {report.final_sup_diff:.3e}")
print(f"ODE residual sup:  {report.residual_sup:.3e}")
print(f"envelope constant: A = {report.envelope_constant_A:.6f}")
print(f"envelope holds:    {report.envelope_ok}")
print(f"apex deflection:   h(0) = {report.profile.h[0]:.6f} "
      f"(linearized {upper[0]:.6f})")

margin_low = np.min(report.profile.h - lower)
margin_high = np.min(upper - report.profile.h)
print(f"sandwich margins:  min(h - A h1) = {margin_low:.3e}, "
      f"min(h0 - h) = {margin_high:.3e}")

_write_csv(
    "solution_envelopes.csv",
    ["r", "lower_A_h1", "h", "upper_h0"],
    [grid.nodes, lower, report.profile.h, upper],
)
print("wrote solution_envelopes.csv")
