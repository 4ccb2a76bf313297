"""Map the admissible (a, b) region and place published operating points.

Writes admissible_region.csv with both bound curves over a wide a-range.
"""

from corneafit import ModelParams, admissibility, lemma_b_max, theorem1_b_max
from corneafit.cli import cmd_bounds

PUBLISHED = [(2.07883, 2.76741), (1.94398, 2.27534)]

print("admissibility bounds (b must stay below both curves)")
print(f"{'a':>6}  {'theorem1_b_max':>15}  {'lemma_b_max':>12}")
for a in (0.5, 1.0, 2.0, 4.0, 8.0):
    print(f"{a:>6.2f}  {theorem1_b_max(a):>15.5f}  {lemma_b_max(a):>12.5f}")

print()
print("published calibration points:")
for a, b in PUBLISHED:
    report = admissibility(ModelParams(a=a, b=b))
    t_margin = report.theorem1_b_max - b
    l_margin = report.lemma_b_max - b
    status = "inside" if report.theorem1_ok and report.lemma_ok else "OUTSIDE"
    print(f"  (a, b) = ({a}, {b}): {status}; margins "
          f"theorem1 {t_margin:+.4f}, lemma {l_margin:+.4f}")

# the same table the `bounds` command writes
cmd_bounds(0.25, 8.0, n_samples=160, out_path="admissible_region.csv")
print()
print("wrote admissible_region.csv")
