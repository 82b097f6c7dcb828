"""Which weights make the sqrt(2) Bohr inequality sharp?

A weight omega is admissible at an anchor r0 in [1/sqrt(2), 1] when

    omega(r)/omega(r0) <= h(r) := min(2 - r/r0, (sqrt(2) r0 + r)/(sqrt(2) r + r0))

for every r in [0, 1).  h has a corner at r0 (value 1) and is decreasing,
which rules out smooth weights: their ratio curve leaves the admissible
region on one side of the corner.  Piecewise weights built around r0 pass.
"""

import numpy as np

from blochbohr import (builtin_weight, criterion_check, find_admissible_r0,
                       h_profile)

# the h profile around an anchor: columns r, omega1, omega2, h
table = h_profile(0.8, n_points=9)
print("r        omega1   omega2   h")
for row in table:
    print("  ".join(f"{v:.5f}" for v in row))

# the anchor row is the corner: all columns equal 1
print()

# built-in weights against the criterion
cases = [
    ("constant", builtin_weight("constant"), 1.0),
    ("example2 (r0=0.8, alpha=1)", builtin_weight("example2", r0=0.8, alpha=1), 0.8),
    ("example3 (r0=0.75, alpha=2)", builtin_weight("example3", r0=0.75, alpha=2), 0.75),
    ("standard 1-r^2", builtin_weight("standard"), 0.8),
]
for name, w, r0 in cases:
    rep = criterion_check(w, r0)
    verdict = "PASS" if rep.passed else f"FAIL at r = {rep.violation_witness:.4f}"
    print(f"{name:<28} anchor {r0}: {verdict}  (worst margin {rep.worst_margin:+.3e})")

# the smooth standard weight fails at every anchor; the search reports none
print("\nanchor search:")
print("  standard ->", find_admissible_r0(builtin_weight("standard")))
found = find_admissible_r0(builtin_weight("example3", r0=0.75, alpha=1))
print(f"  example3(0.75) -> r0 = {found[0]:.6f}")
found = find_admissible_r0(builtin_weight("constant"))
print(f"  constant -> r0 = {found[0]:.6f} (the only admissible anchor is 1)")
