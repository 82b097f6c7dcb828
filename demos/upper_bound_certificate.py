"""An explicit certificate pushing the Bloch-space Bohr radius below 0.769.

The test function (3 sqrt(3)/2) (1-a^2) (z-a)/(1-az)^3 has weighted sup
exactly 1 under 1 - r^2, yet its scaled majorant

    R (1-r^2) (3 sqrt(3)(1-a^2)/2) ((Rr-a)/(1-aRr)^3 + 2a)

exceeds 1 for suitable (a, R) - e.g. a = 0.35, R = 0.769 - so the Bohr
radius of the Bloch space is at most 0.769.  Combined with the sqrt(2)/2
lower bound this traps it in [0.7071..., 0.769...].  Bisecting on R finds
the least grid scale with a certificate.
"""

import numpy as np

from blochbohr import (avkhadiev_coefficients, avkhadiev_eval, builtin_weight,
                       theorem4_sup, theorem4_upper_bound, weighted_radial_sup)

std = builtin_weight("standard")

# the test function is normalized: weighted radial sup = 1
rep = weighted_radial_sup(lambda z: avkhadiev_eval(0.35, z), std)
print(f"weighted sup of the test function (a=0.35): {rep.value:.12f}")

# one negative then all-positive coefficients mean the majorant sum has the
# displayed closed form
series = avkhadiev_coefficients(0.35)
print("first coefficients:", np.round(series.coeffs[:5].real, 6))

# the sup of the scaled majorant over r at the certificate point
for scale in (1.0 / np.sqrt(2.0), 0.73, 0.75, 0.769):
    value, witness = theorem4_sup(0.35, scale)
    flag = "EXCEEDS 1" if value > 1.0 + 1e-9 else "below 1"
    print(f"R = {scale:.6f}: sup_r = {value:.7f} at r = {witness:.4f}  ({flag})")

# the least certifying scale on a bisection grid
scan = theorem4_upper_bound()
print(f"\nleast certifying scale: R = {scan.upper_bound:.6f} "
      f"(witness a = {scan.witness_a:.4f}, r = {scan.witness_r:.4f})")
print(f"Bohr radius bracket: [{1.0 / np.sqrt(2.0):.6f}, {scan.upper_bound:.6f}]")
