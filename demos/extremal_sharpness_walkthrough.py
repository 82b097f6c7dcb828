"""The degree-one Blaschke extremal and the sharpness identity.

The Mobius map

    f(z) = (z/r0 - 1/sqrt(2)) / (1 - z/(sqrt(2) r0))

is the candidate extremal of the sqrt(2) Bohr inequality at anchor r0.  Its
structure is fully explicit: |a_n| r0^n = (1/sqrt(2))^{n+1}, its Blaschke
degree is exactly 1, its majorant sum at radius r/sqrt(2) is
(1/sqrt(2))/(1 - r/(2 r0)), and with x = r/r0 its circle maximum is
(x + 1/sqrt(2))/(1 + x/sqrt(2)) up to the anchor and
|x - 1/sqrt(2)|/|1 - x/sqrt(2)| beyond it.  For a weight that passes the
criterion at r0 the majorant side of the identity peaks at r0; the sup side
peaks there too only when the weight falls fast enough past r0.
"""

import numpy as np

from blochbohr import (ExtremalSpec, blaschke_degree, blaschke_degree_montecarlo,
                       builtin_weight, extremal_coefficients, extremal_eval,
                       extremal_majorant_sum, extremal_sup_modulus,
                       verify_sharpness)

spec = ExtremalSpec(r0=0.8)
series = extremal_coefficients(spec)

print("low-order coefficient moduli and the law |a_n| r0^n sqrt(2)^(n+1) = 1:")
for k in range(6):
    m = abs(series.coeffs[k])
    residual = m * 0.8 ** k * np.sqrt(2.0) ** (k + 1) - 1.0
    print(f"  |a_{k}| = {m:.7f}   law residual {residual:+.1e}")

print("\nvalues: f(0) =", extremal_eval(spec, 0.0),
      " f(-r0) =", extremal_eval(spec, -0.8))

# the area formula gives the Blaschke degree from the coefficients alone,
# and a Monte-Carlo disc integral confirms it independently
print("degree (coefficient formula):", blaschke_degree(series, 0.8))
print("degree (Monte-Carlo oracle): ",
      blaschke_degree_montecarlo(series, 0.8, samples=200_000))

# both sides of the sharpness identity, each a closed form polished at a
# root of its slope with r0 as a candidate.  example2 passes the criterion
# at r0 = 0.8 for every alpha >= 1, but the sup side peaks at r0 only for
# alpha >= (1 + sqrt(2))^2 (1 - r0)/r0
print(f"\nattainment threshold alpha = {(1.0 + np.sqrt(2.0)) ** 2 * 0.2 / 0.8:.4f}")
for alpha in (1.0, 2.0):
    rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=alpha), 0.8)
    print(f"alpha = {alpha}: majorant side sup {rep.lhs_sup:.12f} at r = {rep.lhs_witness_r}")
    print(f"             sup-norm side sup {rep.rhs_sup:.12f} at r = {rep.rhs_witness_r}")
    print(f"             relative gap {rep.relative_gap:.2e}")

# the closed forms at a few radii on both sides of the anchor
print("\nr      circle max   majorant sum (at r/sqrt(2))")
for r in (0.0, 0.4, 0.8, 0.85, 0.95):
    print(f"{r:.2f}   {extremal_sup_modulus(0.8, r):.7f}    "
          f"{extremal_majorant_sum(0.8, r):.7f}")
