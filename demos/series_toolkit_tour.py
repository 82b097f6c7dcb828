"""Tour of the series toolkit: certified evaluation, majorants, circle norms.

A TruncatedSeries stores Maclaurin coefficients a_0..a_N plus an optional
geometric tail certificate |a_n| <= M rho^n (n > N).  Everything downstream
(norms, suprema, degree formulas) rides on these certificates.
"""

import numpy as np

from blochbohr import (TruncatedSeries, builtin_weight, circle_norms, derivative,
                       eval_series, majorant, scale_argument, weighted_bloch_norm)

# A polynomial carries the exact tail (0, 0): every evaluation is certified.
poly = TruncatedSeries.polynomial([1.0, -1.0j, 0.5])
out = eval_series(poly, 0.3 + 0.4j)
print("polynomial value:", out.value, " truncation bound:", out.tail_bound)

# A truncated geometric series carries the honest certificate (q, 1).
q = 0.5
geo = TruncatedSeries(q ** np.arange(41), q, 1.0)
out = eval_series(geo, 0.9)
closed = 1.0 / (1.0 - q * 0.9)
print(f"geometric at 0.9: value {out.value.real:.15f}")
print(f"   closed form    {closed:.15f}")
print(f"   certified bound {out.tail_bound:.3e} covers the actual error "
      f"{abs(closed - out.value):.3e}")

# The majorant transform takes coefficient moduli; scaling the argument by R
# multiplies a_n by R^n.  The two commute.
m = majorant(poly)
print("majorant coefficients:", m.coeffs.real)
print("scaled by 1/sqrt(2):  ", scale_argument(m, 1 / np.sqrt(2)).coeffs.real)

# Circle norms at radius r: the angle-averaged L2 norm comes from Parseval,
# the sup norm from a 4096-point angle scan polished at a root of the angle
# derivative of |f|^2, and coeff_sum is the majorant value.  They always satisfy l2 <= sup <= sum.
cn = circle_norms(poly, 0.7)
print(f"at r=0.7: l2 {cn.l2_norm:.6f} <= sup {cn.sup_norm:.6f} "
      f"<= coeff_sum {cn.coeff_sum:.6f}")

# The weighted Bloch norm |a_0| + sup_r w(r) max_theta |f'| under the
# standard weight 1 - r^2.  For f = z^2 calculus gives 4/(3 sqrt(3)).
std = builtin_weight("standard")
z2 = TruncatedSeries.polynomial([0.0, 0.0, 1.0])
print("Bloch norm of z^2:", weighted_bloch_norm(z2, std),
      " expected:", 4.0 / (3.0 * np.sqrt(3.0)))
print("derivative of z^2:", derivative(z2).coeffs.real)
