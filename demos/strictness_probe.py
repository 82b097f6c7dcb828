"""Probing strictness of the Bloch majorant bound.

The gradient-seminorm ratio

    sup_r (1-r^2) max |(M_R f)'|  /  sup_r (1-r^2) max |f'|,

where M_R f = sum |a_n| (Rz)^n, never reaches R/sqrt(1-R^2).  The probe
tests the functions of the Theorem 4 certificate: for f' = g_a, the
unit-sup test function, the ratio is exactly theorem4_sup(a, R), so the
best ratio is a scan over a of exact sups over r.  Every scale must leave a positive gap;
only a negative gap would be decisive.
"""

import numpy as np

from blochbohr import best_test_ratio

print(f"{'R':>8} {'bound':>10} {'best ratio':>11} {'witness a':>10} {'gap':>10}")
for scale in (0.3, 0.5, 1.0 / np.sqrt(2.0), 0.7691, 0.9):
    bound = scale / np.sqrt(1.0 - scale * scale)
    ratio, a, _ = best_test_ratio(scale)
    print(f"{scale:8.4f} {bound:10.6f} {ratio:11.6f} {a:10.6f} {bound - ratio:10.6f}")

print("\nFor R <= 1/2 the best a sits at the edge 1/sqrt(3) near r = 0, where the")
print("ratio is R: the ratio of the identity map z.  At R = 0.7691 it passes 1,")
print("which is the Theorem 4 certificate seen from the probe side.")
