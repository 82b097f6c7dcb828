"""The Bloch-to-bounded lower bound as a one-parameter root family.

For every exponent s in (0, 1) the radius r(s) solves

    log(1 - r^{2s}) = (r^{2(1-s)} - 1) / r^{2(1-s)},

and each r(s) is a valid lower bound for the Bohr radius from the Bloch
space to bounded functions.  Maximizing over s gives 0.5637769 at
s = 0.3337112 (the envelope condition reduces the maximization to
2 ln r + r^-2 = 2; the paper prints s = 0.333771, which looks like a
transposition of 0.333711); the special case s = 1/2 reduces to the older
equation 1 - r + r log(1 - r) = 0 with root 0.55356.
"""

import numpy as np

from blochbohr import theorem1_optimize, theorem1_root

print("radius as a function of the exponent:")
for s in (0.15, 0.25, 0.333771, 0.45, 0.5, 0.7):
    print(f"  s = {s:<9} r(s) = {theorem1_root(s):.9f}")

s_star, r_star = theorem1_optimize()
print(f"\nbest exponent  s* = {s_star:.6f}")
print(f"best radius    r* = {r_star:.6f}")

old = theorem1_root(0.5)
print(f"\ns = 1/2 root       {old:.6f}  (the previously known constant)")
print(f"improvement        {r_star - old:.6f}")

# sanity: the s = 1/2 root satisfies 1 - r + r log(1 - r) = 0
residual = 1.0 - old + old * np.log(1.0 - old)
print(f"1 - r + r log(1-r) at the s=1/2 root: {residual:.2e}")
