"""A fixed unit of work that measures how fast the machine runs right now.

    python3 perfbench/yardstick.py

It imports no part of blochbohr, so no change to the program moves its time;
only the machine does.  Its mix follows the ops it stands beside: a fresh
interpreter and a numpy import (what every op pays first), then about as
long again of compute, part vectorised numpy (a polynomial over half a
million complex points and one FFT) and part scalar Python (Horner's rule
one point at a time).  run.py times a run of it between every two ops and
divides each op's time by the yardstick time around it, so a host that slows
down for minutes slows op and yardstick alike and the quotient stays put.
"""

import math

import numpy as np

# vectorised: one complex polynomial evaluation over half a million points
x = np.linspace(-0.9, 0.9, 1 << 19)
acc = float(np.abs(np.polyval(np.linspace(1.0, -1.0, 12), x + 0.5j * x)).max())
acc += float(np.abs(np.fft.fft(x[:1 << 16])).sum())
# scalar: Horner's rule one point at a time, as a golden-section polish does
coeffs = [complex(1.0 / (k + 1), 0.3 / (k + 2)) for k in range(24)]
for j in range(15000):
    z = complex(0.9 * math.cos(j * 0.0004), 0.9 * math.sin(j * 0.0004))
    h = 0j
    for a in coeffs:
        h = h * z + a
    acc = max(acc, abs(h))
print(f"{acc:.6e}")
