"""Reference checks for op outputs, computed by the benchmark itself.

Every reference is derived here from the closed forms the paper states,
with numpy only and without importing blochbohr, so a check never compares
the program against itself or against a stored snapshot of its output.
``check_op`` returns None for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
A_MAX = 1.0 / math.sqrt(3.0)
R_MAX = 1.0 - 1e-6


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(x: float, ref: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    _expect(abs(x - ref) <= max(rel * abs(ref), abs_tol),
            f"{what}: {x!r} != reference {ref!r}")


# --- weights -----------------------------------------------------------------

def weight_fn(token: str):
    """The radial weight named by a CLI weight token, as a numpy callable."""
    kind, _, tail = token.partition(":")
    params = {k: float(v) for k, _, v in (p.partition("=") for p in tail.split(",") if p)}
    if kind == "standard":
        return lambda r: 1.0 - r * r
    if kind == "constant":
        return lambda r: np.ones_like(r)
    r0, alpha = params["r0"], params["alpha"]
    if kind == "example2":
        return lambda r: np.where(r <= r0, 1.0, (np.clip(1.0 - r, 0.0, None) / (1.0 - r0)) ** alpha)
    if kind == "example3":
        return lambda r: (1.0 - np.abs((r - r0) / (1.0 - r0 * r))) ** alpha
    raise ValueError(f"unknown weight {token!r}")


def _own_anchor(token: str):
    _, _, tail = token.partition(":")
    for item in tail.split(","):
        key, _, value = item.partition("=")
        if key == "r0":
            return float(value)
    return None


def criterion_margin(w, r0: float, r: np.ndarray) -> np.ndarray:
    """h(r) - w(r)/w(r0) with h = min(2 - r/r0, (sqrt2 r0 + r)/(sqrt2 r + r0))."""
    h = np.minimum(2.0 - r / r0, (SQRT2 * r0 + r) / (SQRT2 * r + r0))
    return h - w(r) / w(np.asarray(r0))


# --- closed forms --------------------------------------------------------------

def _geometric_partial(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k<n} w^k and d/dw of w * sum_{k<n} w^k, both in closed form."""
    wn = w ** n
    total = (1.0 - wn) / (1.0 - w)
    slope = (1.0 - (n + 1) * wn + n * wn * w) / (1.0 - w) ** 2
    return total, slope


def partial_sum(func: dict):
    """(S_N, S_N', a_0) of a series spec: its truncation to order N in closed form.

    The program evaluates the truncated series, so the reference is the
    truncation too: a geometric partial sum for the rational functions, the
    polynomial itself for inline coefficients.
    """
    kind = func["kind"]
    if kind == "polynomial":
        c = np.asarray(func["coeffs"], dtype=float)
        dc = np.polynomial.polynomial.polyder(c)
        return (lambda z: np.polynomial.polynomial.polyval(z, c),
                lambda z: np.polynomial.polynomial.polyval(z, dc), abs(float(c[0])))
    n = func["order"]
    if kind == "automorphism":
        a = complex(*func["a"])
        q, lead, a0 = a.conjugate(), -(1.0 - abs(a) ** 2), a
    elif kind == "extremal":
        rot = complex(math.cos(func["phi"]), math.sin(func["phi"]))
        q, lead, a0 = rot.conjugate() / (SQRT2 * func["r0"]), 1.0 / (2.0 * func["r0"]), -rot / SQRT2
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    f = lambda z: a0 + lead * z * _geometric_partial(q * z, n)[0]
    df = lambda z: lead * _geometric_partial(q * z, n)[1]
    return f, df, abs(a0)


def _weighted_modulus(g, w, r, theta) -> np.ndarray:
    return w(r) * np.abs(g(r * np.exp(1j * theta)))


def _zoom(g, w, rc: float, tc: float, dr: float, dt: float, best: float) -> float:
    """Climb to the local maximum near (rc, tc) on ever finer local grids.

    The window moves to the best point of each 21 x 21 grid and shrinks 4x
    only when that point is interior, so a peak on a diagonal ridge outside
    the first window is still reached.
    """
    for _ in range(80):
        rr = np.clip(np.linspace(rc - dr, rc + dr, 21), 0.0, R_MAX)
        tt = np.linspace(tc - dt, tc + dt, 21)
        v = _weighted_modulus(g, w, rr[:, None], tt[None, :])
        a, b = np.unravel_index(int(np.argmax(v)), v.shape)
        if v[a, b] > best:
            best, rc, tc = float(v[a, b]), float(rr[a]), float(tt[b])
        if 0 < b < 20 and (0 < a < 20 or rr[a] in (0.0, R_MAX)):
            dr, dt = dr / 4.0, dt / 4.0
            if dt < 1e-13:
                break
    return best


def disc_sup(g, w, r_points: int = 256, theta_points: int = 2048,
             starts: int = 8) -> tuple[float, float]:
    """(scan, polished) sup over r in [0, R_MAX], theta of w(r)|g(r e^{i theta})|.

    ``scan`` is the maximum over a uniform grid, a lower bound for the true
    supremum.  ``polished`` refines the ``starts`` highest local maxima of
    the grid and keeps the best, so two peaks of nearly equal height cannot
    hide the higher one.
    """
    r = np.linspace(0.0, R_MAX, r_points)
    th = np.linspace(0.0, 2.0 * np.pi, theta_points, endpoint=False)
    vals = _weighted_modulus(g, w, r[:, None], th[None, :])
    scan = float(vals.max())
    padded = np.pad(vals, ((1, 1), (0, 0)), constant_values=-np.inf)
    peak = np.ones(vals.shape, dtype=bool)
    for shift in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        peak &= vals >= np.roll(padded, shift, axis=(0, 1))[1:-1]
    flat = np.flatnonzero(peak)
    best = scan
    for k in flat[np.argsort(vals.ravel()[flat])[::-1][:starts]]:
        i, j = divmod(int(k), theta_points)
        best = max(best, _zoom(g, w, float(r[i]), float(th[j]), r[1] - r[0], th[1] - th[0],
                               float(vals[i, j])))
    return scan, best


def theorem4_expression(a, scale: float, r):
    """R (1 - r^2) (3 sqrt3 (1 - a^2)/2) ((R r - a)/(1 - a R r)^3 + 2a)."""
    x = scale * r
    return scale * (1.0 - r * r) * 1.5 * math.sqrt(3.0) * (1.0 - a * a) * (
        (x - a) / (1.0 - a * x) ** 3 + 2.0 * a)


def theorem4_dense_sup(a: float, scale: float) -> float:
    r = np.linspace(0.0, 1.0, 20001)
    v = theorem4_expression(a, scale, r)
    i = int(np.argmax(v))
    best, rc, step = float(v[i]), float(r[i]), r[1] - r[0]
    for _ in range(6):
        rr = np.clip(np.linspace(rc - step, rc + step, 201), 0.0, 1.0)
        vv = theorem4_expression(a, scale, rr)
        k = int(np.argmax(vv))
        if vv[k] >= best:
            best, rc = float(vv[k]), float(rr[k])
        step /= 100.0
    return best


def theorem1_residual(r: float, s: float) -> float:
    """log(1 - r^{2s}) - (r^{2(1-s)} - 1)/r^{2(1-s)}."""
    t = r ** (2.0 * (1.0 - s))
    return math.log1p(-(r ** (2.0 * s))) - (t - 1.0) / t


def theorem1_optimum() -> float:
    """Root of 2 ln r + r^-2 = 2, the envelope condition of the Theorem 1 optimum."""
    lo, hi = 0.3, 0.9  # g(0.3) > 0 > g(0.9) for g(r) = 2 ln r + r^-2 - 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * math.log(mid) + mid ** -2 - 2.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- per-command checks -------------------------------------------------------

def _check_theorem1(spec, rep):
    _close(rep["s"], spec["s"], 0.0, "echoed s")
    _expect(abs(theorem1_residual(rep["r"], spec["s"])) <= 1e-9, "root residual above 1e-9")


def _check_theorem1_optimize(spec, rep):
    _close(rep["r_star"], theorem1_optimum(), 0.0, "r*", abs_tol=1e-6)
    _expect(abs(theorem1_residual(rep["r_star"], rep["s_star"])) <= 1e-9,
            "r* does not solve the root equation at s*")


def _check_theorem4(spec, rep):
    a, scale = spec["a"], spec["R"]
    ref = theorem4_dense_sup(a, scale)
    _close(rep["sup_r"], ref, 1e-9, "sup_r vs dense scan")
    _close(theorem4_expression(a, scale, rep["witness_r"]), rep["sup_r"], 1e-12,
           "expression at witness_r")
    _expect(rep["exceeded"] == (rep["sup_r"] > 1.0 + 1e-9), "exceeded flag")


def _check_theorem4_search(spec, rep):
    scale, a, r = rep["upper_bound"], rep["witness_a"], rep["witness_r"]
    _expect(1.0 / SQRT2 < scale <= 0.7691, f"upper bound {scale!r} outside (1/sqrt2, 0.7691]")
    _expect(rep["best_value"] > 1.0, "certificate value not above 1")
    _close(theorem4_expression(a, scale, r), rep["best_value"], 1e-12, "value at witness")
    _close(theorem4_dense_sup(a, scale), rep["best_value"], 1e-9, "value vs dense scan")


def _check_theorem2(spec, rep):
    a = np.linspace(1e-6, A_MAX - 1e-9, 200)
    r = np.linspace(0.0, 1.0, 2048)
    ref = float(theorem4_expression(a[:, None], 1.0 / SQRT2, r[None, :]).max())
    _close(rep["max_expression_at_sqrt2"], ref, 1e-12, "max expression at 1/sqrt2")
    _expect(rep["chain_samples"] == 200, "chain sample count")
    passed = ref <= 1.0 + 1e-9 and rep["max_chain_violation"] <= 1e-9
    _expect(rep["passed"] == passed, "passed flag")


def _check_bombieri(spec, rep):
    radii = spec["radii"] or list(np.linspace(1.0 / 3.0, 1.0 / SQRT2, 20))
    entries = rep["entries"]
    _expect(len(entries) == len(radii), "entry count")
    for e, r in zip(entries, radii):
        _close(e["r"], r, 1e-15, "radius")
        m = (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r
        _close(e["m_infty"], m, 1e-12, f"m_infty at r={r}")
        _close(e["mobius_sup"], m, 1e-9, f"Mobius realization at r={r}")
        _close(e["cauchy_bound"], 1.0 / math.sqrt(1.0 - r * r), 1e-12, "Cauchy bound")


def _check_probe(spec, rep):
    entries = rep["entries"]
    _expect(len(entries) == len(spec["scales"]), "entry count")
    for e, scale in zip(entries, spec["scales"]):
        _close(e["R"], scale, 1e-15, "scale")
        bound = scale / math.sqrt(1.0 - scale * scale)
        _close(e["bound"], bound, 1e-12, f"bound at R={scale}")
        _close(e["gap"], bound - e["best_ratio"], 0.0, f"gap at R={scale}", abs_tol=1e-12)
        _expect(e["best_ratio"] >= scale - 1e-12, f"best ratio below R at R={scale}")
    _expect(rep["all_gaps_positive"] == all(e["gap"] > 0.0 for e in entries),
            "all_gaps_positive flag")


def _check_h_profile(spec, rep):
    r0, n = spec["r0"], spec["n"]
    radii = np.union1d(np.linspace(0.0, R_MAX, n), [r0])
    rows = np.asarray(rep["rows"], dtype=float)
    _expect(rep["columns"] == ["r", "omega1", "omega2", "h"], "column names")
    _expect(rows.shape == (radii.size, 4), f"row count {rows.shape[0]} != {radii.size}")
    r = rows[:, 0]
    w1 = 2.0 - r / r0
    w2 = (SQRT2 * r0 + r) / (SQRT2 * r + r0)
    _expect(np.allclose(r, radii, rtol=0.0, atol=1e-15), "r column")
    for col, ref, name in ((1, w1, "omega1"), (2, w2, "omega2"), (3, np.minimum(w1, w2), "h")):
        _expect(np.allclose(rows[:, col], ref, rtol=1e-12, atol=1e-15), f"{name} column")


def _check_sharpness(spec, rep, returncode):
    _expect((returncode == 0) == bool(rep["passed"]), "exit code disagrees with passed")


def _check_weight_anchored(spec, rep):
    w, r0 = weight_fn(spec["weight"]), spec["r0"]
    _close(rep["r0"], r0, 0.0, "echoed r0")
    margin = rep["worst_margin"]
    _expect(rep["passed"] == (margin >= -1e-12), "passed flag vs worst margin")
    scan = float(criterion_margin(w, r0, np.linspace(0.0, R_MAX, 20001)).min())
    _expect(margin <= scan + 1e-9, f"worst margin {margin!r} above scanned minimum {scan!r}")
    witness = rep["violation_witness"]
    if rep["passed"]:
        _expect(witness is None, "violation witness on a pass")
    else:
        _close(float(criterion_margin(w, r0, np.asarray(witness))), margin, 0.0,
               "margin at violation witness", abs_tol=1e-12)


def _check_weight_auto(spec, rep):
    w = weight_fn(spec["weight"])
    r = np.linspace(0.0, R_MAX, 4001)
    if not rep["found"]:
        anchors = list(np.linspace(1.0 / SQRT2, 1.0, 100))
        own = _own_anchor(spec["weight"])
        anchors += [own] if own is not None else []
        for r0 in anchors:
            w0 = float(w(np.asarray(r0)))
            _expect(w0 == 0.0 or criterion_margin(w, r0, r).min() < -1e-9,
                    f"criterion holds at r0={r0} but none was reported")
        return
    r0 = rep["r0"]
    _expect(1.0 / SQRT2 - 1e-12 <= r0 <= 1.0, f"anchor {r0!r} outside [1/sqrt2, 1]")
    _expect(rep["passed"] and rep["worst_margin"] >= -1e-12, "reported anchor does not pass")
    _expect(criterion_margin(w, r0, r).min() >= -1e-9, "criterion fails at the reported anchor")


def _check_norms(spec, rep):
    w = weight_fn(spec["weight"])
    f, df, a0 = partial_sum(spec["function"])
    sup = rep["radial_sup"]
    value, wr, wt = sup["value"], sup["witness_r"], sup["witness_theta"]
    scan, polished = disc_sup(f, w)
    _expect(value >= scan - 1e-9, f"radial sup {value!r} below closed-form scan {scan!r}")
    _expect(value <= polished + 1e-7 * max(1.0, polished),
            f"radial sup {value!r} above polished reference {polished!r}")
    _close(float(_weighted_modulus(f, w, np.asarray(wr), np.asarray(wt))), value, 1e-9,
           "weighted modulus at witness", abs_tol=1e-12)
    scan, polished = disc_sup(df, w)
    norm = rep["bloch_norm"]
    _expect(norm >= a0 + scan - 1e-9, f"Bloch norm {norm!r} below closed-form scan {a0 + scan!r}")
    _expect(norm <= a0 + polished + 1e-7 * max(1.0, a0 + polished),
            f"Bloch norm {norm!r} above polished reference {a0 + polished!r}")


_CHECKS = {
    "theorem1": _check_theorem1, "theorem1-optimize": _check_theorem1_optimize,
    "theorem4": _check_theorem4, "theorem4-search": _check_theorem4_search,
    "theorem2": _check_theorem2, "bombieri": _check_bombieri, "probe": _check_probe,
    "h-profile": _check_h_profile, "weight-anchored": _check_weight_anchored,
    "weight-auto": _check_weight_auto, "norms": _check_norms,
}


def check_op(spec: dict, returncode: int, stdout: bytes):
    """None when the output of an op with check ``spec`` is right, else a reason."""
    try:
        rep = json.loads(stdout)
    except ValueError as exc:
        return f"exit {returncode}, stdout is not JSON: {exc}"
    try:
        if spec["kind"] == "sharpness":
            _check_sharpness(spec, rep, returncode)
        else:
            _expect(returncode == 0, f"exit code {returncode}")
            _CHECKS[spec["kind"]](spec, rep)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None
