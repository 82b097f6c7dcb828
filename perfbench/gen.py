"""Seeded inputs for the benchmark workloads.

``make_ops(workload, seed, input_dir)`` returns the op list of one workload:
the argv of each ``python -m blochbohr`` invocation plus the parameters its
reference check needs.  Series inputs are written as JSON files into
``input_dir``.  The same (workload, seed) always gives the same argv lists
and byte-identical files; the program sees nothing but these inputs.

Seeded parameters are drawn so that the cost of one pass over the op list
barely depends on the seed: a parameter the cost grows with is drawn inside
a narrow stratum (series order) or as an antithetic pair u and 1 - u
(criterion anchors), so the pass total and the median op stay put while
every seed still gets fresh inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("probe", "norms", "criterion", "bounds")

SQRT2 = math.sqrt(2.0)

#: scales ``theorem5-probe`` probes when no --R is given
DEFAULT_PROBE_SCALES = (0.3, 0.5, 1.0 / SQRT2, 0.9)

#: anchors of the example weights
R0_RANGE = (0.71, 0.99)
ALPHA_RANGE = (1.0, 4.0)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``python -m blochbohr *argv``, and its check."""

    op_id: int
    argv: tuple
    check: dict

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _num(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}f}"


def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 6) -> tuple[str, float]:
    """A seeded decimal literal in [lo, hi] and the float the program will parse."""
    text = _num(rng.uniform(lo, hi), digits)
    return text, float(text)


def _weight_token(rng: random.Random, kind: str, r0: float | None = None) -> str:
    if kind in ("standard", "constant"):
        return kind
    if r0 is None:
        r0 = rng.uniform(*R0_RANGE)
    alpha = rng.uniform(*ALPHA_RANGE)
    return f"{kind}:r0={_num(r0, 4)},alpha={_num(alpha, 3)}"


def _probe(rng: random.Random, _dir: Path) -> list[tuple]:
    # the probe family's seminorms dominate and do not depend on the scales,
    # so both ops cost about the same whatever the seed
    argv, scales = ["theorem5-probe"], []
    for lo, hi in ((0.2, 0.575), (0.575, 0.95)):
        text, value = _uniform(rng, lo, hi, 4)
        argv += ["--R", text]
        scales.append(value)
    return [(("theorem5-probe",), {"kind": "probe", "scales": list(DEFAULT_PROBE_SCALES)}),
            (tuple(argv), {"kind": "probe", "scales": scales})]


def automorphism_coeffs(a: complex, order: int) -> list[complex]:
    """Coefficients of (a - z)/(1 - conj(a) z) up to z^order."""
    q = a.conjugate()
    return [a] + [-(1.0 - abs(a) ** 2) * q ** k for k in range(order)]


def extremal_coeffs(r0: float, phi: float, order: int) -> list[complex]:
    """Coefficients of (z/r0 - e^{i phi}/sqrt2)/(1 - e^{-i phi} z/(sqrt2 r0))."""
    rot = complex(math.cos(phi), math.sin(phi))
    q = rot.conjugate() / (SQRT2 * r0)
    return [-rot / SQRT2] + [q ** k / (2.0 * r0) for k in range(order)]


def _series_file(path: Path, coeffs: list[complex], rho: float, m: float) -> None:
    doc = {"coeffs": [[c.real, c.imag] for c in coeffs], "tail": {"rho": rho, "M": m}}
    path.write_text(json.dumps(doc))


def _norms(rng: random.Random, input_dir: Path) -> list[tuple]:
    ops = []
    # one series per order stratum, low to high; the strata are narrow so
    # that the cost of a pass, which grows with the order, hardly moves
    # with the seed, and the top one ends at order 64 so that a run has
    # room for two passes
    strata = ((8, 10, "automorphism", "standard"), (36, 40, "extremal", "example2"),
              (60, 64, "automorphism", "example3"))
    for lo, hi, kind, wkind in strata:
        order = rng.randint(lo, hi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if kind == "automorphism":
            modulus = rng.uniform(0.3, 0.9)
            a = complex(modulus * math.cos(phase), modulus * math.sin(phase))
            coeffs = automorphism_coeffs(a, order)
            rho, m = modulus, (1.0 - modulus ** 2) / modulus
            func = {"kind": kind, "a": [a.real, a.imag], "order": order}
        else:
            r0 = rng.uniform(0.75, 0.99)
            coeffs = extremal_coeffs(r0, phase, order)
            rho, m = 1.0 / (SQRT2 * r0), 1.0 / SQRT2
            func = {"kind": kind, "r0": r0, "phi": phase, "order": order}
        path = input_dir / f"series{len(ops)}_{kind}_{order}.json"
        _series_file(path, coeffs, rho, m)
        token = _weight_token(rng, wkind)
        ops.append((("norms", "--series", path.name, "--weight", token),
                    {"kind": "norms", "function": func, "weight": token}))
    for wkind in ("standard", "example3"):
        # degree 4 with a sign change in the derivative, so every seed takes
        # the general (FFT) path rather than the nonnegative shortcut
        coeffs = [round(rng.uniform(-1.0, 1.0), 4) for _ in range(5)]
        coeffs[1] = abs(coeffs[1]) or 0.5
        coeffs[2] = -abs(coeffs[2]) or -0.5
        coeffs[4] = coeffs[4] or 0.5
        token = _weight_token(rng, wkind)
        text = ",".join(_num(c, 4) for c in coeffs)
        ops.append((("norms", f"--coeffs={text}", "--weight", token),
                    {"kind": "norms", "function": {"kind": "polynomial", "coeffs": coeffs},
                     "weight": token}))
    return ops


def _criterion(rng: random.Random, _dir: Path) -> list[tuple]:
    u = rng.random()
    lo, hi = R0_RANGE
    anchors = {"example2": lo + u * (hi - lo), "example3": hi - u * (hi - lo)}
    tokens = {kind: _weight_token(rng, kind, r0) for kind, r0 in anchors.items()}
    ops = []
    for token in ("standard", "constant", tokens["example2"], tokens["example3"]):
        ops.append((("weight-check", "--weight", token),
                    {"kind": "weight-auto", "weight": token}))
    for kind, token in tokens.items():
        r0 = _num(anchors[kind], 4)
        ops.append((("weight-check", "--weight", token, "--r0", r0),
                    {"kind": "weight-anchored", "weight": token, "r0": float(r0)}))
        ops.append((("sharpness", "--weight", token, "--r0", r0), {"kind": "sharpness"}))
    text, r0 = _uniform(rng, *R0_RANGE, 4)
    ops.append((("weight-check", "--weight", "standard", "--r0", text),
                {"kind": "weight-anchored", "weight": "standard", "r0": r0}))
    n = rng.randint(256, 1024)
    text, r0 = _uniform(rng, *R0_RANGE, 4)
    ops.append((("h-profile", "--r0", text, "--n", str(n)),
                {"kind": "h-profile", "r0": r0, "n": n}))
    return ops


def _bounds(rng: random.Random, _dir: Path) -> list[tuple]:
    ops = []
    for _ in range(2):
        text, s = _uniform(rng, 0.1, 0.9)
        ops.append((("theorem1", "--s", text), {"kind": "theorem1", "s": s}))
    ops.append((("theorem1", "--optimize"), {"kind": "theorem1-optimize"}))
    for _ in range(2):
        a_text, a = _uniform(rng, 0.05, 0.55)
        r_text, scale = _uniform(rng, 0.6, 0.85)
        ops.append((("theorem4", "--a", a_text, "--R", r_text),
                    {"kind": "theorem4", "a": a, "R": scale}))
    ops.append((("theorem4", "--search"), {"kind": "theorem4-search"}))
    seed = rng.randrange(1_000_000)
    ops.append((("theorem2-check", "--seed", str(seed)), {"kind": "theorem2"}))
    for _ in range(2):
        text, r = _uniform(rng, 0.34, 0.70)
        ops.append((("bombieri", "--r", text), {"kind": "bombieri", "radii": [r]}))
    ops.append((("bombieri",), {"kind": "bombieri", "radii": None}))
    return ops


_BUILDERS = {"probe": _probe, "norms": _norms, "criterion": _criterion, "bounds": _bounds}


def make_ops(workload: str, seed: int, input_dir: Path) -> list[Op]:
    """The seeded op list of ``workload``; series files go to ``input_dir``.

    Every op asks for JSON output, whose floats round-trip exactly, so the
    reference checks can hold results to tolerances below CSV precision.
    Paths in argv are relative to ``input_dir``, the op's working directory.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    input_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    specs = _BUILDERS[workload](rng, input_dir)
    return [Op(i, tuple(argv) + ("--format", "json"), check)
            for i, (argv, check) in enumerate(specs)]
