"""Command-line front end.

Every computation is exposed as a subcommand with deterministic CSV or JSON
output: ``theorem1``, ``theorem4``, ``theorem2-check``, ``theorem5-probe``,
``bombieri``, ``weight-check``, ``h-profile``, ``sharpness``, ``norms``.
CSV floats carry 9 significant digits (plot feeds); JSON floats use full
round-trip precision (regression feeds).  Exit code 0 means no error record;
domain and solver failures exit nonzero with a message on stderr.  Scans and
solvers run at the library's fixed sizes and tolerances; only ``h-profile
--n`` sets a size.  Each handler imports the layers it calls, so a subcommand
loads no other: the parser's defaults come from ``search``, and only
theorem2-check and norms load numpy.  Reports are NamedTuples, read with
``_asdict``, so no subcommand loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import BlochBohrError, ParameterDomainError
from .search import PROFILE_POINTS, R_POINTS, SQRT2, grid

#: the CLI's own values: the ``theorem5-probe`` scales without --R, the radii of
#: the ``bombieri`` table without --r, the largest chain violation of a
#: ``theorem2-check`` pass and the largest relative gap of a ``sharpness`` PASS
DEFAULT_PROBE_SCALES = (0.3, 0.5, 1.0 / SQRT2, 0.9)
BOMBIERI_RADII = 20
CHAIN_TOL = 1e-9
SHARPNESS_GAP = 1e-9


def _fmt9(x) -> str:
    return format(float(x), ".9g")


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return str(cell)
    if cell is None:
        return ""
    if isinstance(cell, str):
        if "," in cell or '"' in cell:
            return '"' + cell.replace('"', '""') + '"'
        return cell
    return _fmt9(cell)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)] + [",".join(_csv_cell(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _deliver(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _render(args, report: dict, header: list[str],
            rows: list[list] | None = None) -> None:
    """Write the report as JSON, or as CSV with the ``header`` columns.

    Without ``rows`` the CSV rows are read from the report: one per item of
    ``report["entries"]``, or else one from the report itself.
    """
    if args.format == "json":
        _deliver(args, _json(report))
        return
    if rows is None:
        rows = [[item[key] for key in header]
                for item in report.get("entries", [report])]
    _deliver(args, _csv(header, rows))


def _cmd_theorem1(args) -> int:
    from .bounds import theorem1_optimize, theorem1_root
    if args.optimize:
        s_star, r_star = theorem1_optimize()
        report = {"command": "theorem1", "optimize": True,
                  "s_star": s_star, "r_star": r_star}
        _render(args, report, ["s_star", "r_star"])
        return 0
    if args.s is None:
        raise BlochBohrError("theorem1 needs --s <value> or --optimize")
    root = theorem1_root(args.s)
    report = {"command": "theorem1", "s": args.s, "r": root}
    _render(args, report, ["s", "r"])
    return 0


def _cmd_theorem4(args) -> int:
    from .bounds import EXCEED_THRESHOLD, theorem4_sup, theorem4_upper_bound
    if args.search:
        scan = theorem4_upper_bound()
        report = dict(command="theorem4", search=True, **scan._asdict())
        _render(args, report,
                ["upper_bound", "best_value", "witness_a", "witness_r", "samples"])
        return 0
    if args.a is None or args.R is None:
        raise BlochBohrError("theorem4 needs --a and --R, or --search")
    value, witness = theorem4_sup(args.a, args.R)
    exceeded = value > EXCEED_THRESHOLD
    report = {"command": "theorem4", "a": args.a, "R": args.R,
              "sup_r": value, "witness_r": witness, "exceeded": exceeded}
    _render(args, report, ["a", "R", "sup_r", "witness_r", "exceeded"])
    return 0


def _cmd_theorem2_check(args) -> int:
    import numpy as np
    from .bounds import EXCEED_THRESHOLD, THEOREM4_A_GRID, cauchy_chain_check, theorem4_expression
    from .series import TruncatedSeries
    from .weights import weight_from_token
    if args.samples < 1:
        raise ParameterDomainError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ParameterDomainError(f"--seed must be nonnegative, got {args.seed}")
    r_grid = np.asarray(grid(0.0, 1.0, R_POINTS))
    max_expr = max(float(theorem4_expression(rows[:, None], 1.0 / SQRT2, r_grid).max())
                   for rows in np.split(np.asarray(THEOREM4_A_GRID), 8))  # small temporaries

    rng = np.random.default_rng(args.seed)
    weights = [weight_from_token(t) for t in
               ("standard", "constant", "example2:r0=0.8,alpha=2",
                "example3:r0=0.75,alpha=1")]
    worst = -np.inf
    for k in range(args.samples):
        degree = int(rng.integers(1, 17))
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        series = TruncatedSeries.polynomial(coeffs)
        w = weights[k % len(weights)]
        scale = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.95))
        v1, v2, v3 = cauchy_chain_check(series, w, scale, r)
        worst = max(worst, v1 - v2, v2 - v3)
    passed = bool(max_expr <= EXCEED_THRESHOLD and worst <= CHAIN_TOL)
    report = {"command": "theorem2-check",
              "max_expression_at_sqrt2": max_expr,
              "chain_samples": args.samples,
              "max_chain_violation": float(worst),
              "passed": passed}
    _render(args, report,
            ["max_expression_at_sqrt2", "chain_samples", "max_chain_violation", "passed"])
    return 0 if passed else 1


def _cmd_theorem5_probe(args) -> int:
    from .bounds import best_test_ratio
    scales = args.R or list(DEFAULT_PROBE_SCALES)
    entries = []
    all_positive = True
    for scale in scales:
        ratio, a, r = best_test_ratio(scale)
        bound = scale / math.sqrt(1.0 - scale * scale)
        gap = bound - ratio
        all_positive = all_positive and gap > 0.0
        entries.append({"R": scale, "bound": bound, "best_ratio": ratio,
                        "witness_a": a, "witness_r": r, "gap": gap})
    report = {"command": "theorem5-probe", "entries": entries,
              "all_gaps_positive": all_positive}
    _render(args, report, ["R", "bound", "best_ratio", "witness_a", "witness_r", "gap"])
    return 0


def _cmd_bombieri(args) -> int:
    from .bounds import bombieri_m_infty, mobius_majorant_sup
    radii = [args.r] if args.r is not None else grid(1 / 3, 1 / SQRT2, BOMBIERI_RADII)
    entries = []
    for r in radii:
        closed = bombieri_m_infty(r)
        realized = mobius_majorant_sup(r)
        cauchy = 1.0 / math.sqrt(1.0 - r * r)
        entries.append({"r": r, "m_infty": closed, "mobius_sup": realized,
                        "cauchy_bound": cauchy})
    report = {"command": "bombieri", "entries": entries}
    _render(args, report, ["r", "m_infty", "mobius_sup", "cauchy_bound"])
    return 0


def _cmd_weight_check(args) -> int:
    from .weights import criterion_check, find_admissible_r0, weight_from_token
    w = weight_from_token(args.weight)
    if args.r0 is not None:
        rep = criterion_check(w, args.r0)
        report = {"command": "weight-check", "weight": args.weight, "r0": rep.r0,
                  "passed": rep.passed, "worst_margin": rep.worst_margin,
                  "violation_witness": rep.violation_witness}
        _render(args, report,
                ["weight", "r0", "passed", "worst_margin", "violation_witness"])
        return 0
    found = find_admissible_r0(w)
    if found is None:
        report = {"command": "weight-check", "weight": args.weight,
                  "found": False, "r0": None}
        _render(args, report, ["weight", "found", "r0"])
        return 0
    r0, rep = found
    report = {"command": "weight-check", "weight": args.weight, "found": True,
              "r0": r0, "passed": rep.passed, "worst_margin": rep.worst_margin}
    _render(args, report, ["weight", "found", "r0", "passed", "worst_margin"])
    return 0


def _cmd_h_profile(args) -> int:
    from .weights import h_profile
    report = {"command": "h-profile", "r0": args.r0, "columns": ["r", "omega1", "omega2", "h"],
              "rows": h_profile(args.r0, n_points=args.n)}
    _render(args, report, report["columns"], report["rows"])
    return 0


def _cmd_sharpness(args) -> int:
    from .extremal import verify_sharpness
    from .weights import weight_from_token
    w = weight_from_token(args.weight)
    rep = verify_sharpness(w, args.r0)
    passed = rep.relative_gap <= SHARPNESS_GAP
    verdict = "PASS" if passed else "FAIL"
    # human-readable verdict on stderr; stdout carries only the report
    sys.stderr.write(
        f"sharpness {verdict}: witnesses {_fmt9(rep.lhs_witness_r)} "
        f"{_fmt9(rep.rhs_witness_r)} (anchor {_fmt9(rep.r0)}, "
        f"relative gap {rep.relative_gap:.3e})\n")
    report = dict(rep._asdict(), command="sharpness", weight=args.weight,
                  passed=passed)
    _render(args, report,
            ["weight", "r0", "lhs_sup", "rhs_sup", "lhs_witness_r",
             "rhs_witness_r", "relative_gap", "passed"])
    return 0 if passed else 1


def _read_series(args) -> TruncatedSeries:
    from .series import TruncatedSeries
    if not (args.series or args.coeffs):
        raise BlochBohrError("norms needs --series <path> or --coeffs <list>")
    try:
        if args.series:
            return TruncatedSeries.loads(Path(args.series).read_text())
        return TruncatedSeries.polynomial([float(tok) for tok in args.coeffs.split(",")])
    except BlochBohrError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ParameterDomainError(
            f"malformed series input ({type(exc).__name__}: {exc})") from exc


def _cmd_norms(args) -> int:
    from .norms import _series_radial_sup, weighted_bloch_norm
    from .weights import weight_from_token
    series = _read_series(args)
    w = weight_from_token(args.weight)
    norm = weighted_bloch_norm(series, w)
    sup = _series_radial_sup(series, w)
    report = {"command": "norms", "weight": args.weight, "bloch_norm": norm,
              "radial_sup": sup._asdict()}
    _render(args, report,
            ["weight", "bloch_norm", "sup_value", "witness_r", "witness_theta"],
            [[args.weight, norm, sup.value, sup.witness_r, sup.witness_theta]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    shared.add_argument("--out", metavar="PATH", help="write output to a file")

    parser = argparse.ArgumentParser(
        prog="blochbohr",
        description="Bohr radii of weighted Bloch spaces: bounds, weight "
                    "criteria, extremal functions, and majorant suprema.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theorem1", parents=[shared],
                       help="lower bound for the Bloch-to-bounded Bohr radius")
    p.add_argument("--s", type=float, help="exponent in [1e-4, 1 - 1e-4]")
    p.add_argument("--optimize", action="store_true",
                   help="maximize the root over the exponent")
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("theorem4", parents=[shared],
                       help="upper-bound certificate for the Bloch-space Bohr radius")
    p.add_argument("--a", type=float, help="test-function parameter in (0, 1/sqrt(3))")
    p.add_argument("--R", type=float, help="majorant scale")
    p.add_argument("--search", action="store_true",
                   help="Newton root on R for the least scale exceeding 1")
    p.set_defaults(handler=_cmd_theorem4)

    p = sub.add_parser("theorem2-check", parents=[shared],
                       help="consistency of the sqrt(2) lower bound and the "
                            "Cauchy-Schwarz chain")
    p.add_argument("--samples", type=int, default=200,
                   help="random chain samples (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_theorem2_check)

    p = sub.add_parser("theorem5-probe", parents=[shared],
                       help="strictness probe of the Bloch majorant bound")
    p.add_argument("--R", type=float, action="append",
                   help="scale to probe (repeatable; default four canonical scales)")
    p.set_defaults(handler=_cmd_theorem5_probe)

    p = sub.add_parser("bombieri", parents=[shared],
                       help="closed form and Mobius realization of the bounded-"
                            "function majorant supremum")
    p.add_argument("--r", type=float, help="single radius in [1/3, 1/sqrt(2)]")
    p.set_defaults(handler=_cmd_bombieri)

    p = sub.add_parser("weight-check", parents=[shared],
                       help="admissibility criterion for a weight")
    p.add_argument("--weight", required=True,
                   help="standard | constant | example2:r0=..,alpha=.. | "
                        "example3:r0=..,alpha=..")
    p.add_argument("--r0", type=float, help="anchor radius; omit to auto-search")
    p.set_defaults(handler=_cmd_weight_check)

    p = sub.add_parser("h-profile", parents=[shared],
                       help="tabulate the criterion bounds and their minimum")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--n", type=int, default=PROFILE_POINTS,
                   help="sample count (default %(default)s)")
    p.set_defaults(handler=_cmd_h_profile)

    p = sub.add_parser("sharpness", parents=[shared],
                       help="verify the sharpness identity for a weight at r0")
    p.add_argument("--weight", required=True)
    p.add_argument("--r0", type=float, required=True)
    p.set_defaults(handler=_cmd_sharpness)

    p = sub.add_parser("norms", parents=[shared],
                       help="weighted Bloch norm and radial sup of a series")
    p.add_argument("--series", metavar="PATH",
                   help="JSON series file: {\"coeffs\": [[re, im], ...], \"tail\": ...}")
    p.add_argument("--coeffs", metavar="LIST",
                   help="inline real polynomial coefficients, comma-separated")
    p.add_argument("--weight", default="standard")
    p.set_defaults(handler=_cmd_norms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BlochBohrError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
