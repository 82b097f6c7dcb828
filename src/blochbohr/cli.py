"""Command-line front end.

Every computation is exposed as a subcommand with deterministic CSV or JSON
output: ``theorem1``, ``theorem4``, ``theorem2-check``, ``theorem5-probe``,
``bombieri``, ``weight-check``, ``h-profile``, ``sharpness``, ``norms``.
CSV floats carry 9 significant digits (plot feeds); JSON floats use full
round-trip precision (regression feeds).  Exit code 0 means no error record;
domain and solver failures exit nonzero with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import (SolverConfig, bombieri_m_infty, cauchy_chain_check,
                     mobius_majorant_sup, theorem1_optimize, theorem1_root,
                     theorem4_expression, theorem4_sup, theorem4_upper_bound,
                     theorem5_ratios)
from .errors import BlochBohrError
from .extremal import verify_sharpness
from .norms import A_MAX, RadialSupReport, _series_radial_sup, weighted_bloch_norm
from .search import GridSpec
from .series import TruncatedSeries
from .weights import (criterion_check, find_admissible_r0, h_profile,
                      weight_from_token)

SQRT2 = float(np.sqrt(2.0))
DEFAULT_PROBE_SCALES = (0.3, 0.5, 1.0 / SQRT2, 0.9)


@dataclass(frozen=True)
class RunConfig:
    """Parsed global options of one CLI invocation."""

    fmt: str
    out: Optional[str]
    tol: Optional[float]
    grid: Optional[int]


def _fmt9(x) -> str:
    return format(float(x), ".9g")


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if cell is None:
        return ""
    if isinstance(cell, str):
        if "," in cell or '"' in cell:
            return '"' + cell.replace('"', '""') + '"'
        return cell
    return _fmt9(cell)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _deliver(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _render(cfg: RunConfig, report: dict, header: list[str],
            rows: Optional[list[list]] = None) -> None:
    """Write the report as JSON, or as CSV with the ``header`` columns.

    Without ``rows`` the CSV rows are read from the report: one per item of
    ``report["entries"]``, or else one from the report itself.
    """
    if cfg.fmt == "json":
        _deliver(cfg, _json(report))
        return
    if rows is None:
        rows = [[item[key] for key in header]
                for item in report.get("entries", [report])]
    _deliver(cfg, _csv(header, rows))


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig() if cfg.tol is None else SolverConfig(abs_tol=cfg.tol)


def _grid(cfg: RunConfig) -> GridSpec:
    return GridSpec() if cfg.grid is None else GridSpec(r_points=cfg.grid)


def _cmd_theorem1(cfg: RunConfig, args) -> int:
    solver = _solver_config(cfg)
    if args.optimize:
        s_star, r_star = theorem1_optimize(solver)
        report = {"command": "theorem1", "optimize": True,
                  "s_star": s_star, "r_star": r_star}
        _render(cfg, report, ["s_star", "r_star"])
        return 0
    if args.s is None:
        raise BlochBohrError("theorem1 needs --s <value> or --optimize")
    root = theorem1_root(args.s, solver)
    report = {"command": "theorem1", "s": args.s, "r": root}
    _render(cfg, report, ["s", "r"])
    return 0


def _cmd_theorem4(cfg: RunConfig, args) -> int:
    r_points = cfg.grid or 2048
    if args.search:
        solver = SolverConfig(abs_tol=cfg.tol or 1e-5,
                              bracket=(1.0 / SQRT2, 0.7691))
        scan = theorem4_upper_bound(solver, r_points=r_points)
        report = {"command": "theorem4", "search": True,
                  "upper_bound": scan.best_params["R"],
                  "best_value": scan.best_value,
                  "witness_a": scan.best_params["a"],
                  "witness_r": scan.best_params["r"],
                  "samples": scan.samples}
        _render(cfg, report,
                ["upper_bound", "best_value", "witness_a", "witness_r", "samples"])
        return 0
    if args.a is None or args.R is None:
        raise BlochBohrError("theorem4 needs --a and --R, or --search")
    value, witness = theorem4_sup(args.a, args.R, r_points)
    exceeded = value > 1.0 + 1e-9
    report = {"command": "theorem4", "a": args.a, "R": args.R,
              "sup_r": value, "witness_r": witness, "exceeded": exceeded}
    _render(cfg, report, ["a", "R", "sup_r", "witness_r", "exceeded"])
    return 0


def _cmd_theorem2_check(cfg: RunConfig, args) -> int:
    tol = cfg.tol or 1e-9
    a_grid = np.linspace(1e-6, A_MAX - 1e-9, args.a_points)
    r_grid = np.linspace(0.0, 1.0, cfg.grid or 2048)
    table = theorem4_expression(a_grid[:, None], 1.0 / SQRT2, r_grid[None, :])
    max_expr = float(table.max())

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
    passed = bool(max_expr <= 1.0 + 1e-9 and worst <= tol)
    report = {"command": "theorem2-check",
              "max_expression_at_sqrt2": max_expr,
              "chain_samples": args.samples,
              "max_chain_violation": float(worst),
              "passed": passed}
    _render(cfg, report,
            ["max_expression_at_sqrt2", "chain_samples", "max_chain_violation", "passed"])
    return 0 if passed else 1


def _cmd_theorem5_probe(cfg: RunConfig, args) -> int:
    scales = args.R or list(DEFAULT_PROBE_SCALES)
    grid = None
    if cfg.grid is not None:
        grid = GridSpec(r_points=cfg.grid, theta_points=1024)
    entries = []
    all_positive = True
    for scale in scales:
        ratios = theorem5_ratios(scale, grid=grid)
        best_name = max(ratios, key=ratios.get)
        bound = scale / float(np.sqrt(1.0 - scale * scale))
        gap = bound - ratios[best_name]
        all_positive = all_positive and gap > 0.0
        entries.append({"R": scale, "bound": bound, "best_ratio": ratios[best_name],
                        "best_member": best_name, "gap": gap})
    report = {"command": "theorem5-probe", "entries": entries,
              "all_gaps_positive": all_positive}
    _render(cfg, report, ["R", "bound", "best_ratio", "best_member", "gap"])
    return 0


def _cmd_bombieri(cfg: RunConfig, args) -> int:
    if args.r is not None:
        radii = [float(args.r)]
    else:
        radii = list(np.linspace(1.0 / 3.0, 1.0 / SQRT2, cfg.grid or 20))
    entries = []
    for r in radii:
        closed = bombieri_m_infty(r)
        realized = mobius_majorant_sup(r)
        cauchy = 1.0 / float(np.sqrt(1.0 - r * r))
        entries.append({"r": r, "m_infty": closed, "mobius_sup": realized,
                        "cauchy_bound": cauchy})
    report = {"command": "bombieri", "entries": entries}
    _render(cfg, report, ["r", "m_infty", "mobius_sup", "cauchy_bound"])
    return 0


def _cmd_weight_check(cfg: RunConfig, args) -> int:
    w = weight_from_token(args.weight)
    tol = cfg.tol if cfg.tol is not None else 1e-12
    grid = None
    if cfg.grid is not None:
        grid = GridSpec(r_points=cfg.grid, r_max=1.0 - 1e-6)
    if args.r0 is not None:
        rep = criterion_check(w, args.r0, grid=grid, tol=tol)
        report = {"command": "weight-check", "weight": args.weight, "r0": rep.r0,
                  "passed": rep.passed, "worst_margin": rep.worst_margin,
                  "violation_witness": rep.violation_witness}
        _render(cfg, report,
                ["weight", "r0", "passed", "worst_margin", "violation_witness"])
        return 0
    found = find_admissible_r0(w, grid=grid, tol=tol)
    if found is None:
        report = {"command": "weight-check", "weight": args.weight,
                  "found": False, "r0": None}
        _render(cfg, report, ["weight", "found", "r0"])
        return 0
    r0, rep = found
    report = {"command": "weight-check", "weight": args.weight, "found": True,
              "r0": r0, "passed": rep.passed, "worst_margin": rep.worst_margin}
    _render(cfg, report, ["weight", "found", "r0", "passed", "worst_margin"])
    return 0


def _cmd_h_profile(cfg: RunConfig, args) -> int:
    n = args.n or cfg.grid or 512
    table = h_profile(args.r0, n_points=n)
    report = {"command": "h-profile", "r0": args.r0,
              "columns": ["r", "omega1", "omega2", "h"],
              "rows": [[float(v) for v in row] for row in table]}
    _render(cfg, report, report["columns"], report["rows"])
    return 0


def _cmd_sharpness(cfg: RunConfig, args) -> int:
    w = weight_from_token(args.weight)
    grid = None
    if cfg.grid is not None:
        grid = GridSpec(r_points=cfg.grid, r_max=1.0 - 1e-6)
    rep = verify_sharpness(w, args.r0, grid=grid)
    gap_tol = cfg.tol if cfg.tol is not None else 1e-9
    witness_tol = 2.0 * rep.grid_step
    witnesses_ok = (abs(rep.lhs_witness_r - rep.r0) <= witness_tol
                    and abs(rep.rhs_witness_r - rep.r0) <= witness_tol)
    passed = rep.relative_gap <= gap_tol and witnesses_ok
    verdict = "PASS" if passed else "FAIL"
    # human-readable verdict on stderr; stdout carries only the report
    sys.stderr.write(
        f"sharpness {verdict}: witnesses {_fmt9(rep.lhs_witness_r)} "
        f"{_fmt9(rep.rhs_witness_r)} (anchor {_fmt9(rep.r0)}, "
        f"relative gap {rep.relative_gap:.3e})\n")
    report = dict(rep.to_json_dict(), command="sharpness", weight=args.weight,
                  passed=passed)
    _render(cfg, report,
            ["weight", "r0", "lhs_sup", "rhs_sup", "lhs_witness_r",
             "rhs_witness_r", "relative_gap", "passed"])
    return 0 if passed else 1


def _cmd_norms(cfg: RunConfig, args) -> int:
    if args.series:
        series = TruncatedSeries.from_json_dict(
            json.loads(Path(args.series).read_text()))
    elif args.coeffs:
        values = [float(tok) for tok in args.coeffs.split(",")]
        series = TruncatedSeries.polynomial(values)
    else:
        raise BlochBohrError("norms needs --series <path> or --coeffs <list>")
    w = weight_from_token(args.weight)
    grid = _grid(cfg)
    norm = weighted_bloch_norm(series, w, grid)
    sup = RadialSupReport(*_series_radial_sup(series, w, grid), grid=grid)
    report = {"command": "norms", "weight": args.weight, "bloch_norm": norm,
              "radial_sup": sup.to_json_dict()}
    _render(cfg, report,
            ["weight", "bloch_norm", "sup_value", "witness_r", "witness_theta"],
            [[args.weight, norm, sup.value, sup.witness_r, sup.witness_theta]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    shared.add_argument("--out", metavar="PATH", help="write output to a file")
    shared.add_argument("--tol", type=float, help="override the main tolerance")
    shared.add_argument("--grid", type=int, metavar="COUNT",
                        help="override the main scan resolution")

    parser = argparse.ArgumentParser(
        prog="blochbohr",
        description="Bohr radii of weighted Bloch spaces: bounds, weight "
                    "criteria, extremal functions, and majorant suprema.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theorem1", parents=[shared],
                       help="lower bound for the Bloch-to-bounded Bohr radius")
    p.add_argument("--s", type=float, help="exponent in (0, 1)")
    p.add_argument("--optimize", action="store_true",
                   help="maximize the root over the exponent")
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("theorem4", parents=[shared],
                       help="upper-bound certificate for the Bloch-space Bohr radius")
    p.add_argument("--a", type=float, help="test-function parameter in (0, 1/sqrt(3))")
    p.add_argument("--R", type=float, help="majorant scale")
    p.add_argument("--search", action="store_true",
                   help="bisect for the least scale exceeding 1")
    p.set_defaults(handler=_cmd_theorem4)

    p = sub.add_parser("theorem2-check", parents=[shared],
                       help="consistency of the sqrt(2) lower bound and the "
                            "Cauchy-Schwarz chain")
    p.add_argument("--samples", type=int, default=200,
                   help="random chain samples (default 200)")
    p.add_argument("--a-points", type=int, default=200,
                   help="parameter grid for the scale-1/sqrt(2) scan")
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
    p.add_argument("--n", type=int, help="sample count (default 512)")
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
    cfg = RunConfig(fmt=args.format, out=args.out, tol=args.tol, grid=args.grid)
    try:
        return args.handler(cfg, args)
    except BlochBohrError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
