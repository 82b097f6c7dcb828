import json

import numpy as np
import pytest

from blochbohr.bounds import (THEOREM4_A_GRID, best_test_ratio, theorem1_optimize,
                              theorem1_root, theorem4_expression, theorem4_sup,
                              theorem4_upper_bound)
from blochbohr.cli import BOMBIERI_RADII, main
from blochbohr.extremal import verify_sharpness
from blochbohr.norms import _series_radial_sup, weighted_bloch_norm
from blochbohr.search import R_POINTS, grid
from blochbohr.series import TruncatedSeries
from blochbohr.weights import criterion_check, find_admissible_r0, h_profile, weight_from_token

SQRT2 = np.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    import csv
    import io
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


class TestTheorem1Command:
    def test_single_exponent(self, capsys):
        code, out, _ = run(capsys, "theorem1", "--s", "0.5")
        assert code == 0
        _, rows = csv_rows(out)
        assert abs(float(rows[0]["r"]) - 0.55356) < 1e-4

    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "theorem1", "--optimize", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["r_star"] - 0.563777) < 1e-5
        assert abs(report["s_star"] - 0.333771) < 1e-3

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "theorem1", "--s", "1.5")
        assert code == 1
        assert "error" in err

    def test_missing_mode(self, capsys):
        code, _, err = run(capsys, "theorem1")
        assert code == 1 and "needs" in err


class TestTheorem4Command:
    def test_certificate(self, capsys):
        code, out, _ = run(capsys, "theorem4", "--a", "0.35", "--R", "0.769")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["exceeded"] == "true"
        assert float(rows[0]["sup_r"]) > 1.0

    def test_no_certificate_at_sqrt2(self, capsys):
        code, out, _ = run(capsys, "theorem4", "--a", "0.35", "--R", "0.70710678")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["exceeded"] == "false"

    def test_search(self, capsys):
        code, out, _ = run(capsys, "theorem4", "--search", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert 1.0 / SQRT2 <= report["upper_bound"] <= 0.7691

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "theorem4", "--a", "0.8", "--R", "0.7")
        assert code == 1 and "error" in err


class TestBombieriCommand:
    def test_single_radius(self, capsys):
        code, out, _ = run(capsys, "bombieri", "--r", "0.70710678")
        assert code == 0
        _, rows = csv_rows(out)
        assert abs(float(rows[0]["m_infty"]) - SQRT2) < 1e-6

    def test_table_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "bombieri")
        assert code == 0
        _, out2, _ = run(capsys, "bombieri")
        assert out1 == out2
        header, rows = csv_rows(out1)
        assert header == ["r", "m_infty", "mobius_sup", "cauchy_bound"]
        assert len(rows) == 20
        for row in rows:
            assert abs(float(row["m_infty"]) - float(row["mobius_sup"])) < 1e-6
            assert float(row["mobius_sup"]) <= float(row["cauchy_bound"]) + 1e-9

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bombieri", "--r", "0.9")
        assert code == 1 and "error" in err


class TestWeightCheckCommand:
    def test_constant_at_one(self, capsys):
        code, out, _ = run(capsys, "weight-check", "--weight", "constant",
                           "--r0", "1")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["passed"] == "true"

    def test_standard_autosearch_none(self, capsys):
        code, out, _ = run(capsys, "weight-check", "--weight", "standard")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["found"] == "false"

    def test_example_autosearch_finds_anchor(self, capsys):
        code, out, _ = run(capsys, "weight-check", "--weight",
                           "example3:r0=0.75,alpha=1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert abs(report["r0"] - 0.75) < 1e-6

    def test_standard_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "weight-check", "--weight", "standard",
                           "--r0", "0.8", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is False
        assert report["violation_witness"] is not None

    def test_bad_token(self, capsys):
        code, _, err = run(capsys, "weight-check", "--weight", "gauss")
        assert code == 1 and "error" in err


class TestHProfileCommand:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        code, out1, _ = run(capsys, "h-profile", "--r0", "0.8", "--n", "32")
        assert code == 0
        _, out2, _ = run(capsys, "h-profile", "--r0", "0.8", "--n", "32")
        assert out1 == out2
        header, rows = csv_rows(out1)
        assert header == ["r", "omega1", "omega2", "h"]
        anchor = [row for row in rows if abs(float(row["r"]) - 0.8) < 1e-12]
        assert anchor and float(anchor[0]["h"]) == 1.0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "h-profile", "--r0", "0.8", "--n", "8",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("r,omega1,omega2,h\n")


class TestSharpnessCommand:
    def test_example2_fails(self, capsys):
        code, out, err = run(capsys, "sharpness", "--weight",
                             "example2:r0=0.8,alpha=1", "--r0", "0.8")
        assert code == 1
        assert "sharpness FAIL" in err
        assert out == ('weight,r0,lhs_sup,rhs_sup,lhs_witness_r,rhs_witness_r,'
                       'relative_gap,passed\n"example2:r0=0.8,alpha=1",0.8,1,1.07368706,'
                       '0.8,0.858763852,0.0686299214,false\n')

    def test_example2_above_threshold_passes(self, capsys):
        code, out, err = run(capsys, "sharpness", "--weight",
                             "example2:r0=0.8,alpha=2", "--r0", "0.8", "--format", "json")
        assert code == 0
        assert "sharpness PASS" in err
        report = json.loads(out)
        assert report["passed"] is True
        assert report["lhs_witness_r"] == report["rhs_witness_r"] == report["r0"] == 0.8
        assert "grid_step" not in report

    def test_standard_precondition_error(self, capsys):
        code, _, err = run(capsys, "sharpness", "--weight", "standard",
                           "--r0", "0.8")
        assert code == 1
        assert "criterion" in err


class TestNormsCommand:
    def test_inline_coefficients(self, capsys):
        code, out, _ = run(capsys, "norms", "--coeffs", "0,1,0.5",
                           "--weight", "standard", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["bloch_norm"] - 32.0 / 27.0) < 1e-9
        assert report["radial_sup"]["witness_theta"] == 0.0

    def test_series_file(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(
            {"coeffs": [[0.0, 0.0], [1.0, 0.0]], "tail": {"rho": 0.0, "M": 0.0}}))
        code, out, _ = run(capsys, "norms", "--series", str(path),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["bloch_norm"] - 1.0) < 1e-9
        assert report["radial_sup"]["value"] == pytest.approx(
            2.0 / (3.0 * np.sqrt(3.0)), abs=1e-8)

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "norms")
        assert code == 1 and "error" in err

    def test_uncertified_series_file(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"coeffs": [[0.0, 0.0], [1.0, 0.0]],
                                    "tail": None}))
        code, _, err = run(capsys, "norms", "--series", str(path))
        assert code == 1 and "certification" in err


class TestProbeCommands:
    def test_theorem5_probe_single_scale(self, capsys):
        code, out, _ = run(capsys, "theorem5-probe", "--R", "0.5",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["all_gaps_positive"] is True
        assert report["entries"][0]["gap"] > 0.0

    def test_theorem5_probe_default_scales(self, capsys):
        code, out, _ = run(capsys, "theorem5-probe", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["all_gaps_positive"] is True
        ratios = [e["best_ratio"] for e in report["entries"]]
        assert ratios == pytest.approx([0.3, 0.5, 0.85575, 1.38846], abs=5e-6)
        for e in report["entries"]:
            assert 0.0 < e["witness_a"] < 1.0 / np.sqrt(3.0)
            assert 0.0 <= e["witness_r"] <= 1.0

    def test_theorem2_check(self, capsys):
        code, out, _ = run(capsys, "theorem2-check", "--samples", "25",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_expression_at_sqrt2"] <= 1.0 + 1e-9


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["fourier"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["theorem1", "--frobnicate"])
        assert exc.value.code == 2

    def test_json_floats_round_trip(self, capsys):
        code, out, _ = run(capsys, "bombieri", "--r", "0.5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["entries"][0]["m_infty"] == 2.0 * (3.0 - np.sqrt(6.0))

    def test_json_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "theorem1", "--s", "0.5", "--format", "json",
                           "--out", str(path))
        assert code == 0 and out == ""
        report = json.loads(path.read_text())
        assert abs(report["r"] - 0.55356) < 1e-4

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "blochbohr", "bombieri", "--r", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "m_infty" in proc.stdout


def _norms_report(coeffs, token="standard"):
    series, w = TruncatedSeries.polynomial(coeffs), weight_from_token(token)
    value, witness_r, witness_theta = _series_radial_sup(series, w)
    return {"bloch_norm": weighted_bloch_norm(series, w),
            "radial_sup": {"value": value, "witness_r": witness_r,
                           "witness_theta": witness_theta}}


def _criterion_report(token, r0):
    rep = criterion_check(weight_from_token(token), r0)
    return {"r0": rep.r0, "passed": rep.passed, "worst_margin": rep.worst_margin,
            "violation_witness": rep.violation_witness}


def _admissible_report(token):
    r0, rep = find_admissible_r0(weight_from_token(token))
    return {"found": True, "r0": r0, "passed": rep.passed, "worst_margin": rep.worst_margin}


def _table_max_at_sqrt2():
    # one broadcast over the whole table; the CLI takes it in blocks of a rows
    return float(theorem4_expression(np.asarray(THEOREM4_A_GRID)[:, None], 1.0 / SQRT2,
                                     grid(0.0, 1.0, R_POINTS)).max())


class TestOptionDefaults:
    """Handlers run the library at its defaults; out-of-range values are library
    errors; options a subcommand would not read are refused."""

    EX2 = "example2:r0=0.8,alpha=1"
    # each JSON report against the library call it makes, at the library defaults
    LIBRARY_CALLS = [
        (("theorem1", "--s", "0.5"), lambda: {"r": theorem1_root(0.5)}),
        (("theorem1", "--optimize"),
         lambda: dict(zip(("s_star", "r_star"), theorem1_optimize()))),
        (("theorem4", "--search"),
         lambda: dict(zip(("upper_bound", "best_value", "witness_a", "witness_r", "samples"),
                          theorem4_upper_bound()._asdict().values()))),
        (("theorem4", "--a", "0.35", "--R", "0.769"),
         lambda: dict(zip(("sup_r", "witness_r"), theorem4_sup(0.35, 0.769)))),
        (("theorem2-check", "--samples", "3"),
         lambda: {"max_expression_at_sqrt2": _table_max_at_sqrt2()}),
        (("theorem5-probe", "--R", "0.5"),
         lambda: {"entries": [dict(zip(("best_ratio", "witness_a", "witness_r"),
                                       best_test_ratio(0.5)))]}),
        (("bombieri",),
         lambda: {"entries": [{"r": r} for r in
                              np.linspace(1 / 3, 1 / SQRT2, BOMBIERI_RADII).tolist()]}),
        (("weight-check", "--weight", EX2, "--r0", "0.8"),
         lambda: _criterion_report(TestOptionDefaults.EX2, 0.8)),
        (("weight-check", "--weight", "standard", "--r0", "0.8"),
         lambda: _criterion_report("standard", 0.8)),
        (("weight-check", "--weight", EX2), lambda: _admissible_report(TestOptionDefaults.EX2)),
        (("h-profile", "--r0", "0.8"), lambda: {"rows": np.asarray(h_profile(0.8)).tolist()}),
        (("sharpness", "--weight", EX2, "--r0", "0.8"),
         lambda: verify_sharpness(weight_from_token(TestOptionDefaults.EX2), 0.8)._asdict()),
        (("norms", "--coeffs", "0,1,-0.5"), lambda: _norms_report([0.0, 1.0, -0.5])),
        (("norms", "--coeffs", "0.3,0.7,0.45", "--weight", EX2),
         lambda: _norms_report([0.3, 0.7, 0.45], TestOptionDefaults.EX2)),
    ]

    @pytest.mark.parametrize("argv,expected", LIBRARY_CALLS,
                             ids=[" ".join(argv) for argv, _ in LIBRARY_CALLS])
    def test_report_is_the_library_call_at_its_defaults(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code in (0, 1) and out
        report = json.loads(out)
        want = expected()
        if "entries" in want:
            assert len(report["entries"]) == len(want["entries"])
            for got, row in zip(report["entries"], want["entries"]):
                assert {key: got[key] for key in row} == row
        else:
            assert {key: report[key] for key in want} == want

    @pytest.mark.parametrize("argv", [
        ("theorem2-check", "--samples", "0"),
        ("h-profile", "--r0", "0.8", "--n", "0"),
        ("norms", "--coeffs", "0,x"),
        ("norms", "--coeffs", ","),
        ("norms", "--series", "truncated.json"),
        ("norms", "--series", "no-coeffs.json"),
        ("norms", "--series", "nan-tail.json"),
        ("norms", "--coeffs=1e308,1e308"),
        ("weight-check", "--weight", "example3:r0=0.75,alpha=nan", "--r0", "0.75"),
        ("weight-check", "--weight", "example3:r0=0.75,alpha=nan", "--r0", "0.75",
         "--format", "json"),
        ("weight-check", "--weight", "example2:r0=0.8,alpha=nan"),
        ("weight-check", "--weight", "example2:r0=0.8,alpha=inf"),
        ("weight-check", "--weight", "example3:alpha=2"),
        ("weight-check", "--weight", "example2"),
        ("theorem4", "--a", "nan", "--R", "0.769"),
        ("theorem4", "--a", "0.35", "--R", "nan"),
        ("theorem4", "--a", "0.35", "--R", "inf"),
        ("theorem4", "--a", "0.35", "--R", "0"),
        ("theorem4", "--a", "1e-200", "--R", "0.5"),
        ("theorem4", "--a", "0.35", "--R", "3"),
        ("theorem2-check", "--samples", "3", "--seed", "-1"),
        ("theorem1", "--s", "0.00001"),
        ("theorem1", "--s", "0.99999"),
        ("weight-check", "--weight", "example2:r0=0.8,r0=0.95", "--r0", "0.8"),
        ("weight-check", "--weight", "example3:r0=0.75,alpha=1,alpha=2", "--r0", "0.75"),
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_inputs_are_library_errors(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "truncated.json").write_text('{"coeffs": [[0.0, 0.0], [1.0')
        (tmp_path / "no-coeffs.json").write_text('{"tail": {"rho": 0, "M": 0}}')
        (tmp_path / "nan-tail.json").write_text(
            '{"coeffs": [[0.0, 0.0], [1.0, 0.0]], "tail": {"rho": 0.5, "M": NaN}}')
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("h-profile", "--r0", "0.8", "--n", "{n}"),
    ], ids=["h-profile"])
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_scan_sizes_below_two_are_rejected_alike(self, capsys, argv, n):
        argv = [arg.format(n=n) for arg in argv]
        message = f"error: a scan needs at least 2 points, got {n}\n"
        assert run(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ("theorem1", "--s", "0.5", "--grid", "10"),
        ("theorem5-probe", "--R", "0.5", "--tol", "1"),
        ("theorem5-probe", "--R", "0.5", "--grid", "10"),
        ("theorem4", "--a", "0.35", "--R", "0.769", "--grid", "10"),
        ("theorem4", "--search", "--grid", "10"),
        ("bombieri", "--tol", "1"),
        ("h-profile", "--r0", "0.8", "--tol", "1"),
        ("norms", "--coeffs", "0,1", "--tol", "1"),
        ("h-profile", "--r0", "0.8", "--grid", "10"),
        ("theorem2-check", "--a-points", "200"),
        ("theorem1", "--s", "0.5", "--tol", "1e-10"),
        ("theorem4", "--search", "--tol", "1e-5"),
        ("theorem2-check", "--samples", "3", "--tol", "1e-9"),
        ("weight-check", "--weight", "standard", "--tol", "1e-12"),
        ("sharpness", "--weight", "constant", "--r0", "1", "--tol", "1e-9"),
        ("theorem2-check", "--samples", "3", "--grid", "2048"),
        ("bombieri", "--grid", "20"),
        ("weight-check", "--weight", "standard", "--grid", "10000"),
        ("sharpness", "--weight", "constant", "--r0", "1", "--grid", "10000"),
        ("norms", "--coeffs", "0,1", "--grid", "2048"),
    ], ids=lambda argv: " ".join(argv))
    def test_ignored_options_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
