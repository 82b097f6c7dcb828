"""``norms`` prints exactly the checked-in CSV and JSON on both radial-sup paths.

Most cases are series whose derivative (and the series itself) has
coefficients of both signs or a complex phase, so both radial sups take the
angle-grid scan.  The last cases have real nonnegative coefficients, so both
take the nonnegative shortcut, whose circle maximum is the majorant sum
``coefficient_sum``.  The test writes the series files itself and runs every case through ``cli.main`` in CSV and in
JSON; stdout must match ``data/norms_pin.txt`` byte for byte, which holds one
``$ blochbohr <args>`` line per run followed by its stdout.  After an
intended output change, regenerate it with

    PYTHONPATH=src python tests/test_norms_pin.py
"""

import cmath
import json
import math
from pathlib import Path

import pytest

from blochbohr.bounds import mobius_series
from blochbohr.series import TruncatedSeries
from pins import DATA, cli_stdout, expected_outputs, regenerate

EXPECTED = DATA / "norms_pin.txt"


def _extremal(r0: float, phi: float, order: int) -> TruncatedSeries:
    """(z/r0 - e^{i phi}/sqrt2)/(1 - e^{-i phi} z/(sqrt2 r0)) up to z^order."""
    rot = cmath.exp(1j * phi)
    q = rot.conjugate() / (math.sqrt(2.0) * r0)
    coeffs = [-rot / math.sqrt(2.0)] + [q ** k / (2.0 * r0) for k in range(order)]
    return TruncatedSeries.with_geometric_tail(coeffs, 1.0 / (math.sqrt(2.0) * r0),
                                               1.0 / math.sqrt(2.0))


def _automorphism(a: complex, order: int) -> TruncatedSeries:
    """(a - z)/(1 - conj(a) z) up to z^order."""
    q = a.conjugate()
    coeffs = [a] + [-(1.0 - abs(a) ** 2) * q ** k for k in range(order)]
    return TruncatedSeries.with_geometric_tail(coeffs, abs(a), (1.0 - abs(a) ** 2) / abs(a))


def _geometric(q: float, order: int) -> TruncatedSeries:
    """1/(1 - q z) up to z^order: every coefficient q^k is nonnegative."""
    return TruncatedSeries.with_geometric_tail([q ** k for k in range(order + 1)], q, 1.0)


#: series file name -> series
SERIES = {
    "extremal40.json": _extremal(0.87, 2.2, 40),
    "automorphism60.json": _automorphism(cmath.rect(0.72, 4.1), 60),
    "mobius256.json": mobius_series(0.9),
    "geometric48.json": _geometric(0.83, 48),
}

#: quartic with f' = 0.8 - 1.8 z + 0.9 z^2 + 2.4 z^3, which changes sign
QUARTIC = "--coeffs=0.25,0.8,-0.9,0.3,0.6"

CASES = [
    f"norms {QUARTIC} --weight standard",
    f"norms {QUARTIC} --weight example3:r0=0.8312,alpha=1.750",
    "norms --series extremal40.json --weight example2:r0=0.9134,alpha=2.618",
    "norms --series automorphism60.json --weight example3:r0=0.7725,alpha=3.204",
    "norms --series mobius256.json --weight standard",
    "norms --coeffs=0.3,0.7,0.45,0.2,0.05 --weight example2:r0=0.8846,alpha=1.372",
    "norms --series geometric48.json --weight example3:r0=0.7517,alpha=2.911",
]

RUNS = [f"{case} --format {fmt}" for case in CASES for fmt in ("csv", "json")]


def run_stdout(args: str) -> str:
    """stdout of ``blochbohr <args>``, with the series files in the current directory."""
    for name, s in SERIES.items():
        Path(name).write_text(s.dumps())
    return cli_stdout(args)


def test_every_run_has_an_expected_output():
    assert RUNS == list(expected_outputs(EXPECTED))


@pytest.mark.parametrize("args", RUNS)
def test_norms_stdout_is_byte_identical(args, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_stdout(args) == expected_outputs(EXPECTED)[args]


@pytest.mark.parametrize("case", [case for case in CASES if "r0=" in case])
def test_kink_witness_is_the_anchor_exactly(case):
    # each pinned example weight peaks at its kink r0, a candidate of its own
    r0 = float(case.split("r0=")[1].split(",")[0])
    report = json.loads(expected_outputs(EXPECTED)[f"{case} --format json"])
    assert report["radial_sup"]["witness_r"] == r0


if __name__ == "__main__":
    regenerate(EXPECTED, RUNS, run_stdout)
