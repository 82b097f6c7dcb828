"""``norms`` prints exactly the checked-in CSV and JSON on FFT-path inputs.

Each case is a series whose derivative (and the series itself) has
coefficients of both signs or a complex phase, so both radial sups take the
angle-grid scan rather than the nonnegative shortcut.  The test writes the
series files itself and runs every case through ``cli.main`` in CSV and in
JSON; stdout must match ``data/norms_pin.txt`` byte for byte, which holds one
``$ blochbohr <args>`` line per run followed by its stdout.  After an
intended output change, regenerate it with

    PYTHONPATH=src python tests/test_norms_pin.py
"""

import cmath
import contextlib
import io
import math
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from blochbohr.bounds import mobius_series
from blochbohr.cli import main
from blochbohr.series import TruncatedSeries

EXPECTED = Path(__file__).resolve().parent / "data" / "norms_pin.txt"


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


#: series file name -> series
SERIES = {
    "extremal40.json": _extremal(0.87, 2.2, 40),
    "automorphism60.json": _automorphism(cmath.rect(0.72, 4.1), 60),
    "mobius256.json": mobius_series(0.9),
}

#: quartic with f' = 0.8 - 1.8 z + 0.9 z^2 + 2.4 z^3, which changes sign
QUARTIC = "--coeffs=0.25,0.8,-0.9,0.3,0.6"

CASES = [
    f"norms {QUARTIC} --weight standard",
    f"norms {QUARTIC} --weight example3:r0=0.8312,alpha=1.750",
    "norms --series extremal40.json --weight example2:r0=0.9134,alpha=2.618",
    "norms --series automorphism60.json --weight example3:r0=0.7725,alpha=3.204",
    "norms --series mobius256.json --weight standard",
]

RUNS = [f"{case} --format {fmt}" for case in CASES for fmt in ("csv", "json")]


def run_stdout(args: str) -> str:
    """stdout of ``blochbohr <args>``, with the series files in the current directory."""
    for name, s in SERIES.items():
        Path(name).write_text(s.dumps())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(args))
    assert code == 0, args
    return out.getvalue()


def expected_outputs() -> dict[str, str]:
    out, key = {}, None
    for line in EXPECTED.read_text().splitlines(keepends=True):
        if line.startswith("$ blochbohr "):
            key = line[len("$ blochbohr "):].rstrip("\n")
            out[key] = ""
        else:
            out[key] += line
    return out


def test_every_run_has_an_expected_output():
    assert RUNS == list(expected_outputs())


@pytest.mark.parametrize("args", RUNS)
def test_norms_stdout_is_byte_identical(args, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_stdout(args) == expected_outputs()[args]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        EXPECTED.write_text("".join(f"$ blochbohr {args}\n{run_stdout(args)}"
                                    for args in RUNS))
    print(f"wrote {EXPECTED}")
