"""The Theorem 4 sups print exactly the checked-in JSON at their edges.

``theorem5-probe`` at extreme scales and at 0.5, 0.52 and 0.55 (where the
sup over r has two local maxima in a), ``theorem4`` at an interior root near
r = 0.085, and ``theorem2-check`` on its ``R_POINTS`` table reach cases of the
stationarity-quintic sups that the README examples do not.  Every run goes
through ``cli.main`` with JSON output (full round-trip precision); stdout
must match ``data/bounds_pin.txt`` byte for byte, which holds one
``$ blochbohr <args>`` line per run followed by its stdout.  After an
intended output change, regenerate it with

    PYTHONPATH=src python tests/test_bounds_pin.py
"""

import pytest

from pins import DATA, cli_stdout, expected_outputs, regenerate

EXPECTED = DATA / "bounds_pin.txt"

RUNS = [
    "theorem5-probe --R 0.01 --R 0.2 --R 0.75 --R 0.99 --format json",
    "theorem5-probe --R 0.5 --R 0.52 --R 0.55 --format json",
    "theorem4 --a 0.5 --R 0.3 --format json",
    "theorem2-check --format json",
]


def test_every_run_has_an_expected_output():
    assert RUNS == list(expected_outputs(EXPECTED))


@pytest.mark.parametrize("args", RUNS)
def test_bounds_stdout_is_byte_identical(args):
    assert cli_stdout(args) == expected_outputs(EXPECTED)[args]


if __name__ == "__main__":
    regenerate(EXPECTED, RUNS, cli_stdout)
