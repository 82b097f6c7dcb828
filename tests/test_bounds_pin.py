"""The Theorem 4 scans print exactly the checked-in JSON at their edges.

``theorem5-probe`` at extreme scales and small radial grids,
``theorem4 --search`` on a coarse grid and ``theorem2-check`` on a 300-point
grid reach the small-grid and extreme-scale cases of the pruned (a, r)
search, which the README examples do not.  Every run goes through
``cli.main`` with JSON output (full round-trip precision); stdout must match
``data/bounds_pin.txt`` byte for byte, which holds one ``$ blochbohr <args>``
line per run followed by its stdout.  After an intended output change,
regenerate it with

    PYTHONPATH=src python tests/test_bounds_pin.py
"""

import pytest

from pins import DATA, cli_stdout, expected_outputs, regenerate

EXPECTED = DATA / "bounds_pin.txt"

RUNS = [
    "theorem5-probe --R 0.01 --R 0.2 --R 0.75 --R 0.99 --format json",
    "theorem5-probe --grid 2 --format json",
    "theorem5-probe --grid 17 --format json",
    "theorem5-probe --grid 300 --format json",
    "theorem4 --search --grid 100 --format json",
    "theorem2-check --grid 300 --samples 3 --format json",
]


def test_every_run_has_an_expected_output():
    assert RUNS == list(expected_outputs(EXPECTED))


@pytest.mark.parametrize("args", RUNS)
def test_bounds_stdout_is_byte_identical(args):
    assert cli_stdout(args) == expected_outputs(EXPECTED)[args]


if __name__ == "__main__":
    regenerate(EXPECTED, RUNS, cli_stdout)
