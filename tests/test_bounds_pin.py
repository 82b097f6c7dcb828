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

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from blochbohr.cli import main

EXPECTED = Path(__file__).resolve().parent / "data" / "bounds_pin.txt"

RUNS = [
    "theorem5-probe --R 0.01 --R 0.2 --R 0.75 --R 0.99 --format json",
    "theorem5-probe --grid 2 --format json",
    "theorem5-probe --grid 17 --format json",
    "theorem5-probe --grid 300 --format json",
    "theorem4 --search --grid 100 --format json",
    "theorem2-check --grid 300 --samples 3 --format json",
]


def run_stdout(args: str) -> str:
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
def test_bounds_stdout_is_byte_identical(args):
    assert run_stdout(args) == expected_outputs()[args]


if __name__ == "__main__":
    EXPECTED.write_text("".join(f"$ blochbohr {args}\n{run_stdout(args)}" for args in RUNS))
    print(f"wrote {EXPECTED}")
