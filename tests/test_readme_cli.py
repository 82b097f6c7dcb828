"""The README's command-line examples print exactly the checked-in CSV.

Every ``blochbohr ...`` line of the README's shell blocks runs through
``cli.main`` in CSV, and its stdout must match ``data/readme_cli.txt``
byte for byte: a speedup may not change a CSV byte.  Each run must exit 0,
or 1 for a FAIL verdict listed in ``EXIT_1``.  The file holds one
``$ blochbohr <args>`` line per invocation, followed by its stdout.  After an
intended output change, regenerate it with

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import json
import shlex
from pathlib import Path

import pytest

from pins import DATA, cli_stdout, expected_outputs, regenerate

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = DATA / "readme_cli.txt"

#: the file behind ``norms --series series.json``: a cubic with a complex
#: coefficient, so the radial sup takes the general (scanned) route
SERIES = {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [-0.25, 0.0]],
          "tail": {"rho": 0.0, "M": 0.0}}


#: README lines whose verdict is FAIL: they exit 1 after the full report
EXIT_1 = {"sharpness --weight example2:r0=0.8,alpha=1 --r0 0.8"}


def readme_invocations() -> list[str]:
    lines = (ROOT / "README.md").read_text().splitlines()
    return [" ".join(shlex.split(line, comments=True)[1:])
            for line in lines if line.startswith("blochbohr ")]


def csv_stdout(args: str) -> str:
    """stdout of ``blochbohr <args> --format csv``, run in the current directory."""
    Path("series.json").write_text(json.dumps(SERIES))
    return cli_stdout(f"{args} --format csv", code=1 if args in EXIT_1 else 0)


def test_every_invocation_has_an_expected_output():
    assert readme_invocations() == list(expected_outputs(EXPECTED))


@pytest.mark.parametrize("args", readme_invocations())
def test_readme_csv_is_byte_identical(args, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert csv_stdout(args) == expected_outputs(EXPECTED)[args]


if __name__ == "__main__":
    regenerate(EXPECTED, readme_invocations(), csv_stdout)
