"""Shared harness of the byte-for-byte command-line pins under ``data/``.

A pin file holds one ``$ blochbohr <args>`` line per run, followed by that
run's stdout.  ``test_readme_cli.py``, ``test_norms_pin.py`` and
``test_bounds_pin.py`` each compare their runs with one such file, and
rewrite it through ``regenerate`` when run as a script.
"""

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

from blochbohr.cli import main

DATA = Path(__file__).resolve().parent / "data"
PROMPT = "$ blochbohr "


def expected_outputs(path: Path) -> dict[str, str]:
    """The pinned stdout of every run in ``path``, keyed by its arguments."""
    out, key = {}, None
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            key = line[len(PROMPT):].rstrip("\n")
            out[key] = ""
        else:
            out[key] += line
    return out


def cli_stdout(args: str, code: int = 0) -> str:
    """stdout of ``blochbohr <args>`` through ``cli.main``, which must exit ``code``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(shlex.split(args))
    assert got == code, args
    return out.getvalue()


def regenerate(path: Path, runs, stdout) -> None:
    """Rewrite ``path`` with ``stdout(args)`` of every run; the runs share a
    scratch directory, so files they write land nowhere else."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            text = "".join(f"{PROMPT}{args}\n{stdout(args)}" for args in runs)
        finally:
            os.chdir(home)
    path.write_text(text)
    print(f"wrote {path}")
