"""Start-up: ``import blochbohr`` loads no layer, and a subcommand loads only
the layers it calls.  Each check runs in a fresh interpreter, because this
test process has long since imported every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochbohr


def run_python(*args: str) -> str:
    """stdout of ``python *args`` importing this checkout's blochbohr."""
    env = dict(os.environ, PYTHONPATH=str(Path(blochbohr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


#: modules a scalar command has no use for: numpy, and ``dataclasses`` with the
#: ``inspect`` it pulls in
HEAVY = ("numpy", "dataclasses", "inspect")
#: a preamble that makes each of them unimportable
WITHOUT_HEAVY = f"import sys; sys.modules.update(dict.fromkeys({HEAVY!r}))\n"


def loaded_after(statement: str) -> dict:
    """Which of ``HEAVY`` and the blochbohr layers ``statement`` leaves loaded."""
    out = run_python(
        "-c",
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        f"with redirect_stdout(io.StringIO()):\n    {statement}\n"
        f"loaded = {{n: n in sys.modules for n in {HEAVY!r}}}\n"
        "print(json.dumps(dict(loaded, layers=sorted(\n"
        "    n.split('.', 1)[1] for n in sys.modules if n.startswith('blochbohr.')))))\n")
    return json.loads(out)


def test_bare_import_loads_no_layer_and_not_numpy():
    assert loaded_after("import blochbohr") == {
        "numpy": False, "dataclasses": False, "inspect": False, "layers": []}


def test_every_export_resolves_and_star_import_binds_it():
    out = run_python(
        "-c",
        "import blochbohr\n"
        "missing = [n for n in blochbohr.__all__ if getattr(blochbohr, n, None) is None]\n"
        "ns = {}\n"
        "exec('from blochbohr import *', ns)\n"
        "unbound = sorted(set(blochbohr.__all__) - set(ns))\n"
        "print(len(blochbohr.__all__), missing, unbound)\n")
    assert out.split(" ", 1)[1] == "[] []\n"
    assert int(out.split(" ", 1)[0]) == len(blochbohr.__all__) > 50


def test_dir_lists_exports_and_unknown_names_raise():
    listed = dir(blochbohr)
    assert set(blochbohr.__all__) <= set(listed) and "__version__" in listed
    out = run_python(
        "-c",
        "import blochbohr\n"
        "try:\n    blochbohr.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n")
    assert out == "module 'blochbohr' has no attribute 'no_such_name'\n"


#: the criterion commands of the README: weight-check with and without --r0,
#: h-profile, and a sharpness PASS and FAIL; and a sharpness PASS at the anchor
#: 1, past R_MAX, where the majorant side reads the weight's limit_at_one
CRITERION_ARGV = [
    ["weight-check", "--weight", "example2:r0=0.8,alpha=1", "--r0", "0.8"],
    ["weight-check", "--weight", "example3:r0=0.75,alpha=1"],
    ["weight-check", "--weight", "standard"],
    ["h-profile", "--r0", "0.8", "--n", "8"],
    ["sharpness", "--weight", "example2:r0=0.8,alpha=2", "--r0", "0.8"],
    ["sharpness", "--weight", "example2:r0=0.8,alpha=1", "--r0", "0.8"],
    ["sharpness", "--weight", "constant", "--r0", "1"],
]
#: those that run no criterion scan, so load no ``interval``: the standard
#: weight vanishes at its only anchor, 1, and h-profile only tabulates h
SCANLESS_ARGV = [CRITERION_ARGV[2], CRITERION_ARGV[3]]


@pytest.mark.parametrize("argv", CRITERION_ARGV, ids=" ".join)
def test_criterion_commands_run_without_numpy(argv):
    loaded = loaded_after(f"from blochbohr.cli import main; main({argv!r})")
    layers = ["cli", "errors", "search", "weights"]
    if argv[0] == "sharpness":
        layers.insert(2, "extremal")
    if argv not in SCANLESS_ARGV:
        layers.insert(-2, "interval")
    assert loaded == {"numpy": False, "dataclasses": False, "inspect": False, "layers": layers}
    # with numpy, dataclasses and inspect made unimportable the output is the same
    code = f"from blochbohr.cli import main\nmain({argv!r})\n"
    plain = run_python("-c", code)
    assert plain and run_python("-c", WITHOUT_HEAVY + code) == plain


#: the bounds commands of the README that run on floats
BOUNDS_ARGV = [
    ["theorem1", "--optimize"],
    ["theorem1", "--s", "0.5"],
    ["theorem4", "--a", "0.35", "--R", "0.769"],
    ["theorem4", "--search"],
    ["theorem5-probe"],
    ["bombieri", "--r", "0.70710678"],
    ["bombieri"],
]


@pytest.mark.parametrize("argv", BOUNDS_ARGV, ids=" ".join)
def test_bounds_commands_run_without_numpy(argv):
    loaded = loaded_after(f"from blochbohr.cli import main; main({argv!r})")
    assert loaded == {"numpy": False, "dataclasses": False, "inspect": False,
                      "layers": ["bounds", "cli", "errors", "search"]}
    code = f"from blochbohr.cli import main\nmain({argv!r})\n"
    plain = run_python("-c", code)
    assert plain and run_python("-c", WITHOUT_HEAVY + code) == plain


def test_grid_golden_max_runs_without_numpy():
    # it scans the float list ``grid`` by branch-and-bound; in ``search`` only
    # an array handed to ``mapped`` loads numpy
    call = ("from blochbohr.search import grid_golden_max; "
            "print(*grid_golden_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.0, 1.0, 64))")
    assert loaded_after(call) == {"numpy": False, "dataclasses": False, "inspect": False,
                                  "layers": ["errors", "interval", "search"]}
    plain = run_python("-c", call)
    assert plain.split()[1] == "1.0" and run_python("-c", WITHOUT_HEAVY + call) == plain


def test_theorem2_check_loads_numpy_and_series():
    # its PCG64 sample stream and the chain's circle norms stay on numpy
    loaded = loaded_after(
        "from blochbohr.cli import main; main(['theorem2-check'])")
    assert loaded["numpy"] and loaded["layers"] == [
        "bounds", "cli", "errors", "search", "series", "weights"]


def test_help_loads_no_handler_layer():
    loaded = loaded_after(
        "from blochbohr.cli import main\n"
        "    try:\n        main(['theorem4', '--help'])\n"
        "    except SystemExit:\n        pass")
    assert loaded == {"numpy": False, "dataclasses": False, "inspect": False,
                      "layers": ["cli", "errors", "search"]}


def test_norms_loads_numpy_and_series_but_no_bounds_layer():
    # its rough radial scan runs on numpy FFTs; neither bounds nor extremal loads
    loaded = loaded_after("from blochbohr.cli import main; main(['norms', '--coeffs', '0,1,0.5'])")
    assert loaded["numpy"] and loaded["layers"] == [
        "cli", "errors", "norms", "search", "series", "weights"]
