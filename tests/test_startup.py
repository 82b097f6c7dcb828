"""Start-up: ``import blochbohr`` loads no layer, and a subcommand loads only
the layers it calls.  Each check runs in a fresh interpreter, because this
test process has long since imported every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import blochbohr

def run_python(*args: str) -> str:
    """stdout of ``python *args`` importing this checkout's blochbohr."""
    env = dict(os.environ, PYTHONPATH=str(Path(blochbohr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def loaded_after(statement: str) -> dict:
    """Which of numpy and the blochbohr layers ``statement`` leaves loaded."""
    out = run_python(
        "-c",
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        f"with redirect_stdout(io.StringIO()):\n    {statement}\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'layers': sorted(\n"
        "    n.split('.', 1)[1] for n in sys.modules if n.startswith('blochbohr.'))}))\n")
    return json.loads(out)


def test_bare_import_loads_no_layer_and_not_numpy():
    assert loaded_after("import blochbohr") == {"numpy": False, "layers": []}


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


def test_criterion_subcommands_load_four_layers():
    for argv in (["weight-check", "--weight", "standard"],
                 ["h-profile", "--r0", "0.8", "--n", "8"]):
        loaded = loaded_after(f"from blochbohr.cli import main; main({argv!r})")
        assert loaded["layers"] == ["cli", "errors", "search", "weights"], argv


def test_bounds_subcommand_and_help_load_what_they_call():
    loaded = loaded_after("from blochbohr.cli import main; main(['theorem1', '--s', '0.5'])")
    assert loaded["layers"] == ["bounds", "cli", "errors", "search", "series", "weights"]
    loaded = loaded_after(
        "from blochbohr.cli import main\n"
        "    try:\n        main(['theorem4', '--help'])\n"
        "    except SystemExit:\n        pass")
    assert loaded["layers"] == ["cli", "errors", "search", "weights"]


def test_anchor_search_and_profile_leave_numpy_ma_unloaded():
    # np.union1d imports numpy.ma, about 18 ms on its first call
    for argv in (["weight-check", "--weight", "example2:r0=0.8,alpha=2"],
                 ["h-profile", "--r0", "0.8", "--n", "8"]):
        out = run_python(
            "-c",
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from blochbohr.cli import main\n"
            f"with redirect_stdout(io.StringIO()):\n    main({argv!r})\n"
            "print('numpy.ma' in sys.modules)\n")
        assert out == "False\n", argv
