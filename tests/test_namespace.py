"""The package namespace loads lazily: each public name imports its submodule
on first use.  Every check runs in a fresh interpreter, since this test
session has long since imported every submodule."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str):
    """What ``code`` prints as JSON on its last line, run by a new interpreter
    that finds the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_instance_module_loads_no_solver():
    loaded = _fresh(
        "import json, sys; import parkroute.instance; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'parkroute')))"
    )
    assert loaded == ["parkroute", "parkroute.errors", "parkroute.instance"]


def test_every_exported_name_is_its_submodules_object():
    mismatched = _fresh(
        "import importlib, json; import parkroute; "
        "print(json.dumps([name for name, module in parkroute._EXPORTS.items() "
        "if getattr(parkroute, name) is not getattr(importlib.import_module('parkroute.' + module), name)]))"
    )
    assert mismatched == []


def test_star_import_and_dir_list_every_exported_name():
    names, unbound, listed = _fresh(
        "import json, parkroute; listed = dir(parkroute); from parkroute import *; "
        "print(json.dumps([parkroute.__all__, [n for n in parkroute.__all__ if n not in globals()], listed]))"
    )
    assert len(names) == 50  # every public name the package exports
    assert unbound == []
    assert set(names) <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    error = _fresh(
        "import json, parkroute\n"
        "try:\n    parkroute.solve_everything\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
    )
    assert error == "module 'parkroute' has no attribute 'solve_everything'"
