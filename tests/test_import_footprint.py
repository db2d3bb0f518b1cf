"""What a qwk process imports: the engine, and the checking kit only on first use.

Each check runs in a fresh interpreter started with ``-S``, so that the
modules in ``sys.modules`` are the ones qwk's own imports load and no
site-packages start-up hook adds to them.  The checks read module names
only; they time nothing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwk

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules that only tests, ``identities`` and ``verify bracket-oracle`` use
CHECKING_KIT = ("qwk.series", "qwk.diffpoly", "qwk.weyl", "qwk.identities")

# names ``qwk`` exports from the checking kit, by the module that holds them
MOVED = {
    "DiffPoly": "qwk.diffpoly",
    "d_dp0": "qwk.diffpoly",
    "from_diff_poly": "qwk.diffpoly",
    "to_diff_poly": "qwk.diffpoly",
    "variational_derivative": "qwk.diffpoly",
    "ehrhart_brute_force": "qwk.series",
    "s_series": "qwk.series",
    "series_exp_log": "qwk.series",
    "series_inverse": "qwk.series",
    "series_product": "qwk.series",
}


def _modules_after(code: str) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter;
    ``code`` may print to stdout, the module list is the last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_engine_import_loads_no_checking_kit():
    loaded = _modules_after("import qwk, qwk.correlators, qwk.hurwitz")
    assert {"qwk.qkdv", "qwk.symbols", "qwk.special"} <= loaded
    absent = {"dataclasses", "inspect", "concurrent.futures", "qwk.cli", *CHECKING_KIT}
    assert not loaded & absent


def test_identities_import_loads_no_dataclasses():
    loaded = _modules_after("import qwk.identities")
    assert "qwk.identities" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cli_correlator_loads_no_pool_identities_or_weyl():
    loaded = _modules_after(
        "from qwk.cli import main\n"
        "assert main(['correlator', '--g', '1', '--d', '2']) == 0")
    assert "qwk.cli" in loaded
    assert not loaded & {"concurrent.futures", "qwk.identities", "qwk.weyl"}


def test_moved_names_resolve_to_their_modules():
    for name, module in MOVED.items():
        assert name in qwk.__all__
        assert getattr(qwk, name) is getattr(importlib.import_module(module), name)
    assert set(MOVED) <= set(dir(qwk))
    for name in qwk.__all__:
        getattr(qwk, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qwk.no_such_name
