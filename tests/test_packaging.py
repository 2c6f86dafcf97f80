import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    """Every ``[project.scripts]`` entry names an importable callable."""
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} -> {target} is not callable"


def test_every_exported_name_resolves():
    """Each ``hj_strata`` module's ``__all__`` names only attributes it has."""
    package = importlib.import_module("hj_strata")
    names = ["hj_strata"] + [
        f"hj_strata.{p.stem}" for p in Path(package.__file__).parent.glob("*.py") if p.stem != "__init__"
    ]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_pipeline_modules_do_not_import_scipy_optimize():
    """The cell, corrector and scheme layers solve their envelope algebra in
    closed form, the control hull is a monotone chain, and sparse LU is
    imported only when a policy evaluation falls back to it; importing
    ``scipy.optimize``, ``scipy.spatial`` (with ``scipy.special``) or
    ``scipy.sparse.linalg`` would cost memory and start-up time for no
    caller.  A whole table solve stays on BiCGSTAB, so the common solve path
    does not import sparse LU either."""
    code = (
        "import sys\n"
        "import hj_strata.cell, hj_strata.correctors, hj_strata.stratified\n"
        "hj_strata.load_preset('strip_attract')\n"
        "hj_strata.cell.tabulate_effective(hj_strata.load_preset('eikonal'), tol=5e-4)\n"
        "unused = ('scipy.optimize', 'scipy.spatial', 'scipy.sparse.linalg', 'scipy.special')\n"
        "print([m for m in unused if m in sys.modules])\n"
    )
    src = Path(importlib.import_module("hj_strata").__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
