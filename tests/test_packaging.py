import importlib
import importlib.util
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


def _settable_values():
    """The ``tools/settable_values.py`` module."""
    spec = importlib.util.spec_from_file_location(
        "settable_values", Path(__file__).resolve().parents[1] / "tools" / "settable_values.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_settable_values_do_not_grow():
    """A ratchet on the package's settable values, each term on its own: a
    change that adds an option raises its bound here and says why in
    CHANGES.md."""
    tool = _settable_values()
    params, fields = tool.count(tool.PACKAGE)
    assert params <= 35, f"{params} defaulted parameters, bound 35"
    assert fields <= 120, f"{fields} dataclass fields, bound 120"


def test_settable_values_counts_defaults_and_dataclass_fields(tmp_path):
    """``tools/settable_values.py`` counts defaulted parameters of public
    functions and public methods of public classes, and every field of a
    public dataclass; private and nested definitions and ``ClassVar``s are
    left out."""
    tool = _settable_values()
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "import dataclasses\n"
        "def f(x, y=1, *, z=2, w): pass\n"           # 2
        "def _g(x=1): pass\n"                         # private: 0
        "def h(x=1):\n"                               # 1
        "    def inner(y=2): pass\n"                  # nested: 0
        "class P:\n"
        "    a: int = 0\n"                            # not a dataclass: 0
        "    def m(self, k=1): pass\n"                # 1
        "    def _m(self, k=1): pass\n"               # private method: 0
        "    def __call__(self, k=1): pass\n"         # dunder: 0
        "class _Q:\n"
        "    def m(self, k=1): pass\n"                # private class: 0
    )
    (tmp_path / "b.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    x: float\n"                              # field
        "    y: float = 0.0\n"                        # field
        "    _cache: dict = field(default_factory=dict)\n"  # field
        "    K: ClassVar[int] = 3\n"                  # not a field
        "    def at(self, t=0.5): pass\n"             # 1
        "@dataclasses.dataclass\n"
        "class S:\n"
        "    z: int\n"                                # field
        "@dataclass\n"
        "class _T:\n"
        "    hidden: int = 0\n"                       # private dataclass: 0
    )
    assert tool.count(tmp_path) == (5, 4)
