"""Count the settable values of the ``hj_strata`` package.

A settable value is a parameter a caller can leave at its default, or a field
a caller fills in a record.  The count has two terms:

* defaulted parameters of public functions and of the public methods of
  public classes (positional and keyword-only defaults alike);
* fields of public dataclasses: every annotated class attribute but a
  ``ClassVar``, whatever its name, since the generated constructor takes
  each one.

A name is public when it does not start with an underscore, so dunder
methods are not counted.  Only module-level functions and classes are read;
nested definitions are private to their enclosing body.  Run it with no
options::

    python tools/settable_values.py

It prints ``<defaulted parameters> + <dataclass fields>`` for the package in
the checkout that holds the script.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hj_strata"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "ClassVar"


def count(package: Path) -> tuple[int, int]:
    """``(defaulted parameters, dataclass fields)`` over the ``*.py`` files
    directly under ``package``."""
    params = fields = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                params += _defaults(node)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if _public(item.name):
                            params += _defaults(item)
                    elif (
                        _is_dataclass(node)
                        and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not _is_classvar(item.annotation)
                    ):
                        fields += 1
    return params, fields


def main() -> int:
    params, fields = count(PACKAGE)
    print(f"{params} + {fields}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
