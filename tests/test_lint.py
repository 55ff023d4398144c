"""Source rules checked on the syntax tree of every engine module.

* No ``assert`` statements: they vanish under ``python -O``, so invariants
  raise typed exceptions instead.
* No module reaches into another engine module's private names, either as
  ``module._name`` or as ``from .module import _name``.  The one exception
  is ``curverep._apply_mul``, the named entry point for multiplying a basis
  by a section, which a tracer can wrap.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jacarith"
MODULES = sorted(SRC.glob("*.py"))
ENGINE = {path.stem for path in MODULES}
ALLOWED = {("curverep", "_apply_mul")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _module_aliases(tree) -> dict:
    """Local name -> engine module, for ``from . import x [as y]``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                if alias.name in ENGINE:
                    out[alias.asname or alias.name] = alias.name
    return out


def violations(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _module_aliases(tree)
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)
              and (aliases[node.value.id], node.attr) not in ALLOWED):
            found.append(f"{where}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{where}: from .{node.module} import {alias.name}"
                      for alias in node.names
                      if _private(alias.name) and (node.module, alias.name) not in ALLOWED]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_the_source_rules(path):
    assert violations(path) == []


def test_rules_catch_what_they_describe(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from . import jacobian, curverep as cr\n"
                   "from .linalg import _eliminate\n"
                   "assert True\n"
                   "jacobian._space_bytes(None)\n"
                   "cr._apply_mul(None, None, None)\n"
                   "cr._division_stack(None, None, None)\n"
                   "jacobian.__name__\n")
    assert [v.split(": ", 1)[1] for v in violations(bad)] == [
        "from .linalg import _eliminate", "assert statement",
        "jacobian._space_bytes", "cr._division_stack"]
