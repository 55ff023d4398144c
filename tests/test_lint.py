"""Source rules checked on the syntax tree of every engine module.

* No ``assert`` statements: they vanish under ``python -O``, so invariants
  raise typed exceptions instead.
* No module reaches into another engine module's private names, either as
  ``module._name`` or as ``from .module import _name``.  The one exception
  is ``curverep._apply_mul``, the named entry point for multiplying a basis
  by a section, which a tracer can wrap.
* Every public module-level function is referenced by engine code other
  than its own definition, or re-exported by ``__init__.py``: a helper that
  only tests call belongs in the tests.
* ``divisors`` and ``jacobian`` take no ``basis[:, 0]``: the section that
  heads brief forms and flips is chosen by ``rep.head`` alone.
* No module but ``linalg`` forms a matrix product (``.dot``, ``np.dot``,
  ``tensordot`` or ``@``): the product arithmetic is chosen in one place.
* ``_LOOP_CAP`` is read in one function of its module only: every Las Vegas
  retry runs through one loop.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jacarith"
MODULES = sorted(SRC.glob("*.py"))
ENGINE = {path.stem for path in MODULES}
ALLOWED = {("curverep", "_apply_mul")}
HEAD_POLICY = {"divisors", "jacobian"}  # modules that take heads from rep.head
PRODUCTS = {"dot", "tensordot"}  # matrix products, made in linalg alone
CAP = "_LOOP_CAP"  # the retry cap, read by the one retry loop


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


def _first_column(node) -> bool:
    """Whether node is ``<expr>.basis[:, 0]``."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "basis" and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 2 and isinstance(node.slice.elts[0], ast.Slice)
            and isinstance(node.slice.elts[1], ast.Constant) and node.slice.elts[1].value == 0)


def _matrix_product(node) -> str | None:
    """The product node forms, if it is ``.dot``/``.tensordot`` or ``@``."""
    if isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
        return node.attr
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    return None


def _cap_readers(tree) -> list:
    """The module-level statements (by name) that read ``_LOOP_CAP``."""
    return [getattr(node, "name", f"line {node.lineno}") for node in tree.body
            if any(isinstance(n, ast.Name) and n.id == CAP and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(node))]


def violations(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _module_aliases(tree)
    found = []
    if len(readers := _cap_readers(tree)) > 1:
        found.append(f"{path.name}:0: {CAP} read in {', '.join(readers)}")
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif path.stem in HEAD_POLICY and _first_column(node):
            found.append(f"{where}: basis[:, 0] instead of rep.head")
        elif path.stem != "linalg" and (product := _matrix_product(node)):
            found.append(f"{where}: {product} product outside linalg")
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
                   "cr._eliminated_kernel(None, None, None)\n"
                   "jacobian.__name__\n"
                   "m = a.dot(b) % p\n"
                   "m = np.tensordot(s, tables, axes=(0, 0)) % p\n"
                   "m = a @ b\n"
                   "rep.mat_mul(a, b)\n"
                   "_LOOP_CAP = 200\n"
                   "def retry():\n    return range(_LOOP_CAP)\n"
                   "def own_loop():\n    return range(1, _LOOP_CAP + 1)\n")
    assert [v.split(": ", 1)[1] for v in violations(bad)] == [
        "_LOOP_CAP read in retry, own_loop", "from .linalg import _eliminate",
        "assert statement", "@ product outside linalg", "jacobian._space_bytes",
        "cr._eliminated_kernel", "dot product outside linalg", "tensordot product outside linalg"]
    (tmp_path / "linalg.py").write_text("m = a.dot(b) % p\nm = a @ b\n")
    assert violations(tmp_path / "linalg.py") == []


def test_head_rule_catches_what_it_describes(tmp_path):
    source = ("s = x.space.basis[:, 0].copy()\n"
              "t = x.space.basis[:, 1]\n"
              "u = rep.head(x.space)\n")
    for name in ("divisors.py", "jacobian.py", "curverep.py"):
        (tmp_path / name).write_text(source)
    assert [v.split(": ", 1)[1] for v in violations(tmp_path / "jacobian.py")] == [
        "basis[:, 0] instead of rep.head"]
    assert len(violations(tmp_path / "divisors.py")) == 1
    assert violations(tmp_path / "curverep.py") == []


def uncalled_functions(paths) -> list:
    """Public module-level functions that no engine code references and
    ``__init__.py`` does not re-export."""
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                used.update(alias.name for alias in node.names)
    return [f"{path.name}: {name}" for path, name in defined if name not in used]


def test_every_public_function_has_a_caller():
    assert uncalled_functions(MODULES) == []


def test_caller_rule_catches_what_it_describes(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text("def exported():\n    pass\n\n\n"
                                   "def called():\n    pass\n\n\n"
                                   "def orphan():\n    return called()\n\n\n"
                                   "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\n\n"
                                   "class K:\n    def method(self):\n        return a.x\n")
    assert uncalled_functions(sorted(tmp_path.glob("*.py"))) == ["a.py: orphan"]
