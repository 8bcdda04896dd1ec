"""Dead code fails the tests: an import a module never uses, or a module-level
private name that nothing reads.  So does a second home for the count rule:
only ``core.py`` names ``COUNT_ROUNDING``.

A private name (one leading underscore) counts as used when some module of
``src/typelab`` loads it, reads it as an attribute or imports it, or when it
appears in the text of ``perfbench/*.py``, which wraps typelab's functions
by name.  The tests read private names too, but a name only tests read is
dead code kept alive by its test.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "typelab").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that it never uses."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(trees) -> set[str]:
    """Every name the modules load, read as an attribute or import."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out |= {alias.name for alias in node.names}
    return out


def unread_private_names(trees: dict[str, ast.Module], perfbench_text: str) -> list[str]:
    read = read_names(trees.values())
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in private_definitions(tree)
                  if name not in read and not re.search(rf"\b{name}\b", perfbench_text))


# the package's __init__ imports to re-export: its imports are its interface
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_every_private_name_is_read():
    trees = {path.stem: _tree(path) for path in MODULES}
    perfbench = "".join(p.read_text(encoding="utf-8")
                        for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert unread_private_names(trees, perfbench) == []


def test_count_rounding_named_only_in_core():
    # the count rule's rounding is read through core.count_meets and core.lattice_count
    assert [p.name for p in MODULES
            if p.name != "core.py" and "COUNT_ROUNDING" in read_names([_tree(p)])] == []


def test_the_checks_see_dead_code():
    dead_import = ast.parse("import math\nfrom .core import CONVERGENT, SLACK_POINTS\n"
                            "x = SLACK_POINTS\n")
    assert unused_imports(dead_import) == ["CONVERGENT", "math"]
    dead_private = {"m": ast.parse("def _kept():\n    return _used()\n\n"
                                   "def _used():\n    return 0\n\n_LIMIT = 3\n")}
    assert unread_private_names(dead_private, "") == ["m._LIMIT", "m._kept"]
    assert unread_private_names(dead_private, "probe _kept and _LIMIT") == []
    for source in ("from .core import COUNT_ROUNDING\n", "x = core.COUNT_ROUNDING\n",
                   "def f(d):\n    return d - COUNT_ROUNDING\n"):
        assert "COUNT_ROUNDING" in read_names([ast.parse(source)])
