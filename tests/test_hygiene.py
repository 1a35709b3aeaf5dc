"""Static checks on ``src/seqlab`` for what a deletion leaves stranded.

* every name a module imports is used in that module (``__init__.py``, which
  imports to re-export, is exempt);
* every module-level ``_private`` function, class or constant is referenced
  somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqlab"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    """Names bound by the module's imports, ``from __future__`` excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _loaded(tree):
    """Names read in the module: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_defs(tree):
    """Module-level names starting with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_no_unused_imports(module):
    tree = TREES[module]
    assert sorted(_imported(tree) - _loaded(tree)) == []


def test_no_unreferenced_private_names():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded(tree) | _imported(tree)
    stranded = sorted(f"{module}.{name}" for module, tree in TREES.items()
                      for name in _private_defs(tree) - referenced)
    assert stranded == []
