"""Static checks on ``src/seqlab`` for what a deletion leaves stranded.

* every name a module imports is used in that module (``__init__.py``, which
  imports to re-export, is exempt);
* every module-level ``_private`` function, class or constant is referenced
  somewhere in the package;
* every module-level public function or class is referenced somewhere in the
  package outside ``__init__.py`` or in ``perfbench/``, and every public
  method or property of such a class is read there as an attribute
  (``obj.name``), or is kept on purpose in ``KEEP``, so unserved API does not
  grow back.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqlab"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}
BENCH_TREES = [ast.parse(path.read_text(), filename=str(path))
               for path in sorted((ROOT / "perfbench").glob("*.py"))]

# Public names that nothing in the package or the benchmark calls, each with
# the reason it stays.
KEEP = {
    "matrices.apply_row": "the math.fsum reference the transform tests compare against; "
                          "perfbench/tracing.py names it only as a string",
    "density.natural_density": "the f = id case of f_density, which the CLI calls directly; "
                               "perfbench/tracing.py getattrs it at install",
    "orlicz.modular": "the modular sum_k M_k(|x_k|) both norms are defined by; the acceptance tests use it",
    "orlicz.delta2_check": "waits to serve check --orlicz as a sampled doubling verdict",
}


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


@pytest.mark.parametrize("module", ["membership", "witnesses"])
def test_routes_import_nothing_from_matrices(module):
    # the CLI applies the summability matrix once; each route takes the array the CLI made
    imported = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module or ""] + [a.name for a in node.names])
    assert not {name for name in imported if name.split(".")[-1] == "matrices"}


def test_no_unreferenced_private_names():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded(tree) | _imported(tree)
    stranded = sorted(f"{module}.{name}" for module, tree in TREES.items()
                      for name in _private_defs(tree) - referenced)
    assert stranded == []


def _public_defs(tree):
    """Module-level public functions and classes, and the public methods and
    properties of those classes, as dotted names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_no_unserved_public_api():
    referenced, attributes = set(), set()
    for tree in [t for module, t in TREES.items() if module != "__init__"] + BENCH_TREES:
        referenced |= _loaded(tree) | _imported(tree)
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    # a method is served only where it is read as one: a bare name of the same
    # spelling (a parameter, a nested function) does not call it
    unserved = {f"{module}.{dotted}" for module, tree in TREES.items() if module != "__init__"
                for dotted, name in _public_defs(tree)
                if name not in (attributes if "." in dotted else referenced)}
    assert sorted(unserved - set(KEEP)) == []
    assert sorted(set(KEEP) - unserved) == []  # a kept name that gained a caller leaves KEEP
