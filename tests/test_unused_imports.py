"""No module of ``duorec`` imports a name it never reads, or defines a
private helper it never reads.

An import counts as read when its bound name appears as a name anywhere in
the module, annotations included, or is listed in ``__all__``. ``__future__``
imports bind no name and are exempt. A private name (``_x``; dunders are
exempt) bound at module level by a ``def``, ``class`` or assignment counts as
read when the module loads it somewhere: private names are the module's own,
so no other module's reads keep one alive.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "duorec"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}                                  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def unread_private_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {}                                # name -> line of its first binding
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path) == []


def test_unread_helper_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("_LIMIT = 3\n_a, _b = 1, 2\n__version__ = '1'\n\n"
                    "def _used(x):\n    return x + _b\n\n"
                    "def _unused(x):\n    return x\n\n"
                    "class _Spare:\n    pass\n\n"
                    "def public():\n    return _used(_LIMIT)\n")
    assert unread_private_names(path) == ["mod.py:2 _a", "mod.py:8 _unused", "mod.py:11 _Spare"]
