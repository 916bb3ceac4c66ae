"""No module imports a name it never uses, and no private module-level name in
the package goes unread (no linter is installed to say so)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/ebsolve/*.py"))


def unused_imports(path):
    """``file:line: name`` for each name ``path`` imports but never references."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def private_definitions(path):
    """``(name, line)`` for each ``_x`` function, class or constant at module level."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unread_private_names(paths):
    """``file:line: name`` for each private module-level name no module reads."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return [f"{path.name}:{line}: {name}"
            for path in paths for name, line in private_definitions(path)
            if name not in read]


def test_every_imported_name_is_used():
    # __init__.py imports in order to re-export
    paths = [p for p in PACKAGE if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py"))
    assert len(paths) > 10
    assert [entry for p in paths for entry in unused_imports(p)] == []


def test_every_private_module_name_is_read():
    # a deleted branch must not leave its constants or helpers behind
    assert sum(1 for p in PACKAGE for _ in private_definitions(p)) > 10
    assert unread_private_names(PACKAGE) == []


def test_an_unread_private_constant_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("_USED = 1\n_LEFT_OVER: float = 2.0\n__dunder__ = 3\n\n\n"
                      "def _helper():\n    return _USED\n")
    assert unread_private_names([module]) == ["module.py:2: _LEFT_OVER",
                                              "module.py:6: _helper"]
