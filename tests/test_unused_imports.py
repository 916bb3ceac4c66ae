"""No module imports a name it never uses (no linter is installed to say so)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_imported_name_is_used():
    # __init__.py imports in order to re-export
    paths = [p for p in sorted(ROOT.glob("src/ebsolve/*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py"))
    assert len(paths) > 10
    assert [entry for p in paths for entry in unused_imports(p)] == []
