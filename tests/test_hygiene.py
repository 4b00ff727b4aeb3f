"""Source hygiene: no module imports a name it never uses.

An AST scan over src/qfold, tests and demos.  The module-level imports of
a package's __init__.py are its re-exports and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/qfold", "tests", "demos")


def _annotation_names(node):
    """Names inside string annotations such as -> "Root"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return [n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)]
        except SyntaxError:
            return []
    return []


def unused_imports(path: Path):
    """(line, name) for every imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if reexports and node in tree.body:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            found.extend("%s:%d %s" % (path.relative_to(ROOT), line, name)
                         for line, name in unused_imports(path))
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json\nimport os\nfrom re import compile as c\n"
                      "def f(x: \"Path\") -> \"c\":\n    return os.sep\n")
    assert unused_imports(module) == [(1, "json")]
