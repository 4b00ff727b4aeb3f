"""Source hygiene: no module imports a name it never uses, the exact
arithmetic modules use no true division and no float literal, and every
function the benchmark's traced run wraps still exists.

The first two are AST scans.  The import scan covers src/qfold, tests and
demos; the module-level imports of a package's __init__.py are its
re-exports and are exempt.
"""

from __future__ import annotations

import ast
import importlib
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


# Modules whose arithmetic is exact over int/Fraction coefficients: true
# division and float literals have no place there.  rootdata and
# convexorder divide Fractions on purpose and are not scanned.
EXACT_MODULES = ("laurent.py", "uqn.py", "qcluster.py", "verify.py")


def inexact_arithmetic(path: Path):
    """(line, what) for every true division and float literal."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, float):
            found.append((node.lineno, "float literal %r" % node.value))
    return sorted(found)


def test_exact_modules_have_no_true_division_or_float():
    found = []
    for name in EXACT_MODULES:
        path = ROOT / "src" / "qfold" / name
        found.extend("%s:%d %s" % (path.relative_to(ROOT), line, what)
                     for line, what in inexact_arithmetic(path))
    assert not found, "inexact arithmetic:\n" + "\n".join(found)


def test_scan_catches_true_division_and_floats(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("a = 7 // 2\nb = a / 3\nc = 0.5\na /= 2\n"
                      "d = '1/2'\ne = 1e3\n")
    assert inexact_arithmetic(module) == [
        (2, "true division"), (3, "float literal 0.5"),
        (4, "true division"), (6, "float literal 1000.0")]


def perfbench_layers():
    """(module, qualname) of every entry of LAYERS in perfbench/layers.py,
    read without importing the benchmark."""
    path = ROOT / "perfbench" / "layers.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return [(module, qualname) for _, module, qualname, _, _
                    in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layers.py defines no LAYERS")


def unpatchable(layers):
    """The (module, qualname) pairs the traced run could not wrap.  As in
    perfbench's Tracer.patch, the owner is reached by getattr along the
    qualname and the function must be in the owner's own vars(), so an
    inherited or missing attribute does not count."""
    missing = []
    for module_name, qualname in layers:
        owner = importlib.import_module(module_name)
        *owner_path, attr = qualname.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append((module_name, qualname))
    return missing


def test_perfbench_layers_resolve():
    layers = perfbench_layers()
    assert len(layers) > 30
    assert unpatchable(layers) == []


def test_layer_check_catches_missing_functions():
    layers = [("qfold.verify", "normalized_shuffle_monomial"),
              ("qfold.verify", "no_such_function"),
              ("qfold.uqn", "NoSuchClass.method"),
              ("qfold.uqn", "ShuffleElement.__format__")]
    assert unpatchable(layers) == layers[1:]
