"""Source hygiene: no module imports a name it never uses, the exact
arithmetic modules use no true division and no float literal, the cluster
calculus keeps to its layer, no module keeps a cache or a container that
outlives a call, every function the benchmark's traced run wraps still
exists, no module draws random numbers or imports fractions, every def
of src/qfold has a caller in the engine, the demos or the benchmark, and
the CLI's config schema is a valid schema.

The first four and the import scans for random numbers and fractions are
AST scans.  The import scan
covers src/qfold, tests and demos; the module-level imports of a
package's __init__.py are its re-exports and are exempt.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from jsonschema import Draft202012Validator

from qfold.cli import CONFIG_SCHEMA

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


# Modules whose arithmetic is exact over the integers: Laurent coefficients
# in Z[q, q^-1], roots, Cartan entries and the integer minors of
# is_finite_type.  True division and float literals have no place there.
EXACT_MODULES = ("laurent.py", "rootdata.py", "uqn.py", "qcluster.py",
                 "verify.py")


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


# module -> the qfold modules it may not import: the cluster calculus stands
# without the oracle, and the staircase layer without the harness above it.
FORBIDDEN_IMPORTS = {
    "qcluster": {"uqn", "initquiver", "verify", "cli"},
    "initquiver": {"verify", "cli"},
}


def qfold_imports(path: Path):
    """The qfold modules a module imports, relatively or by full name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(node.module.split(".")[0])
            elif node.level:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("qfold."):
                found.add(node.module.split(".")[1])
            elif node.module == "qfold":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qfold."))
    return found


def test_layers_import_nothing_from_above():
    found = {}
    for name, forbidden in FORBIDDEN_IMPORTS.items():
        bad = qfold_imports(ROOT / "src" / "qfold" / (name + ".py")) & forbidden
        if bad:
            found[name] = sorted(bad)
    assert not found, "layering broken: %s" % found


def test_layer_scan_catches_an_import_from_above(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .rootdata import Root\nfrom . import verify\n"
                      "from .uqn.sub import x\nimport qfold.cli\n"
                      "from qfold.initquiver import staircase\n"
                      "from qfold import folding\n")
    assert qfold_imports(module) == {"rootdata", "verify", "uqn", "cli",
                                     "initquiver", "folding"}


# Module-level names that may hold a dict, list or set: constants built at
# import and never written to.
MODULE_CONTAINERS = {"__all__", "CONFIG_SCHEMA", "CONFIG_VALIDATOR",
                     "COMMANDS", "CHECKS"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                   ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque"}


def _is_container(node):
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        return name in CONTAINER_CALLS
    return isinstance(node, CONTAINER_NODES)


def module_state(path: Path):
    """(line, what) for every functools cache or lru_cache, and for every
    dict, list or set bound at module level or in a class body (state
    that lives as long as the module) outside MODULE_CONTAINERS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend((node.lineno, "functools." + alias.name)
                         for alias in node.names
                         if alias.name in ("cache", "lru_cache"))
        elif isinstance(node, ast.Attribute) \
                and node.attr in ("cache", "lru_cache") \
                and getattr(node.value, "id", None) == "functools":
            found.append((node.lineno, "functools." + node.attr))
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if not _is_container(node.value):
                continue
            found.extend((node.lineno, name.id) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)
                         and name.id not in MODULE_CONTAINERS)
    return sorted(found)


def test_no_module_level_caches_or_containers():
    found = []
    for path in sorted((ROOT / "src" / "qfold").glob("*.py")):
        found.extend("%s:%d %s" % (path.relative_to(ROOT), line, what)
                     for line, what in module_state(path))
    assert not found, "state that outlives a call:\n" + "\n".join(found)


def test_state_scan_catches_caches_and_containers(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import functools\nfrom functools import lru_cache, reduce\n"
        "__all__ = ['f']\nCOMMANDS = {}\n_memo = {}\nSEEN: set = set()\n"
        "ROWS = list(range(3))\nLIMIT = 3\n"
        "class C:\n    table = {k: k for k in 'ab'}\n"
        "@functools.cache\ndef f():\n    local = []\n    return local\n")
    assert module_state(module) == [
        (2, "functools.lru_cache"), (5, "_memo"), (6, "SEEN"), (7, "ROWS"),
        (10, "table"), (11, "functools.cache")]


# The engine is exact and deterministic: no module of src/qfold may draw
# random numbers, and every scalar lives in Z[q, q^-1], so none imports the
# rational numbers of fractions either.
RANDOM_MODULES = {"random", "secrets"}


def imports_of(path: Path, modules):
    """(line, module) for every absolute import of one of the modules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] in modules)
    return sorted(found)


def _engine_imports_of(modules):
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for path in sorted((ROOT / "src" / "qfold").glob("*.py"))
            for line, name in imports_of(path, modules)]


def test_engine_draws_no_random_numbers():
    found = _engine_imports_of(RANDOM_MODULES)
    assert not found, "random-number imports:\n" + "\n".join(found)


def test_random_scan_catches_random_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json\nimport random\nfrom secrets import token_hex\n"
                      "from . import randomness\nimport os.path, random as r\n"
                      "def f():\n    from random import Random\n")
    assert imports_of(module, RANDOM_MODULES) == [
        (2, "random"), (3, "secrets"), (5, "random"), (7, "random")]


def test_engine_imports_no_fractions():
    found = _engine_imports_of({"fractions"})
    assert not found, "fractions imports:\n" + "\n".join(found)


def test_fractions_scan_catches_fractions_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json\nfrom fractions import Fraction\n"
                      "import os, fractions\nfrom . import fractions as f\n"
                      "def g():\n    import fractions as fr\n")
    assert imports_of(module, {"fractions"}) == [
        (2, "fractions"), (3, "fractions"), (6, "fractions")]


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


# Defs of src/qfold that no engine, demo or benchmark code calls but that
# stay, each with its reason.
UNCALLED_KEPT = {
    "CartanDatum.root": "the checked constructor for root coordinates that "
                        "come from outside the engine",
}
CALLERS = ("src", "demos", "perfbench")


def defined_functions(path: Path):
    """(qualname, name) of every module-level def and every method of a
    module-level class, dunder methods left out."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from (("%s.%s" % (node.name, item.name), item.name)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")))


def referenced_names(paths, traced: Path):
    """Every name the modules read, as a bare name or an attribute, and
    every dotted part of a string in traced (the benchmark's table of the
    functions it wraps by name)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and path == traced \
                    and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def uncalled_functions(defining, callers, traced: Path):
    """(path, qualname) of every def of the defining modules whose name no
    caller module reads."""
    names = referenced_names(callers, traced)
    return [(path, qualname) for path in defining
            for qualname, name in defined_functions(path)
            if name not in names]


def test_engine_defines_only_what_it_calls():
    callers = [path for folder in CALLERS
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = ["%s %s" % (path.relative_to(ROOT), qualname)
             for path, qualname in uncalled_functions(
                 sorted((ROOT / "src" / "qfold").glob("*.py")), callers,
                 ROOT / "perfbench" / "layers.py")
             if qualname not in UNCALLED_KEPT]
    assert not found, "defs without an engine caller (move them to a " \
        "tests/ reference module):\n" + "\n".join(found)


def test_caller_scan_catches_a_def_without_a_caller(tmp_path):
    engine = tmp_path / "engine.py"
    engine.write_text(
        "def used():\n    return 1\n\ndef unused():\n    return used()\n"
        "\ndef traced():\n    pass\n\nclass C:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def method(self):\n        return self.x\n"
        "    def helper(self):\n        pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from engine import C\nC().method()\nNAME = 'helper'\n")
    table = tmp_path / "layers.py"
    table.write_text("LAYERS = [('engine', 'traced')]\n")
    # A def's own name does not count for it, and a string counts only in
    # the table of traced functions.
    assert uncalled_functions([engine], [engine, caller], table) == [
        (engine, "unused"), (engine, "traced"), (engine, "C.helper")]
    assert uncalled_functions([engine], [engine, caller, table], table) == [
        (engine, "unused"), (engine, "C.helper")]


def test_config_schema_is_valid():
    # The CLI builds its validator once and never checks the schema itself
    # against the 2020-12 metaschema; this does.
    Draft202012Validator.check_schema(CONFIG_SCHEMA)
