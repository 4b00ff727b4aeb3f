"""The committed mutation checks of tests/mutants.py: each old text occurs
once in src/, and (with --slow) each mutant fails its killing test."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def test_every_old_text_occurs_once_in_src():
    sources = {path: path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    for mutant in MUTANTS:
        counts = {str(path.relative_to(ROOT)): text.count(mutant.old)
                  for path, text in sources.items() if mutant.old in text}
        assert counts == {mutant.module: 1}, mutant.name


def _copy(workdir: Path) -> Path:
    """A copy of what a test run reads: pyproject.toml puts its own src/
    first on the path, so the copy imports its own engine."""
    copy = workdir / "repo"
    copy.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for folder in ("src", "tests"):
        shutil.copytree(ROOT / folder, copy / folder, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path, slow_enabled):
    # One subprocess at a time; pytest exits 1 exactly when a test failed
    # (2 to 5 are interruptions, usage errors and nothing collected).
    if not slow_enabled:
        pytest.skip("needs --slow")
    copy = _copy(tmp_path)
    module = copy / mutant.module
    module.write_text(module.read_text().replace(mutant.old, mutant.new))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         mutant.test],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert run.returncode == 1, "mutant survived: %s\n%s" % (
        mutant.name, run.stdout[-2000:])
