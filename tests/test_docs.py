"""Doctest harness for the documentation code blocks and docstring examples.

Every ``>>>`` snippet in the README, ``docs/`` and the docstrings of every
``repro`` module must execute and produce exactly the documented output, so
the documented examples cannot rot as the code evolves.  CI runs the same
markdown files through ``pytest --doctest-glob`` in the docs job; this module
keeps both checks inside the tier-1 suite too.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)

DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "architecture.md",
]


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_documented_snippets_run(path):
    assert path.exists(), f"documented file missing: {path}"
    result = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {path.name}"
    assert result.attempted > 0, f"no doctest examples found in {path.name}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring_examples_run(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {name}"


def test_readme_and_architecture_link_each_other():
    readme = (REPO_ROOT / "README.md").read_text()
    arch = (REPO_ROOT / "docs" / "architecture.md").read_text()
    assert "docs/architecture.md" in readme
    assert "README" in arch
    # ...and the ROADMAP links the architecture document too.
    assert "docs/architecture.md" in (REPO_ROOT / "ROADMAP.md").read_text()
