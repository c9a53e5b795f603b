"""Documentation lint: internal links resolve, modules are documented.

This is the docs half of CI: it keeps README.md / ARCHITECTURE.md
honest as the code moves (every relative link must point at a real
file, the documented sections must exist) and guards that the package
stays ``pydoc``-able — every ``repro`` module imports cleanly and
carries a module docstring.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown files whose relative links must resolve
DOC_FILES = ["README.md", "ARCHITECTURE.md", "ROADMAP.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_relative_links(text):
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("doc", DOC_FILES)
def test_internal_links_resolve(doc):
    path = REPO_ROOT / doc
    assert path.exists(), f"{doc} is missing"
    for target in iter_relative_links(path.read_text(encoding="utf-8")):
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{doc}: broken link -> {target}"


def test_readme_covers_the_essentials():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in (
        "repro build",
        "repro query",
        "repro serve",
        "--workers",
        "ARCHITECTURE.md",
        "BENCHMARK.json",
        "perf/README.md",
    ):
        assert needle in text, f"README.md should mention {needle!r}"


def test_architecture_documents_the_build_pipeline():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "Offline build pipeline" in text
    for needle in ("serial", "process", "snapshot", "--workers"):
        assert needle in text, f"ARCHITECTURE.md should mention {needle!r}"


def test_every_module_imports_with_a_docstring():
    """The `python -m pydoc repro` guarantee, for the whole tree."""
    assert repro.__doc__, "repro package needs a docstring"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        assert module.__doc__, f"{info.name} is missing a module docstring"


def test_examples_are_linked_and_exist():
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert examples, "examples/ should not be empty"
    names = {p.name for p in examples}
    assert "parallel_build.py" in names
