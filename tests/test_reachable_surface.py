"""Guard: every public name under ``src/repro`` has a product reference.

The package has repeatedly grown functions, classes and methods that
only their own tests call. This test walks ``src/repro`` with ``ast``
and fails when a public top-level function or class, or a public
method, is used by no code in a Python file under ``src/``, ``perf/``
or ``examples/``. Tests do not count:
a name only tests use is either deleted or listed in :data:`ALLOWED`
with the reason it stays.

A name counts where code uses it: an ``ast`` ``Name`` or ``Attribute``
node (f-string expressions included) or a string argument of
``getattr``, ``hasattr`` or ``setattr``. Words in docstrings and
comments, and imports, do not count. The check errs towards passing: a
use of a name shared by two definitions counts for both.

A second guard reads each module's imports the same way: a name a
module imports and never reads is dead weight on every import of it.
"""

import ast
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "perf", "examples")

#: public names with no product reference, each with why it stays (a
#: listed class covers its methods)
ALLOWED = {
    "TreeLabeling": "held for ROADMAP item 2 (interval labels for tree edges)",
    "canonical_snapshot_bytes": "byte-identity oracle of the pipeline, copy-on-write, WAL and ingest tests",
    "DiGraph.has_edge": "edge membership the graph, skeleton and model tests assert with",
    "TwoHopCover.from_entries": "batch constructor the PLL and array-cover tests compare built tables with",
    "DistanceTwoHopCover.from_entries": "batch constructor the PLL and array-cover tests compare built tables with",
}


def public_definitions():
    """``(qualified name, bare name)`` of every public top-level
    function / class and every public method under ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name, node.name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not item.name.startswith("_"):
                            yield f"{node.name}.{item.name}", item.name


_REFLECTION = ("getattr", "hasattr", "setattr")


def used_names():
    """How often code under the product directories uses each name."""
    counts = Counter()
    for top in CORPUS_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _REFLECTION
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    counts[node.args[1].value] += 1
    return counts


def test_every_public_name_has_a_product_reference():
    counts = used_names()
    unreached = sorted(
        qualified
        for qualified, name in public_definitions()
        if not counts[name]
        and qualified not in ALLOWED
        and qualified.split(".")[0] not in ALLOWED
    )
    assert not unreached, (
        "public names no product file references (delete them, or list "
        f"them in ALLOWED with a reason): {unreached}"
    )


def test_allow_list_names_only_real_unreferenced_definitions():
    """An entry that is gone or has gained a product caller is stale."""
    definitions = dict(public_definitions())
    counts = used_names()
    for qualified in ALLOWED:
        assert qualified in definitions, f"{qualified} is not defined"
        assert not counts[definitions[qualified]], f"{qualified} now has a caller"


def unread_imports(tree: ast.Module):
    """The names ``tree`` binds by an import and never reads: no
    ``Name`` node (an attribute chain's root is one) and no ``__all__``
    entry. ``from __future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    """Package ``__init__`` modules re-export what they import, so they
    are not read."""
    unread = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unread, f"imported and never read: {unread}"
