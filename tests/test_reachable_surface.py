"""Guard: every public name under ``src/repro`` has a product reference.

The package has repeatedly grown functions, classes and methods that
only their own tests call. This test walks ``src/repro`` with ``ast``
and fails when a public top-level function or class, or a public
method, is named in no Python file under ``src/``, ``perf/`` or
``examples/`` other than by its own definition. Tests do not count:
a name only tests use is either deleted or listed in :data:`ALLOWED`
with the reason it stays.

The check is textual (a whole-word match), so it is cheap and errs
towards passing: a name shared with a referenced one, or mentioned in
a docstring, counts as referenced.
"""

import ast
import re
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
    # Theorem 3 splices whole rows on interned ids (splice_region); the
    # node-level row writers stay the mutator the frozen oracle shares
    "TwoHopCover.set_lin": "node-level row writer the cover and copy-on-write tests drive",
    "TwoHopCover.set_lout": "node-level row writer the cover and copy-on-write tests drive",
    "DistanceTwoHopCover.set_lin": "node-level row writer the cover and copy-on-write tests drive",
    "DistanceTwoHopCover.set_lout": "node-level row writer the cover and copy-on-write tests drive",
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


def word_counts():
    """Whole-word occurrence counts over the product's Python files."""
    counts = Counter()
    for top in CORPUS_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return counts


def test_every_public_name_has_a_product_reference():
    definitions = list(public_definitions())
    defined = Counter(name for _, name in definitions)
    counts = word_counts()
    unreached = sorted(
        qualified
        for qualified, name in definitions
        if counts[name] <= defined[name]
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
    defined = Counter(definitions.values())
    counts = word_counts()
    for qualified in ALLOWED:
        assert qualified in definitions, f"{qualified} is not defined"
        name = definitions[qualified]
        assert counts[name] <= defined[name], f"{qualified} now has a caller"
