"""Ingestion sources: where the streamed documents come from.

A source is an ordered, restartable stream of :class:`DocRecord`
items — the parsed shape of one document plus its outgoing links,
ready to become one ``insert_document`` wire op. Restartability is the
contract that makes crash/resume exact: ``stream(cursor)`` must yield
the *same* documents in the same order for the same constructor
arguments, starting at position ``cursor``. The synthetic generators
get this from seeded RNGs (re-deriving each document independently of
how far a previous run got); the directory walker gets it from sorted
filenames.

Link endpoints:

* intra-document links name local child refs (resolved inside the
  ``insert_document`` op itself);
* inter-document links name a *previously streamed* document by id and
  always target its root — the hub-into-document profile of the
  paper's hybrid collections. Targeting roots keeps resume trivial: a link
  target is resolvable from the recovered collection alone
  (``documents[doc_id].root``), with no side lookup table to persist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: an intra-document link: (local source ref, local target ref)
LocalLink = Tuple[str, str]
#: an inter-document link: (local source ref, target document id)
DocLink = Tuple[str, str]


@dataclass
class DocRecord:
    """One discovered document, in ``insert_document`` op shape.

    ``children`` entries are ``{"ref", "parent", "tag"}`` dicts in
    topological order (a parent ref always precedes its children), so
    the op applies in one pass **and** the ref -> element-id mapping is
    recoverable from the collection after a crash: element ids are
    allocated sequentially, hence ``sorted(document.elements)`` is
    ``[root] + [children in list order]``.
    """

    doc_id: str
    root_tag: str
    children: List[Dict[str, str]] = field(default_factory=list)
    local_links: List[LocalLink] = field(default_factory=list)
    doc_links: List[DocLink] = field(default_factory=list)

    @property
    def num_elements(self) -> int:
        return 1 + len(self.children)


class Source:
    """Base interface: a named, restartable document stream."""

    #: the ``--source`` spec string that recreates this source
    spec: str = ""
    #: total documents the stream will yield, when known up front
    total: Optional[int] = None
    #: the seed of a synthetic stream; 0 for an unseeded one (``dir:``)
    seed: int = 0

    def stream(self, cursor: int = 0) -> Iterator[DocRecord]:
        raise NotImplementedError


class ScaleFreeSource(Source):
    """A scale-free citation graph, one article at a time.

    Preferential attachment (Barabási–Albert flavoured): each new
    document cites earlier documents with probability proportional to
    their in-degree-so-far, so a few early hubs accumulate most of the
    links — the long-tailed profile that stresses the cover join far
    more than the uniform DBLP generator. Every document is derived
    from its own ``(seed, index)``-keyed RNG, so ``stream(cursor)``
    restarts exactly without replaying the prefix.
    """

    def __init__(
        self, n_docs: int, *, seed: int = 2005, cites: int = 3
    ) -> None:
        if n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {n_docs}")
        self.n_docs = n_docs
        self.seed = seed
        self.cites = cites
        self.spec = f"scale-free:{n_docs}"
        self.total = n_docs

    def _doc_id(self, i: int) -> str:
        return f"sf{i:06d}"

    def stream(self, cursor: int = 0) -> Iterator[DocRecord]:
        for i in range(cursor, self.n_docs):
            rng = random.Random(f"{self.seed}:scale-free:{i}")
            children = [
                {"ref": "title", "parent": "root", "tag": "title"},
            ]
            for a in range(rng.randrange(1, 4)):
                children.append(
                    {"ref": f"author{a}", "parent": "root", "tag": "author"}
                )
            doc_links: List[DocLink] = []
            if i > 0:
                n_cites = rng.randrange(1, self.cites + 1)
                for c in range(n_cites):
                    ref = f"cite{c}"
                    children.append(
                        {"ref": ref, "parent": "root", "tag": "cite"}
                    )
                    # preferential attachment without materialising the
                    # degree table: sampling j ~ min of two uniforms
                    # skews linearly toward early (high-degree) hubs
                    j = min(rng.randrange(0, i), rng.randrange(0, i))
                    doc_links.append((ref, self._doc_id(j)))
            yield DocRecord(
                doc_id=self._doc_id(i),
                root_tag="article",
                children=children,
                doc_links=doc_links,
            )


class DeepTreeSource(Source):
    """Deep recursive trees: one long spine per document, with twigs.

    The INEX-ish stress shape for the maintenance path — every
    ``insert_document`` integrates a tall ancestor chain into the
    cover, the worst case for the Section-6.1 new-partition rule.
    Occasional links into earlier documents keep the stream connected.
    """

    def __init__(
        self, n_docs: int, *, seed: int = 2005, depth: int = 24
    ) -> None:
        if n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {n_docs}")
        self.n_docs = n_docs
        self.seed = seed
        self.depth = depth
        self.spec = f"deep-tree:{n_docs}"
        self.total = n_docs

    def _doc_id(self, i: int) -> str:
        return f"dt{i:06d}"

    def stream(self, cursor: int = 0) -> Iterator[DocRecord]:
        tags = ("section", "subsection", "paragraph", "item")
        for i in range(cursor, self.n_docs):
            rng = random.Random(f"{self.seed}:deep-tree:{i}")
            depth = rng.randrange(self.depth // 2, self.depth + 1)
            children = []
            parent = "root"
            for level in range(depth):
                ref = f"s{level}"
                children.append(
                    {"ref": ref, "parent": parent,
                     "tag": tags[min(level, len(tags) - 1)]}
                )
                parent = ref
                if rng.random() < 0.3:  # a twig off the spine
                    children.append(
                        {"ref": f"t{level}", "parent": ref, "tag": "note"}
                    )
            doc_links: List[DocLink] = []
            if i > 0 and rng.random() < 0.5:
                # the deepest element references an earlier document
                doc_links.append(
                    (parent, self._doc_id(rng.randrange(0, i)))
                )
            yield DocRecord(
                doc_id=self._doc_id(i),
                root_tag="book",
                children=children,
                doc_links=doc_links,
            )


class OntologyMixSource(Source):
    """Ontology-heavy tag mixes: synonym clusters + intra-links.

    Documents draw their tags from small synonym clusters (``author`` /
    ``creator`` / ``writer`` ...) so ``~tag`` similarity queries fan
    out across the vocabulary, and carry intra-document reference
    links — the shape that stresses the planner's similarity expansion
    rather than raw reachability.
    """

    CLUSTERS = (
        ("author", "creator", "writer"),
        ("title", "name", "heading"),
        ("abstract", "summary", "synopsis"),
        ("reference", "citation", "pointer"),
    )

    def __init__(self, n_docs: int, *, seed: int = 2005) -> None:
        if n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {n_docs}")
        self.n_docs = n_docs
        self.seed = seed
        self.spec = f"ontology:{n_docs}"
        self.total = n_docs

    def _doc_id(self, i: int) -> str:
        return f"om{i:06d}"

    def stream(self, cursor: int = 0) -> Iterator[DocRecord]:
        for i in range(cursor, self.n_docs):
            rng = random.Random(f"{self.seed}:ontology:{i}")
            children = []
            refs: List[str] = []
            for k in range(rng.randrange(4, 10)):
                cluster = self.CLUSTERS[rng.randrange(len(self.CLUSTERS))]
                tag = cluster[rng.randrange(len(cluster))]
                ref = f"e{k}"
                parent = "root" if not refs or rng.random() < 0.5 else (
                    refs[rng.randrange(len(refs))]
                )
                children.append({"ref": ref, "parent": parent, "tag": tag})
                refs.append(ref)
            local_links: List[LocalLink] = []
            if len(refs) >= 2 and rng.random() < 0.6:
                a, b = rng.sample(range(len(refs)), 2)
                local_links.append((refs[a], refs[b]))
            doc_links: List[DocLink] = []
            if i > 0 and rng.random() < 0.4:
                doc_links.append(
                    (refs[rng.randrange(len(refs))],
                     self._doc_id(rng.randrange(0, i)))
                )
            yield DocRecord(
                doc_id=self._doc_id(i),
                root_tag="entry",
                children=children,
                local_links=local_links,
                doc_links=doc_links,
            )


class DirectorySource(Source):
    """Walk a directory of ``*.xml`` files in sorted order.

    Files parse through the repo's own recursive-descent parser; link
    attributes follow the XLink convention of
    :func:`~repro.xmlmodel.parser.load_collection` (its
    ``HREF_ATTRIBUTES`` and ``ID_ATTRIBUTE``): ``href="#anchor"``
    becomes an intra-document link to the element whose ``id`` matches,
    ``xlink:href="docname"`` an inter-document link to that document's
    root. Cross-document anchor references (``docname#anchor``) and
    references to documents not yet streamed degrade to the target
    document's root / are dropped, with a count kept — a crawl
    discovers what it discovers.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if not self.path.is_dir():
            raise ValueError(f"not a directory: {self.path}")
        self._files = sorted(self.path.rglob("*.xml"))
        self.spec = f"dir:{self.path}"
        self.total = len(self._files)

    def stream(self, cursor: int = 0) -> Iterator[DocRecord]:
        from repro.xmlmodel.parser import HREF_ATTRIBUTES, ID_ATTRIBUTE, parse_document

        for file in self._files[cursor:]:
            parsed = parse_document(file.read_text())
            doc_id = file.stem
            children: List[Dict[str, str]] = []
            anchors: Dict[str, str] = {}  # id attribute -> local ref
            hrefs: List[Tuple[str, str]] = []  # (local ref, href)
            counter = 0
            # BFS in child order keeps children topologically sorted
            # (parents always precede their children in the op)
            queue = [(parsed, "root")]
            while queue:
                node, ref = queue.pop(0)
                if ID_ATTRIBUTE in node.attributes:
                    anchors[node.attributes[ID_ATTRIBUTE]] = ref
                for attr in HREF_ATTRIBUTES:
                    if attr in node.attributes:
                        hrefs.append((ref, node.attributes[attr]))
                        break
                for child in node.children:
                    counter += 1
                    child_ref = f"c{counter}"
                    children.append(
                        {"ref": child_ref, "parent": ref, "tag": child.tag}
                    )
                    queue.append((child, child_ref))
            local_links: List[LocalLink] = []
            doc_links: List[DocLink] = []
            for source_ref, href in hrefs:
                if href.startswith("#"):
                    target_ref = anchors.get(href[1:])
                    if target_ref is not None and target_ref != source_ref:
                        local_links.append((source_ref, target_ref))
                else:
                    target_doc = href.partition("#")[0] or doc_id
                    if target_doc != doc_id:
                        doc_links.append((source_ref, target_doc))
            yield DocRecord(
                doc_id=doc_id,
                root_tag=parsed.tag,
                children=children,
                local_links=local_links,
                doc_links=doc_links,
            )


def make_source(spec: str, *, seed: int = 2005) -> Source:
    """Build a source from its ``--source`` spec string.

    ``dir:PATH`` walks a directory of XML files; ``scale-free:N``,
    ``deep-tree:N`` and ``ontology:N`` stream N synthetic documents
    (all three seeded — the same spec + seed is the same stream).
    """
    kind, _, arg = spec.partition(":")
    if kind == "dir":
        if not arg:
            raise ValueError("dir: source needs a path, e.g. dir:docs/")
        return DirectorySource(arg)
    if kind in ("scale-free", "deep-tree", "ontology"):
        try:
            n_docs = int(arg)
        except ValueError:
            raise ValueError(
                f"{kind}: source needs a document count, e.g. {kind}:1000"
            )
        if kind == "scale-free":
            return ScaleFreeSource(n_docs, seed=seed)
        if kind == "deep-tree":
            return DeepTreeSource(n_docs, seed=seed)
        return OntologyMixSource(n_docs, seed=seed)
    raise ValueError(
        f"unknown source spec {spec!r} (expected dir:PATH, scale-free:N, "
        "deep-tree:N or ontology:N)"
    )
