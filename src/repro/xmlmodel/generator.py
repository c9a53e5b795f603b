"""Synthetic XML collection generators.

The paper evaluates on two proprietary datasets (Table 1):

* a DBLP subset — 6,210 publication documents, 168,991 elements
  (≈ 27 per document), 25,368 citation XLinks (≈ 4 per document), 13.2 MB;
* the INEX collection — 12,232 article documents, 12,061,348 elements
  (≈ 986 per document) and **no** inter-document links.

Neither dataset ships with the paper, so these generators produce
collections with the same structural profile (shallow bibliographic
records with skewed citation in-degree; deep article trees without
links). Scale is a parameter everywhere — the benchmarks default to
laptop-sized collections and print the scale factor used.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.xmlmodel.model import Collection, Element

_FIRST = [
    "Ada", "Alan", "Barbara", "Claude", "Donald", "Edgar", "Frances", "Grace",
    "Hedy", "John", "Katherine", "Leslie", "Margaret", "Niklaus", "Peter",
]
_LAST = [
    "Codd", "Dijkstra", "Hopper", "Knuth", "Lamport", "Liskov", "Lovelace",
    "McCarthy", "Shannon", "Tarjan", "Turing", "Wirth",
]
_TITLE_WORDS = [
    "efficient", "incremental", "index", "maintenance", "xml", "graph",
    "reachability", "queries", "distributed", "adaptive", "ranking",
    "semistructured", "retrieval", "labeling", "compression", "covers",
]
_SECTION_WORDS = [
    "introduction", "model", "foundations", "algorithms", "distance",
    "maintenance", "experiments", "conclusion", "related", "discussion",
]


def _title(rng: random.Random, words: Sequence[str], k: int) -> str:
    return " ".join(rng.choice(words) for _ in range(k)).capitalize()


def dblp_like(
    n_docs: int,
    *,
    seed: int = 42,
    mean_authors: float = 2.5,
    mean_cites: float = 4.0,
    preferential: float = 0.7,
    rng: Optional[random.Random] = None,
) -> Collection:
    """A citation-linked bibliographic collection in the style of DBLP.

    Every document is one publication::

        <article>
          <title/> <year/> <pages/>
          <authors> <author/>* </authors>
          <citations> <cite/>* </citations>   # each cite links to
        </article>                            # another document's root

    Citations target earlier publications with probability
    ``preferential`` proportionally to their current in-degree (rich-get-
    richer, mirroring real citation skew) and uniformly otherwise. The
    defaults give ≈ 27 elements and ≈ 4 outgoing citation links per
    document, matching the per-document profile of the paper's DBLP
    subset (Table 1). The resulting document-level graph is a DAG, like
    real citation graphs.

    Args:
        n_docs: number of publication documents.
        seed: RNG seed (ignored when ``rng`` is given).
        mean_authors: average number of ``author`` elements.
        mean_cites: average number of outgoing citations per document.
        preferential: probability a citation follows in-degree-
            proportional preferential attachment instead of a uniform pick.
        rng: optional external RNG for reproducible composition.
    """
    rng = rng or random.Random(seed)
    collection = Collection()
    roots: List[int] = []
    cite_elements: List[List[Element]] = []
    # weighted list of target doc indexes for preferential attachment;
    # every doc enters once and again per received citation.
    attachment: List[int] = []

    for i in range(n_docs):
        doc_id = f"dblp{i}"
        root = collection.new_document(doc_id, "article")
        roots.append(root.eid)
        title = collection.add_child(root.eid, "title")
        title.text = _title(rng, _TITLE_WORDS, rng.randint(4, 8))
        collection.add_child(root.eid, "year").text = str(rng.randint(1985, 2004))
        collection.add_child(root.eid, "pages").text = (
            f"{rng.randint(1, 500)}-{rng.randint(501, 999)}"
        )
        authors = collection.add_child(root.eid, "authors")
        n_authors = max(1, int(rng.expovariate(1.0 / mean_authors)) + 1)
        for _ in range(min(n_authors, 8)):
            author = collection.add_child(authors.eid, "author")
            author.text = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
        # a couple of filler metadata elements to reach ~27 elements/doc
        meta = collection.add_child(root.eid, "metadata")
        for tag in ("booktitle", "publisher", "ee", "url"):
            collection.add_child(meta.eid, tag).text = _title(rng, _TITLE_WORDS, 2)
        keywords = collection.add_child(root.eid, "keywords")
        for _ in range(rng.randint(2, 5)):
            collection.add_child(keywords.eid, "keyword").text = rng.choice(
                _TITLE_WORDS
            )
        citations = collection.add_child(root.eid, "citations")
        cites: List[Element] = []
        if i > 0:
            n_cites = min(int(rng.expovariate(1.0 / mean_cites)) + 1, i, 15)
            for _ in range(n_cites):
                cites.append(collection.add_child(citations.eid, "cite"))
        cite_elements.append(cites)
        attachment.append(i)

    for i, cites in enumerate(cite_elements):
        chosen: set[int] = set()
        for cite in cites:
            for _ in range(8):  # rejection-sample a distinct earlier target
                if i > 0 and rng.random() < preferential and attachment:
                    target = rng.choice(attachment)
                else:
                    target = rng.randrange(i) if i > 0 else 0
                if target < i and target not in chosen:
                    break
            else:
                continue
            chosen.add(target)
            collection.add_link(cite.eid, roots[target])
            attachment.append(target)
    return collection


def inex_like(
    n_docs: int,
    *,
    seed: int = 7,
    mean_sections: int = 5,
    mean_paragraphs: int = 8,
    elements_per_doc: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Collection:
    """A deep tree-structured article collection in the style of INEX.

    Every document is one journal article::

        <article>
          <fm> <title/> <author/>* </fm>
          <bdy> <sec> <st/> <p/>* <ss> <st/> <p/>* </ss>* </sec>* </bdy>
          <bm> <bib> <bibentry/>* </bib> </bm>

    There are **no** inter-document links (the paper's INEX collection has
    none), so every document separates the document-level graph and the
    Theorem-2 deletion fast path always applies.

    Args:
        n_docs: number of articles.
        seed: RNG seed (ignored when ``rng`` is given).
        mean_sections: sections per article.
        mean_paragraphs: paragraphs per section/subsection.
        elements_per_doc: approximate element-count target per document;
            when given, sections are scaled to hit it (the paper's INEX
            average is ≈ 986 elements per document).
        rng: optional external RNG.
    """
    rng = rng or random.Random(seed)
    if elements_per_doc is not None:
        # one section subtree is ~ (2 + mean_paragraphs) * 3 elements
        per_section = (2 + mean_paragraphs) * 3
        mean_sections = max(1, elements_per_doc // per_section)
    collection = Collection()
    for i in range(n_docs):
        doc_id = f"inex{i}"
        root = collection.new_document(doc_id, "article")
        fm = collection.add_child(root.eid, "fm")
        collection.add_child(fm.eid, "title").text = _title(
            rng, _TITLE_WORDS, rng.randint(5, 9)
        )
        for _ in range(rng.randint(1, 4)):
            collection.add_child(fm.eid, "author").text = (
                f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
            )
        body = collection.add_child(root.eid, "bdy")
        n_sections = max(1, rng.randint(mean_sections - 1, mean_sections + 1))
        for _ in range(n_sections):
            sec = collection.add_child(body.eid, "sec")
            collection.add_child(sec.eid, "st").text = _title(
                rng, _SECTION_WORDS, 2
            )
            for _ in range(max(1, rng.randint(mean_paragraphs - 2, mean_paragraphs + 2))):
                collection.add_child(sec.eid, "p").text = _title(
                    rng, _TITLE_WORDS, 12
                )
            for _ in range(rng.randint(1, 3)):
                ss = collection.add_child(sec.eid, "ss")
                collection.add_child(ss.eid, "st").text = _title(
                    rng, _SECTION_WORDS, 2
                )
                for _ in range(max(1, rng.randint(mean_paragraphs - 3, mean_paragraphs + 1))):
                    collection.add_child(ss.eid, "p").text = _title(
                        rng, _TITLE_WORDS, 10
                    )
        bm = collection.add_child(root.eid, "bm")
        bib = collection.add_child(bm.eid, "bib")
        for _ in range(rng.randint(3, 12)):
            collection.add_child(bib.eid, "bibentry").text = _title(
                rng, _TITLE_WORDS, 6
            )
    return collection
