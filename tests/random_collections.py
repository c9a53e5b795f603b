"""Small arbitrary collections for property-based tests.

Random trees, random intra-document links and random (optionally
cyclic) inter-document links — shapes the synthetic DBLP/INEX
generators in :mod:`repro.xmlmodel.generator` never produce.
"""

import random
from typing import Optional

from repro.xmlmodel.model import Collection


def random_collection(
    *,
    n_docs: int,
    max_elements_per_doc: int = 8,
    intra_link_probability: float = 0.15,
    inter_links: int = 4,
    allow_cycles: bool = True,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> Collection:
    """Small arbitrary collections for property-based testing.

    Trees are uniform random recursive trees; intra-links connect random
    element pairs of a document; ``inter_links`` random cross-document
    links are added (possibly creating document-level cycles when
    ``allow_cycles`` is true, otherwise only forward links doc_i -> doc_j
    with i < j are drawn).
    """
    rng = rng or random.Random(seed)
    collection = Collection()
    tags = ["a", "b", "c", "d", "e"]
    doc_ids = [f"doc{i}" for i in range(n_docs)]
    for doc_id in doc_ids:
        root = collection.new_document(doc_id, rng.choice(tags))
        members = [root.eid]
        for _ in range(rng.randrange(max_elements_per_doc)):
            parent = rng.choice(members)
            members.append(collection.add_child(parent, rng.choice(tags)).eid)
        for u in members:
            for v in members:
                if u != v and rng.random() < intra_link_probability / len(members):
                    collection.add_link(u, v)
    for _ in range(inter_links):
        if n_docs < 2:
            break
        if allow_cycles:
            i, j = rng.randrange(n_docs), rng.randrange(n_docs)
            if i == j:
                continue
        else:
            i = rng.randrange(n_docs - 1)
            j = rng.randrange(i + 1, n_docs)
        u = rng.choice(sorted(collection.elements_of(doc_ids[i])))
        v = rng.choice(sorted(collection.elements_of(doc_ids[j])))
        collection.add_link(u, v)
    return collection
