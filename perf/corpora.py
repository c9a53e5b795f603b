"""The benchmark's document collections and the index it serves.

The corpora are fixed datasets, like the paper's DBLP subset and INEX:
they come from ``CORPUS_SEED``, never from ``--seed``, so build times,
cover sizes and query costs are properties of the code and not of the
draw (three ``dblp_like(240)`` draws differ by 14 % in build time and
8 % in labels per element). ``--seed`` decides every operation stream
the workloads send, and which answers are checked.

(The module is not called ``collections`` because ``perf/`` is on
``sys.path`` when ``run.py`` runs as a script, where that name would
shadow the standard library.)
"""

from __future__ import annotations

from typing import List

from repro.core.hopi import HopiIndex
from repro.xmlmodel.generator import dblp_like, inex_like
from repro.xmlmodel.model import Collection

CORPUS_SEED = 2005

#: The label backend an operator would deploy; every served index and
#: every timed build uses it.
BACKEND = "vector"

#: one in this many documents carries an ``erratum`` child on its root
ERRATUM_EVERY = 100

def dblp(n_docs: int) -> Collection:
    """``dblp-N``: ``dblp_like(N)`` plus one rare ``erratum`` child on
    the root of every 100th document (and of the first) — the selective
    tail tag the planner's backward path exists for."""
    collection = dblp_like(n_docs, seed=CORPUS_SEED)
    for doc_id in list(collection.documents)[::ERRATUM_EVERY]:
        collection.add_child(collection.documents[doc_id].root, "erratum")
    return collection


def inex_deep(n_docs: int, elements_per_doc: int) -> Collection:
    """``inex-deep``: deep article trees, no links — every document is
    its own partition, so a build is all per-partition cover work."""
    return inex_like(n_docs, seed=CORPUS_SEED, elements_per_doc=elements_per_doc)


def build_served_index(collection: Collection) -> HopiIndex:
    """The index the serving workloads publish. ``node_weight`` keeps
    this set-up step around half a second; the product-default
    ``closure`` partitioner is what the ``build`` workload times."""
    return HopiIndex.build(
        collection,
        partitioner="node_weight",
        partition_limit=max(collection.num_elements // 16, 1),
        backend=BACKEND,
    )


def document_roots(collection: Collection) -> List[int]:
    return [doc.root for doc in collection.documents.values()]
