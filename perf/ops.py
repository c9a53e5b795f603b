"""Seeded operation streams: what each workload sends.

Everything here is a pure function of ``(seed, counts, corpus)``, so a
seed names one exact list of requests. The *shapes* of the requests —
which tags a path joins, how many children an inserted document has —
are fixed lists: a seed decides the order, the windows that keep each
request a distinct cache key, and the elements an update touches. That
keeps the work in a run the same multiset under every seed, which is
what lets medians from different seeds be compared.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.xmlmodel.model import Collection

# ---------------------------------------------------------------------
# read-cold: distinct path expressions, each requested exactly once
# ---------------------------------------------------------------------

#: ``(endpoint, path)`` shapes by class. Each request appends its own
#: ``limit``; the window is part of the canonical plan key, so no two
#: requests share a result-cache entry, while requests of one shape do
#: share descendant-step probes through the per-epoch probe cache.
COLD_SHAPES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    # two steps. Cheap: heads that reach nothing or one subtree. The
    # middle group is where the median request falls (8 of 17 queries
    # per block are cheaper, 4 dearer), so its five shapes cost the
    # same, 11-12 ms alone; heads vary so probe sharing varies.
    "two_step_cheap": (
        ("query", "//title//cite"), ("query", "//year//article"),
        ("query", "//metadata//ee"),
    ),
    "two_step": (
        ("query", "//article//pages"), ("query", "//citations//title"),
        ("query", "//article//url"), ("query", "//citations//year"),
        ("query", "//article//year"),
    ),
    "two_step_heavy": (
        ("query", "//article//author"), ("query", "//cite//title"),
        ("query", "//citations//author"),
    ),
    # a rare tail: the planner should start from the tail and go backward
    "selective": (
        ("query", "//*//erratum"), ("query", "//article//erratum"),
        ("query", "//cite//erratum"),
    ),
    # three descendant steps: the slow class. It is a tenth of the
    # requests, so p95 is its median; the three shapes cost the same
    # (290 ms alone) so that this median does not sit between two modes
    "three_step": (
        ("query", "//citations//cite//article"),
        ("query", "//article//cite//title"),
        ("query", "//citations//article//author"),
    ),
    "predicate": (
        ("query", "//article[//erratum]//author"),
        ("query", "//article[citations]//keyword"),
        ("query", "//citations[cite]//title"),
    ),
    "similar": (("query", "//~article//author"), ("query", "//~paper//title")),
    "count": (
        ("count", "//article//author"), ("count", "//cite//title"),
        ("count", "//citations//keyword"),
    ),
}

#: requests of each class per block of 20: 45 % two-step, 15 %
#: selective, 10 % three-step, 10 % predicate, 5 % ~tag, 15 % count
COLD_MIX = {
    "two_step_cheap": 3, "two_step": 5, "two_step_heavy": 1,
    "selective": 3, "three_step": 2, "predicate": 2, "similar": 1,
    "count": 3,
}


#: the smallest window a cold request asks for
COLD_LIMIT = 20


def cold_requests(seed: int, blocks: int) -> List[Tuple[str, str, str]]:
    """``blocks * 20`` distinct ``(class, endpoint, path)`` requests.

    The requests of one shape differ in their ``limit`` only, and the
    limits of a shape are a seeded sample of a narrow band: a window of
    600 costs a two-step twice what a window of 20 does, and with limits
    drawn from a wide range the median request moved 13 % with the seed
    on a quiet host."""
    rng = random.Random(f"cold-{seed}")
    requests = []
    for cls, per_block in COLD_MIX.items():
        shapes = COLD_SHAPES[cls]
        per_shape = -(-per_block * blocks // len(shapes))
        band = range(COLD_LIMIT, COLD_LIMIT + max(2 * per_shape, 32))
        limits = [rng.sample(band, per_shape) for _ in shapes]
        for i in range(per_block * blocks):
            endpoint, path = shapes[i % len(shapes)]
            limit = limits[i % len(shapes)].pop()
            requests.append((cls, endpoint, f"{path} limit {limit}"))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------
# read-hot: a Zipf draw over a small set of warmed paths
# ---------------------------------------------------------------------

HOT_PATHS = 64
ZIPF_S = 1.1


def hot_paths() -> List[str]:
    """The 64 hot path expressions (the same under every seed: they are
    the working set, the seed draws from it)."""
    shapes = [
        path for cls in ("two_step", "two_step_heavy")
        for _, path in COLD_SHAPES[cls]
    ]
    return [
        f"{shapes[i % len(shapes)]} limit {10 + i // len(shapes)}"
        for i in range(HOT_PATHS)
    ]


def hot_draws(seed: int, segments: int, per_segment: int) -> List[List[int]]:
    """Per segment, ``per_segment`` indices into :func:`hot_paths`."""
    rng = random.Random(f"hot-{seed}")
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, HOT_PATHS + 1)]
    population = range(HOT_PATHS)
    return [
        rng.choices(population, weights, k=per_segment) for _ in range(segments)
    ]


def connected_pairs(
    seed: int, segments: int, per_segment: int, num_elements: int
) -> List[List[Tuple[int, int]]]:
    rng = random.Random(f"connected-{seed}")
    return [
        [(rng.randrange(num_elements), rng.randrange(num_elements))
         for _ in range(per_segment)]
        for _ in range(segments)
    ]


# ---------------------------------------------------------------------
# write-mixed: update batches in the /v1/update wire format
# ---------------------------------------------------------------------

Op = Dict[str, Any]


class UpdateStream:
    """Draws update operations against a ``dblp-N`` corpus.

    Only elements of the original corpus are ever referenced by id, so
    the stream does not depend on the ids the server hands out — which
    lets two writers race without making the outcome order-dependent.
    """

    def __init__(
        self, seed: int, collection: Collection, exclude: Sequence[str] = ()
    ) -> None:
        """``exclude``: documents the workload deletes, which therefore
        must not be cited or extended by any later op."""
        self.rng = random.Random(f"update-{seed}")
        self.seed = seed
        self.doc_ids: List[str] = [
            d for d in collection.documents if d not in set(exclude)
        ]
        self.roots: List[int] = [
            collection.documents[d].root for d in self.doc_ids
        ]
        self.citations: List[int] = [
            next(
                e for e in sorted(collection.elements_of(d))
                if collection.elements[e].tag == "citations"
            )
            for d in self.doc_ids
        ]
        self._edges = set(collection.inter_links)
        self._inserted = 0

    def insert_document(self, tag: str) -> Op:
        """A new publication: title, a citation list of 2-4 ``cite``
        children (4-6 children in all), each linked to an original
        document's root."""
        rng = self.rng
        n_cites = rng.randint(2, 4)
        children = [
            {"tag": "title"},
            {"tag": "citations", "ref": "c"},
        ] + [
            {"tag": "cite", "parent": "c", "ref": f"x{i}"} for i in range(n_cites)
        ]
        targets = rng.sample(self.roots, n_cites)
        self._inserted += 1
        return {
            "op": "insert_document",
            "doc_id": f"{tag}-{self.seed}-{self._inserted}",
            "root_tag": "article",
            "children": children,
            "links": [[f"x{i}", target] for i, target in enumerate(targets)],
        }

    def insert_element(self) -> Op:
        return {
            "op": "insert_element",
            "parent": self.rng.choice(self.roots),
            "tag": "note",
        }

    def insert_edge(self) -> Op:
        """A new citation from a later original document to an earlier
        one (the corpus stays a DAG, like a real citation graph)."""
        while True:
            i = self.rng.randrange(1, len(self.roots))
            edge = (self.citations[i], self.roots[self.rng.randrange(i)])
            if edge not in self._edges:
                self._edges.add(edge)
                return {"op": "insert_edge", "source": edge[0], "target": edge[1]}

    def rw_batches(self, n: int) -> List[List[Op]]:
        """``n`` one-op batches: 50 % ``insert_document``, 15 %
        ``insert_element``, 15 % ``insert_edge``, 20 % ``delete_document``
        of a document an earlier batch inserted (nothing links to it, so
        it separates: the Theorem 2 fast path)."""
        others = (
            "insert_element", "insert_edge", "delete_document", "insert_element",
            "delete_document", "insert_edge", "delete_document", "insert_element",
            "insert_edge", "delete_document",
        )
        # every other op inserts a document; any prefix keeps the mix
        order = [
            "insert_document" if i % 2 == 0 else others[i // 2 % len(others)]
            for i in range(n)
        ]
        self.rng.shuffle(order)
        live: List[str] = []
        batches: List[List[Op]] = []
        for kind in order:
            if kind == "delete_document" and not live:
                kind = "insert_document"
            if kind == "insert_document":
                op = self.insert_document("rw")
                live.append(op["doc_id"])
            elif kind == "delete_document":
                victim = live.pop(self.rng.randrange(len(live)))
                op = {"op": "delete_document", "doc_id": victim}
            elif kind == "insert_element":
                op = self.insert_element()
            else:
                op = self.insert_edge()
            batches.append([op])
        return batches

    def ww_batches(self, writer: str, n: int) -> List[List[Op]]:
        """``n`` one-op insert batches for one of two racing writers."""
        return [
            [self.insert_document(f"ww{writer}") if i % 3 == 0
             else self.insert_element()]
            for i in range(n)
        ]


def apply_to_collection(collection: Collection, op: Op) -> None:
    """Apply one wire-format op to a bare collection — the reference
    the recovered server is compared with. It edits structure only; the
    expected answers then come from breadth-first search, not from any
    maintained cover."""
    kind = op["op"]
    if kind == "insert_element":
        collection.add_child(op["parent"], op["tag"])
    elif kind == "insert_edge":
        collection.add_link(op["source"], op["target"])
    elif kind == "delete_document":
        collection.remove_document(op["doc_id"])
    elif kind == "insert_document":
        refs = {"root": collection.new_document(op["doc_id"], op["root_tag"]).eid}
        for child in op["children"]:
            element = collection.add_child(
                refs[child.get("parent", "root")], child["tag"]
            )
            if "ref" in child:
                refs[child["ref"]] = element.eid
        for source, target in op["links"]:
            collection.add_link(refs[source], target)
    else:
        raise ValueError(f"unexpected op {kind!r}")


#: The ten ``//head//tail`` paths whose counts the recovered server must
#: get right; ``note`` and ``cite`` move with the update stream.
VERIFICATION_PATHS: Sequence[Tuple[str, str]] = (
    ("article", "note"), ("article", "cite"), ("article", "title"),
    ("article", "author"), ("article", "erratum"),
    ("citations", "note"), ("citations", "cite"), ("citations", "title"),
    ("citations", "article"), ("citations", "keyword"),
)
