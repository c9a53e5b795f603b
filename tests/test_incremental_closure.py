"""The incremental closure counter behind the Section-4.3 partitioner.

Three suites:

* a **hypothesis differential** of :class:`IncrementalClosureCounter`
  against ``transitive_closure_size(sub.element_graph())`` after every
  accepted and every rejected-then-rolled-back ``try_add``;
* a **partition-identity matrix** against a frozen copy of the
  from-scratch partitioner the counter replaced (kept here as the
  oracle);
* a **call-count guard**: growing partitions must never go back to
  building subcollections or element graphs per candidate.
"""

import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.partitioning import (
    IncrementalClosureCounter,
    _grow_partition,
    link_count_edge_weight,
    partition_by_closure_size,
    partition_closure_sizes,
)
from repro.core.skeleton import connection_edge_weight
from repro.graph.closure import (
    ClosureBudgetExceeded,
    transitive_closure,
    transitive_closure_size,
)
from repro.xmlmodel import Collection, dblp_like, inex_like

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# hypothesis differential
# ---------------------------------------------------------------------------


@st.composite
def linked_collections(draw, max_docs=5):
    """Small trees with intra-document links (cycles allowed) and
    inter-document links in both directions (cross-document cycles and
    repeated links allowed)."""
    n_docs = draw(st.integers(min_value=1, max_value=max_docs))
    c = Collection()
    members = []
    for i in range(n_docs):
        own = [c.new_document(f"doc{i}", "r").eid]
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            own.append(c.add_child(draw(st.sampled_from(own)), "e").eid)
        members.append(own)
    everything = [e for own in members for e in own]
    links = draw(
        st.lists(
            st.tuples(st.sampled_from(everything), st.sampled_from(everything)),
            max_size=4 * n_docs,
        )
    )
    for u, v in links:
        c.add_link(u, v)
        if draw(st.booleans()):
            c.add_link(v, u)  # the back edge: a cycle through the link
    return c


def _oracle_size(collection, docs):
    return transitive_closure_size(collection.subcollection(docs).element_graph())


def _assert_rows_match(counter, collection, docs):
    """The counter's bitset rows spell exactly the members' closure."""
    closure = transitive_closure(collection.subcollection(docs).element_graph())
    index = counter._index
    assert set(index) == set(closure.reach)
    for u, i in index.items():
        desc = {v for v, j in index.items() if counter._desc[i] >> j & 1}
        anc = {v for v, j in index.items() if counter._anc[i] >> j & 1}
        assert desc == closure.descendants_of(u) | {u}
        assert anc == closure.ancestors_of(u) | {u}


@SETTINGS
@given(linked_collections(), st.data())
def test_counter_matches_from_scratch_closure(collection, data):
    docs = sorted(collection.documents)
    order = data.draw(st.permutations(docs))
    counter = IncrementalClosureCounter(collection)
    members = []
    rejected = 0
    for doc in order:
        grown = _oracle_size(collection, members + [doc])
        # budgets straddle the true size, so both outcomes are drawn
        budget = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=2 * grown + 1),
                st.sampled_from([grown - 1, grown]),
            )
        )
        accepted = counter.try_add(doc, budget)
        assert accepted == (grown <= budget)
        if accepted:
            members.append(doc)
        else:
            rejected += 1
        assert counter.pairs == _oracle_size(collection, members)
        _assert_rows_match(counter, collection, members)
    # a rolled-back document can still be added afterwards
    if rejected:
        for doc in order:
            if doc not in members:
                assert counter.try_add(doc)
                members.append(doc)
                assert counter.pairs == _oracle_size(collection, members)
        _assert_rows_match(counter, collection, members)


def test_counter_clear_starts_over():
    collection = dblp_like(6, seed=1)
    docs = sorted(collection.documents)
    counter = IncrementalClosureCounter(collection)
    for doc in docs:
        assert counter.try_add(doc)
    assert counter.pairs == _oracle_size(collection, docs)
    counter.clear()
    assert counter.pairs == 0
    assert counter.try_add(docs[0])
    assert counter.pairs == _oracle_size(collection, docs[:1])


# ---------------------------------------------------------------------------
# partition identity against the frozen from-scratch partitioner
# ---------------------------------------------------------------------------


def frozen_partition_by_closure_size(
    collection, max_closure_connections, *, edge_weight=None, seed=0
):
    """The partitioner as it was before the incremental counter: every
    candidate re-closes ``subcollection(current + [candidate])`` from
    scratch. Returns ``(partitions, oversized)``."""
    edge_weight = edge_weight or link_count_edge_weight(collection)
    rng = random.Random(seed)
    doc_graph = collection.document_graph()
    unassigned = set(collection.documents)
    order = sorted(unassigned)
    rng.shuffle(order)

    partitions = []
    oversized = []
    for doc in order:
        if doc not in unassigned:
            continue
        current = [doc]

        def can_add(candidate):
            sub = collection.subcollection(current + [candidate])
            try:
                transitive_closure_size(
                    sub.element_graph(), max_connections=max_closure_connections
                )
            except ClosureBudgetExceeded:
                return False
            current.append(candidate)
            return True

        grown = _grow_partition(doc_graph, doc, unassigned, edge_weight, can_add)
        partitions.append(grown)
        if len(grown) == 1:
            elements = collection.documents[doc].num_elements
            if elements - 1 > max_closure_connections:
                oversized.append(doc)
            elif elements * (elements - 1) > max_closure_connections:
                try:
                    transitive_closure_size(
                        collection.subcollection(grown).element_graph(),
                        max_connections=max_closure_connections,
                    )
                except ClosureBudgetExceeded:
                    oversized.append(doc)
    return partitions, oversized


def linked_inex(seed):
    """INEX-like deep trees plus citation links to other documents'
    roots, in both directions of the document order (so the document
    graph has cycles)."""
    collection = inex_like(8, seed=seed, elements_per_doc=50)
    rng = random.Random(seed)
    docs = sorted(collection.documents)
    for doc in docs:
        elements = sorted(collection.documents[doc].elements)
        for _ in range(3):
            target = rng.choice([d for d in docs if d != doc])
            collection.add_link(
                rng.choice(elements), collection.documents[target].root
            )
    return collection


CORPORA = {
    "dblp": lambda seed: dblp_like(30, seed=seed),
    "inex-linked": linked_inex,
}


def _budgets(collection):
    return {
        "one": 1,
        "tight": collection.num_elements * 3,
        "default": max(collection.num_elements * 20, 1000),
        "huge": 10**9,
    }


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_partitions_identical_to_frozen_partitioner(corpus, seed):
    collection = CORPORA[corpus](seed)
    weights = {
        "links": None,
        "AxD": connection_edge_weight(collection, mode="AxD"),
    }
    for budget_name, budget in _budgets(collection).items():
        for weight_name, weight in weights.items():
            expected, oversized = frozen_partition_by_closure_size(
                collection, budget, edge_weight=weight, seed=seed
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = partition_by_closure_size(
                    collection, budget, edge_weight=weight, seed=seed
                )
            cell = (corpus, seed, budget_name, weight_name)
            assert got.partitions == expected, cell
            warned = [w for w in caught if issubclass(w.category, UserWarning)]
            assert len(warned) == (1 if oversized else 0), cell
            if oversized:
                message = str(warned[0].message)
                assert message.startswith(f"{len(oversized)} document(s)"), cell
                assert repr(oversized[0]) in message, cell
            assert partition_closure_sizes(collection, got) == [
                _oracle_size(collection, docs) for docs in got.partitions
            ], cell


# ---------------------------------------------------------------------------
# regression guard: no per-candidate subcollection / element graph
# ---------------------------------------------------------------------------


def test_growing_partitions_builds_no_subcollection_or_graph(monkeypatch):
    collection = dblp_like(25, seed=3)
    calls = {"subcollection": 0, "element_graph": 0}

    def counted(name):
        original = getattr(Collection, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Collection, name, counted(name))
    partitioning = partition_by_closure_size(
        collection, collection.num_elements * 20, seed=0
    )
    assert any(len(docs) > 1 for docs in partitioning.partitions)
    assert calls == {"subcollection": 0, "element_graph": 0}
    # the guard itself works: the patched methods do count
    collection.subcollection(partitioning.partitions[0]).element_graph()
    assert calls == {"subcollection": 1, "element_graph": 1}
