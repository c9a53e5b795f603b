"""Tests for the document-level graph partitioners (Sections 3.3, 4.3)."""

import pytest

from random_collections import random_collection
from repro.core.partitioning import (
    IncrementalClosureCounter,
    Partitioning,
    compute_cross_links,
    link_count_edge_weight,
    partition_by_closure_size,
    partition_by_node_weight,
    single_document_partitioning,
)
from repro.graph.closure import transitive_closure_size
from repro.xmlmodel import dblp_like


def partition_closure_sizes(collection, partitioning):
    """Closure size per partition — measures the balance the new
    partitioner is claimed to achieve (parallel speedup argument)."""
    counter = IncrementalClosureCounter(collection)
    sizes = []
    for docs in partitioning.partitions:
        counter.clear()
        for doc in docs:
            counter.try_add(doc)
        sizes.append(counter.pairs)
    return sizes


@pytest.fixture(scope="module")
def dblp():
    return dblp_like(40, seed=2)


def _assert_valid_partitioning(collection, partitioning):
    seen = set()
    for docs in partitioning.partitions:
        assert docs, "no empty partitions"
        for d in docs:
            assert d not in seen, "partitions must be disjoint"
            seen.add(d)
    assert seen == set(collection.documents), "partitions must cover D"
    # part_of agrees with the partition lists
    for i, docs in enumerate(partitioning.partitions):
        for d in docs:
            assert partitioning.part_of[d] == i
    # cross links are exactly the links across partitions
    expected = {
        (u, v)
        for (u, v) in collection.inter_links
        if partitioning.part_of[collection.doc(u)]
        != partitioning.part_of[collection.doc(v)]
    }
    assert set(partitioning.cross_links) == expected


def test_node_weight_respects_limit(dblp):
    limit = 120
    partitioning = partition_by_node_weight(dblp, limit, seed=1)
    _assert_valid_partitioning(dblp, partitioning)
    weights = dblp.document_weights()
    for docs in partitioning.partitions:
        total = sum(weights[d] for d in docs)
        # a single oversized document may exceed the limit on its own
        assert total <= limit or len(docs) == 1


def test_node_weight_limit_too_small_gives_singletons(dblp):
    partitioning = partition_by_node_weight(dblp, 1, seed=0)
    assert all(len(docs) == 1 for docs in partitioning.partitions)


def test_node_weight_larger_limit_fewer_partitions(dblp):
    small = partition_by_node_weight(dblp, 60, seed=0)
    large = partition_by_node_weight(dblp, 600, seed=0)
    assert large.num_partitions < small.num_partitions
    assert len(large.cross_links) <= len(small.cross_links)


def test_node_weight_invalid_limit(dblp):
    with pytest.raises(ValueError):
        partition_by_node_weight(dblp, 0)


def test_closure_partitioner_respects_budget(dblp):
    budget = 5_000
    partitioning = partition_by_closure_size(dblp, budget, seed=1)
    _assert_valid_partitioning(dblp, partitioning)
    for docs, size in zip(
        partitioning.partitions, partition_closure_sizes(dblp, partitioning)
    ):
        assert size <= budget or len(docs) == 1


def test_closure_partitioner_balances_closures(dblp):
    """Section 4.3: the new partitioner 'creates partitions with a
    similar size of the transitive closures'."""
    budget = 4_000
    partitioning = partition_by_closure_size(dblp, budget, seed=1)
    sizes = partition_closure_sizes(dblp, partitioning)
    multi = [
        s
        for s, docs in zip(sizes, partitioning.partitions)
        if len(docs) > 1
    ]
    if len(multi) >= 2:
        # all grown partitions come within an order of magnitude of the
        # budget — conservative node counting shows much wilder spread
        assert min(multi) > 0
        assert max(multi) <= budget


def test_closure_partitioner_invalid_budget(dblp):
    with pytest.raises(ValueError):
        partition_by_closure_size(dblp, 0)


def test_closure_partitioner_oversized_document_falls_back(dblp):
    """Regression: a document whose own closure exceeds the budget must
    become a warned-about singleton partition instead of failing (or
    silently scanning every neighbour against an unreachable budget)."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        partitioning = partition_by_closure_size(dblp, 1, seed=1)
    messages = [
        str(w.message) for w in caught if issubclass(w.category, UserWarning)
    ]
    assert any("partition budget" in m for m in messages), messages
    _assert_valid_partitioning(dblp, partitioning)
    assert all(len(docs) == 1 for docs in partitioning.partitions)


def test_closure_partitioner_no_warning_when_budget_fits(dblp):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        partition_by_closure_size(dblp, 50_000, seed=1)
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


def test_single_document_partitioning(dblp):
    partitioning = single_document_partitioning(dblp)
    _assert_valid_partitioning(dblp, partitioning)
    assert partitioning.num_partitions == dblp.num_documents
    assert set(partitioning.cross_links) == dblp.inter_links


def test_link_count_edge_weight(dblp):
    weight = link_count_edge_weight(dblp)
    total = sum(
        weight(a, b)
        for (a, b) in dblp.document_link_counts()
    )
    assert total >= len(dblp.inter_links)


def test_custom_edge_weight_changes_partitioning():
    collection = random_collection(n_docs=12, inter_links=20, seed=4)
    default = partition_by_node_weight(collection, 30, seed=0)
    inverted = partition_by_node_weight(
        collection,
        30,
        seed=0,
        edge_weight=lambda a, b: 1.0,  # uniform weights
    )
    _assert_valid_partitioning(collection, default)
    _assert_valid_partitioning(collection, inverted)


def test_partitioning_post_init_builds_part_of():
    p = Partitioning([["a", "b"], ["c"]])
    assert p.part_of == {"a": 0, "b": 0, "c": 1}
    assert p.num_partitions == 2


def test_compute_cross_links(dblp):
    part_of = {d: i % 2 for i, d in enumerate(sorted(dblp.documents))}
    cross = compute_cross_links(dblp, part_of)
    for u, v in cross:
        assert part_of[dblp.doc(u)] != part_of[dblp.doc(v)]


def test_partition_closure_sizes_sum_vs_whole(dblp):
    """Partition closures never exceed the whole-graph closure."""
    partitioning = partition_by_node_weight(dblp, 150, seed=3)
    sizes = partition_closure_sizes(dblp, partitioning)
    whole = transitive_closure_size(dblp.element_graph())
    assert sum(sizes) <= whole
