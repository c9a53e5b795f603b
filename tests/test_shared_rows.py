"""Rows several slots of one cover hold survive every writer.

The product build gives every child a parent outranks the parent's one
``Lin(p) + [p]`` row (and distance row), and marks no row as owned, so
whoever writes one of those slots copies its row first. Each test here
aims a writer at a slot of such a sibling group and compares the cover
with a ``copy()`` of it, whose every row is its own array, that took
the same writes: a write that changed a shared row in place would show
up in the siblings' rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hopi import HopiIndex
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import inex_like
from shared_rows import assert_shared_rows_unowned, lin_groups


def _index(distance):
    return HopiIndex.build(inex_like(3, elements_per_doc=40, seed=5), distance=distance)


def _add_lin(index, group):
    cover = index.cover
    s = group[0]
    center = next(x for x in sorted(cover.nodes)
                  if x != s and x not in cover.lin_of(s))
    if cover.is_distance_aware:
        cover.add_lin(s, center, 1)
    else:
        cover.add_lin(s, center)


def _remove_parent(index, group):
    """``remove_nodes`` of the group's parent: ``_drop_center`` on every
    sibling's shared row."""
    index.cover.remove_nodes({max(index.cover.lin_of(group[0]))})


def _theorem3_delete(index, group):
    """A link from another document into the group, then that
    document's Theorem-3 delete: ``splice_region`` over the group."""
    collection = index.collection
    here = collection.doc(group[0])
    other = next(d for d in sorted(collection.documents) if d != here)
    index.insert_edge(collection.documents[other].root, group[1])
    index.delete_document(other, force_general=True)


WRITERS = {
    "add_lin": _add_lin,
    "remove_nodes": _remove_parent,
    "splice_region": _theorem3_delete,
    "insert_element": lambda index, group: index.insert_element(group[0], "note"),
    "insert_edge": lambda index, group: index.insert_edge(group[0], group[1]),
}


def _assert_same_cover(index, ref):
    for name in index.cover._TABLE_NAMES:
        assert getattr(index.cover, name) == getattr(ref.cover, name), name
    assert canonical_snapshot_bytes(index.cover) == canonical_snapshot_bytes(ref.cover)
    assert_shared_rows_unowned(index.cover)


@pytest.mark.parametrize("distance", [False, True])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_to_one_sibling_leaves_the_others(writer, distance):
    index = _index(distance)
    group = lin_groups(index.cover)[0]
    shared = index.cover._lin[group[0]]
    assert all(index.cover._lin[x] is shared for x in group)
    ref = index.copy()
    WRITERS[writer](index, group)
    WRITERS[writer](ref, group)
    _assert_same_cover(index, ref)
    if writer not in ("add_lin", "remove_nodes"):  # the cover-only writes
        index.verify()


OPS = st.tuples(
    st.sampled_from(["element", "edge", "delete_document", "delete_edge"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.lists(OPS, min_size=1, max_size=8))
def test_maintenance_on_shared_rows_is_maintenance_on_a_copy(distance, ops):
    """Random Section-6 operations, each aimed at slots that share a
    row at the time: the maintained cover stays byte for byte the cover
    the same operations leave on a ``copy()``, and answers like BFS."""
    index = _index(distance)
    ref = index.copy()
    edges = []
    for op, i, j in ops:
        groups = lin_groups(index.cover)
        if not groups:
            break
        group = groups[i % len(groups)]
        s = group[j % len(group)]
        other = groups[j % len(groups)]
        t = other[i % len(other)]
        for each in (index, ref):
            if op == "element":
                each.insert_element(s, "note")
            elif op == "edge" and s != t and (s, t) not in edges:
                each.insert_edge(s, t)
            elif op == "delete_document" and len(each.collection.documents) > 1:
                each.delete_document(each.collection.doc(s), force_general=j % 2 == 0)
            elif op == "delete_edge" and edges:
                each.delete_edge(*edges[j % len(edges)])
        if op == "edge" and s != t and (s, t) not in edges:
            edges.append((s, t))
        elif op == "delete_document":
            edges = [e for e in edges if all(x in index.collection.elements for x in e)]
        elif op == "delete_edge" and edges:
            edges.remove(edges[j % len(edges)])
        _assert_same_cover(index, ref)
    index.verify()
