"""Copy-on-write forks: bit-identity with deep copies, zero leakage.

The COW invariants under test are the write path's correctness core:

1. **Bit-identity.** An epoch produced by applying Section-6
   maintenance to a ``cow_copy()`` fork must serialise to exactly the
   same canonical snapshot bytes as one produced from a deep ``copy()``
   — whether the forked cover held batch-probe caches or not, on every workload
   shape (the ``sets`` rows run the same scripts over the oracle,
   whose fork *is* a deep copy: they pin the expected bytes).
2. **No leakage.** Mutating a fork never changes the published
   original (and vice versa): shared rows are privatised on first
   write, whole-row replacements never alias, the collection's shared
   documents are owned before their first mutation.
3. **Chained forks.** Every published epoch is a fork of the one
   before it, so the writer forks a fork of a fork; privatisation must
   hold at every depth.
4. **The tag index.** The collection keeps ``tags()`` up to date and
   shares its per-tag lists with forks; on every side it must equal a
   deep copy's and a recount, and a dict it handed out never changes.
"""

import pickle
import random

import pytest

from cover_oracle import COVER_STATES, index_in_state
from repro.core.hopi import HopiIndex
from repro.core.ops import apply_update_op
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.xmlmodel.generator import dblp_like, inex_like

WORKLOADS = {
    "dblp": lambda: dblp_like(12, seed=7),
    "inex": lambda: inex_like(6, elements_per_doc=40, seed=7),
}


def build(workload, state, *, distance=False):
    """A fresh index in cover state ``state`` (see ``COVER_STATES``)."""
    index = HopiIndex.build(
        WORKLOADS[workload](), distance=distance,
        strategy="recursive", partitioner="node_weight", partition_limit=60,
    )
    return index_in_state(index, state)


def section6_ops(index):
    """A deterministic Section-6 maintenance sequence touching every
    op family, derived from whatever the index actually contains."""
    collection = index.collection
    docs = sorted(collection.documents)
    roots = [collection.documents[d].root for d in docs]
    return [
        {"op": "insert_element", "parent": roots[0], "tag": "note"},
        {"op": "insert_edge", "source": roots[1], "target": roots[2]},
        {"op": "insert_edge", "source": roots[0], "target": roots[3]},
        {"op": "delete_edge", "source": roots[1], "target": roots[2]},
        {
            "op": "insert_document", "doc_id": "cow-doc", "root_tag": "article",
            "children": [{"ref": "a", "parent": "root", "tag": "author"}],
            "links": [["a", roots[0]]],
        },
        {"op": "delete_document", "doc_id": docs[4]},
    ]


def snap(index):
    return canonical_snapshot_bytes(index.cover)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("state", COVER_STATES)
class TestBitIdentity:
    def test_cow_epoch_matches_deep_copy_epoch(self, workload, state):
        index = build(workload, state)
        baseline = snap(index)

        deep = index.copy()
        cow = index.cow_copy()
        for op in section6_ops(index):
            apply_update_op(deep, op)
        for op in section6_ops(index):
            apply_update_op(cow, op)

        assert snap(cow) == snap(deep)
        # the published original saw none of it
        assert snap(index) == baseline
        cow.verify()  # BFS-closure oracle audit

    def test_fork_isolation_both_directions(self, workload, state):
        index = build(workload, state)
        fork = index.cow_copy()
        baseline = snap(index)
        docs = sorted(index.collection.documents)
        root = index.collection.documents[docs[0]].root

        fork.insert_element(root, "forked")
        assert snap(index) == baseline

        # mutating the original must not bleed into the fork either
        # (both sides of a fork track their own owned rows)
        fork_bytes = snap(fork)
        index.insert_element(root, "original")
        assert snap(fork) == fork_bytes


@pytest.mark.parametrize("state", COVER_STATES)
class TestChainedForks:
    def test_fork_of_fork_privatises_at_every_depth(self, state):
        """The write path over epochs: each epoch forks the last one."""
        index = build("dblp", state)
        baseline = snap(index)
        ops = section6_ops(index)

        shadow = index.cow_copy()
        for op in ops[:3]:
            apply_update_op(shadow, op)
        mid = snap(shadow)

        trial = shadow.cow_copy()
        for op in ops[3:]:
            apply_update_op(trial, op)

        assert snap(index) == baseline
        assert snap(shadow) == mid  # the failed/later batch never leaked up

        # equivalent single deep-copy application
        deep = index.copy()
        for op in ops:
            apply_update_op(deep, op)
        assert snap(trial) == snap(deep)

    def test_discarded_trial_rolls_back_alone(self, state):
        index = build("dblp", state)
        shadow = index.cow_copy()
        docs = sorted(shadow.collection.documents)
        root = shadow.collection.documents[docs[0]].root
        shadow.insert_element(root, "kept")
        committed = snap(shadow)

        trial = shadow.cow_copy()
        trial.insert_element(root, "doomed")
        trial.delete_document(docs[1])
        del trial  # batch failed: its fork is simply dropped

        assert snap(shadow) == committed


def recount(collection):
    """``tags()`` computed from scratch over ``collection.elements``."""
    index = {}
    for e in collection.elements.values():
        index.setdefault(e.tag, []).append(e.eid)
    return {tag: sorted(ids) for tag, ids in index.items()}


def frozen_tags(collection):
    """A deep copy of ``collection.tags()`` and the dict it returned."""
    handed_out = collection.tags()
    return handed_out, {tag: list(ids) for tag, ids in handed_out.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("state", COVER_STATES)
def test_tag_index_forks_copy_on_write(workload, state):
    """Shadow → trial forks keep ``tags()`` equal to a deep copy's and
    to a recount, in both directions, and never change a dict that
    ``tags()`` handed out before a mutation."""
    index = build(workload, state)
    published, published_frozen = frozen_tags(index.collection)
    assert published == recount(index.collection)
    ops = section6_ops(index)
    docs = sorted(index.collection.documents)
    lone = index.collection.documents[docs[5]].root

    deep = index.copy()
    shadow = index.cow_copy()
    for op in ops[:3]:
        apply_update_op(deep, op)
        apply_update_op(shadow, op)
    shadow_seen, shadow_frozen = frozen_tags(shadow.collection)
    assert shadow_seen == deep.collection.tags() == recount(shadow.collection)

    trial = shadow.cow_copy()
    # the last element of a tag goes with its document: the key goes too
    tail = ops[3:] + [
        {"op": "insert_element", "parent": lone, "tag": "lone"},
        {"op": "delete_document", "doc_id": docs[5]},
    ]
    for op in tail:
        apply_update_op(deep, op)
        apply_update_op(trial, op)
    assert "lone" not in trial.collection.tags()
    assert trial.collection.tags() == deep.collection.tags()
    assert trial.collection.tags() == recount(trial.collection)

    # nothing leaked up the chain, and nothing handed out moved
    assert index.collection.tags() == published_frozen
    assert published == published_frozen
    assert shadow.collection.tags() == shadow_frozen
    assert shadow_seen == shadow_frozen

    # the other direction: mutating the parent leaves the fork alone
    trial_seen, trial_frozen = frozen_tags(trial.collection)
    shadow.insert_element(lone, "parent-side")
    shadow.delete_document(docs[3])
    assert shadow.collection.tags() == recount(shadow.collection)
    assert trial.collection.tags() == trial_frozen
    assert trial_seen == trial_frozen
    assert index.collection.tags() == published_frozen

    # lists the trial owns stay put in a dict it handed out, and in a
    # fork taken after it changed them
    new_root = trial.collection.documents["cow-doc"].root
    trial.insert_element(new_root, "author")
    child = trial.cow_copy()
    _, child_frozen = frozen_tags(child.collection)
    trial.insert_element(new_root, "author")
    trial.delete_document("cow-doc")
    assert trial.collection.tags() == recount(trial.collection)
    assert trial_seen == trial_frozen
    assert child.collection.tags() == child_frozen


def test_tag_index_survives_a_load_index_round_trip(tmp_path):
    """A maintained fork persists and reloads to the same tag index."""
    from repro.storage.db import load_index, persist_index

    index = build("dblp", "arrays")
    index.collection.tags()
    fork = index.cow_copy()
    for op in section6_ops(index):
        apply_update_op(fork, op)
    persist_index(fork, str(tmp_path / "fork.db")).close()
    reloaded = load_index(str(tmp_path / "fork.db")).collection
    assert reloaded.tags() == fork.collection.tags() == recount(reloaded)


@pytest.mark.parametrize("state", COVER_STATES)
def test_distance_cover_cow_matches_deep_copy(state):
    index = build("dblp", state, distance=True)
    baseline = snap(index)
    deep = index.copy()
    cow = index.cow_copy()
    for op in section6_ops(index):
        apply_update_op(deep, op)
        apply_update_op(cow, op)
    assert snap(cow) == snap(deep)
    assert snap(index) == baseline


@pytest.mark.parametrize("state", COVER_STATES)
def test_random_op_fuzz_never_leaks(state):
    """Property check: arbitrary interleavings of fork mutations keep
    the published epoch's bytes frozen and stay bit-identical to the
    deep-copy twin replaying the same sequence."""
    rng = random.Random(20260808)
    index = build("dblp", state)
    baseline = snap(index)
    deep = index.copy()
    cow = index.cow_copy()

    for step in range(40):
        collection = cow.collection
        docs = sorted(collection.documents)
        roots = [collection.documents[d].root for d in docs]
        kind = rng.choice(["insert_element", "insert_edge", "delete_edge"])
        if kind == "insert_element":
            op = {
                "op": kind,
                "parent": rng.choice(roots),
                "tag": f"t{step}",
            }
        else:
            u, v = rng.sample(roots, 2)
            op = {"op": kind, "source": u, "target": v}
        try:
            apply_update_op(cow, op)
        except (KeyError, ValueError):
            # e.g. deleting an absent edge — must fail identically
            with pytest.raises((KeyError, ValueError)):
                apply_update_op(deep, op)
            continue
        apply_update_op(deep, op)
        assert snap(index) == baseline, f"leak at step {step}: {op}"

    assert snap(cow) == snap(deep)
    cow.verify()


def test_forked_array_cover_survives_pickle():
    """Pickling deep-copies rows, so the ``id()``-keyed owned-row
    bookkeeping must not travel with the cover."""
    index = build("dblp", "arrays")
    fork = index.cow_copy()
    docs = sorted(fork.collection.documents)
    root = fork.collection.documents[docs[0]].root
    fork.insert_element(root, "pickled")

    revived = pickle.loads(pickle.dumps(fork.cover))
    assert canonical_snapshot_bytes(revived) == snap(fork)
    # a revived cover is fully private: mutating it cannot touch the fork
    before = snap(fork)
    revived.add_lin(next(iter(revived.nodes)), next(iter(revived.nodes)))
    assert snap(fork) == before


@pytest.mark.parametrize("distance", [False, True])
def test_rewriting_an_unchanged_label_keeps_the_shared_row(distance):
    """``set_lin`` / ``set_lout`` with the centers a row already holds
    change nothing: the fork's row stays the very object the parent
    holds (so a delta checkpoint skips it) and the bytes are equal."""
    index = build("dblp", "arrays", distance=distance)
    cover = index.cover
    baseline = snap(index)
    fork = index.cow_copy()
    tables = ["_lin", "_lout"] + (["_lin_dist", "_lout_dist"] if distance else [])
    labelled = [
        x for x in sorted(cover.nodes) if cover.lin_of(x) and cover.lout_of(x)
    ]
    assert labelled
    for x in labelled:
        fork.cover.set_lin(x, cover.lin_of(x))
        fork.cover.set_lout(x, cover.lout_of(x))
        iid = cover.interner.get(x)
        for name in tables:
            assert getattr(fork.cover, name)[iid] is getattr(cover, name)[iid]
    assert snap(fork) == snap(index) == baseline


@pytest.mark.parametrize("distance", [False, True])
def test_a_theorem3_splice_keeps_every_unchanged_row_shared(distance):
    """A non-separating document delete on a fork of the product build:
    the splice rewrites whole label rows, and every ``Lin`` / ``Lout``
    row (and distance row) that comes out equal is still the very
    object the parent holds, while the parent's bytes do not move."""
    index = HopiIndex.build(dblp_like(20, seed=5), distance=distance)
    cover = index.cover
    baseline = snap(index)
    victim = next(
        d for d in sorted(index.collection.documents)
        if not index.document_separates(d)
    )
    fork = index.cow_copy()
    report = fork.delete_document(victim)
    assert report.separating is False and report.recovered_region_size > 0
    tables = ["_lin", "_lout"] + (["_lin_dist", "_lout_dist"] if distance else [])
    shared = changed = 0
    for name in tables:
        for before, after in zip(getattr(cover, name), getattr(fork.cover, name)):
            if before is not None and before == after:
                assert after is before, name
                shared += 1
            elif before != after:
                changed += 1
    assert shared > changed > 0
    assert snap(index) == baseline
