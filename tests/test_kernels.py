"""Differential suite for the cover's row kernels.

``connected()`` is one galloping intersection of ``Lout(u)`` with
``Lin(v)`` (:func:`repro.core.cover.galloping_intersects`), and
``distance()`` one galloping min-plus merge
(:func:`repro.core.cover.galloping_min_plus`). Both must agree with a
frozen ``set``-based oracle on arbitrary sorted rows (hypothesis) *and*
on real label rows cut from covers of random collections, before and
after Section-6 maintenance sequences.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import galloping_intersects, galloping_min_plus
from repro.core.hopi import HopiIndex

from test_equivalence import _apply, _maintenance_script, random_collection

#: Sorted duplicate-free rows over a small id universe (the label-row
#: contract both kernels assume).
sorted_rows = st.lists(
    st.integers(min_value=0, max_value=255), max_size=64
).map(lambda xs: sorted(set(xs)))


@settings(max_examples=200, deadline=None)
@given(a=sorted_rows, b=sorted_rows)
def test_gallop_matches_the_set_oracle(a, b):
    assert galloping_intersects(a, b) == bool(set(a) & set(b))
    assert galloping_intersects(b, a) == bool(set(a) & set(b))


@settings(max_examples=200, deadline=None)
@given(a=sorted_rows, b=sorted_rows, seed=st.integers(0, 2**16))
def test_min_plus_matches_the_set_oracle(a, b, seed):
    rng = random.Random(seed)
    da = [rng.randrange(1, 9) for _ in a]
    db = [rng.randrange(1, 9) for _ in b]
    left, right = dict(zip(a, da)), dict(zip(b, db))
    expected = min(
        (left[c] + right[c] for c in left.keys() & right.keys()), default=None
    )
    assert galloping_min_plus(a, da, b, db) == expected
    assert galloping_min_plus(b, db, a, da) == expected


def _assert_rows_agree(cover, rng, samples=40):
    """Random ``Lout`` × ``Lin`` row pairs of the cover: the gallop says
    exactly what the set oracle says."""
    span = len(cover._lin)
    if span == 0:
        return
    for _ in range(samples):
        a = cover._row(cover._lout, rng.randrange(span)) or ()
        b = cover._row(cover._lin, rng.randrange(span)) or ()
        assert galloping_intersects(a, b) == bool(set(a) & set(b))


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_cover_rows_after_build_and_maintenance(seed, cyclic):
    index = HopiIndex.build(
        random_collection(seed, cyclic=cyclic),
        strategy="recursive",
        partitioner="node_weight",
        partition_limit=8,
    )
    rng = random.Random(seed)
    _assert_rows_agree(index.cover, rng)
    ops = _maintenance_script(index, random.Random(100 + seed), n_ops=6)
    for op in ops:
        _apply(index, op)
    _assert_rows_agree(index.cover, rng)
