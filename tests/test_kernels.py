"""Differential suite for the kernel layer (:mod:`repro.core.kernels`).

Every intersection strategy — ``merge``, ``gallop``, ``bitset`` and,
when it imports, ``numpy`` — must agree with a frozen ``set``-based
oracle on arbitrary sorted rows (hypothesis) *and* on real label rows
cut from sealed covers of random collections, including rows observed
after Section-6 maintenance sequences force a re-seal. The portable
strategies are the contract; the numpy path is feature-detected and
must never change an answer.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.hopi import HopiIndex

from test_equivalence import _apply, _maintenance_script, random_collection

#: Sorted duplicate-free rows over a small id universe (the CSR row
#: contract every kernel assumes).
sorted_rows = st.lists(
    st.integers(min_value=0, max_value=255), max_size=64
).map(lambda xs: sorted(set(xs)))


# ---------------------------------------------------------------------------
# hypothesis: arbitrary rows
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(a=sorted_rows, b=sorted_rows)
def test_every_strategy_matches_the_set_oracle(a, b):
    expected = sorted(set(a) & set(b))
    aa, bb = array("i", a), array("i", b)
    for strategy in kernels.available_strategies():
        assert kernels.intersect(aa, bb, strategy=strategy) == expected, strategy
    # the auto-chosen strategy too, with and without a span hint
    assert kernels.intersect(aa, bb) == expected
    assert kernels.intersect(aa, bb, span=256) == expected
    assert kernels.intersects_any(aa, bb, span=256) == bool(expected)
    assert kernels.intersects_any(aa, bb) == bool(expected)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-2, max_value=255), max_size=100),
    universe=st.lists(st.integers(min_value=0, max_value=255), max_size=64),
)
def test_membership_flags_matches_naive(values, universe):
    """Both membership paths (bisect loop; numpy ``searchsorted`` once
    ``values`` crosses the batch threshold) match the naive oracle —
    negative sentinels (unknown labels) must always test False."""
    uni = sorted(set(universe))
    members = set(uni)
    expected = [v in members for v in values]
    flags = kernels.membership_flags(values, uni)
    assert flags == expected
    assert all(isinstance(f, bool) for f in flags)


def test_bitset_reuses_a_precomputed_mask():
    b = [1, 5, 9, 200]
    mask = kernels.make_bitmask(b)
    assert kernels.intersect_bitset([0, 5, 200, 201], b, mask=mask) == [5, 200]
    assert kernels.make_bitmask([]) == 0


def test_choose_strategy_is_deterministic_and_valid():
    cases = [
        (0, 10, None), (10, 10, 20), (4, 1000, None),
        (600, 700, None), (3, 5, 1000), (64, 512, None),
    ]
    for n_a, n_b, span in cases:
        picked = kernels.choose_strategy(n_a, n_b, span=span)
        assert picked in kernels.available_strategies()
        assert kernels.choose_strategy(n_a, n_b, span=span) == picked


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown strategy"):
        kernels.intersect([1], [1], strategy="quantum")


# ---------------------------------------------------------------------------
# real covers: sealed rows, before and after maintenance
# ---------------------------------------------------------------------------


def _assert_row_strategies_agree(cover, rng, samples=40):
    """Random (table, row) × (table, row) pairs from the sealed slabs:
    every strategy returns exactly the set-oracle intersection."""
    slabs = cover._seal()
    span = len(cover.interner)
    if span == 0:
        return
    tables = ("lin", "lout", "inv_lin", "inv_lout")
    for _ in range(samples):
        a = slabs.row(rng.choice(tables), rng.randrange(span))
        b = slabs.row(rng.choice(tables), rng.randrange(span))
        expected = sorted(set(a) & set(b))
        for strategy in kernels.available_strategies():
            assert kernels.intersect(a, b, strategy=strategy) == expected, strategy
        assert kernels.intersects_any(a, b, span=span) == bool(expected)


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
    _assert_row_strategies_agree(index.cover, rng)
    ops = _maintenance_script(index, random.Random(100 + seed), n_ops=6)
    for op in ops:
        _apply(index, op)
    # mutations dropped the slabs; this re-seals the maintained cover
    assert not index.cover.sealed
    _assert_row_strategies_agree(index.cover, rng)
