"""Tests for the size/compression accounting (Sections 3.4, 7.2)."""

import pytest

from repro.core import HopiIndex
from repro.core.stats import IndexSizeReport, compression_ratio, entries_per_node
from repro.xmlmodel import dblp_like


def test_compression_ratio_paper_values():
    # the paper's own numbers reproduce through the formula
    assert compression_ratio(344_992_370, 15_976_677) == pytest.approx(21.6, abs=0.1)
    assert compression_ratio(344_992_370, 1_289_930) == pytest.approx(267.0, abs=0.5)


def test_compression_ratio_edge_cases():
    assert compression_ratio(0, 0) == 1.0
    assert compression_ratio(10, 0) == float("inf")
    assert compression_ratio(100, 50) == 2.0


def test_entries_per_node():
    assert entries_per_node(30, 10) == 3.0
    assert entries_per_node(0, 0) == 0.0


def test_index_size_report_accounting():
    report = IndexSizeReport(num_nodes=100, cover_size=250,
                             closure_connections=5_000)
    assert report.stored_integers == 1_000  # 2 ints/entry + backward index
    assert report.compression == 20.0
    assert report.entries_per_node == 2.5


def test_index_size_report_without_closure():
    report = IndexSizeReport(num_nodes=10, cover_size=20)
    assert report.compression is None


def test_cover_degradation_and_rebuild():
    """Section 6: maintenance degrades space efficiency; a rebuild
    restores it."""
    c = dblp_like(25, seed=19)
    index = HopiIndex.build(c, strategy="recursive", partitioner="closure")
    fresh_size = index.cover.size
    # churn: insert links between random roots (each insert adds entries
    # with no global re-optimisation)
    docs = sorted(c.documents)
    for i in range(10):
        u = c.documents[docs[i]].root
        v = c.documents[docs[-(i + 1)]].root
        if u != v and (u, v) not in c.inter_links:
            index.insert_edge(u, v)
    index.verify()
    degraded_size = index.cover.size
    assert degraded_size > fresh_size
    # the paper's remedy
    index.rebuild()
    index.verify()
    assert index.cover.size <= degraded_size
    assert index.stats is not None


def test_rebuild_preserves_distance_flag():
    c = dblp_like(8, seed=3)
    index = HopiIndex.build(c, strategy="unpartitioned", distance=True)
    index.rebuild()
    assert index.is_distance_aware
    assert index.stats.strategy == "pll"
    index.verify()
