"""Paper-table workloads — scaled-down analogues of the paper's datasets.

The paper's DBLP subset (6,210 docs / 168,991 elements / 25,368 links)
and INEX (12,232 docs / 12.06M elements / no links) are reproduced in
*structural profile* at a scale pure Python can sweep in minutes. The
environment variable ``REPRO_BENCH_SCALE`` multiplies the default sizes
(e.g. ``REPRO_BENCH_SCALE=4`` runs 4x larger collections).
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.xmlmodel.generator import dblp_like, inex_like
from repro.xmlmodel.model import Collection

#: Default document counts; the paper's DBLP subset is ~20x the default
#: here, INEX is ~400x (but with ~986 elements/doc vs our 380).
DEFAULT_DBLP_DOCS = 300
DEFAULT_INEX_DOCS = 30
DEFAULT_INEX_ELEMENTS_PER_DOC = 380


def workload_scale() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def workload_seed() -> int:
    """The run's generator seed (``REPRO_BENCH_SEED``, default 2005 —
    the paper's year); ``python -m repro.bench --seed N`` sets it for
    the whole process."""
    return int(os.environ.get("REPRO_BENCH_SEED", "2005"))


@lru_cache(maxsize=8)
def bench_dblp(
    scale: float | None = None, seed: int | None = None
) -> Collection:
    """The DBLP-like benchmark collection (citation-linked, shallow docs)."""
    scale = workload_scale() if scale is None else scale
    seed = workload_seed() if seed is None else seed
    return dblp_like(max(int(DEFAULT_DBLP_DOCS * scale), 10), seed=seed)


@lru_cache(maxsize=8)
def bench_inex(
    scale: float | None = None, seed: int | None = None
) -> Collection:
    """The INEX-like benchmark collection (deep trees, no links)."""
    scale = workload_scale() if scale is None else scale
    seed = workload_seed() if seed is None else seed
    return inex_like(
        max(int(DEFAULT_INEX_DOCS * scale), 3),
        seed=seed,
        elements_per_doc=DEFAULT_INEX_ELEMENTS_PER_DOC,
    )
