"""Frozen sizes of the four workloads, and the run context.

The counts were tuned once, at seed 2005 on the reference host, so that
each workload's timed part lasts about ``REFERENCE_SECONDS`` (the
``run_seconds`` of ``BENCHMARK.json``). They are work, not time: a run
sends exactly these operations however long they take. ``--seconds``
scales the repeat counts in proportion and never below the minimum a
median needs; the corpora keep their size, because build time, cover
size and query cost are properties of a corpus.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List

from perf.hostspeed import SpeedGauge

REFERENCE_SECONDS = 20
#: timed segments (or repeats) a median is taken over, at the least
MIN_SEGMENTS = 5

#: documents of the ``dblp-N`` corpus the three serving workloads share
SERVED_DOCS = 200

SIZES: Dict[str, Dict[str, int]] = {
    "build": {
        "setups": 5,
        "linked_docs": 140,
        "deep_docs": 60,
        "deep_elements_per_doc": 380,
        "linked_builds": 5,        # after one discarded warm-up build
        "deep_builds": 5,
        "check_sources": 150,
    },
    "read-cold": {
        "setups": 4,
        "docs": SERVED_DOCS,
        "blocks": 16,              # 20 distinct requests per block
        "oracle_sample": 24,
    },
    "read-hot": {
        "setups": 3,
        "docs": SERVED_DOCS,
        "hot_segments": 10,        # after one discarded warm-up segment
        "hot_segment_requests": 5000,
        "connected_segments": 5,
        "connected_segment_requests": 2500,
    },
    "write-mixed": {
        "setups": 3,
        "docs": SERVED_DOCS,
        "checkpoint_interval": 32,
        "deletes": 5,
        "delete_region_elements": 1100,
        "rounds": 4,
        "rw_batches_per_round": 20,
        # per writer and round, ww posts one checkpoint interval of
        # batches: two writers make two intervals of commits, so every
        # round holds exactly two checkpoints wherever it starts (40
        # commits held one or two, and the rate swung between 80 and 45)
    },
}

#: ``--smoke``: the same code paths in a second or two per workload
SMOKE_SIZES: Dict[str, Dict[str, int]] = {
    "build": {
        "setups": 1, "linked_docs": 16, "deep_docs": 2,
        "deep_elements_per_doc": 60, "linked_builds": 1, "deep_builds": 1,
        "check_sources": 20,
    },
    "read-cold": {
        "setups": 1, "docs": 20, "blocks": 1, "oracle_sample": 20,
    },
    "read-hot": {
        "setups": 1, "docs": 20, "hot_segments": 2,
        "hot_segment_requests": 100, "connected_segments": 1,
        "connected_segment_requests": 100,
    },
    "write-mixed": {
        "setups": 1, "docs": 24, "checkpoint_interval": 4, "deletes": 1,
        "delete_region_elements": 150, "rounds": 2,
        "rw_batches_per_round": 4,
    },
}

#: counts that scale with ``--seconds`` (everything else is a property
#: of the corpus or of the set-up) and their floor
SCALED = {
    "linked_builds": MIN_SEGMENTS, "deep_builds": MIN_SEGMENTS,
    "blocks": 4, "hot_segments": MIN_SEGMENTS,
    "connected_segments": MIN_SEGMENTS, "rounds": 3,
}


@dataclass
class Context:
    """Where a run lives and how large it is."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    root: str        # the checkout
    work_dir: str    # scratch under perf/out/, removed when the run ends
    cpus: frozenset  # cores available before the run pinned itself to one
    gauge: SpeedGauge  # the host's slowdown, sampled while the run lasts

    @property
    def src_dir(self) -> str:
        return os.path.join(self.root, "src")

    @property
    def out_dir(self) -> str:
        return os.path.join(self.root, "perf", "out")

    def sizes(self) -> Dict[str, int]:
        if self.smoke:
            return dict(SMOKE_SIZES[self.workload])
        sizes = dict(SIZES[self.workload])
        factor = self.seconds / REFERENCE_SECONDS
        for name, floor in SCALED.items():
            if name in sizes:
                sizes[name] = max(floor, round(sizes[name] * factor))
        return sizes


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(benchmark: dict, kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def workload_names(benchmark: dict) -> List[str]:
    return [w["name"] for w in benchmark["workloads"]]
