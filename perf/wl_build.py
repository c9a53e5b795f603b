"""Workload ``build``: offline construction with the product defaults.

This is the paper's Table 2. ``HopiIndex.build(collection, backend=…)``
with no other argument means ``strategy="recursive"`` and
``partitioner="closure"``. Two corpora sit at opposite ends: on the
citation-linked ``dblp-140`` the Section 4.3 closure partitioner and the
join are almost all of a build; on the link-free ``inex-deep`` the
per-partition cover builder is. No serving layer runs at all.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

from repro.core.hopi import HopiIndex
from repro.core.pipeline import BuildPipeline
from repro.graph.closure import transitive_closure
from repro.storage import load_index, load_snapshot, persist_index, save_snapshot
from repro.xmlmodel.model import Collection

from perf import corpora, oracle
from perf.config import Context
from perf.hostspeed import SpeedGauge
from perf.measure import median, peak_rss_mb
from perf.spans import Tracer


def _corpora(ctx: Context, sizes: Dict[str, int]) -> Tuple[Collection, Collection]:
    linked = corpora.dblp(sizes["linked_docs"])
    deep = corpora.inex_deep(sizes["deep_docs"], sizes["deep_elements_per_doc"])
    return linked, deep


def _timed_builds(
    linked: Collection, deep: Collection, timed: Dict[str, int],
    gauge: SpeedGauge,
) -> Tuple[List[float], List[float], HopiIndex, HopiIndex]:
    """One discarded warm-up build of each corpus, then the timed
    builds, the two corpora taking turns — so a few noisy seconds on
    the host touch a build or two of each, not every build of one."""
    spans: Dict[str, List[Tuple[float, float]]] = {"linked": [], "deep": []}
    index: Dict[str, HopiIndex] = {}
    turns = [("linked", linked), ("deep", deep)]
    for turn in range(1 + max(timed.values())):
        for label, collection in turns:
            if turn > timed[label]:
                continue
            index.pop(label, None)
            gc.collect()
            t0 = time.perf_counter()
            index[label] = HopiIndex.build(collection, backend=corpora.BACKEND)
            if turn:
                spans[label].append((t0, time.perf_counter()))
    seconds = {
        label: [gauge.quiet_seconds(*span) for span in spans[label]]
        for label in spans
    }
    return seconds["linked"], seconds["deep"], index["linked"], index["deep"]


def _remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def run(ctx: Context) -> dict:
    sizes = ctx.sizes()
    setups = []
    for _ in range(sizes["setups"]):
        t0 = time.perf_counter()
        linked, deep = _corpora(ctx, sizes)
        setups.append((t0, time.perf_counter()))
    setup_seconds = [ctx.gauge.quiet_seconds(*span) for span in setups]

    linked_seconds, deep_seconds, linked_index, deep_index = _timed_builds(
        linked, deep,
        {"linked": sizes["linked_builds"], "deep": sizes["deep_builds"]},
        ctx.gauge,
    )

    db_path = os.path.join(ctx.work_dir, "index.db")
    persist_index(linked_index, db_path).close()
    loaded = load_index(db_path, backend=corpora.BACKEND)
    db_bytes = os.path.getsize(db_path)

    # correctness, untimed: both covers against breadth-first search,
    # and the reloaded index against the one that was persisted
    attempted = (
        len(linked_seconds) + len(deep_seconds) + 2
        + 3 * sizes["check_sources"] + 1
    )
    failed = sum(
        oracle.check_cover_sample(index, sizes["check_sources"], ctx.seed)
        for index in (linked_index, deep_index, loaded)
    )
    failed += loaded.cover.size != linked_index.cover.size

    linked_ms = median(linked_seconds) * 1000.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setup_seconds),
            "primary_ms": linked_ms,
            "secondary_ms": median(deep_seconds) * 1000.0,
            # not exercised: a build has no tail and no request rate.
            # The one is a copy, the other follows from the two medians.
            "tail_ms": linked_ms,
            "throughput_per_s": (linked.num_elements + deep.num_elements)
            / (median(linked_seconds) + median(deep_seconds)),
            "peak_rss_mb": peak_rss_mb(),
            "labels_per_element": linked_index.cover.size / linked.num_elements,
            "db_bytes_per_element": db_bytes / linked.num_elements,
        },
        "detail": {
            "setup_s": setup_seconds, "linked_s": linked_seconds,
            "deep_s": deep_seconds,
        },
    }


# ---------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------

TRACED_BUILDS = 2

#: the layers this workload's traced run must report
TRACE_LAYERS = {"build": (
    "xmlmodel.generate_s", "graph.closure_s",
    "core.build_s", "core.partition_s", "core.cover_s", "core.join_s",
    "core.build_deep_s", "core.partition_deep_s", "core.cover_deep_s",
    "core.join_deep_s", "core.partition_count", "core.cross_links",
    "core.cover_entries", "core.build_parallel2_s", "core.build_distance_s",
    "storage.persist_s", "storage.load_s", "storage.snapshot_save_s",
    "storage.snapshot_load_s",
)}


def _traced_build(tracer: Tracer, collection: Collection, trace_id: int):
    """``BuildPipeline.run`` phase by phase, one span per phase."""
    pipeline = BuildPipeline(collection, backend=corpora.BACKEND)
    with tracer.span("build", trace_id):
        with tracer.span("core.partition", trace_id):
            partitioning = pipeline.partition()
        with tracer.span("core.partition_tasks", trace_id):
            tasks = pipeline.partition_tasks(partitioning)
        with tracer.span("core.cover", trace_id):
            results = pipeline.build_partition_covers(tasks)
        with tracer.span("core.join", trace_id):
            cover = pipeline.join(partitioning, [r.cover for r in results])
    return partitioning, cover


def _phase_medians(tracer: Tracer, first: int, count: int) -> Dict[str, float]:
    """Median duration of each phase over traced builds ``first`` ..
    ``first + count - 1`` (trace ids)."""
    per_phase: Dict[str, List[float]] = {}
    wanted = range(first, first + count)
    for name, start, end, _, trace_id in tracer.spans:
        if trace_id in wanted:
            per_phase.setdefault(name, []).append(
                tracer.gauge.quiet_seconds(start, end)
            )
    return {name: median(values) for name, values in per_phase.items()}


def trace(ctx: Context) -> dict:
    sizes = ctx.sizes()
    repeats = 1 if ctx.smoke else TRACED_BUILDS
    tracer = Tracer(ctx.gauge)
    with tracer.span("xmlmodel.generate", 0):
        linked, deep = _corpora(ctx, sizes)

    # traced and untraced builds alternate; the first pair warms up
    untraced: Dict[str, List[float]] = {"linked": [], "deep": []}
    layers: Dict[str, float] = {}
    trace_id = 1
    for label, collection in (("linked", linked), ("deep", deep)):
        first = trace_id + 1
        for attempt in range(1 + repeats):
            gc.collect()
            partitioning, cover = _traced_build(tracer, collection, trace_id)
            trace_id += 1
            gc.collect()
            t0 = time.perf_counter()
            index = HopiIndex.build(collection, backend=corpora.BACKEND)
            if attempt:
                untraced[label].append(
                    ctx.gauge.quiet_seconds(t0, time.perf_counter())
                )
        phases = _phase_medians(tracer, first, repeats)
        suffix = "" if label == "linked" else "_deep"
        layers[f"core.partition{suffix}_s"] = (
            phases["core.partition"] + phases["core.partition_tasks"]
        )
        layers[f"core.cover{suffix}_s"] = phases["core.cover"]
        layers[f"core.join{suffix}_s"] = phases["core.join"]
        layers[f"core.build{suffix}_s"] = phases["build"]
        if label == "linked":
            linked_index = index
            layers["core.partition_count"] = partitioning.num_partitions
            layers["core.cross_links"] = len(partitioning.cross_links)
            layers["core.cover_entries"] = cover.size
            if cover.size != index.cover.size:
                raise AssertionError("phase-by-phase build differs from build()")
    traced_total = layers["core.build_s"] + layers["core.build_deep_s"]
    untraced_total = median(untraced["linked"]) + median(untraced["deep"])
    layers["trace_overhead_share"] = (traced_total - untraced_total) / untraced_total

    # the one measurement that wants two cores: lift the pin around it
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ctx.cpus)
    try:
        with tracer.span("core.build_parallel2", trace_id):
            HopiIndex.build(linked, backend=corpora.BACKEND, workers=2)
    finally:
        os.sched_setaffinity(0, pinned)
    with tracer.span("core.build_distance", trace_id + 1):
        HopiIndex.build(linked, backend=corpora.BACKEND, distance=True)
    with tracer.span("graph.closure", trace_id + 2):
        transitive_closure(deep.element_graph())

    db_path = os.path.join(ctx.work_dir, "index.db")
    snap_path = os.path.join(ctx.work_dir, "cover.snap")
    for attempt in range(repeats):
        _remove_db(db_path)
        gc.collect()
        with tracer.span("storage.persist", trace_id + 3 + attempt):
            persist_index(linked_index, db_path).close()
        with tracer.span("storage.load", trace_id + 3 + attempt):
            load_index(db_path, backend=corpora.BACKEND)
        with tracer.span("storage.snapshot_save", trace_id + 3 + attempt):
            save_snapshot(snap_path, linked_index.cover)
        with tracer.span("storage.snapshot_load", trace_id + 3 + attempt):
            load_snapshot(snap_path)

    durations = tracer.durations()
    for name in (
        "xmlmodel.generate", "core.build_parallel2", "core.build_distance",
        "graph.closure", "storage.persist", "storage.load",
        "storage.snapshot_save", "storage.snapshot_load",
    ):
        layers[f"{name}_s"] = median(durations[name])
    return {
        "attempted": len(durations["build"]),
        "failed": 0,
        "metrics": layers,
        "tracer": tracer,
    }
