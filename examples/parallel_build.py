"""Parallel divide-and-conquer index construction (Sections 4-5).

The paper's scalability argument: partition the collection, build each
partition's 2-hop cover *independently*, then join along the
cross-partition links. This example builds the same synthetic
collection three ways —

1. serially through the facade (the baseline),
2. with a 4-process pool (``workers=4``),
3. phase by phase through :class:`repro.core.pipeline.BuildPipeline`,

— verifies the covers are bit-identical, and prints the per-phase
timing breakdown (the phases ``perf/``'s ``build`` workload traces).

Run:  python examples/parallel_build.py
"""

from repro.core import HopiIndex
from repro.core.pipeline import BuildPipeline
from repro.xmlmodel.generator import dblp_like


def main() -> None:
    collection = dblp_like(150, seed=2005)
    print(
        f"collection: {collection.num_documents} documents, "
        f"{collection.num_elements} elements, {collection.num_links} links\n"
    )
    limit = max(collection.num_elements // 16, 1)

    # -- 1. the classic serial build ------------------------------------
    serial = HopiIndex.build(
        collection,
        strategy="recursive",
        partitioner="node-weight",   # CLI-style alias for "node_weight"
        partition_limit=limit,
    )

    # -- 2. the same build, partition covers in a 4-process pool --------
    parallel = HopiIndex.build(
        collection,
        strategy="recursive",
        partitioner="node-weight",
        partition_limit=limit,
        workers=4,                   # more than one worker: process pool
    )

    assert sorted(serial.cover.entries()) == sorted(parallel.cover.entries())
    print("serial and 4-worker covers are bit-identical "
          f"(|L| = {serial.cover.size})\n")

    for label, stats in (("serial", serial.stats), ("workers=4", parallel.stats)):
        print(
            f"{label:>10}: total {stats.seconds_total:6.2f}s | "
            f"partition {stats.seconds_partitioning:5.2f}s | "
            f"covers {stats.seconds_partition_covers:5.2f}s "
            f"({stats.num_partitions} partitions, "
            f"slowest {max(stats.partition_cover_seconds, default=0):.3f}s) | "
            f"join {stats.seconds_join:5.2f}s | executor {stats.executor}"
        )

    # -- 3. the orchestrator, phase by phase ----------------------------
    # BuildPipeline exposes each phase for callers that want to reuse a
    # partitioning or inspect the compact picklable task objects the
    # process pool consumes.
    pipeline = BuildPipeline(
        collection,
        partitioner="node_weight",
        partition_limit=limit,
        workers=2,
    )
    partitioning = pipeline.partition()
    tasks = pipeline.partition_tasks(partitioning)
    print(
        f"\nphase view: {partitioning.num_partitions} partitions, "
        f"{len(partitioning.cross_links)} cross-partition links; "
        f"task 0 ships {len(tasks[0].nodes)} nodes / "
        f"{len(tasks[0].edges)} edges"
    )
    results = pipeline.build_partition_covers(tasks)
    cover = pipeline.join(partitioning, [r.cover for r in results])
    assert sorted(cover.entries()) == sorted(serial.cover.entries())
    print(f"phase-by-phase cover identical again (|L| = {cover.size})")


if __name__ == "__main__":
    main()
