"""Regenerate the paper's Section-7 tables.

``python -m repro.bench [--seed N]`` runs every paper experiment once
at the configured scale (``REPRO_BENCH_SCALE``) and prints the tables
next to the paper's reference values. There are no gates and nothing is
recorded; performance is measured by ``perf/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.paper import (
    PAPER_TABLE2,
    run_center_preselection_ablation,
    run_distance_overhead,
    run_edge_weight_ablation,
    run_insert_document_experiment,
    run_maintenance_experiment,
    run_query_benchmark,
    run_table1,
    run_table2,
)
from repro.bench.reporting import print_table
from repro.bench.workloads import (
    bench_dblp,
    bench_inex,
    workload_scale,
    workload_seed,
)
from repro.core.hopi import HopiIndex
from repro.core.stats import entries_per_node


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's Section-7 tables at laptop "
                    "scale (REPRO_BENCH_SCALE multiplies the sizes)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for the synthetic collections "
             "(default: REPRO_BENCH_SEED or 2005)",
    )
    args = parser.parse_args()
    if args.seed is not None:
        os.environ["REPRO_BENCH_SEED"] = str(args.seed)
    print(f"HOPI experiment harness (scale {workload_scale()}x, "
          f"seed {workload_seed()})\n")
    dblp, inex = bench_dblp(), bench_inex()

    print_table(
        ["coll.", "# docs", "# els", "# links", "size MB", "els/doc",
         "paper els/doc"],
        [
            (
                r["collection"], r["docs"], r["elements"], r["links"],
                round(r["size_mb"], 2), round(r["elements_per_doc"], 1),
                round(r["paper_elements_per_doc"], 1),
            )
            for r in run_table1()
        ],
        title="Table 1: collection features (scaled)",
    )

    print_table(
        ["algorithm", "time s", "size", "compr.", "parts",
         "paper time s", "paper size", "paper compr."],
        [
            row.as_tuple() + PAPER_TABLE2.get(row.label, ("-", "-", "-"))
            for row in run_table2(dblp)
        ],
        title="Table 2: index build time and size",
    )

    index = HopiIndex.build(inex, strategy="recursive", partitioner="closure")
    print_table(
        ["collection", "cover size", "entries/node", "paper entries/node"],
        [("INEX", index.cover.size,
          round(entries_per_node(index.cover.size, inex.num_elements), 2),
          "< 3")],
        title="Section 7.2: INEX build",
    )

    print_table(
        ["coll.", "separating %", "test s", "sep. delete s",
         "non-sep. delete s", "rebuild s", "paper"],
        [
            (
                m.collection,
                round(100 * m.separating_fraction, 1),
                round(m.avg_separator_test_seconds, 4),
                round(m.avg_separating_delete_seconds, 4),
                (
                    round(m.avg_nonseparating_delete_seconds, 4)
                    if m.avg_nonseparating_delete_seconds is not None
                    else "-"
                ),
                round(m.rebuild_seconds, 2),
                paper,
            )
            for m, paper in (
                (run_maintenance_experiment(dblp, name="DBLP"),
                 "60% sep.; 2s test; 13s delete"),
                (run_maintenance_experiment(inex, name="INEX", sample_size=10),
                 "100% separate (no links)"),
            )
        ],
        title="Section 7.3: index maintenance",
    )

    ins = run_insert_document_experiment(dblp)
    print_table(
        ["inserts", "avg s", "max s"],
        [(int(ins["inserts"]), round(ins["avg_seconds"], 4),
          round(ins["max_seconds"], 4))],
        title="Section 6.1: document insertion",
    )

    dist = run_distance_overhead(dblp)
    print_table(
        ["plain size", "distance size", "entry overhead", "byte overhead",
         "plain s", "distance s"],
        [(int(dist["plain_size"]), int(dist["distance_size"]),
          round(dist["entry_overhead"], 2), round(dist["byte_overhead"], 2),
          round(dist["plain_seconds"], 2), round(dist["distance_seconds"], 2))],
        title="Section 5: distance-aware cover overhead",
    )

    pre = run_center_preselection_ablation(dblp)
    print_table(
        ["with preselection", "without", "entries saved"],
        [(pre["with_preselection"], pre["without_preselection"],
          pre["entries_saved"])],
        title="Section 4.2 ablation: center preselection",
    )

    print_table(
        ["edge weight", "time s", "size", "compr.", "parts"],
        [row.as_tuple() for row in run_edge_weight_ablation(dblp)],
        title="Section 4.3 ablation: edge weights",
    )

    q = run_query_benchmark(dblp)
    print_table(
        ["queries", "HOPI qps", "BFS qps", "speedup vs BFS"],
        [(int(q["queries"]), round(q["hopi_qps"]), round(q["bfs_qps"]),
          round(q["speedup_vs_bfs"], 1))],
        title="Query performance (E16; [26] covers this in depth)",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
