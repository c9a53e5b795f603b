"""Paper-table reproduction: workloads, experiment runners, table renderer.

``python -m repro.bench`` regenerates every table and in-text experiment
of the paper's Section 7 at laptop scale and prints them side by side
with the paper's reference values. It measures nothing else and gates
nothing: the benchmark of record is ``BENCHMARK.json`` + ``perf/``.
"""

from repro.bench.paper import (
    BuildRow,
    MaintenanceRow,
    run_build,
    run_maintenance_experiment,
    run_table1,
    run_table2,
)
from repro.bench.reporting import format_table, print_table
from repro.bench.workloads import bench_dblp, bench_inex, workload_scale

__all__ = [
    "bench_dblp",
    "bench_inex",
    "workload_scale",
    "BuildRow",
    "MaintenanceRow",
    "run_build",
    "run_maintenance_experiment",
    "run_table1",
    "run_table2",
    "format_table",
    "print_table",
]
