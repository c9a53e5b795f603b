"""The benchmark's one command.

    python3 perf/run.py --workload W --seed S --seconds N --trace 0|1

Runs one workload from the root of a checkout, checks its answers and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``. Exit status is 0 only when every
operation succeeded and every checked answer was right.

Every time it prints is wall-clock time divided by the host's slowdown
while it was taken (``perf/hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: per-layer metrics every traced run reports, whatever the workload
COMMON_LAYERS = (
    "trace_overhead_share", "trace_unattributed_share", "host.speed_factor",
)


def _bootstrap() -> None:
    """Put this checkout's ``src/`` and the checkout itself first on
    ``sys.path``; the program is imported from here or not at all."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perf/run.py: no program to measure: {src}/repro is missing")
    sys.path[:0] = [ROOT, src]


def _pin_to_one_cpu() -> frozenset:
    """Pin this process — and so every thread and process it starts —
    to one core; returns the cores it could have used.

    The load generator, the server and the host-speed monitor share a
    core: the one that runs the monitor's kernel fastest right now. On
    the reference host (two virtual cores) a request that crosses cores
    pays for the hypervisor's wake-up, not for the program: with the
    client on one core and the server on the other the same server
    answers 3.6k cached requests a second (median of 20 segments),
    against 4.7k with both on one core, and is no steadier
    (perf/README.md, "One core").
    The client's share of that core is reported as ``client.cpu_share``.
    """
    from perf.hostspeed import kernel_ms

    allowed = frozenset(os.sched_getaffinity(0))
    speed = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = kernel_ms(samples=25)
    os.sched_setaffinity(0, {min(speed, key=speed.get)})
    return allowed


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed part should last "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every code path in seconds")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the result, with the run's "
                             "fingerprint, to FILE")
    parser.add_argument("--pair", default=None, metavar="ID",
                        help="recorded in FILE: which alternating pair of "
                             "runs this one belongs to (perf/runset.py)")
    return parser.parse_args(argv)


def check_reported(measured: Dict[str, float], declared, required) -> None:
    """A run must report nothing ``BENCHMARK.json`` does not declare and
    everything its workload is there to measure."""
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(required) - set(measured))
    if missing:
        raise SystemExit(f"workload did not report: {missing}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perf import config, hostspeed, measure, wl_build, wl_read, wl_write

    benchmark = config.load_benchmark(ROOT)
    if args.workload not in config.workload_names(benchmark):
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"one of {config.workload_names(benchmark)}")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    if seconds <= 0:
        sys.exit("--seconds must be positive")
    work_dir = os.path.join(
        ROOT, "perf", "out", f"run-{args.workload}-{os.getpid()}"
    )
    module = {
        "build": wl_build, "read-cold": wl_read,
        "read-hot": wl_read, "write-mixed": wl_write,
    }[args.workload]
    cpus = _pin_to_one_cpu()
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    gauge = hostspeed.SpeedGauge(work_dir)
    started = time.perf_counter()
    try:
        ctx = config.Context(
            workload=args.workload, seed=args.seed, seconds=seconds,
            trace=bool(args.trace), smoke=args.smoke, root=ROOT,
            work_dir=work_dir, cpus=cpus, gauge=gauge,
        )
        outcome = (module.trace if ctx.trace else module.run)(ctx)
        host_factor = gauge.factor(started, time.perf_counter())
    finally:
        gauge.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if ctx.trace else "end_to_end"
    units = config.metric_units(benchmark, kind)
    measured: Dict[str, float] = outcome["metrics"]
    failed = int(outcome["failed"])
    if ctx.trace:
        tracer = outcome["tracer"]
        measured["trace_unattributed_share"] = max(
            tracer.unattributed_share().values(), default=0.0
        )
        measured["host.speed_factor"] = host_factor
        tracer.write(
            os.path.join(ctx.out_dir, f"trace-{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "layers": measured},
        )
        required = set(module.TRACE_LAYERS[args.workload]) | set(COMMON_LAYERS)
    else:
        required = set(units)
    check_reported(measured, units, required)
    # a layer this workload never enters did no work: time 0, count 0
    measured = {name: measured.get(name, 0.0) for name in units}
    result = {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": units[name]}
            for name in units
        },
    }
    if args.out:
        record = dict(
            result, workload=args.workload, seed=args.seed, seconds=seconds,
            trace=int(ctx.trace), smoke=ctx.smoke, sizes=ctx.sizes(),
            fingerprint=measure.fingerprint(ROOT),
            host_speed_factor=host_factor, pair=args.pair,
            detail=outcome.get("detail", {}),
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _fix_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` (the servers inherit it).

    String hashes order the sets of document ids the partitioner and
    the SQLite writer iterate over; with a random hash seed the same
    build takes 1.60-1.87 s and the same index persists to files 2 %
    apart. A fixed seed makes a run's work a function of its arguments.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    _fix_hash_seed()
    sys.exit(main())
