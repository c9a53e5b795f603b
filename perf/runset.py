"""Make a set of runs: every workload, several seeds, one directory.

    python3 perf/runset.py DIR [--runs 10] [--first-seed 1] [--trace 0|1]
                               [--workload W ...] [--parent CHECKOUT]

Each run is a fresh ``perf/run.py`` process whose result, with the
host fingerprint, lands in ``DIR/<workload>-<seed>[-trace].json``.
``perf/compare.py`` reads such directories. Runs go one at a time: a
run pins itself to the faster of the host's cores, and a second run
beside it would compete for that core.

With ``--parent CHECKOUT`` every run is made twice, back to back: once
by this checkout (into ``DIR/change``) and once by the ``perf/run.py``
of the other checkout (into ``DIR/parent``), the two taking turns to go
first. That is the only kind of set ``compare.py`` accepts for claiming
a gain: the host drifts by more between two sets made one after the
other than most changes are worth.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--parent", metavar="CHECKOUT", default=None)
    args = parser.parse_args()

    sides = {"": ROOT}
    if args.parent is not None:
        sides = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    for side in sides:
        os.makedirs(os.path.join(args.directory, side), exist_ok=True)
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for number, workload in enumerate(args.workload or names):
            order = list(sides)
            if (seed + number) % 2:  # per workload, seeds take turns
                order.reverse()
            for position, side in enumerate(order):
                suffix = "-trace" if args.trace else ""
                out = os.path.join(
                    args.directory, side, f"{workload}-{seed}{suffix}.json"
                )
                command = [
                    sys.executable, os.path.join(sides[side], "perf", "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--trace", str(args.trace), "--out", os.path.abspath(out),
                ]
                if args.parent is not None:
                    command += ["--pair", f"{workload}-{seed}/{position}"]
                t0 = time.perf_counter()
                done = subprocess.run(
                    command, cwd=sides[side], stdout=subprocess.DEVNULL
                )
                print(f"{side or 'run'} {workload} seed {seed}: exit "
                      f"{done.returncode} in {time.perf_counter() - t0:.1f} s",
                      flush=True)
                status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
