"""Compare two sets of runs, or show the spread of one.

    python3 perf/compare.py A/ B/      # is B within the bounds of A?
    python3 perf/compare.py A/         # how steady is A on its own?

A set is a directory written by ``perf/runset.py``. For every
(workload, metric) this prints both medians with their quartiles, how
much worse B's median is than A's (as a share of A's; negative is
better), the bound from ``BENCHMARK.json`` and a verdict:

``within``      B is not worse than A by more than the bound;
``outside``     it is;
``unresolved``  the run-to-run spread of either set is wider than the
                bound, so the medians cannot tell — unless every run
                of B reads better than every run of A.

The ``paired`` column applies the rule for claiming a change. It needs
at least ten pairs made by ``runset.py --parent``: the two runs of a
seed back to back, the sides taking turns to go first (two sets made
one after the other are refused: the host drifts by more than most
changes are worth). B ``gains`` only if it wins nine tenths of the
pairs (ties count for neither) and the medians differ by more than the
distance between A's own quartiles; ``loses`` is the same with the
sides swapped.

Exit status is 1 if any end-to-end metric is ``outside`` or any run
failed an operation.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perf.measure import relative_spread  # noqa: E402

#: (workload, traced?, metric) -> {seed: value}
RunSet = Dict[Tuple[str, int, str], Dict[int, float]]
#: (workload, traced?) -> {seed: "pair id/position in the pair"}
Pairs = Dict[Tuple[str, int], Dict[int, str]]

MIN_PAIRS = 10


def load_set(directory: str) -> Tuple[RunSet, Dict[str, int], Pairs]:
    values: RunSet = defaultdict(dict)
    failed: Dict[str, int] = defaultdict(int)
    pairs: Pairs = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        failed[record["workload"]] += record["failed"]
        if record.get("pair"):
            pairs[record["workload"], record["trace"]][record["seed"]] = record["pair"]
        for name, metric in record["metrics"].items():
            key = (record["workload"], record["trace"], name)
            values[key][record["seed"]] = metric["value"]
    if not values:
        sys.exit(f"no result files in {directory}")
    return values, failed, pairs


def alternating_seeds(a: Dict[int, str], b: Dict[int, str]) -> List[int]:
    """The seeds whose two runs were one back-to-back pair — if the
    sides took turns to go first; otherwise none."""
    seeds = []
    b_first = 0
    for seed in sorted(set(a) & set(b)):
        (a_id, _, a_position), (b_id, _, b_position) = (
            a[seed].rpartition("/"), b[seed].rpartition("/")
        )
        if a_id == b_id and {a_position, b_position} == {"0", "1"}:
            seeds.append(seed)
            b_first += b_position == "0"
    if seeds and not 0.4 <= b_first / len(seeds) <= 0.6:
        return []
    return seeds


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    return relative_spread(values) if len(values) > 1 else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: List[float], b: List[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "-"
    regress = worse_by(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound:
        b_always_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "within" if b_always_better else "unresolved"
    return "outside" if regress > bound else "within"


def paired(
    a: Dict[int, float], b: Dict[int, float], better: str, seeds: List[int]
) -> str:
    """``seeds``: those of :func:`alternating_seeds`."""
    seeds = [s for s in seeds if s in a and s in b]
    if len(seeds) < MIN_PAIRS:
        return f"n/a ({len(seeds)} alternating pairs)"
    sign = 1 if better == "lower" else -1
    b_wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    a_wins = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    q1, _, q3 = quartiles([a[s] for s in seeds])
    gap = abs(
        statistics.median(b[s] for s in seeds)
        - statistics.median(a[s] for s in seeds)
    )
    if gap > q3 - q1:
        if b_wins >= 0.9 * len(seeds):
            return f"gains {b_wins}/{len(seeds)}"
        if a_wins >= 0.9 * len(seeds):
            return f"loses {a_wins}/{len(seeds)}"
    return f"none {b_wins}/{len(seeds)}"


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = {
        m["name"]: (m["better"], m.get("bound"))
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    a_values, a_failed, a_pairs = load_set(args.a)
    b_values, b_failed, b_pairs = load_set(args.b) if args.b else ({}, {}, {})
    status = 0
    for key in sorted(a_values):
        workload, traced, name = key
        better, bound = declared.get(name, ("lower", None))
        a = list(a_values[key].values())
        if traced and not any(a):
            continue  # a layer this workload never enters
        row = [f"{workload:12s}", f"{name:34s}", f"n={len(a):<2d}", _fmt(quartiles(a))]
        if args.b is None:
            row.append(f"spread {spread(a):7.2%}")
            if bound is not None:
                steady = spread(a) <= bound / 3
                row.append(f"bound {bound:.0%} {'steady' if steady else 'NOISY'}")
        elif key in b_values:
            b = list(b_values[key].values())
            result = verdict(a, b, better, bound)
            status |= result == "outside"
            row += [
                _fmt(quartiles(b)),
                f"worse by {worse_by(statistics.median(a), statistics.median(b), better):+7.2%}",
                f"bound {bound:.0%}" if bound is not None else "no bound",
                result,
                paired(
                    a_values[key], b_values[key], better,
                    alternating_seeds(
                        a_pairs.get(key[:2], {}), b_pairs.get(key[:2], {})
                    ),
                ),
            ]
        print("  ".join(row))
    for label, failed in (("A", a_failed), ("B", b_failed)):
        for workload, count in sorted(failed.items()):
            if count:
                status = 1
                print(f"set {label}: {workload} failed {count} operations")
    return status


if __name__ == "__main__":
    sys.exit(main())
