"""Breadth-first oracles the benchmark checks answers against.

They walk the collection's element graph (tree edges plus links) and
never touch a cover, a planner or a cache — so an answer that agrees
with them is right for a reason independent of the code being timed.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict, deque
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.hopi import HopiIndex
from repro.xmlmodel.model import Collection


def successors(collection: Collection) -> Dict[int, List[int]]:
    succ: Dict[int, List[int]] = {eid: [] for eid in collection.elements}
    for u, v in collection.element_graph().edges():
        succ[u].append(v)
    return succ


def reachable(succ: Dict[int, List[int]], source: int) -> Set[int]:
    """Every element reachable from ``source``, itself included."""
    seen = {source}
    queue = deque([source])
    while queue:
        for v in succ[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def pair_counts(
    collection: Collection, pairs: Iterable[Tuple[str, str]]
) -> Dict[Tuple[str, str], int]:
    """Matches of each ``//head//tail``: pairs ``(u, v)``, ``u`` tagged
    ``head`` (``*`` = any), ``v`` tagged ``tail``, ``v`` a proper
    descendant of ``u`` across tree edges and links. One sweep per
    distinct head answers all of its tails."""
    succ = successors(collection)
    elements = collection.elements
    tails_of: Dict[str, Set[str]] = defaultdict(set)
    for head, tail in pairs:
        tails_of[head].add(tail)
    counts: Dict[Tuple[str, str], int] = {}
    for head, tails in tails_of.items():
        seen: Counter = Counter()
        for u, element in elements.items():
            if head == "*" or element.tag == head:
                seen.update(
                    elements[v].tag for v in reachable(succ, u) if v != u
                )
        for tail in tails:
            counts[head, tail] = (
                sum(seen.values()) if tail == "*" else seen[tail]
            )
    return counts


def check_cover_sample(index: HopiIndex, sample: int, seed: int) -> int:
    """Compare ``index.descendants`` with breadth-first search for a
    seeded sample of source elements; returns the number of sources
    whose descendant set differs. (``HopiIndex.verify`` checks every
    pair but is quadratic: 70 s on ``dblp-300``.)"""
    succ = successors(index.collection)
    rng = random.Random(f"cover-check-{seed}")
    sources: Iterable[int] = rng.sample(sorted(succ), min(sample, len(succ)))
    return sum(
        1 for u in sources
        if set(index.descendants(u)) - {u} != reachable(succ, u) - {u}
    )
