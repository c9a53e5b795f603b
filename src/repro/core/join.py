"""Joining partition covers (Sections 3.3 and 4.1).

After the divide step produced a 2-hop cover per partition, the covers
must be connected into one cover for the whole element-level graph.

* :func:`join_covers_incremental` — the **original** EDBT 2004
  algorithm (Section 3.3, Figure 2): starting from the component-wise
  union of the partition covers, every cross-partition link ``u -> v``
  is integrated one at a time, choosing ``v`` as center for all new
  connections: ``v`` is added to ``Lout`` of ``u`` and all current
  ancestors of ``u``, and to ``Lin`` of all current descendants of
  ``v``. This is simple but slow — the paper measured that "most of the
  time was spent joining the covers" — because ancestor/descendant sets
  are recomputed against the *growing* cover for every link.

* :func:`join_covers_recursive` — the **new structurally recursive**
  algorithm (Section 4.1, Theorem 1 / Corollary 1): build the
  partition-level skeleton graph (PSG), compute on it the cover ``H̄``
  (for every link source ``s``, the set of link targets reachable in the
  PSG; ``H̄in(t) = {t}`` is implicit), and distribute it with the
  supplementary cover ``Ĥ``: every partition-ancestor ``a`` of a link
  source ``s`` receives ``H̄out(s)`` into ``Lout(a)``, and every
  partition-descendant ``d`` of a link target ``t`` receives ``t`` into
  ``Lin(d)``. The final cover is the union of the partition covers,
  ``H̄`` and ``Ĥ``. When the PSG itself is too large its closure is
  computed with the recursive clustering variant.

* :func:`join_covers_recursive_parallel` — the same join with the
  distribution step **sharded by partition**: the ``Ĥ`` rule touches
  only one partition cover per link endpoint (ancestors of a source /
  descendants of a target come from *that* endpoint's partition cover,
  snapshot semantics), so after the tiny PSG closure is computed
  serially, disjoint groups of partitions become independent
  :class:`JoinShardTask`\\ s. Each shard worker produces its label
  deltas as a CSR snapshot blob (the PR-3 wire format) and the parent
  merges them — commutatively, so the result is identical for every
  shard count and executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.partitioning import Partitioning
from repro.core.skeleton import (
    build_psg,
    psg_source_target_closure,
    psg_source_target_closure_partitioned,
)
from repro.xmlmodel.model import Collection, ElementId, Link


def insert_link(cover: TwoHopCover, u: ElementId, v: ElementId) -> int:
    """Integrate one link ``u -> v`` into a cover (Section 3.3, Figure 2).

    ``v`` serves as the center node for all newly created connections:
    it is added to ``Lout`` of ``u`` and of all ancestors of ``u`` in
    the *current* cover, and to ``Lin`` of all descendants of ``v``.
    (The paper also adds ``v`` to its own labels; under the implicit-
    self convention those entries are never stored.)

    Endpoints whose labels are empty — nodes that were just added, or
    that no earlier link ever touched — have ``ancestors(u) == {u}``
    and ``descendants(v) == {v}`` by definition, so the (increasingly
    expensive) probes against the growing cover are skipped for them.

    Returns:
        The number of label entries added.
    """
    cover.add_node(u)
    cover.add_node(v)
    added = 0
    if cover.lin_of(u) or cover.nodes_with_lout_center(u):
        up = cover.ancestors(u)
    else:
        up = (u,)
    for a in up:
        if cover.add_lout(a, v):
            added += 1
    if cover.lout_of(v) or cover.nodes_with_lin_center(v):
        down = cover.descendants(v)
    else:
        down = (v,)  # only the implicit self, which is never stored
    for d in down:
        if cover.add_lin(d, v):
            added += 1
    return added


def join_covers_incremental(
    partition_covers: Sequence[TwoHopCover],
    cross_links: Iterable[Link],
    *,
    cover_factory: Callable[..., TwoHopCover] = TwoHopCover,
) -> TwoHopCover:
    """The original incremental join (Section 3.3).

    Args:
        partition_covers: one cover per partition (disjoint node sets).
        cross_links: the cross-partition links ``LP``.
        cover_factory: constructor for the merged cover.

    Returns:
        A 2-hop cover for the whole element-level graph.
    """
    merged = cover_factory()
    for cover in partition_covers:
        merged.absorb_disjoint(cover)
    for u, v in cross_links:
        insert_link(merged, u, v)
    return merged


def join_covers_recursive(
    collection: Collection,
    partitioning: Partitioning,
    partition_covers: Sequence[TwoHopCover],
    *,
    psg_node_limit: Optional[int] = None,
    cover_factory: Callable[..., TwoHopCover] = TwoHopCover,
) -> TwoHopCover:
    """The new structurally recursive join (Section 4.1, Corollary 1).

    Args:
        collection: the collection (for the doc mapping).
        partitioning: the partitioning whose covers are joined.
        partition_covers: one cover per partition, aligned with
            ``partitioning.partitions``.
        psg_node_limit: when set and the PSG exceeds this many nodes,
            its source-to-target closure is computed with the recursive
            clustering variant (the paper: "if the PSG is too large, we
            partition it"); otherwise directly.
        cover_factory: constructor for the merged cover.

    Returns:
        The union of the partition covers, ``H̄`` and ``Ĥ`` — a 2-hop
        cover for ``G_E(X)`` by Corollary 1.
    """
    cross = partitioning.cross_links
    merged = cover_factory()
    for cover in partition_covers:
        merged.absorb_disjoint(cover)
    if not cross:
        return merged

    sources: Set[ElementId] = {u for (u, _) in cross}
    targets: Set[ElementId] = {v for (_, v) in cross}
    hbar_out = _psg_closure(
        collection,
        partitioning,
        partition_covers,
        sources,
        targets,
        psg_node_limit=psg_node_limit,
    )

    # Ĥ: distribute H̄ to partition-level ancestors of sources and
    # partition-level descendants of targets. Ancestor/descendant sets
    # are taken from the *partition covers* (snapshot semantics).
    for s in sources:
        reach = hbar_out.get(s)
        if not reach:
            continue
        pid = partitioning.part_of[collection.doc(s)]
        for a in partition_covers[pid].ancestors(s):
            for t in reach:
                merged.add_lout(a, t)
    for t in targets:
        pid = partitioning.part_of[collection.doc(t)]
        for d in partition_covers[pid].descendants(t):
            merged.add_lin(d, t)
    return merged


def _psg_closure(
    collection: Collection,
    partitioning: Partitioning,
    partition_covers: Sequence[TwoHopCover],
    sources: Set[ElementId],
    targets: Set[ElementId],
    *,
    psg_node_limit: Optional[int] = None,
) -> Dict[ElementId, Set[ElementId]]:
    """Build the PSG and compute ``H̄out`` for the link sources.

    The shared serial prologue of both recursive joins — the paper
    calls the PSG "small", and it is: its node count is bounded by the
    cross-link endpoints, not the collection.
    """

    def partition_descendants(pid: int, element: ElementId) -> Set[ElementId]:
        return partition_covers[pid].descendants(element)

    psg = build_psg(collection, partitioning, partition_descendants)
    if psg_node_limit is not None and len(psg) > psg_node_limit:
        return psg_source_target_closure_partitioned(
            psg, targets, node_limit=psg_node_limit
        )
    return psg_source_target_closure(psg, targets, sources=sources)


# ---------------------------------------------------------------------------
# the parallel distribution step (sharded Ĥ)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinShardTask:
    """The ``Ĥ`` distribution work of one group of partitions, as plain
    picklable data (the join analogue of ``PartitionTask``).

    Attributes:
        shard_id: dense shard index (also the deterministic merge key).
        covers: ``(pid, CSR snapshot blob)`` for every partition cover
            this shard reads ancestors/descendants from.
        sources: ``(s, pid, H̄out(s))`` triples for link sources whose
            partition belongs to this shard.
        targets: ``(t, pid)`` pairs for link targets whose partition
            belongs to this shard.
    """

    shard_id: int
    covers: Tuple[Tuple[int, bytes], ...]
    sources: Tuple[Tuple[ElementId, int, Tuple[ElementId, ...]], ...]
    targets: Tuple[Tuple[ElementId, int], ...]


@dataclass
class ParallelJoinStats:
    """Per-phase accounting of one parallel join."""

    shards: int = 1
    seconds_union: float = 0.0
    seconds_psg: float = 0.0
    seconds_distribute: float = 0.0
    shard_seconds: List[float] = field(default_factory=list)


def _join_shard_worker(task: JoinShardTask) -> Tuple[int, bytes, float]:
    """Executor entry point: apply one shard's ``Ĥ`` label deltas.

    Runs in a worker (thread, process or RPC daemon). Ancestor and
    descendant sets are read from the shard's pristine partition covers
    first (the serial join's snapshot semantics — distribution never
    observes its own insertions), accumulated as C-speed set unions.
    The shard's partition covers and the deltas are then merged into
    **one** shard cover whose interner is label-sorted, returned as a
    CSR snapshot blob: label-sorted interners are subsets of the
    parent's sorted global id space, so every id remap along the way —
    partition blob → shard cover → merged cover — is monotone, and no
    row is ever re-sorted outside the worker.
    """
    from repro.storage.snapshot import snapshot_from_bytes, snapshot_to_bytes

    t0 = time.perf_counter()
    covers = {pid: snapshot_from_bytes(blob) for pid, blob in task.covers}
    lout_adds: Dict[ElementId, Set[ElementId]] = {}
    lin_adds: Dict[ElementId, Set[ElementId]] = {}
    for s, pid, reach in task.sources:
        reach_set = set(reach)
        for a in covers[pid].ancestors(s):
            acc = lout_adds.get(a)
            if acc is None:
                lout_adds[a] = set(reach_set)
            else:
                acc |= reach_set
    for t, pid in task.targets:
        for d in covers[pid].descendants(t):
            lin_adds.setdefault(d, set()).add(t)

    labels: Set[ElementId] = set()
    for cover in covers.values():
        labels.update(cover.interner)
    for adds in (lout_adds, lin_adds):
        for centers in adds.values():
            labels.update(centers)
    shard = TwoHopCover()
    shard.preintern_sorted(labels)
    for pid in sorted(covers):
        shard.absorb_disjoint(covers[pid])
    for adds, add in ((lout_adds, shard.add_lout), (lin_adds, shard.add_lin)):
        for node, centers in adds.items():
            for c in centers:
                add(node, c)
    return task.shard_id, snapshot_to_bytes(shard), time.perf_counter() - t0


def make_join_shard_tasks(
    collection: Collection,
    partitioning: Partitioning,
    partition_covers: Sequence[TwoHopCover],
    hbar_out: Dict[ElementId, Set[ElementId]],
    sources: Set[ElementId],
    targets: Set[ElementId],
    join_shards: int,
    *,
    partition_blobs: Optional[Dict[int, bytes]] = None,
) -> List[JoinShardTask]:
    """Group the distribution work by partition into shard tasks.

    Partitions with any distribution work are packed onto
    ``join_shards`` shards with a deterministic LPT heuristic — pids
    sorted by estimated distribution work (Σ ``|H̄out|`` over their
    sources plus a per-target descendant-fanout proxy), heaviest
    first, each onto the least-loaded shard — so shard walls stay
    balanced even when one partition carries most of the cross links.
    Each shard task carries the snapshot blobs of exactly the
    partition covers it touches — re-using ``partition_blobs`` (the
    phase-2 wire payloads a parallel executor already produced) when
    available. Empty shards are dropped.
    """
    from repro.storage.snapshot import snapshot_to_bytes

    by_pid_sources: Dict[int, List[Tuple[ElementId, int, Tuple[ElementId, ...]]]] = {}
    by_pid_targets: Dict[int, List[Tuple[ElementId, int]]] = {}
    for s in sorted(sources):
        reach = hbar_out.get(s)
        if not reach:
            continue
        pid = partitioning.part_of[collection.doc(s)]
        by_pid_sources.setdefault(pid, []).append((s, pid, tuple(sorted(reach))))
    for t in sorted(targets):
        pid = partitioning.part_of[collection.doc(t)]
        by_pid_targets.setdefault(pid, []).append((t, pid))

    def estimated_work(pid: int) -> int:
        fanout = max(
            len(partition_covers[pid].nodes)
            // max(len(partitioning.partitions[pid]), 1),
            1,
        )
        return sum(
            len(reach) for (_, _, reach) in by_pid_sources.get(pid, ())
        ) + fanout * len(by_pid_targets.get(pid, ()))

    active_pids = sorted(by_pid_sources.keys() | by_pid_targets.keys())
    shard_pids: List[List[int]] = [[] for _ in range(max(join_shards, 1))]
    loads = [0] * len(shard_pids)
    for pid in sorted(active_pids, key=lambda p: (-estimated_work(p), p)):
        lightest = loads.index(min(loads))
        shard_pids[lightest].append(pid)
        loads[lightest] += estimated_work(pid)
    for pids in shard_pids:
        pids.sort()

    blob_cache: Dict[int, bytes] = dict(partition_blobs or {})

    def blob_of(pid: int) -> bytes:
        if pid not in blob_cache:
            blob_cache[pid] = snapshot_to_bytes(partition_covers[pid])
        return blob_cache[pid]

    tasks: List[JoinShardTask] = []
    for pids in shard_pids:
        if not pids:
            continue
        tasks.append(
            JoinShardTask(
                shard_id=len(tasks),
                covers=tuple((pid, blob_of(pid)) for pid in pids),
                sources=tuple(
                    item for pid in pids for item in by_pid_sources.get(pid, ())
                ),
                targets=tuple(
                    item for pid in pids for item in by_pid_targets.get(pid, ())
                ),
            )
        )
    return tasks


def pack_universe(covers: Sequence[TwoHopCover]) -> bytes:
    """The sorted global label table of ``covers``, packed as int64.

    The shared id space of the parallel join: the parent preinterns it,
    every shard builds its result in it, and the assembly needs no id
    translation. Empty when any cover holds non-integer labels (those
    never reach the snapshot wire format anyway).
    """
    from array import array as _array

    labels: Set[ElementId] = set()
    for cover in covers:
        labels.update(cover.interner)
    if not all(isinstance(lab, int) for lab in labels):
        return b""
    return _array("q", sorted(labels)).tobytes()


def join_covers_recursive_parallel(
    collection: Collection,
    partitioning: Partitioning,
    partition_covers: Sequence[TwoHopCover],
    *,
    executor,
    join_shards: int,
    psg_node_limit: Optional[int] = None,
    cover_factory: Callable[..., TwoHopCover] = TwoHopCover,
    partition_blobs: Optional[Dict[int, bytes]] = None,
) -> Tuple[TwoHopCover, ParallelJoinStats]:
    """:func:`join_covers_recursive` with a sharded distribution step.

    The serial prologue (PSG closure) stays in the parent — the paper
    notes the PSG is small; the quadratic ancestor × reach distribution
    is fanned out over ``executor`` as :class:`JoinShardTask`\\ s, whose
    workers bake their deltas into their own partition covers. The
    parent then assembles the merged cover from the updated (or
    untouched) partition covers with block-copy absorbs — no per-entry
    replay. Shards only ever add the same label entries the serial
    join adds, so the merged cover is bit-identical for every shard
    count and executor.

    Returns:
        ``(cover, ParallelJoinStats)``.
    """
    from repro.storage.snapshot import snapshot_from_bytes

    stats = ParallelJoinStats(shards=max(join_shards, 1))
    cross = partitioning.cross_links
    merged = cover_factory()
    shard_covers: List[TwoHopCover] = []
    sharded_pids: Set[int] = set()
    universe = b""
    if cross:
        sources: Set[ElementId] = {u for (u, _) in cross}
        targets: Set[ElementId] = {v for (_, v) in cross}
        t0 = time.perf_counter()
        hbar_out = _psg_closure(
            collection,
            partitioning,
            partition_covers,
            sources,
            targets,
            psg_node_limit=psg_node_limit,
        )
        stats.seconds_psg = time.perf_counter() - t0

        t0 = time.perf_counter()
        universe = pack_universe(partition_covers)
        tasks = make_join_shard_tasks(
            collection, partitioning, partition_covers,
            hbar_out, sources, targets, join_shards,
            partition_blobs=partition_blobs,
        )
        for task in tasks:
            sharded_pids.update(pid for pid, _ in task.covers)
        results = sorted(executor.map_join(tasks), key=lambda r: r[0])
        for _, blob, seconds in results:
            stats.shard_seconds.append(seconds)
            shard_covers.append(snapshot_from_bytes(blob))
        stats.seconds_distribute = time.perf_counter() - t0

    t0 = time.perf_counter()
    if shard_covers and universe:
        # share the workers' global id space: shard covers then absorb
        # with *no* id translation, untouched partitions via monotone
        # remaps — pure block copies either way
        from array import array as _array

        labels = _array("q")
        labels.frombytes(universe)
        merged.preintern_sorted(labels)
    for cover in shard_covers:
        merged.absorb_disjoint(cover)
    for pid, cover in enumerate(partition_covers):
        if pid not in sharded_pids:
            merged.absorb_disjoint(cover)
    stats.seconds_union = time.perf_counter() - t0
    return merged, stats


# ---------------------------------------------------------------------------
# distance-aware joins (Section 5 notes the build process carries over)
# ---------------------------------------------------------------------------


def insert_link_distance(
    cover: DistanceTwoHopCover, u: ElementId, v: ElementId
) -> int:
    """Distance-aware variant of :func:`insert_link`.

    The new edge contributes paths ``a ->* u -> v ->* d``; ``v`` becomes
    a center with ``dout = dist(a, u) + 1`` on the ancestor side and
    ``din = dist(v, d)`` on the descendant side. Existing entries keep
    their distances; ``min`` at query time picks the shortest witness.

    Returns:
        The number of label entries added or improved.
    """
    cover.add_node(u)
    cover.add_node(v)
    changed = 0
    dist_to_u: Dict[ElementId, int] = {}
    for a in cover.ancestors(u):
        d = cover.distance(a, u)
        if d is not None:
            dist_to_u[a] = d
    dist_from_v: Dict[ElementId, int] = {}
    for d_node in cover.descendants(v):
        d = cover.distance(v, d_node)
        if d is not None:
            dist_from_v[d_node] = d
    for a, da in dist_to_u.items():
        if cover.add_lout(a, v, da + 1):
            changed += 1
    for d_node, dd in dist_from_v.items():
        if cover.add_lin(d_node, v, dd):
            changed += 1
    return changed


def join_covers_incremental_distance(
    partition_covers: Sequence[DistanceTwoHopCover],
    cross_links: Iterable[Link],
    *,
    cover_factory: Callable[..., DistanceTwoHopCover] = DistanceTwoHopCover,
) -> DistanceTwoHopCover:
    """Distance-aware incremental join.

    Correct when every cross-partition link is integrated exactly once
    and links are processed repeatedly until distances stabilise —
    integrating a link can shorten paths that earlier links' label
    entries already recorded, so the loop below iterates to a fixpoint
    (usually 1-2 rounds on citation-style graphs).
    """
    merged = cover_factory()
    for cover in partition_covers:
        merged.absorb_disjoint(cover)
    links = list(cross_links)
    changed = True
    while changed:
        changed = False
        for u, v in links:
            if insert_link_distance(merged, u, v) > 0:
                changed = True
    return merged
