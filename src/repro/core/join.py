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
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Set

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

    The paper calls the PSG "small", and it is: its node count is
    bounded by the cross-link endpoints, not the collection.
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
