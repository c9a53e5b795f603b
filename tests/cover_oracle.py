"""The frozen differential oracle: 2-hop covers as ``Dict[Node, Set]``.

This is the reference implementation of the label semantics
(Sections 3.1, 3.4 and 5.1 of the paper) that
:mod:`repro.core.cover` must be indistinguishable from: the same
classes that used to ship as the ``sets`` representation, moved here
when the array cover became the only representation under ``src/``.
Labels are plain sets / dicts over raw node ids — no interning, no
sorted arrays, no probe caches, no kernels, no
copy-on-write — so it shares no probe or mutation code with the product
class. It keeps the full mutator and query surface, which lets the
Section-6 maintenance algorithms (which construct ``type(cover)``) run
over it unchanged: ``oracle_index(index)`` gives a
:class:`~repro.core.hopi.HopiIndex` whose every answer comes from here,
and the serving tier can publish it like any other index (a fork of
the oracle is a deep copy).

Do not optimise or restructure this file; change it only when the
*semantics* of the cover change.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Node = Hashable


def oracle_cover(cover):
    """The oracle twin of any cover: same universe, same label entries,
    same stored ranks."""
    if cover.is_distance_aware:
        twin = SetDistanceCover(cover.nodes)
        for kind, node, center, dist in cover.entries():
            (twin.add_lin if kind == "in" else twin.add_lout)(node, center, dist)
    else:
        twin = SetTwoHopCover(cover.nodes)
        for kind, node, center in cover.entries():
            (twin.add_lin if kind == "in" else twin.add_lout)(node, center)
    nodes = list(cover.nodes)
    twin.rank = {v: r for v, r in zip(nodes, cover.ranks(nodes)) if r}
    return twin


def oracle_index(index):
    """An index over a *copy* of ``index``'s collection whose cover is
    the oracle twin of ``index.cover`` — maintenance on it runs the
    same Section-6 algorithms over the oracle representation."""
    from repro.core.hopi import HopiIndex

    twin = HopiIndex(index.collection.copy(), oracle_cover(index.cover),
                     stats=index.stats)
    twin.epoch = index.epoch
    return twin


#: What a test matrix can put behind a :class:`HopiIndex`, under the
#: ids its rows have always carried: ``sets`` — the oracle; ``arrays`` —
#: the cover with no batch probe run yet (galloping ``connected``);
#: ``vector`` — the same cover with its batch-probe caches populated by a
#: ``connected_many`` before the test body runs, so forks, copies,
#: pickles and mutations start from a parent that holds them.
COVER_STATES = ("arrays", "sets", "vector")


def index_in_state(index, state: str):
    """``index`` (freshly built, hence with no probe cache) put into
    ``state``."""
    assert index.cover._probe_cache is None
    if state == "sets":
        return oracle_index(index)
    if state == "vector":
        elements = tuple(sorted(index.collection.elements))
        index.connected_many(elements[0], elements)
        assert index.cover._probe_cache is not None
    return index


def _splice_region(cover, fresh, seeds, descendants) -> int:
    """Theorem 3's label surgery, node by node — the reference for the
    cover's ``splice_region``, which runs on interned ids. The loops
    are ``maintenance._splice_fresh_cover`` as it stood before that
    (``_is_distance(cover)`` read as the attribute it returned); the
    region is ``fresh``'s universe. Returns the change in entries of
    the rows it may touch.

    ``L' := L ∪ L̂`` except: every ``region`` node's out label is
    **replaced** by the fresh one — the region is closed under
    reachability, so every connection out of it is one ``fresh``
    covers — and every surviving descendant's in label drops the
    ancestor ``seeds`` before it gains the fresh centers. Rows that
    come out equal are left alone.
    """
    region = set(fresh.nodes)

    def entries():
        return sum(len(cover.lin_of(x)) + len(cover.lout_of(x))
                   for x in region | descendants)

    before = entries()
    distance = cover.is_distance_aware
    for x in region:
        cover.set_lout(x, fresh.lout_of(x))
    for x in region | descendants:
        lin = cover.lin_of(x)
        drop = seeds if x in descendants else ()
        if distance:
            kept = {c: dist for c, dist in lin.items() if c not in drop}
            for c, dist in fresh.lin_of(x).items():
                if c not in kept or dist < kept[c]:
                    kept[c] = dist
        else:
            kept = {c for c in lin if c not in drop}
            kept.update(fresh.lin_of(x))
        cover.set_lin(x, kept)
    return entries() - before


def _ranks(cover, nodes, keys=None) -> List[int]:
    """The stored rank of each of ``nodes`` (0 where none is); with
    ``keys``, the nodes without one first get ``keys(missing)``'s
    (aligned with ``missing``) and keep it."""
    if keys is not None:
        missing = [v for v in nodes if v not in cover.rank]
        if missing:
            cover.rank.update(zip(missing, keys(missing)))
    return [cover.rank.get(v, 0) for v in nodes]


class SetTwoHopCover:
    """A reachability 2-hop cover with forward and backward label indexes.

    The cover knows its node universe: ``connected(u, u)`` is true only
    for registered nodes, and nodes with empty labels still participate
    in queries through the implicit self-hop.
    """

    is_distance_aware = False

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self.nodes: Set[Node] = set(nodes)
        self.lin: Dict[Node, Set[Node]] = {}
        self.lout: Dict[Node, Set[Node]] = {}
        # backward indexes: center -> set of nodes whose Lin/Lout holds it
        self._inv_lin: Dict[Node, Set[Node]] = {}
        self._inv_lout: Dict[Node, Set[Node]] = {}
        self.rank: Dict[Node, int] = {}

    # ------------------------------------------------------------------
    # label mutation
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Register ``v`` in the node universe (idempotent)."""
        self.nodes.add(v)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register every node of ``nodes`` in the universe."""
        self.nodes.update(nodes)

    def add_lin(self, node: Node, center: Node) -> bool:
        """Add ``center`` to ``Lin(node)`` (self-entries are dropped).

        Returns True when the label actually changed.
        """
        if node == center:
            return False
        self.nodes.add(node)
        entries = self.lin.setdefault(node, set())
        if center in entries:
            return False
        entries.add(center)
        self._inv_lin.setdefault(center, set()).add(node)
        return True

    def add_lout(self, node: Node, center: Node) -> bool:
        """Add ``center`` to ``Lout(node)`` (self-entries are dropped).

        Returns True when the label actually changed.
        """
        if node == center:
            return False
        self.nodes.add(node)
        entries = self.lout.setdefault(node, set())
        if center in entries:
            return False
        entries.add(center)
        self._inv_lout.setdefault(center, set()).add(node)
        return True

    def discard_lin(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lin(node)`` if present."""
        entries = self.lin.get(node)
        if entries and center in entries:
            entries.discard(center)
            self._inv_lin[center].discard(node)

    def discard_lout(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lout(node)`` if present."""
        entries = self.lout.get(node)
        if entries and center in entries:
            entries.discard(center)
            self._inv_lout[center].discard(node)

    def set_lin(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lin(node)`` wholesale (used by Theorems 2 and 3)."""
        for c in self.lin.get(node, ()):
            self._inv_lin[c].discard(node)
        new = {c for c in centers if c != node}
        self.lin[node] = new
        for c in new:
            self._inv_lin.setdefault(c, set()).add(node)

    def set_lout(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lout(node)`` wholesale (used by Theorems 2 and 3)."""
        for c in self.lout.get(node, ()):
            self._inv_lout[c].discard(node)
        new = {c for c in centers if c != node}
        self.lout[node] = new
        for c in new:
            self._inv_lout.setdefault(c, set()).add(node)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label
        entry that uses them as a center (document deletion support)."""
        self.nodes -= removed
        for v in removed:
            self.set_lin(v, ())
            self.set_lout(v, ())
            self.lin.pop(v, None)
            self.lout.pop(v, None)
        for v in removed:
            for node in list(self._inv_lin.get(v, ())):
                self.discard_lin(node, v)
            for node in list(self._inv_lout.get(v, ())):
                self.discard_lout(node, v)
            self._inv_lin.pop(v, None)
            self._inv_lout.pop(v, None)

    def union(self, other) -> None:
        """Component-wise union with any reachability cover
        (Section 4.1's joins); entries stream through
        ``other.entries()``, so the product class can be unioned in."""
        self.add_nodes(other.nodes)
        for kind, node, center in other.entries():
            if kind == "in":
                self.add_lin(node, center)
            else:
                self.add_lout(node, center)

    #: the oracle has no cheaper merge for node-disjoint covers
    absorb_disjoint = union

    #: Theorem 3's splice, node by node
    splice_region = _splice_region

    def copy(self) -> "SetTwoHopCover":
        """A structurally independent deep copy of the cover."""
        clone = SetTwoHopCover(self.nodes)
        clone.lin = {v: set(c) for v, c in self.lin.items()}
        clone.lout = {v: set(c) for v, c in self.lout.items()}
        clone._inv_lin = {v: set(c) for v, c in self._inv_lin.items()}
        clone._inv_lout = {v: set(c) for v, c in self._inv_lout.items()}
        clone.rank = dict(self.rank)
        return clone

    #: a fork of the oracle is simply a deep copy
    cow_copy = copy

    #: the stored vertex order
    ranks = _ranks

    # ------------------------------------------------------------------
    # queries (Section 3.4 semantics)
    # ------------------------------------------------------------------
    def lin_of(self, node: Node) -> Set[Node]:
        """``Lin(node)`` (empty set for unlabeled nodes)."""
        return self.lin.get(node, set())

    def lout_of(self, node: Node) -> Set[Node]:
        """``Lout(node)`` (empty set for unlabeled nodes)."""
        return self.lout.get(node, set())

    def nodes_with_lin_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lin`` holds ``center``."""
        return self._inv_lin.get(center, set())

    def nodes_with_lout_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lout`` holds ``center``."""
        return self._inv_lout.get(center, set())

    def connected(self, u: Node, v: Node) -> bool:
        """``u ->* v``? Implements ``(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v})``.

        The four disjuncts correspond to the paper's main SQL query plus
        the "simple additional queries" that compensate for self-entries
        not being stored.
        """
        if u not in self.nodes or v not in self.nodes:
            return False
        if u == v:
            return True
        lout = self.lout.get(u)
        if lout and v in lout:
            return True
        lin = self.lin.get(v)
        if lin and u in lin:
            return True
        if lout and lin:
            small, large = (lout, lin) if len(lout) < len(lin) else (lin, lout)
            return any(c in large for c in small)
        return False

    def connected_many(self, u: Node, candidates: Sequence[Node]) -> List[bool]:
        """Batched ``[connected(u, c) for c in candidates]`` — literally."""
        return [self.connected(u, c) for c in candidates]

    def intersect_many(
        self, sources: Sequence[Node], candidates: Sequence[Node]
    ) -> List[List[int]]:
        """For each source, the sorted indices into ``candidates`` it
        reaches — literally one ``connected`` per pair."""
        return [
            [i for i, c in enumerate(candidates) if self.connected(u, c)]
            for u in sources
        ]

    def descendants(self, u: Node) -> Set[Node]:
        """All ``d`` with ``u ->* d`` (including ``u``), via the backward index."""
        if u not in self.nodes:
            return set()
        result: Set[Node] = {u}
        result |= self._inv_lin.get(u, set())
        lout = self.lout.get(u)
        if lout:
            result |= lout
            for c in lout:
                result |= self._inv_lin.get(c, set())
        return result

    def ancestors(self, v: Node) -> Set[Node]:
        """All ``a`` with ``a ->* v`` (including ``v``)."""
        if v not in self.nodes:
            return set()
        result: Set[Node] = {v}
        result |= self._inv_lout.get(v, set())
        lin = self.lin.get(v)
        if lin:
            result |= lin
            for c in lin:
                result |= self._inv_lout.get(c, set())
        return result

    # ------------------------------------------------------------------
    # statistics & verification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|L| = Σ |Lin(v)| + |Lout(v)|`` — the paper's cover size."""
        return sum(len(c) for c in self.lin.values()) + sum(
            len(c) for c in self.lout.values()
        )

    def entries(self) -> Iterator[Tuple[str, Node, Node]]:
        """All label entries as ``(kind, node, center)`` with kind in
        {"in", "out"} — the row set of the LIN/LOUT tables."""
        for node, centers in self.lin.items():
            for c in centers:
                yield ("in", node, c)
        for node, centers in self.lout.items():
            for c in centers:
                yield ("out", node, c)

    def verify_against(self, closure, nodes: Optional[Iterable[Node]] = None) -> None:
        """Assert the cover represents exactly the closure's connections
        (both directions of Theorem 1)."""
        universe = list(nodes) if nodes is not None else list(self.nodes)
        for u in universe:
            for v in universe:
                expected = closure.contains(u, v)
                actual = self.connected(u, v)
                if expected != actual:
                    raise AssertionError(
                        f"cover mismatch for ({u!r}, {v!r}): "
                        f"closure says {expected}, cover says {actual}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SetTwoHopCover(nodes={len(self.nodes)}, size={self.size})"


class SetDistanceCover:
    """A distance-aware 2-hop cover (Section 5).

    Labels map centers to the shortest distance towards/from them:
    ``Lout(u)[w] = dist(u, w)`` and ``Lin(v)[w] = dist(w, v)``. The
    distance between two nodes is the minimum of ``dout + din`` over
    common centers — "the minimum operator is necessary because paths
    over center nodes may have different lengths" (Section 5.1). Entries
    keep the minimum on duplicate insertion.
    """

    is_distance_aware = True

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self.nodes: Set[Node] = set(nodes)
        self.lin: Dict[Node, Dict[Node, int]] = {}
        self.lout: Dict[Node, Dict[Node, int]] = {}
        self._inv_lin: Dict[Node, Set[Node]] = {}
        self._inv_lout: Dict[Node, Set[Node]] = {}
        self.rank: Dict[Node, int] = {}

    # ------------------------------------------------------------------
    # label mutation
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Register ``v`` in the node universe (idempotent)."""
        self.nodes.add(v)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register every node of ``nodes`` in the universe."""
        self.nodes.update(nodes)

    def add_lin(self, node: Node, center: Node, dist: int) -> bool:
        """Add/improve ``Lin(node)[center] = dist``; True when changed."""
        if node == center:
            return False
        self.nodes.add(node)
        old = self.lin.get(node, {}).get(center)
        if old is None or dist < old:
            self.lin.setdefault(node, {})[center] = dist
            self._inv_lin.setdefault(center, set()).add(node)
            return True
        return False

    def add_lout(self, node: Node, center: Node, dist: int) -> bool:
        """Add/improve ``Lout(node)[center] = dist``; True when changed."""
        if node == center:
            return False
        self.nodes.add(node)
        old = self.lout.get(node, {}).get(center)
        if old is None or dist < old:
            self.lout.setdefault(node, {})[center] = dist
            self._inv_lout.setdefault(center, set()).add(node)
            return True
        return False

    def set_lin(self, node: Node, entries: Dict[Node, int]) -> None:
        """Replace ``Lin(node)`` wholesale (used by Theorems 2 and 3)."""
        for c in self.lin.get(node, ()):
            self._inv_lin[c].discard(node)
        new = {c: d for c, d in entries.items() if c != node}
        self.lin[node] = new
        for c in new:
            self._inv_lin.setdefault(c, set()).add(node)

    def set_lout(self, node: Node, entries: Dict[Node, int]) -> None:
        """Replace ``Lout(node)`` wholesale (used by Theorems 2 and 3)."""
        for c in self.lout.get(node, ()):
            self._inv_lout[c].discard(node)
        new = {c: d for c, d in entries.items() if c != node}
        self.lout[node] = new
        for c in new:
            self._inv_lout.setdefault(c, set()).add(node)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label entry using them as a center."""
        self.nodes -= removed
        for v in removed:
            self.set_lin(v, {})
            self.set_lout(v, {})
            self.lin.pop(v, None)
            self.lout.pop(v, None)
        for v in removed:
            for node in list(self._inv_lin.get(v, ())):
                self.lin.get(node, {}).pop(v, None)
            for node in list(self._inv_lout.get(v, ())):
                self.lout.get(node, {}).pop(v, None)
            self._inv_lin.pop(v, None)
            self._inv_lout.pop(v, None)

    def union(self, other) -> None:
        """Component-wise min-union with any distance cover."""
        self.add_nodes(other.nodes)
        for kind, node, center, dist in other.entries():
            if kind == "in":
                self.add_lin(node, center, dist)
            else:
                self.add_lout(node, center, dist)

    #: the oracle has no cheaper merge for node-disjoint covers
    absorb_disjoint = union

    #: Theorem 3's splice, node by node
    splice_region = _splice_region

    def copy(self) -> "SetDistanceCover":
        """A structurally independent deep copy of the cover."""
        clone = SetDistanceCover(self.nodes)
        clone.lin = {v: dict(c) for v, c in self.lin.items()}
        clone.lout = {v: dict(c) for v, c in self.lout.items()}
        clone._inv_lin = {v: set(c) for v, c in self._inv_lin.items()}
        clone._inv_lout = {v: set(c) for v, c in self._inv_lout.items()}
        clone.rank = dict(self.rank)
        return clone

    #: a fork of the oracle is simply a deep copy
    cow_copy = copy

    #: the stored vertex order
    ranks = _ranks

    def discard_lin(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lin(node)`` if present."""
        entries = self.lin.get(node)
        if entries and center in entries:
            del entries[center]
            self._inv_lin[center].discard(node)

    def discard_lout(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lout(node)`` if present."""
        entries = self.lout.get(node)
        if entries and center in entries:
            del entries[center]
            self._inv_lout[center].discard(node)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lin_of(self, node: Node) -> Dict[Node, int]:
        """``Lin(node)`` as ``{center: dist}``."""
        return self.lin.get(node, {})

    def lout_of(self, node: Node) -> Dict[Node, int]:
        """``Lout(node)`` as ``{center: dist}``."""
        return self.lout.get(node, {})

    def nodes_with_lin_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lin`` holds ``center``."""
        return self._inv_lin.get(center, set())

    def nodes_with_lout_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lout`` holds ``center``."""
        return self._inv_lout.get(center, set())

    def distance(self, u: Node, v: Node) -> Optional[int]:
        """Shortest distance ``u -> v`` or ``None`` when not connected.

        Implements ``MIN(LOUT.DIST + LIN.DIST)`` over common centers,
        extended by the implicit self-entries at distance 0.
        """
        if u not in self.nodes or v not in self.nodes:
            return None
        if u == v:
            return 0
        best: Optional[int] = None
        lout = self.lout.get(u, {})
        lin = self.lin.get(v, {})
        d = lout.get(v)  # center = v itself (its self din is 0)
        if d is not None:
            best = d
        d = lin.get(u)  # center = u itself (its self dout is 0)
        if d is not None and (best is None or d < best):
            best = d
        if lout and lin:
            # dout + din is symmetric, so iterate the smaller side
            small, large = (lout, lin) if len(lout) < len(lin) else (lin, lout)
            for c, d1 in small.items():
                d2 = large.get(c)
                if d2 is not None:
                    total = d1 + d2
                    if best is None or total < best:
                        best = total
        return best

    def connected(self, u: Node, v: Node) -> bool:
        """``u ->* v``? True iff a (shortest) witness distance exists."""
        return self.distance(u, v) is not None

    def connected_many(self, u: Node, candidates: Sequence[Node]) -> List[bool]:
        """Batched ``[connected(u, c) for c in candidates]`` — literally."""
        return [self.connected(u, c) for c in candidates]

    def intersect_many(
        self, sources: Sequence[Node], candidates: Sequence[Node]
    ) -> List[List[int]]:
        """For each source, the sorted indices into ``candidates`` it
        reaches — literally one ``connected`` per pair."""
        return [
            [i for i, c in enumerate(candidates) if self.connected(u, c)]
            for u in sources
        ]

    def descendants(self, u: Node) -> Set[Node]:
        """All ``d`` with ``u ->* d`` (including ``u``)."""
        if u not in self.nodes:
            return set()
        result: Set[Node] = {u}
        result |= self._inv_lin.get(u, set())
        lout = self.lout.get(u)
        if lout:
            result.update(lout)
            for c in lout:
                result |= self._inv_lin.get(c, set())
        return result

    def ancestors(self, v: Node) -> Set[Node]:
        """All ``a`` with ``a ->* v`` (including ``v``)."""
        if v not in self.nodes:
            return set()
        result: Set[Node] = {v}
        result |= self._inv_lout.get(v, set())
        lin = self.lin.get(v)
        if lin:
            result.update(lin)
            for c in lin:
                result |= self._inv_lout.get(c, set())
        return result

    def descendants_within(self, u: Node, max_dist: int) -> Dict[Node, int]:
        """Descendants of ``u`` at distance ≤ ``max_dist`` with distances.

        The limited-length path lookup motivating Section 5 ("queries for
        limited-length paths between nodes with certain tags").
        """
        result: Dict[Node, int] = {}
        for d in self.descendants(u):
            dist = self.distance(u, d)
            if dist is not None and dist <= max_dist:
                result[d] = dist
        return result

    # ------------------------------------------------------------------
    # statistics & verification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|L| = Σ |Lin(v)| + |Lout(v)|`` — the paper's cover size."""
        return sum(len(c) for c in self.lin.values()) + sum(
            len(c) for c in self.lout.values()
        )

    def entries(self) -> Iterator[Tuple[str, Node, Node, int]]:
        """All label entries as ``(kind, node, center, dist)`` with kind
        in {"in", "out"} — the row set of the LIN/LOUT tables."""
        for node, centers in self.lin.items():
            for c, d in centers.items():
                yield ("in", node, c, d)
        for node, centers in self.lout.items():
            for c, d in centers.items():
                yield ("out", node, c, d)

    def verify_against(self, dclosure, nodes: Optional[Iterable[Node]] = None) -> None:
        """Assert distances match a :class:`DistanceClosure` exactly."""
        universe = list(nodes) if nodes is not None else list(self.nodes)
        for u in universe:
            for v in universe:
                expected = dclosure.distance(u, v)
                actual = self.distance(u, v)
                if expected != actual:
                    raise AssertionError(
                        f"distance mismatch for ({u!r}, {v!r}): "
                        f"closure says {expected}, cover says {actual}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SetDistanceCover(nodes={len(self.nodes)}, size={self.size})"
