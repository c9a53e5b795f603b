"""The 2-hop cover: sorted id arrays, probed where they are kept.

A 2-hop cover assigns each node ``v`` a label ``L(v) = (Lin(v), Lout(v))``
such that ``u ->* v`` iff ``(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v}) ≠ ∅``
(Sections 3.1 and 3.4 of the paper). Like the paper's database layout,
the node itself is *never stored* in its own label; the implicit
self-hop is applied by every query. Two flavours:

* :class:`TwoHopCover` — plain reachability labels;
* :class:`DistanceTwoHopCover` — labels carry the distance to the center
  (Section 5); ``distance(u, v) = min(dout(u, w) + din(w, v))`` over
  common centers ``w``, the paper's ``SELECT MIN(LOUT.DIST + LIN.DIST)``.

This is the one label representation of the system:

* a node is a non-negative ``int`` (an element id) and indexes every
  per-node table directly: ``Lin(v)`` is ``_lin[v]``, ``v``'s rank
  ``_rank[v]``. A removed or never-seen id is not in the universe and
  its rows are ``None``;
* ``Lin``/``Lout`` are **sorted** ``array('i')`` center-id rows (distance
  covers carry an aligned ``array('i')`` of distances), and the
  **backward indexes** (``center -> nodes carrying it``, Section 3.4's
  backward database indexes) are maintained incrementally as sorted id
  rows too — these mutable rows are what builds, joins and Section-6
  maintenance write;
* ``connected()`` is one galloping intersection of ``Lout(u)`` with
  ``Lin(v)`` over the mutable rows (:func:`galloping_intersects`);
* ``intersect_many`` is Section 3.4's ``LOUT ⋈ LIN`` join on the
  center, batched (``connected_many`` is its one-source flag view):
  the candidates are grouped by center once (:meth:`center_map`:
  ``center → indices j`` with the center in ``Lin(c_j) ∪ {c_j}``), and
  a source reaches the union of the groups of ``{u} ∪ Lout(u)``
  (:meth:`reach_many`). The cover keeps nothing between calls: the
  query engine of an epoch keeps the center maps, and a later epoch's
  engine reuses one while :meth:`basis_holds` says its basis still
  does;
* :meth:`to_csr`/:meth:`from_csr` convert labels to/from the CSR layout
  (``indptr`` + flat data arrays), one row per table slot at its id, so
  snapshots round-trip through ``array.tobytes`` without per-row Python
  overhead or any id mapping; only a payload written before, whose
  ``nodes`` lists just the held ids, is mapped by position on load;
* one **rank** per id (an ``array('q')`` beside the tables, 0 where
  none is stored) is the vertex order every PLL labelling of
  this cover follows: the build stores its sort key, inserts store one
  for their new vertices, and a Theorem-3 region re-label sorts by it
  (:meth:`ranks`).

The ``Dict[Node, Set]`` implementation of the same semantics lives in
``tests/cover_oracle.py`` as the frozen differential oracle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress
from operator import is_
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: a vertex: a non-negative element id
Node = int

#: typecodes: int32 label/center data, int64 CSR offsets and ranks
ID_TYPECODE = "i"
OFFSET_TYPECODE = "q"
RANK_TYPECODE = "q"

#: the largest storable rank; a larger key is stored as this
RANK_MAX = 2**63 - 1


def rank_array(keys: Sequence[int]) -> array:
    """The rank table holding ``keys``, each clamped to :data:`RANK_MAX`."""
    try:
        return array(RANK_TYPECODE, keys)
    except OverflowError:
        return array(RANK_TYPECODE, [min(k, RANK_MAX) for k in keys])


#: the empty label row (read only)
_NO_ROW = array(ID_TYPECODE)


# ---------------------------------------------------------------------------
# sorted-array primitives
# ---------------------------------------------------------------------------


def sorted_insert(arr: array, x: int) -> bool:
    """Insert ``x`` into a sorted array unless present; True if inserted."""
    i = bisect_left(arr, x)
    if i < len(arr) and arr[i] == x:
        return False
    arr.insert(i, x)
    return True


def sorted_remove(arr: array, x: int) -> bool:
    """Remove ``x`` from a sorted array if present; True if removed."""
    i = bisect_left(arr, x)
    if i < len(arr) and arr[i] == x:
        del arr[i]
        return True
    return False


def sorted_contains(arr: Sequence[int], x: int) -> bool:
    """Binary-search membership test on a sorted array."""
    i = bisect_left(arr, x)
    return i < len(arr) and arr[i] == x


def galloping_intersects(a: Sequence[int], b: Sequence[int]) -> bool:
    """Do two sorted arrays share an element?

    Iterates the smaller array and binary-searches the larger with a
    monotonically advancing lower bound — O(|small| * log |large|) worst
    case, sub-linear in practice on skewed sizes.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a or a[0] > b[-1] or b[0] > a[-1]:
        return False
    lo, nb = 0, len(b)
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == nb:
            return False
        if b[lo] == x:
            return True
    return False


def galloping_min_plus(
    c1: Sequence[int],
    d1: Sequence[int],
    c2: Sequence[int],
    d2: Sequence[int],
) -> Optional[int]:
    """``min(d1[i] + d2[j])`` over common centers of two sorted label
    arrays (the paper's ``MIN(LOUT.DIST + LIN.DIST)``), or None."""
    if len(c1) > len(c2):
        c1, d1, c2, d2 = c2, d2, c1, d1
    if not c1 or c1[0] > c2[-1] or c2[0] > c1[-1]:
        return None
    best: Optional[int] = None
    lo, n2 = 0, len(c2)
    for i, x in enumerate(c1):
        lo = bisect_left(c2, x, lo)
        if lo == n2:
            break
        if c2[lo] == x:
            total = d1[i] + d2[lo]
            if best is None or total < best:
                best = total
            lo += 1
    return best


#: ``center id → ascending candidate indices`` (:meth:`_CoverBase.center_map`)
CenterMap = Dict[int, List[int]]

#: What a center map was built from: ``(active candidates, their Lin
#: row objects, inactive candidates)`` (:meth:`_CoverBase.basis_holds`)
Basis = Tuple[List[int], tuple, Set[int]]


class _CoverBase:
    """State and machinery shared by both cover flavours.

    Label tables are lists indexed by node id (``None`` = empty), so a
    node is its own offset — no hashing on hot paths. Every reader
    checks a node against the universe (or the tables' length) before
    it indexes a table, so a negative, unknown or non-``int`` node
    answers "not connected" / empty. Readers write nothing.

    A row object may be held by several slots of one cover (the product
    build gives a sibling group one ``Lin`` row) or by a fork sibling
    (:meth:`cow_copy`); whoever writes copies first (:meth:`_owned`),
    so no row held twice is ever changed in place.
    """

    #: per-node tables mirrored by :meth:`cow_copy` (subclasses extend)
    _TABLE_NAMES: Tuple[str, ...] = ("_lin", "_lout", "_inv_lin", "_inv_lout")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._nodes: Set[int] = set()
        self._lin: List[Optional[array]] = []
        self._lout: List[Optional[array]] = []
        self._inv_lin: List[Optional[array]] = []
        self._inv_lout: List[Optional[array]] = []
        # COW bookkeeping: None while this instance owns every row;
        # after _disown() (a fork, a build that shares rows, an
        # unpickle), a dict mapping id(table) -> ids whose rows this
        # instance privately owns (every other row may be held by
        # another slot or by the fork sibling)
        self._cow: Optional[Dict[int, Set[int]]] = None
        # rank per id, 0 = none stored; may be shorter than the tables
        # (the ids past its end have none)
        self._rank = array(RANK_TYPECODE)
        self.add_nodes(nodes)

    # -- copy-on-write plumbing -----------------------------------------
    def _owned(self, table: List[Optional[array]], iid: int) -> Optional[array]:
        """``table[iid]`` as a privately owned, mutable row.

        A row not recorded as owned may be held by other slots of this
        cover or by a fork sibling, so it is copied (and the copy
        recorded as owned) before being returned; ``None`` rows pass
        through untouched (callers assign fresh arrays, which are
        private by construction).
        """
        row = table[iid]
        cow = self._cow
        if cow is None or row is None:
            return row
        owned = cow[id(table)]
        if iid not in owned:
            row = row[:]
            table[iid] = row
            owned.add(iid)
        return row

    def _disown(self) -> None:
        """Record no row as owned: each may be held by another slot or a
        fork sibling, so the next in-place write to any slot copies its
        row first (:meth:`_owned`)."""
        self._cow = {id(t): set() for t in self._tables()}

    def cow_copy(self):
        """A copy-on-write fork sharing unchanged label rows with
        ``self``; equivalent to :meth:`copy` for every observable
        purpose, at O(nodes) pointer copies instead of O(cover size)
        row copies. Outer tables are copied at pointer level and both
        sides own no row afterwards (:meth:`_disown`): the sorted
        ``array('i')`` rows stay shared until either side mutates them
        (whoever writes copies first), so a row object both sides hold
        has the same centers on both: what :meth:`basis_holds` relies
        on. A row several slots of ``self`` already held stays so on
        both sides, under the same rule."""
        clone = type(self)()
        clone._nodes = set(self._nodes)
        clone._rank = self._rank[:]
        for name in self._TABLE_NAMES:
            setattr(clone, name, list(getattr(self, name)))
        self._disown()
        clone._disown()
        return clone

    def copy(self):
        """A structurally independent deep copy of the cover
        (subclasses clone as their own type)."""
        clone = type(self)()
        clone._nodes = set(self._nodes)
        clone._rank = self._rank[:]
        for name in self._TABLE_NAMES:
            setattr(
                clone, name, [a[:] if a else None for a in getattr(self, name)]
            )
        return clone

    def __getstate__(self) -> Dict[str, object]:
        # the id()-keyed ownership map would be stale in the copy
        state = self.__dict__.copy()
        del state["_cow"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # pickle's memo (and deepcopy's) keeps a row several slots hold
        # one object in the copy too, so the copy owns none of its rows
        self.__dict__.update(state)
        self._disown()

    # -- id plumbing ----------------------------------------------------
    def _tables(self) -> Tuple[List[Optional[array]], ...]:
        """Every per-node table, all of one length
        (:attr:`_TABLE_NAMES`, spelled out: this runs on every write)."""
        return (self._lin, self._lout, self._inv_lin, self._inv_lout)

    def _grow(self, *ids: int) -> None:
        """Extend every table to hold ``ids``: ``None`` rows up to the
        largest. Raises ``TypeError`` for a non-``int`` id and
        ``ValueError`` for a negative one, before anything changes."""
        top = len(self._lin) - 1
        for x in ids:
            if type(x) is not int:
                raise TypeError(f"cover nodes are int element ids, not {x!r}")
            if x > top:
                top = x
            elif x < 0:
                raise ValueError(f"cover nodes are non-negative, not {x}")
        grow = top + 1 - len(self._lin)
        if grow > 0:
            fill = [None] * grow
            for table in self._tables():
                table.extend(fill)

    def _has_slot(self, x: Node) -> bool:
        """Whether ``x`` is an id the tables hold a row for."""
        return type(x) is int and 0 <= x < len(self._lin)

    def _row(self, table: List[Optional[array]], x: Node) -> Optional[array]:
        """``table[x]``, or ``None`` when ``x`` has no row slot."""
        return table[x] if self._has_slot(x) else None

    # -- universe -------------------------------------------------------
    @property
    def nodes(self) -> Set[Node]:
        """The active node universe (the cover's own set: read only)."""
        return self._nodes

    def add_node(self, v: Node) -> None:
        """Register ``v`` in the node universe (idempotent)."""
        self._grow(v)
        self._nodes.add(v)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register every node of ``nodes`` in the universe."""
        nodes = list(nodes)
        self._grow(*nodes)
        self._nodes.update(nodes)

    # -- the stored vertex order ----------------------------------------
    def ranks(
        self,
        nodes: Sequence[Node],
        keys: Optional[Callable[[List[Node]], Sequence[int]]] = None,
    ) -> List[int]:
        """The stored rank of each of ``nodes`` (0 where none is).

        With ``keys``, the nodes without one first get their key from
        ``keys(missing)`` (aligned with ``missing``, each at least 1)
        and keep it: the one way a rank is stored after the build. A
        PLL labelling takes a higher rank first, equal ranks by node id.
        """
        rank = self._rank
        n = len(rank)
        out = [rank[x] if type(x) is int and 0 <= x < n else 0 for x in nodes]
        if keys is None or 0 not in out:
            return out
        blank = [j for j, r in enumerate(out) if not r]
        missing = [nodes[j] for j in blank]
        self._grow(*missing)
        grow = len(self._lin) - n
        if grow > 0:
            rank.frombytes(bytes(grow * rank.itemsize))
        for j, x, key in zip(blank, missing, rank_array(keys(missing))):
            out[j] = rank[x] = key
        return out

    # -- backward indexes -----------------------------------------------
    def _inv_add(self, inv: List[Optional[array]], center: int, node: int) -> None:
        row = inv[center]
        if row is None:
            inv[center] = array(ID_TYPECODE, (node,))
        elif not sorted_contains(row, node):
            sorted_insert(self._owned(inv, center), node)

    def _inv_discard(self, inv: List[Optional[array]], center: int, node: int) -> None:
        row = inv[center]
        if row is not None and sorted_contains(row, node):
            sorted_remove(self._owned(inv, center), node)

    def _inv_update(
        self, inv: List[Optional[array]], node: int, old: array, new: array
    ) -> None:
        """Move ``node`` in the backward index ``inv`` from the centers of
        its ``old`` label row to those of its ``new`` one, touching only
        the centers that differ."""
        old_ids, new_ids = set(old), set(new)
        for ci in old_ids - new_ids:
            self._inv_discard(inv, ci, node)
        for ci in new_ids - old_ids:
            self._inv_add(inv, ci, node)

    # -- deletion (Section 6.2) ------------------------------------------
    def discard_lin(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lin(node)`` if present."""
        self._discard(False, node, center)

    def discard_lout(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lout(node)`` if present."""
        self._discard(True, node, center)

    def _discard(self, out: bool, node: Node, center: Node) -> None:
        if (
            self._has_slot(node) and self._has_slot(center)
            and self._drop_center(out, node, center)
        ):
            self._inv_discard(self._inv_lout if out else self._inv_lin, center, node)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label
        entry that uses them as a center (document deletion support)."""
        ids = [x for x in removed if self._has_slot(x)]
        self._nodes.difference_update(ids)
        for iid in ids:
            self._write_row(False, iid, ())
            self._write_row(True, iid, ())
        for iid in ids:
            for out, inv in ((False, self._inv_lin), (True, self._inv_lout)):
                for ni in inv[iid] or ():
                    self._drop_center(out, ni, iid)
                inv[iid] = None

    def splice_region(self, fresh, seeds: Set[Node], descendants: Set[Node]) -> int:
        """Theorem 3's label surgery; returns the change in entries.

        ``fresh`` is the cover the re-labelled region got on its own
        (same flavour, its universe the region, on this cover's ids).
        Every region node's ``Lout`` is **replaced** by the fresh one —
        the region is closed under reachability, so every connection
        out of it is one ``fresh`` covers — and the ``Lin`` of every
        region node and surviving ``descendants`` node gains the fresh
        centers, a descendant's after dropping the ancestor ``seeds``
        (on a distance cover the shorter distance wins). Rows that come
        out equal stay the objects a COW sibling may share.
        """
        region = fresh._nodes
        self._grow(*region)
        lout, fresh_lout, fresh_lin = self._lout, fresh._lout, fresh._lin
        write, entries, merge = self._write_row, fresh._entries, self._merge_lin
        delta = 0
        gained = {}  # node -> its fresh Lin row, where there is one
        for x in region:
            if fresh_lout[x] or lout[x]:
                delta += write(True, x, entries(True, x))
            if fresh_lin[x]:
                gained[x] = entries(False, x)
        keep = frozenset()
        for x in descendants.union(gained):
            delta += merge(x, seeds if x in descendants else keep, gained.get(x, ()))
        return delta

    # -- disjoint merge --------------------------------------------------
    def absorb_disjoint(self, other) -> None:
        """:meth:`union`, optimised for node-disjoint covers.

        When none of ``other``'s nodes is known here yet (partition
        covers joined into a fresh merged cover), every row of
        ``other`` is copied to the same id, and its backward-index rows
        with it. Anything else takes :meth:`union` (identical result).
        """
        if type(other) is not type(self):
            self.union(other)
            return
        theirs = set(other._nodes)
        span = range(len(other._lin))
        for table in other._tables():
            theirs.update(compress(span, table))
        if any(map(self._holds, theirs)):
            self.union(other)
            return
        self._grow(*theirs)
        for name in self._TABLE_NAMES:
            dst = getattr(self, name)
            src = getattr(other, name)
            for x in theirs:
                row = src[x]
                if row:
                    dst[x] = row[:]
        self._nodes.update(other._nodes)

    def _holds(self, x: int) -> bool:
        """Whether the id ``x`` is active here or holds a row."""
        if x in self._nodes:
            return True
        return x < len(self._lin) and any(table[x] for table in self._tables())

    def nodes_with_lin_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lin`` holds ``center``."""
        return set(self._row(self._inv_lin, center) or ())

    def nodes_with_lout_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lout`` holds ``center``."""
        return set(self._row(self._inv_lout, center) or ())

    # -- batched / enumeration queries ----------------------------------
    def descendants(self, u: Node) -> Set[Node]:
        """All ``d`` with ``u ->* d`` (including ``u``), via the backward
        index."""
        return self._closure(u, self._lout, self._inv_lin)

    def ancestors(self, v: Node) -> Set[Node]:
        """All ``a`` with ``a ->* v`` (including ``v``)."""
        return self._closure(v, self._lin, self._inv_lout)

    def _closure(
        self, x: Node, own: List[Optional[array]], inv: List[Optional[array]]
    ) -> Set[Node]:
        """``{x}``, the nodes ``inv[x]`` lists, and those of ``inv[c]``
        for every ``c`` of ``own[x]``: one direction of ``x``'s reach."""
        if x not in self._nodes:
            return set()
        result: Set[Node] = {x}
        row = inv[x]
        if row:
            result.update(row)
        centers = own[x]
        if centers:
            result.update(centers)
            for c in centers:
                row = inv[c]
                if row:
                    result.update(row)
        return result

    # -- batch probes ----------------------------------------------------
    def center_map(self, candidates: Sequence[Node]) -> Tuple[CenterMap, Basis]:
        """The ``LIN`` side of the join, :meth:`_groups`, with the
        :data:`Basis` it was built from. The cover keeps neither: a
        caller that keeps the map may reuse it on a later generation of
        the cover while :meth:`basis_holds`."""
        nodes, lin = self._nodes, self._lin
        active = list(filter(nodes.__contains__, candidates))
        basis = (active, tuple(map(lin.__getitem__, active)),
                 set(candidates).difference(nodes))
        return self._groups(candidates), basis

    def _groups(self, candidates: Sequence[Node]) -> CenterMap:
        """``center id → ascending indices j`` of the ``candidates``
        whose ``Lin(c_j) ∪ {c_j}`` holds the center. Only active
        candidates take part, so an unknown id and a removed node are
        reached by nothing, as in :meth:`connected`."""
        nodes, lin = self._nodes, self._lin
        groups: CenterMap = {}
        get = groups.get
        for j, i in enumerate(candidates):
            if i not in nodes:
                continue
            for w in lin[i] or ():
                hits = get(w)
                if hits is None:
                    groups[w] = [j]
                else:
                    hits.append(j)
            hits = get(i)
            if hits is None:
                groups[i] = [j]
            elif hits[-1] != j:  # unless a self-entry in Lin(c_j) put j there
                hits.append(j)
        return groups

    def basis_holds(self, basis: Basis) -> bool:
        """Whether a map :meth:`center_map` built from ``basis`` (on
        this cover or on one it was forked from) is this cover's map
        too: every candidate active then is active now with the very
        ``Lin`` row object it had, and no inactive one became active.

        That is sound because of the row invariant: a row object held
        by several slots of one cover, or by a fork sibling too, is
        never changed in place — whoever writes copies it first
        (:meth:`_owned`) and every other writer assigns a fresh row —
        so the same row object means the same centers. The basis holds
        the rows, so their ids stay unambiguous.
        """
        active, rows, inactive = basis
        nodes, lin = self._nodes, self._lin
        return (
            nodes.issuperset(active) and nodes.isdisjoint(inactive)
            and all(map(is_, map(lin.__getitem__, active), rows))
        )

    def reach_many(self, groups: CenterMap, sources: Sequence[Node]) -> List[List[int]]:
        """The ``LOUT`` side: for each source, the sorted candidate
        indices of ``groups`` it reaches, the union of the groups of
        ``{u} ∪ Lout(u)`` (``[]`` for an inactive source). Fresh
        lists; ``groups`` is only read."""
        nodes, lout = self._nodes, self._lout
        out = []
        for u in sources:
            if u not in nodes:
                out.append([])
                continue
            found = [
                hits for hits in map(groups.get, chain((u,), lout[u] or ())) if hits
            ]
            if len(found) == 1:
                out.append(found[0][:])
            else:
                out.append(sorted(set().union(*found)) if found else [])
        return out

    def connected_many(self, u: Node, candidates: Sequence[Node]) -> List[bool]:
        """Batched ``[connected(u, c) for c in candidates]``: the flags
        of the one-source block :meth:`intersect_many` ``([u], ...)``."""
        flags = [False] * len(candidates)
        for j in self.intersect_many((u,), candidates)[0]:
            flags[j] = True
        return flags

    def intersect_many(
        self, sources: Sequence[Node], candidates: Sequence[Node]
    ) -> List[List[int]]:
        """For each source, the sorted **indices** into ``candidates``
        it reaches: the candidates are grouped by center once for the
        whole batch (:meth:`_groups`), on every call."""
        return self.reach_many(self._groups(candidates), sources)

    # -- statistics ------------------------------------------------------
    @property
    def size(self) -> int:
        """``|L| = Σ |Lin(v)| + |Lout(v)|`` — the paper's cover size."""
        return sum(len(a) for a in self._lin if a) + sum(
            len(a) for a in self._lout if a
        )

    # -- CSR conversion --------------------------------------------------
    @staticmethod
    def _pack_table(table: List[Optional[array]]) -> Tuple[array, array]:
        """Flatten ``table`` into ``(indptr, data)`` CSR arrays, one row
        per slot: row ``x`` at position ``x``."""
        indptr = array(OFFSET_TYPECODE, (0,))
        data = array(ID_TYPECODE)
        for row in table:
            if row:
                data.extend(row)
            indptr.append(len(data))
        return indptr, data

    @staticmethod
    def _unpack_table(indptr: array, data: array) -> List[Optional[array]]:
        """The rows of CSR arrays, row ``p`` at position ``p`` (``None``
        when empty)."""
        return [
            data[lo:hi] if hi > lo else None
            for lo, hi in zip(indptr, indptr[1:])
        ]

    def to_csr(self) -> Dict[str, object]:
        """CSR snapshot payload (see :mod:`repro.storage.snapshot`): one
        row per table slot, so ``nodes`` is ``0..n-1`` and a row's
        position is its id. ``active`` lists the active ids ascending
        and ``rank`` is the rank table as stored."""
        payload: Dict[str, object] = {
            "distance": self.is_distance_aware,
            "nodes": list(range(len(self._lin))),
            "active": array(ID_TYPECODE, sorted(self._nodes)),
            "rank": self._rank[:],
        }
        for name in ("lin", "lout", "inv_lin", "inv_lout"):
            payload[name] = self._pack_table(getattr(self, f"_{name}"))
        return payload

    @classmethod
    def from_csr(cls, payload: Mapping[str, object]):
        """Rebuild a cover from a :meth:`to_csr` payload (block copies);
        one without a ``rank`` stores no ranks. A payload whose
        ``nodes`` is not ``0..n-1`` (written before rows sat at their
        ids) goes by position into ``nodes`` and is mapped to ids.

        Raises:
            ValueError: ``nodes`` is not strictly ascending and
                non-negative.
        """
        ids = payload["nodes"]
        if any(map(int.__ge__, ids, ids[1:])) or (ids and ids[0] < 0):
            raise ValueError("snapshot nodes must be ascending non-negative ids")
        tables = {
            name: cls._unpack_table(*payload[name])
            for name in ("lin", "lout", "inv_lin", "inv_lout")
        }
        if cls.is_distance_aware:
            for name in ("lin", "lout"):
                tables[f"{name}_dist"] = cls._unpack_table(
                    payload[name][0], payload[f"{name}_dist"]
                )
        return cls._from_positions(
            ids, payload["active"], array(RANK_TYPECODE, payload.get("rank", ())),
            **tables,
        )

    @classmethod
    def _from_positions(
        cls,
        ids: Sequence[int],
        active: Iterable[int],
        rank: array,
        **tables: List[Optional[array]],
    ):
        """:meth:`_from_tables` for tables, ``active`` and ``rank`` that
        go by position into ``ids`` (strictly ascending, non-negative):
        the one position→id remap. Row ``p`` moves to ``ids[p]``, a
        center or active entry ``p`` becomes ``ids[p]``, and ``rank[p]``
        is the rank of ``ids[p]``. When ``ids`` is ``0..n-1`` the
        positions are the ids and nothing moves."""
        if not ids or ids[-1] == len(ids) - 1:
            return cls._from_tables(active, rank, **tables)
        at = ids.__getitem__
        size = ids[-1] + 1
        for name, table in tables.items():
            spread: List[Optional[array]] = [None] * size
            centers = not name.endswith("_dist")
            for x, row in zip(ids, table):
                if row:
                    spread[x] = array(ID_TYPECODE, map(at, row)) if centers else row
            tables[name] = spread
        by_id = array(RANK_TYPECODE)
        if rank:
            by_id.frombytes(bytes((ids[len(rank) - 1] + 1) * by_id.itemsize))
            for x, r in zip(ids, rank):
                by_id[x] = r
        return cls._from_tables(map(at, active), by_id, **tables)

    @classmethod
    def _from_tables(
        cls, active: Iterable[int], rank: array, **tables: List[Optional[array]]
    ):
        """A cover handed its finished per-node tables: one keyword per
        :attr:`_TABLE_NAMES` entry, without the leading underscore, each
        a list of sorted rows (``None`` when empty) indexed by node id,
        all of one length. ``active`` are the active ids and ``rank``
        the rank table, indexed by id. The cover owns every row: a
        caller whose tables hold a row in several slots calls
        :meth:`_disown` on it."""
        new = cls()
        for name in cls._TABLE_NAMES:
            setattr(new, name, tables[name[1:]])
        new._nodes = set(active)
        new._rank = rank
        return new


class TwoHopCover(_CoverBase):
    """A reachability 2-hop cover with forward and backward label indexes.

    The cover knows its node universe: ``connected(u, u)`` is true only
    for registered nodes, and nodes with empty labels still participate
    in queries through the implicit self-hop.
    """

    is_distance_aware = False

    # ------------------------------------------------------------------
    # label mutation
    # ------------------------------------------------------------------
    def add_lin(self, node: Node, center: Node) -> bool:
        """Add ``center`` to ``Lin(node)`` (self-entries are dropped).

        Returns True when the label actually changed.
        """
        if node == center:
            return False
        self._grow(node, center)
        self._nodes.add(node)
        row = self._lin[node]
        if row is None:
            self._lin[node] = array(ID_TYPECODE, (center,))
        elif sorted_contains(row, center):
            return False
        else:
            sorted_insert(self._owned(self._lin, node), center)
        self._inv_add(self._inv_lin, center, node)
        return True

    def add_lout(self, node: Node, center: Node) -> bool:
        """Add ``center`` to ``Lout(node)`` (self-entries are dropped).

        Returns True when the label actually changed.
        """
        if node == center:
            return False
        self._grow(node, center)
        self._nodes.add(node)
        row = self._lout[node]
        if row is None:
            self._lout[node] = array(ID_TYPECODE, (center,))
        elif sorted_contains(row, center):
            return False
        else:
            sorted_insert(self._owned(self._lout, node), center)
        self._inv_add(self._inv_lout, center, node)
        return True

    def set_lin(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lin(node)`` wholesale."""
        self._set_label(False, node, centers)

    def set_lout(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lout(node)`` wholesale."""
        self._set_label(True, node, centers)

    def _set_label(self, out: bool, node: Node, centers: Iterable[Node]) -> None:
        centers = {c for c in centers if c != node}
        self._grow(node, *centers)
        self._write_row(out, node, centers)

    # -- id-level row hooks of remove_nodes / splice_region --------------
    def _write_row(self, out: bool, ni: int, centers: Iterable[int]) -> int:
        """Make ``Lout(ni)`` (``out``) or ``Lin(ni)`` the sorted row of
        the distinct ids ``centers``, the backward index in step, and
        return the change in entries. An equal row is left alone: it
        stays the object a COW sibling may share."""
        table, inv = (self._lout, self._inv_lout) if out else (self._lin, self._inv_lin)
        row = array(ID_TYPECODE, sorted(centers))
        old = table[ni] or _NO_ROW
        if row == old:
            return 0
        table[ni] = row or None
        self._inv_update(inv, ni, old, row)
        return len(row) - len(old)

    def _drop_center(self, out: bool, ni: int, ci: int) -> bool:
        """Remove ``ci`` from a label row of ``ni`` if it is there; True
        when it was. The backward index is the caller's."""
        table = self._lout if out else self._lin
        row = table[ni]
        if row is None or not sorted_contains(row, ci):
            return False
        sorted_remove(self._owned(table, ni), ci)
        return True

    def _entries(self, out: bool, x: int) -> Sequence[int]:
        """Row ``x`` of ``Lout`` / ``Lin`` as :meth:`_write_row` takes it."""
        return (self._lout if out else self._lin)[x] or ()

    def _merge_lin(self, ni: int, drop, gained: Sequence[int]) -> int:
        """``Lin(ni) := Lin(ni) \\ drop ∪ gained``; the entry change."""
        old = self._lin[ni] or _NO_ROW
        if drop.isdisjoint(old):
            merged = set(old)
            merged.update(gained)
            if len(merged) == len(old):
                return 0  # every gained center is already there
        else:
            merged = set(old).difference(drop)
            merged.update(gained)
        return self._write_row(False, ni, merged)

    def union(self, other) -> None:
        """Component-wise union with any reachability cover."""
        self.add_nodes(other.nodes)
        for kind, node, center in other.entries():
            if kind == "in":
                self.add_lin(node, center)
            else:
                self.add_lout(node, center)

    # ------------------------------------------------------------------
    # queries (Section 3.4 semantics)
    # ------------------------------------------------------------------
    def lin_of(self, node: Node) -> Set[Node]:
        """``Lin(node)``: centers (reachability) or ``{center: dist}``."""
        return set(self._row(self._lin, node) or ())

    def lout_of(self, node: Node) -> Set[Node]:
        """``Lout(node)``: centers (reachability) or ``{center: dist}``."""
        return set(self._row(self._lout, node) or ())

    def connected(self, u: Node, v: Node) -> bool:
        """``u ->* v``? Implements ``(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v})``:
        the paper's main SQL query plus the "simple additional queries"
        that compensate for self-entries not being stored, as one
        galloping intersection over the label rows."""
        nodes = self._nodes
        if u not in nodes or v not in nodes:
            return False
        if u == v:
            return True
        lout = self._lout[u] or ()
        lin = self._lin[v] or ()
        if lout and sorted_contains(lout, v):
            return True
        if lin and sorted_contains(lin, u):
            return True
        return galloping_intersects(lout, lin)

    # ------------------------------------------------------------------
    # statistics & persistence
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[str, Node, Node]]:
        """All label entries as ``(kind, node, center)``."""
        for kind, table in (("in", self._lin), ("out", self._lout)):
            for node in compress(range(len(table)), table):
                for center in table[node]:
                    yield (kind, node, center)

    @classmethod
    def from_entries(
        cls, nodes: Iterable[Node], entries: Iterable[Tuple[str, Node, Node]]
    ) -> "TwoHopCover":
        """Batch constructor: a cover over ``nodes`` holding ``entries``
        (``(kind, node, center)`` rows in any order, e.g. another
        cover's :meth:`entries`; no self-entries). Rows are grouped per
        node and sorted once instead of paying one sorted insert per
        entry."""
        new = cls(nodes)
        lin_rows: Dict[int, List[int]] = {}
        lout_rows: Dict[int, List[int]] = {}
        for kind, node, center in entries:
            rows = lin_rows if kind == "in" else lout_rows
            rows.setdefault(node, []).append(center)
        new._grow(*chain(lin_rows, lout_rows, *lin_rows.values(), *lout_rows.values()))
        new._nodes.update(lin_rows, lout_rows)
        inv_lin_rows: Dict[int, List[int]] = {}
        inv_lout_rows: Dict[int, List[int]] = {}
        for rows, table, inv_rows in (
            (lin_rows, new._lin, inv_lin_rows),
            (lout_rows, new._lout, inv_lout_rows),
        ):
            for ni, centers in rows.items():
                uniq = sorted(set(centers))
                table[ni] = array(ID_TYPECODE, uniq)
                for ci in uniq:
                    inv_rows.setdefault(ci, []).append(ni)
        for inv_rows, inv in (
            (inv_lin_rows, new._inv_lin),
            (inv_lout_rows, new._inv_lout),
        ):
            for ci, ns in inv_rows.items():
                inv[ci] = array(ID_TYPECODE, sorted(ns))
        return new

    def verify_against(self, closure, nodes: Optional[Iterable[Node]] = None) -> None:
        """Assert the cover represents exactly the closure's connections."""
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
        return f"TwoHopCover(nodes={len(self._nodes)}, size={self.size})"


class DistanceTwoHopCover(_CoverBase):
    """A distance-aware 2-hop cover (Section 5).

    Labels map centers to the shortest distance towards/from them:
    ``Lout(u)[w] = dist(u, w)`` and ``Lin(v)[w] = dist(w, v)``; the
    distance between two nodes is the minimum of ``dout + din`` over
    common centers. Each label is a pair of aligned arrays — sorted
    center ids plus their distances — so the min-plus intersection runs
    as one galloping merge; entries keep the minimum on duplicate
    insertion. ``distance()`` / ``connected()`` merge the distance rows;
    the batch reachability probes read the id rows only, exactly as
    the reachability cover's do.
    """

    is_distance_aware = True

    _TABLE_NAMES = _CoverBase._TABLE_NAMES + ("_lin_dist", "_lout_dist")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._lin_dist: List[Optional[array]] = []
        self._lout_dist: List[Optional[array]] = []
        super().__init__(nodes)

    def _tables(self) -> Tuple[List[Optional[array]], ...]:
        return super()._tables() + (self._lin_dist, self._lout_dist)

    # ------------------------------------------------------------------
    # label mutation
    # ------------------------------------------------------------------
    def _add(
        self,
        table: List[Optional[array]],
        dists: List[Optional[array]],
        inv: List[Optional[array]],
        node: Node,
        center: Node,
        dist: int,
    ) -> bool:
        if node == center:
            return False
        self._grow(node, center)
        self._nodes.add(node)
        centers = table[node]
        if centers is None:
            table[node] = array(ID_TYPECODE, (center,))
            dists[node] = array(ID_TYPECODE, (dist,))
            self._inv_add(inv, center, node)
            return True
        i = bisect_left(centers, center)
        if i < len(centers) and centers[i] == center:
            if dist < dists[node][i]:
                self._owned(dists, node)[i] = dist
                return True
            return False
        self._owned(table, node).insert(i, center)
        self._owned(dists, node).insert(i, dist)
        self._inv_add(inv, center, node)
        return True

    def add_lin(self, node: Node, center: Node, dist: int) -> bool:
        """Add/improve ``Lin(node)[center] = dist``; True when changed."""
        return self._add(
            self._lin, self._lin_dist, self._inv_lin, node, center, dist
        )

    def add_lout(self, node: Node, center: Node, dist: int) -> bool:
        """Add/improve ``Lout(node)[center] = dist``; True when changed."""
        return self._add(
            self._lout, self._lout_dist, self._inv_lout, node, center, dist
        )

    def set_lin(self, node: Node, entries: Mapping[Node, int]) -> None:
        """Replace ``Lin(node)`` wholesale."""
        self._set_label(False, node, entries)

    def set_lout(self, node: Node, entries: Mapping[Node, int]) -> None:
        """Replace ``Lout(node)`` wholesale."""
        self._set_label(True, node, entries)

    def _set_label(self, out: bool, node: Node, entries: Mapping[Node, int]) -> None:
        entries = {c: d for c, d in entries.items() if c != node}
        self._grow(node, *entries)
        self._write_row(out, node, entries.items())

    # -- id-level row hooks of remove_nodes / splice_region --------------
    def _side(self, out: bool):
        """``(centers, distances, backward index)`` of ``Lout`` / ``Lin``."""
        if out:
            return self._lout, self._lout_dist, self._inv_lout
        return self._lin, self._lin_dist, self._inv_lin

    def _write_row(
        self, out: bool, ni: int, entries: Iterable[Tuple[int, int]]
    ) -> int:
        """Make a label row of ``ni`` the ``(center id, distance)``
        ``entries`` (distinct centers), sorted; see
        :meth:`TwoHopCover._write_row`. Equal rows — ids and distances
        — are left alone."""
        table, dists, inv = self._side(out)
        pairs = sorted(entries)
        row = array(ID_TYPECODE, [c for c, _ in pairs])
        row_dists = array(ID_TYPECODE, [d for _, d in pairs])
        old, old_dists = table[ni] or _NO_ROW, dists[ni] or _NO_ROW
        if row == old and row_dists == old_dists:
            return 0
        if row_dists != old_dists:
            dists[ni] = row_dists or None
        if row != old:
            table[ni] = row or None
            self._inv_update(inv, ni, old, row)
        return len(row) - len(old)

    def _drop_center(self, out: bool, ni: int, ci: int) -> bool:
        """Remove ``ci`` and its distance from a label row of ``ni`` if
        it is there; see :meth:`TwoHopCover._drop_center`."""
        table, dists, _ = self._side(out)
        row = table[ni]
        i = bisect_left(row, ci) if row is not None else 0
        if row is None or i == len(row) or row[i] != ci:
            return False
        del self._owned(table, ni)[i]
        del self._owned(dists, ni)[i]
        return True

    def _entries(self, out: bool, x: int) -> Sequence[Tuple[int, int]]:
        """Row ``x`` of ``Lout`` / ``Lin`` as ``(center, distance)``
        pairs, as :meth:`_write_row` takes it."""
        table, dists, _ = self._side(out)
        row = table[x]
        return list(zip(row, dists[x])) if row else ()

    def _merge_lin(self, ni: int, drop, gained: Sequence[Tuple[int, int]]) -> int:
        """``Lin(ni) := Lin(ni) \\ drop ∪ gained``, the shorter distance
        winning; the entry change."""
        old = self._lin[ni]
        if not gained and (not old or drop.isdisjoint(old)):
            return 0
        kept = (
            {c: d for c, d in zip(old, self._lin_dist[ni]) if c not in drop}
            if old else {}
        )
        for c, d in gained:
            if d < kept.get(c, d + 1):
                kept[c] = d
        return self._write_row(False, ni, kept.items())

    def union(self, other) -> None:
        """Component-wise union with any distance cover (min distances win)."""
        self.add_nodes(other.nodes)
        for kind, node, center, dist in other.entries():
            if kind == "in":
                self.add_lin(node, center, dist)
            else:
                self.add_lout(node, center, dist)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lin_of(self, node: Node) -> Dict[Node, int]:
        """``Lin(node)``: centers (reachability) or ``{center: dist}``."""
        centers = self._row(self._lin, node)
        return dict(zip(centers, self._lin_dist[node])) if centers else {}

    def lout_of(self, node: Node) -> Dict[Node, int]:
        """``Lout(node)``: centers (reachability) or ``{center: dist}``."""
        centers = self._row(self._lout, node)
        return dict(zip(centers, self._lout_dist[node])) if centers else {}

    def distance(self, u: Node, v: Node) -> Optional[int]:
        """``MIN(LOUT.DIST + LIN.DIST)`` over common centers via one
        galloping merge, extended by the implicit self-entries."""
        nodes = self._nodes
        if u not in nodes or v not in nodes:
            return None
        if u == v:
            return 0
        best: Optional[int] = None
        lout = self._lout[u]
        lin = self._lin[v]
        if lout:
            i = bisect_left(lout, v)
            if i < len(lout) and lout[i] == v:  # center = v (din 0)
                best = self._lout_dist[u][i]
        if lin:
            i = bisect_left(lin, u)
            if i < len(lin) and lin[i] == u:  # center = u (dout 0)
                d = self._lin_dist[v][i]
                if best is None or d < best:
                    best = d
        if lout and lin:
            d = galloping_min_plus(
                lout, self._lout_dist[u], lin, self._lin_dist[v]
            )
            if d is not None and (best is None or d < best):
                best = d
        return best

    def connected(self, u: Node, v: Node) -> bool:
        """``u ->* v``? True iff a (shortest) witness distance exists."""
        return self.distance(u, v) is not None

    def descendants_within(self, u: Node, max_dist: int) -> Dict[Node, int]:
        """Descendants of ``u`` at distance ≤ ``max_dist`` with distances."""
        result: Dict[Node, int] = {}
        for d in self.descendants(u):
            dist = self.distance(u, d)
            if dist is not None and dist <= max_dist:
                result[d] = dist
        return result

    # ------------------------------------------------------------------
    # statistics & persistence
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[str, Node, Node, int]]:
        """All label entries as ``(kind, node, center, dist)``."""
        for kind, table, dists in (
            ("in", self._lin, self._lin_dist),
            ("out", self._lout, self._lout_dist),
        ):
            for node in compress(range(len(table)), table):
                for center, d in zip(table[node], dists[node]):
                    yield (kind, node, center, d)

    @classmethod
    def from_entries(
        cls,
        nodes: Iterable[Node],
        entries: Iterable[Tuple[str, Node, Node, int]],
    ) -> "DistanceTwoHopCover":
        """Batch constructor: a cover over ``nodes`` holding ``entries``
        (``(kind, node, center, dist)`` rows in any order; no
        self-entries). A repeated ``(kind, node, center)`` keeps its
        minimum distance, as :meth:`add_lin` does. Rows are grouped per
        node and sorted once — O(k log k) per label instead of O(k^2)
        repeated sorted inserts."""
        new = cls(nodes)
        lin_rows: Dict[int, Dict[int, int]] = {}
        lout_rows: Dict[int, Dict[int, int]] = {}
        for kind, node, center, dist in entries:
            row = (lin_rows if kind == "in" else lout_rows).setdefault(node, {})
            if dist < row.get(center, dist + 1):
                row[center] = dist
        new._grow(*chain(lin_rows, lout_rows, *lin_rows.values(), *lout_rows.values()))
        new._nodes.update(lin_rows, lout_rows)
        for rows, table, dists, inv in (
            (lin_rows, new._lin, new._lin_dist, new._inv_lin),
            (lout_rows, new._lout, new._lout_dist, new._inv_lout),
        ):
            inv_rows: Dict[int, List[int]] = {}
            for ni, row in rows.items():
                pairs = sorted(row.items())
                table[ni] = array(ID_TYPECODE, (p[0] for p in pairs))
                dists[ni] = array(ID_TYPECODE, (p[1] for p in pairs))
                for ci, _ in pairs:
                    inv_rows.setdefault(ci, []).append(ni)
            for ci, ns in inv_rows.items():
                inv[ci] = array(ID_TYPECODE, sorted(ns))
        return new

    def to_csr(self) -> Dict[str, object]:
        """CSR snapshot payload: the id tables plus distance blocks
        aligned with the ``lin`` / ``lout`` data."""
        payload = super().to_csr()
        payload["lin_dist"] = self._pack_table(self._lin_dist)[1]
        payload["lout_dist"] = self._pack_table(self._lout_dist)[1]
        return payload

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
        return f"DistanceTwoHopCover(nodes={len(self._nodes)}, size={self.size})"
