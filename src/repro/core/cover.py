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

* every node label is interned to a dense ``int32`` id
  (:class:`repro.core.interner.NodeInterner`);
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
  the candidates are grouped by center once (``center → indices j``
  with the center in ``Lin(c_j) ∪ {c_j}``), and a source reaches the
  union of the groups of ``{u} ∪ Lout(u)``. What it memoises lives in a
  :class:`_ProbeCache` that the next mutation drops;
* :meth:`to_csr`/:meth:`from_csr` convert labels to/from the CSR layout
  (``indptr`` + flat data arrays) so snapshots round-trip through
  ``array.tobytes`` without per-row Python overhead;
* one **rank** per interned id (an ``array('q')`` beside the tables,
  0 where none is stored) is the vertex order every PLL labelling of
  this cover follows: the build stores its sort key, inserts store one
  for their new vertices, and a Theorem-3 region re-label sorts by it
  (:meth:`ranks`).

The ``Dict[Node, Set]`` implementation of the same semantics lives in
``tests/cover_oracle.py`` as the frozen differential oracle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.interner import NodeInterner

Node = Hashable

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

#: How many distinct candidate-tuple center maps to keep per generation.
_CAND_CACHE_LIMIT = 16

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


class _NodeSetView:
    """Read-only set-like view of a cover's active node universe,
    externalised through the interner."""

    __slots__ = ("_cover",)

    def __init__(self, cover) -> None:
        self._cover = cover

    def __contains__(self, label: Node) -> bool:
        iid = self._cover.interner.get(label)
        return iid is not None and iid in self._cover._nodes

    def __len__(self) -> int:
        return len(self._cover._nodes)

    def __iter__(self) -> Iterator[Node]:
        label = self._cover.interner.label
        return (label(i) for i in self._cover._nodes)

    def __eq__(self, other) -> bool:
        try:
            return set(self) == set(other)
        except TypeError:  # pragma: no cover - defensive
            return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"_NodeSetView({set(self)!r})"


class _ProbeCache:
    """What the batch probes memoise for one generation of the tables.

    The owning cover drops the whole object on its next mutation,
    which is what makes the caches sound; nothing in it is a view of a
    label row, so the rows stay resizable while it lives.

    Attributes:
        cand: ``id(candidates)`` → ``(candidates, center map)`` for
            candidate *tuples*, the map as :meth:`_CoverBase._center_map`
            builds it; the strong reference in slot 0 keeps ``id()``
            unambiguous.
    """

    __slots__ = ("cand",)

    def __init__(self) -> None:
        self.cand: Dict[int, Tuple[tuple, Dict[int, List[int]]]] = {}


class _CoverBase:
    """State and machinery shared by both cover flavours.

    Label tables are lists indexed by internal id (``None`` = empty) so
    the dense ids double as direct offsets — no hashing on hot paths.
    Every mutator sets ``self._probe_cache = None`` first: the batch
    probes' memo (:class:`_ProbeCache`) describes exactly one immutable
    generation of the tables.
    """

    #: per-node tables mirrored by :meth:`cow_copy` (subclasses extend)
    _TABLE_NAMES: Tuple[str, ...] = ("_lin", "_lout", "_inv_lin", "_inv_lout")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self.interner = NodeInterner()
        self._nodes: Set[int] = set()
        self._lin: List[Optional[array]] = []
        self._lout: List[Optional[array]] = []
        self._inv_lin: List[Optional[array]] = []
        self._inv_lout: List[Optional[array]] = []
        # COW bookkeeping: None outside forks; after cow_copy(), a dict
        # mapping id(table) -> iids whose rows this instance privately
        # owns (all other rows may be shared with the fork sibling)
        self._cow: Optional[Dict[int, Set[int]]] = None
        # the batch probes' memo; None until the first batch probe
        # after a mutation
        self._probe_cache: Optional[_ProbeCache] = None
        # rank per interned id, 0 = none stored; may be shorter than
        # the interner (the ids past its end have none)
        self._rank = array(RANK_TYPECODE)
        self.add_nodes(nodes)

    # -- copy-on-write plumbing -----------------------------------------
    def _owned(self, table: List[Optional[array]], iid: int) -> Optional[array]:
        """``table[iid]`` as a privately owned, mutable row.

        Under COW a row still shared with the fork sibling is copied
        (and recorded as owned) before being returned; ``None`` rows
        pass through untouched (callers assign fresh arrays, which are
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

    def cow_copy(self):
        """A copy-on-write fork sharing unchanged label rows with
        ``self``; equivalent to :meth:`copy` for every observable
        purpose, at O(nodes) pointer copies instead of O(cover size)
        row copies. Outer tables and the interner are copied at pointer
        level; the sorted ``array('i')`` rows stay shared until either
        side mutates them (the first in-place change privatises the
        row). The fork starts with no probe cache; ``self`` keeps its
        own."""
        clone = type(self)()
        clone.interner = self.interner.copy()
        clone._nodes = set(self._nodes)
        clone._rank = self._rank[:]
        for name in self._TABLE_NAMES:
            setattr(clone, name, list(getattr(self, name)))
        self._cow = {id(t): set() for t in self._tables()}
        clone._cow = {id(t): set() for t in clone._tables()}
        return clone

    def copy(self):
        """A structurally independent deep copy of the cover
        (subclasses clone as their own type; the copy starts with no
        probe cache)."""
        clone = type(self)()
        clone.interner = self.interner.copy()
        clone._nodes = set(self._nodes)
        clone._rank = self._rank[:]
        for name in self._TABLE_NAMES:
            setattr(
                clone, name, [a[:] if a else None for a in getattr(self, name)]
            )
        return clone

    def __getstate__(self) -> Dict[str, object]:
        # pickling deep-copies every row, so the unpickled instance owns
        # all of them; the id()-keyed ownership map would be stale, and
        # so would the probe cache's id()-keyed translations: the copy
        # starts without one
        state = self.__dict__.copy()
        state["_cow"] = None
        state["_probe_cache"] = None
        return state

    # -- id plumbing ----------------------------------------------------
    def _tables(self) -> Tuple[List[Optional[array]], ...]:
        """Every per-node table that must grow with the interner
        (:attr:`_TABLE_NAMES`, spelled out: this runs once per new id)."""
        return (self._lin, self._lout, self._inv_lin, self._inv_lout)

    def _intern(self, label: Node) -> int:
        iid = self.interner.intern(label)
        if iid >= len(self._lin):
            grow = iid + 1 - len(self._lin)
            for table in self._tables():
                table.extend([None] * grow)
        return iid

    def _row(self, table: List[Optional[array]], iid: int) -> Optional[array]:
        return table[iid] if iid < len(table) else None

    # -- universe -------------------------------------------------------
    @property
    def nodes(self) -> _NodeSetView:
        return _NodeSetView(self)

    def add_node(self, v: Node) -> None:
        """Register ``v`` in the node universe (idempotent)."""
        self._probe_cache = None
        self._nodes.add(self._intern(v))

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register every node of ``nodes`` in the universe."""
        self._probe_cache = None
        self._nodes.update(self._intern_all(nodes))

    def _intern_all(self, labels: Iterable[Node]) -> List[int]:
        """The ids of ``labels``, interning new ones (the tables grow
        once, not once per new id)."""
        intern = self.interner.intern
        ids = [intern(v) for v in labels]
        grow = len(self.interner) - len(self._lin)
        if grow > 0:
            for table in self._tables():
                table.extend([None] * grow)
        return ids

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
        ids = self.interner.translate(nodes)
        if keys is not None and -1 in ids:
            ids = self._intern_all(nodes)
        n = len(rank)
        out = [rank[i] if 0 <= i < n else 0 for i in ids]
        if keys is None or 0 not in out:
            return out
        grow = len(self.interner) - n
        if grow > 0:
            rank.frombytes(bytes(grow * rank.itemsize))
        blank = [j for j, r in enumerate(out) if not r]
        fresh = rank_array(keys([nodes[j] for j in blank]))
        for j, key in zip(blank, fresh):
            out[j] = rank[ids[j]] = key
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
        ni, ci = self.interner.get(node), self.interner.get(center)
        if ni is not None and ci is not None and self._drop_center(out, ni, ci):
            self._probe_cache = None
            self._inv_discard(self._inv_lout if out else self._inv_lin, ci, ni)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label
        entry that uses them as a center (document deletion support)."""
        self._probe_cache = None
        get = self.interner.get
        ids = [iid for iid in map(get, removed) if iid is not None]
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
        (same flavour, its universe the region). Every region node's
        ``Lout`` is **replaced** by the fresh one — the region is closed
        under reachability, so every connection out of it is one
        ``fresh`` covers — and the ``Lin`` of every region node and
        surviving ``descendants`` node gains the fresh centers, a
        descendant's after dropping the ancestor ``seeds`` (on a
        distance cover the shorter distance wins). It all runs on
        interned ids: ``fresh``'s ids map to this cover's through one
        translation list. Rows that come out equal stay the objects a
        COW sibling may share.
        """
        self._probe_cache = None
        to_host = self._intern_all(fresh.interner)
        get = self.interner.get
        drop = {get(x) for x in seeds}
        below = {get(x) for x in descendants}
        lout, fresh_lout, fresh_lin = self._lout, fresh._lout, fresh._lin
        write, translated, merge = self._write_row, fresh._translated, self._merge_lin
        delta = 0
        gained = {}  # host id -> the fresh Lin row, where there is one
        for i, h in enumerate(to_host):
            if fresh_lout[i] or lout[h]:
                delta += write(True, h, translated(True, i, to_host))
            if fresh_lin[i]:
                gained[h] = translated(False, i, to_host)
        keep = frozenset()
        for h in below.union(gained):
            delta += merge(h, drop if h in below else keep, gained.get(h, ()))
        return delta

    # -- disjoint merge --------------------------------------------------
    def absorb_disjoint(self, other) -> None:
        """:meth:`union`, optimised for node-disjoint covers.

        When none of ``other``'s labels are interned here yet (partition
        covers joined into a fresh merged cover), every internal id
        shifts by one constant, so label rows and backward-index rows
        move as block copies with sortedness preserved. Anything else
        takes :meth:`union` (identical result).
        """
        self._probe_cache = None
        fresh = type(other) is type(self) and not any(
            self.interner.get(lab) is not None for lab in other.interner
        )
        if fresh:
            offset = len(self.interner)
            for lab in other.interner:
                self._intern(lab)
            self._nodes.update(i + offset for i in other._nodes)
            for dst, src in (
                (self._lin, other._lin),
                (self._lout, other._lout),
                (self._inv_lin, other._inv_lin),
                (self._inv_lout, other._inv_lout),
            ):
                for i, row in enumerate(src):
                    if row:
                        dst[offset + i] = array(
                            ID_TYPECODE, (c + offset for c in row)
                        )
            self._absorb_extra(other, offset)
            return
        self.union(other)

    def _absorb_extra(self, other, offset: int) -> None:
        """Hook for subclass tables carrying non-id payloads (distances
        move verbatim — only id columns are offset-remapped)."""

    def _externalize(self, ids: Iterable[int]) -> Set[Node]:
        label = self.interner.label
        return {label(i) for i in ids}

    def nodes_with_lin_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lin`` holds ``center``."""
        ci = self.interner.get(center)
        row = self._row(self._inv_lin, ci) if ci is not None else None
        return self._externalize(row) if row else set()

    def nodes_with_lout_center(self, center: Node) -> Set[Node]:
        """Backward-index lookup: nodes whose ``Lout`` holds ``center``."""
        ci = self.interner.get(center)
        row = self._row(self._inv_lout, ci) if ci is not None else None
        return self._externalize(row) if row else set()

    # -- batched / enumeration queries ----------------------------------
    def _descendant_ids(self, ui: int) -> Set[int]:
        """Internal ids of all descendants of ``ui`` (including it)."""
        result: Set[int] = {ui}
        row = self._row(self._inv_lin, ui)
        if row:
            result.update(row)
        lout = self._row(self._lout, ui)
        if lout:
            result.update(lout)
            inv = self._inv_lin
            for c in lout:
                row = inv[c]
                if row:
                    result.update(row)
        return result

    def _ancestor_ids(self, vi: int) -> Set[int]:
        result: Set[int] = {vi}
        row = self._row(self._inv_lout, vi)
        if row:
            result.update(row)
        lin = self._row(self._lin, vi)
        if lin:
            result.update(lin)
            inv = self._inv_lout
            for c in lin:
                row = inv[c]
                if row:
                    result.update(row)
        return result

    def descendants(self, u: Node) -> Set[Node]:
        """All ``d`` with ``u ->* d`` (including ``u``), via the backward
        index."""
        ui = self.interner.get(u)
        if ui is None or ui not in self._nodes:
            return set()
        return self._externalize(self._descendant_ids(ui))

    def ancestors(self, v: Node) -> Set[Node]:
        """All ``a`` with ``a ->* v`` (including ``v``)."""
        vi = self.interner.get(v)
        if vi is None or vi not in self._nodes:
            return set()
        return self._externalize(self._ancestor_ids(vi))

    # -- batch probes ----------------------------------------------------
    def _center_map(self, candidates: Sequence[Node]) -> Dict[int, List[int]]:
        """The ``LIN`` side of the join: ``center id → ascending indices
        j`` of the ``candidates`` whose ``Lin(c_j) ∪ {c_j}`` holds the
        center.

        Only active candidates take part, so a never-interned label and
        a removed node are reached by nothing, as in :meth:`connected`.
        A **tuple** is immutable, so its map is cached per generation by
        object identity — the query engine memoises one candidate tuple
        per step key, so repeated probes (and every source of an
        ``intersect_many`` block) map it once. Any other sequence may
        have been mutated in place since the last call and is mapped
        every time.
        """
        if self._probe_cache is None:
            self._probe_cache = _ProbeCache()
        cache = self._probe_cache.cand
        cacheable = type(candidates) is tuple
        if cacheable:
            entry = cache.get(id(candidates))
            if entry is not None and entry[0] is candidates:
                return entry[1]
        groups: Dict[int, List[int]] = {}
        get = groups.get
        nodes, lin = self._nodes, self._lin
        for j, i in enumerate(self.interner.translate(candidates)):
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
        if cacheable:
            if len(cache) >= _CAND_CACHE_LIMIT:
                cache.clear()
            cache[id(candidates)] = (candidates, groups)
        return groups

    def _reached(self, groups: Dict[int, List[int]], ui: int) -> List[int]:
        """The ``LOUT`` side: the sorted candidate indices the active
        source ``ui`` reaches, the union of the groups of
        ``{ui} ∪ Lout(ui)``. A fresh list; the groups stay cached."""
        found = [
            hits for hits in map(groups.get, chain((ui,), self._lout[ui] or ()))
            if hits
        ]
        if len(found) == 1:
            return found[0][:]
        return sorted(set().union(*found)) if found else []

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
        it reaches — the one batch probe kernel, behind every forward
        probe of the query executor: the candidates are grouped by
        center once for the whole batch."""
        groups = self._center_map(candidates)
        get = self.interner.get
        nodes = self._nodes
        out: List[List[int]] = []
        for u in sources:
            ui = get(u)
            out.append(
                self._reached(groups, ui) if ui is not None and ui in nodes else []
            )
        return out

    # -- statistics ------------------------------------------------------
    @property
    def size(self) -> int:
        """``|L| = Σ |Lin(v)| + |Lout(v)|`` — the paper's cover size."""
        return sum(len(a) for a in self._lin if a) + sum(
            len(a) for a in self._lout if a
        )

    # -- CSR conversion --------------------------------------------------
    def _pack_table(self, table: List[Optional[array]]) -> Tuple[array, array]:
        """Flatten a label table into ``(indptr, data)`` CSR arrays."""
        n = len(self.interner)
        indptr = array(OFFSET_TYPECODE, (0,))
        data = array(ID_TYPECODE)
        for iid in range(n):
            row = table[iid] if iid < len(table) else None
            if row:
                data.extend(row)
            indptr.append(len(data))
        return indptr, data

    @staticmethod
    def _unpack_table(indptr: array, data: array) -> List[Optional[array]]:
        table: List[Optional[array]] = []
        for iid in range(len(indptr) - 1):
            lo, hi = indptr[iid], indptr[iid + 1]
            table.append(data[lo:hi] if hi > lo else None)
        return table

    def to_csr(self) -> Dict[str, object]:
        """CSR snapshot payload (see :mod:`repro.storage.snapshot`);
        ``rank`` is the rank table, which is not CSR."""
        payload: Dict[str, object] = {
            "distance": self.is_distance_aware,
            "labels": self.interner.labels(),
            "active": array(ID_TYPECODE, sorted(self._nodes)),
            "rank": self._rank[:],
        }
        for name in ("lin", "lout", "inv_lin", "inv_lout"):
            payload[name] = self._pack_table(getattr(self, f"_{name}"))
        return payload

    @classmethod
    def from_csr(cls, payload: Mapping[str, object]):
        """Rebuild a cover from a :meth:`to_csr` payload (block copies);
        one without a ``rank`` stores no ranks."""
        tables = {
            name: cls._unpack_table(*payload[name])
            for name in ("lin", "lout", "inv_lin", "inv_lout")
        }
        if cls.is_distance_aware:
            for name in ("lin", "lout"):
                tables[f"{name}_dist"] = cls._unpack_table(
                    payload[name][0], payload[f"{name}_dist"]
                )
        cover = cls._from_tables(
            NodeInterner.from_labels(payload["labels"]), payload["active"], **tables
        )
        cover._rank = array(RANK_TYPECODE, payload.get("rank", ()))
        return cover

    @classmethod
    def _from_tables(
        cls,
        interner: NodeInterner,
        active: Iterable[int],
        **tables: List[Optional[array]],
    ):
        """A cover over ``interner``'s labels with universe ``active``
        (ids), handed its finished per-node tables: one keyword per
        :attr:`_TABLE_NAMES` entry, without the leading underscore, each
        a list of sorted rows (``None`` when empty)."""
        new = cls()
        new.interner = interner
        new._nodes = set(active)
        for name in cls._TABLE_NAMES:
            setattr(new, name, tables[name[1:]])
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
        self._probe_cache = None
        ni = self._intern(node)
        ci = self._intern(center)
        self._nodes.add(ni)
        row = self._lin[ni]
        if row is None:
            self._lin[ni] = array(ID_TYPECODE, (ci,))
        elif sorted_contains(row, ci):
            return False
        else:
            sorted_insert(self._owned(self._lin, ni), ci)
        self._inv_add(self._inv_lin, ci, ni)
        return True

    def add_lout(self, node: Node, center: Node) -> bool:
        """Add ``center`` to ``Lout(node)`` (self-entries are dropped).

        Returns True when the label actually changed.
        """
        if node == center:
            return False
        self._probe_cache = None
        ni = self._intern(node)
        ci = self._intern(center)
        self._nodes.add(ni)
        row = self._lout[ni]
        if row is None:
            self._lout[ni] = array(ID_TYPECODE, (ci,))
        elif sorted_contains(row, ci):
            return False
        else:
            sorted_insert(self._owned(self._lout, ni), ci)
        self._inv_add(self._inv_lout, ci, ni)
        return True

    def set_lin(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lin(node)`` wholesale."""
        self._set_label(False, node, centers)

    def set_lout(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lout(node)`` wholesale."""
        self._set_label(True, node, centers)

    def _set_label(self, out: bool, node: Node, centers: Iterable[Node]) -> None:
        self._probe_cache = None
        ni = self._intern(node)
        self._write_row(out, ni, {self._intern(c) for c in centers if c != node})

    # -- id-level row hooks of remove_nodes / splice_region --------------
    def _write_row(self, out: bool, ni: int, centers: Iterable[int]) -> int:
        """Make ``Lout(ni)`` (``out``) or ``Lin(ni)`` the sorted row of
        the distinct ids ``centers``, the backward index in step, and
        return the change in entries. An equal row is left alone: it
        stays the object a COW sibling may share. The caller drops the
        probe cache."""
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

    def _translated(self, out: bool, i: int, to_host: List[int]) -> Sequence[int]:
        """Row ``i`` of ``Lout`` / ``Lin`` with its ids mapped by
        ``to_host``."""
        row = (self._lout if out else self._lin)[i]
        return list(map(to_host.__getitem__, row)) if row else ()

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
        ni = self.interner.get(node)
        row = self._row(self._lin, ni) if ni is not None else None
        return self._externalize(row) if row else set()

    def lout_of(self, node: Node) -> Set[Node]:
        """``Lout(node)``: centers (reachability) or ``{center: dist}``."""
        ni = self.interner.get(node)
        row = self._row(self._lout, ni) if ni is not None else None
        return self._externalize(row) if row else set()

    def connected(self, u: Node, v: Node) -> bool:
        """``u ->* v``? Implements ``(Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v})``:
        the paper's main SQL query plus the "simple additional queries"
        that compensate for self-entries not being stored, as one
        galloping intersection over the label rows."""
        get = self.interner.get
        ui, vi = get(u), get(v)
        if ui is None or vi is None:
            return False
        nodes = self._nodes
        if ui not in nodes or vi not in nodes:
            return False
        if ui == vi:
            return True
        lout = self._row(self._lout, ui) or ()
        lin = self._row(self._lin, vi) or ()
        if lout and sorted_contains(lout, vi):
            return True
        if lin and sorted_contains(lin, ui):
            return True
        return galloping_intersects(lout, lin)

    # ------------------------------------------------------------------
    # statistics & persistence
    # ------------------------------------------------------------------
    def stored_integers(self, *, with_backward_index: bool = True) -> int:
        """Database ints per Section 3.4: 2 per entry, doubled by the
        backward index."""
        per = 4 if with_backward_index else 2
        return per * self.size

    def entries(self) -> Iterator[Tuple[str, Node, Node]]:
        """All label entries as ``(kind, node, center)``."""
        label = self.interner.label
        for ni, row in enumerate(self._lin):
            if row:
                node = label(ni)
                for ci in row:
                    yield ("in", node, label(ci))
        for ni, row in enumerate(self._lout):
            if row:
                node = label(ni)
                for ci in row:
                    yield ("out", node, label(ci))

    @classmethod
    def from_entries(
        cls, nodes: Iterable[Node], entries: Iterable[Tuple[str, Node, Node]]
    ) -> "TwoHopCover":
        """Batch constructor: a cover over ``nodes`` holding ``entries``
        (``(kind, node, center)`` rows in any order, e.g. another
        cover's :meth:`entries`; no self-entries). Rows are grouped per node and sorted once
        instead of paying one sorted insert per entry."""
        # intern in sorted node order when possible: label-sorted
        # interners make snapshot blobs deterministic
        try:
            ordered = sorted(nodes)
        except TypeError:  # mixed/unorderable node types
            ordered = nodes
        new = cls(ordered)
        lin_rows: Dict[int, List[int]] = {}
        lout_rows: Dict[int, List[int]] = {}
        intern = new._intern
        ids = {label: iid for iid, label in enumerate(new.interner)}
        for kind, node, center in entries:
            rows = lin_rows if kind == "in" else lout_rows
            ni = ids.get(node)
            if ni is None:
                ni = ids[node] = intern(node)
            ci = ids.get(center)
            if ci is None:
                ci = ids[center] = intern(center)
            rows.setdefault(ni, []).append(ci)
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

    def _absorb_extra(self, other, offset: int) -> None:
        for dst, src in (
            (self._lin_dist, other._lin_dist),
            (self._lout_dist, other._lout_dist),
        ):
            for i, row in enumerate(src):
                if row:
                    dst[offset + i] = row[:]

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
        self._probe_cache = None
        ni = self._intern(node)
        ci = self._intern(center)
        self._nodes.add(ni)
        centers = table[ni]
        if centers is None:
            table[ni] = array(ID_TYPECODE, (ci,))
            dists[ni] = array(ID_TYPECODE, (dist,))
            self._inv_add(inv, ci, ni)
            return True
        i = bisect_left(centers, ci)
        if i < len(centers) and centers[i] == ci:
            if dist < dists[ni][i]:
                self._owned(dists, ni)[i] = dist
                return True
            return False
        self._owned(table, ni).insert(i, ci)
        self._owned(dists, ni).insert(i, dist)
        self._inv_add(inv, ci, ni)
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
        self._probe_cache = None
        ni = self._intern(node)
        intern = self._intern
        self._write_row(
            out, ni, [(intern(c), d) for c, d in entries.items() if c != node]
        )

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

    def _translated(
        self, out: bool, i: int, to_host: List[int]
    ) -> Sequence[Tuple[int, int]]:
        """Row ``i`` of ``Lout`` / ``Lin`` as ``(center, distance)``
        pairs, the ids mapped by ``to_host``."""
        table, dists, _ = self._side(out)
        row = table[i]
        return list(zip(map(to_host.__getitem__, row), dists[i])) if row else ()

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
        ni = self.interner.get(node)
        centers = self._row(self._lin, ni) if ni is not None else None
        if not centers:
            return {}
        label = self.interner.label
        dists = self._lin_dist[ni]
        return {label(c): d for c, d in zip(centers, dists)}

    def lout_of(self, node: Node) -> Dict[Node, int]:
        """``Lout(node)``: centers (reachability) or ``{center: dist}``."""
        ni = self.interner.get(node)
        centers = self._row(self._lout, ni) if ni is not None else None
        if not centers:
            return {}
        label = self.interner.label
        dists = self._lout_dist[ni]
        return {label(c): d for c, d in zip(centers, dists)}

    def distance(self, u: Node, v: Node) -> Optional[int]:
        """``MIN(LOUT.DIST + LIN.DIST)`` over common centers via one
        galloping merge, extended by the implicit self-entries."""
        get = self.interner.get
        ui, vi = get(u), get(v)
        if ui is None or vi is None:
            return None
        nodes = self._nodes
        if ui not in nodes or vi not in nodes:
            return None
        if ui == vi:
            return 0
        best: Optional[int] = None
        lout = self._row(self._lout, ui)
        lin = self._row(self._lin, vi)
        if lout:
            i = bisect_left(lout, vi)
            if i < len(lout) and lout[i] == vi:  # center = v (din 0)
                best = self._lout_dist[ui][i]
        if lin:
            i = bisect_left(lin, ui)
            if i < len(lin) and lin[i] == ui:  # center = u (dout 0)
                d = self._lin_dist[vi][i]
                if best is None or d < best:
                    best = d
        if lout and lin:
            d = galloping_min_plus(
                lout, self._lout_dist[ui], lin, self._lin_dist[vi]
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
    def stored_integers(self, *, with_backward_index: bool = True) -> int:
        """3 ints per entry (id, center, dist), doubled by the backward
        index."""
        per = 6 if with_backward_index else 3
        return per * self.size

    def entries(self) -> Iterator[Tuple[str, Node, Node, int]]:
        """All label entries as ``(kind, node, center, dist)``."""
        label = self.interner.label
        for ni, row in enumerate(self._lin):
            if row:
                node = label(ni)
                dists = self._lin_dist[ni]
                for ci, d in zip(row, dists):
                    yield ("in", node, label(ci), d)
        for ni, row in enumerate(self._lout):
            if row:
                node = label(ni)
                dists = self._lout_dist[ni]
                for ci, d in zip(row, dists):
                    yield ("out", node, label(ci), d)

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
        # sorted interning: see TwoHopCover.from_entries
        try:
            ordered = sorted(nodes)
        except TypeError:  # mixed/unorderable node types
            ordered = nodes
        new = cls(ordered)
        lin_rows: Dict[int, Dict[int, int]] = {}
        lout_rows: Dict[int, Dict[int, int]] = {}
        intern = new._intern
        ids = {label: iid for iid, label in enumerate(new.interner)}
        for kind, node, center, dist in entries:
            rows = lin_rows if kind == "in" else lout_rows
            ni = ids.get(node)
            if ni is None:
                ni = ids[node] = intern(node)
            ci = ids.get(center)
            if ci is None:
                ci = ids[center] = intern(center)
            row = rows.setdefault(ni, {})
            if dist < row.get(ci, dist + 1):
                row[ci] = dist
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
