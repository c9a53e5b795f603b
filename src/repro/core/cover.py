"""The 2-hop cover: sorted id arrays with a lazily built CSR seal.

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
* the first batch probe after any mutation **seals** the cover: the four
  label tables are packed into contiguous CSR slabs (:class:`_Slabs`)
  and ``connected`` / ``connected_many`` / ``intersect_many`` answer
  through :mod:`repro.core.kernels` until the next mutation drops the
  slabs again. Sealing is O(cover size), so write-heavy phases never
  pay it — an unsealed ``connected()`` gallops over the mutable rows;
* :meth:`to_csr`/:meth:`from_csr` convert labels to/from the CSR layout
  (``indptr`` + flat data arrays) so snapshots round-trip through
  ``array.tobytes`` without per-row Python overhead.

The ``Dict[Node, Set]`` implementation of the same semantics lives in
``tests/cover_oracle.py`` as the frozen differential oracle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (
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

from repro.core import kernels
from repro.core.interner import NodeInterner

try:  # feature-detected, mirrors repro.core.kernels
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in the dev image
    _np = None

Node = Hashable

#: typecodes: int32 label/center data, int64 CSR offsets
ID_TYPECODE = "i"
OFFSET_TYPECODE = "q"

#: How many distinct candidate-tuple translations to keep per seal.
_CAND_CACHE_LIMIT = 16

#: How many per-source descendant materialisations to keep per seal.
_DESC_CACHE_LIMIT = 1024


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


class _Slabs:
    """One sealed generation: CSR slabs over the four label tables.

    Immutable once built — the owning cover drops the whole object on
    its next mutation, which is what makes the two caches sound.

    Attributes:
        indptr: table name → ``array('q')`` row offsets.
        data: table name → flat ``array('i')`` row data.
        views: table name → ``memoryview`` of ``data`` (cheap slicing).
        np_data: table name → int32 numpy view, or None without numpy.
        active: sorted ``array('i')`` of active node ids.
        active_np: numpy view of ``active`` (None without numpy).
        desc_cache: source id → materialised descendant array.
        cand_cache: ``id(candidates)`` → ``(candidates, ids, active
            flags)`` for candidate *tuples*; the strong reference in
            slot 0 keeps ``id()`` unambiguous.
    """

    __slots__ = ("indptr", "data", "views", "np_data", "active", "active_np",
                 "desc_cache", "cand_cache")

    def __init__(self, cover: "_CoverBase") -> None:
        self.indptr: Dict[str, array] = {}
        self.data: Dict[str, array] = {}
        self.views: Dict[str, memoryview] = {}
        self.np_data: Optional[Dict[str, object]] = (
            {} if _np is not None else None
        )
        self.desc_cache: Dict[int, object] = {}
        self.cand_cache: Dict[int, Tuple[object, object, object]] = {}
        for name in ("lin", "lout", "inv_lin", "inv_lout"):
            indptr, data = cover._pack_table(getattr(cover, f"_{name}"))
            self.indptr[name] = indptr
            self.data[name] = data
            self.views[name] = memoryview(data)
            if self.np_data is not None:
                self.np_data[name] = _np.frombuffer(data, dtype=_np.intc)
        self.active = array(ID_TYPECODE, sorted(cover._nodes))
        self.active_np = (
            _np.frombuffer(self.active, dtype=_np.intc)
            if _np is not None and len(self.active)
            else (_np.empty(0, dtype=_np.intc) if _np is not None else None)
        )

    def row(self, name: str, iid: int) -> memoryview:
        """The sealed row of ``name`` for internal id ``iid``."""
        indptr = self.indptr[name]
        if iid + 1 >= len(indptr):
            return self.views[name][0:0]
        return self.views[name][indptr[iid]:indptr[iid + 1]]

    def np_row(self, name: str, iid: int):
        """The numpy row slice (requires numpy; zero-copy)."""
        indptr = self.indptr[name]
        if iid + 1 >= len(indptr):
            return self.np_data[name][0:0]
        return self.np_data[name][indptr[iid]:indptr[iid + 1]]


def _in_sorted_np(values, universe):
    """Vectorised membership of ``values`` in a sorted numpy array.

    Negative sentinels (unknown labels) always map to False.
    """
    n = universe.size
    if n == 0:
        return _np.zeros(values.size, dtype=bool)
    idx = _np.searchsorted(universe, values)
    idx[idx == n] = 0
    return universe[idx] == values


class _CoverBase:
    """State and machinery shared by both cover flavours.

    Label tables are lists indexed by internal id (``None`` = empty) so
    the dense ids double as direct offsets — no hashing on hot paths.
    Every mutator sets ``self._slabs = None`` first: the sealed slabs
    (and the per-seal caches they carry) describe exactly one immutable
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
        # the sealed CSR generation; None until the first batch probe
        # after a mutation
        self._slabs: Optional[_Slabs] = None
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
        row). The fork starts unsealed; ``self`` keeps its seal."""
        clone = type(self)()
        clone.interner = self.interner.copy()
        clone._nodes = set(self._nodes)
        for name in self._TABLE_NAMES:
            setattr(clone, name, list(getattr(self, name)))
        self._cow = {id(t): set() for t in self._tables()}
        clone._cow = {id(t): set() for t in clone._tables()}
        return clone

    def copy(self):
        """A structurally independent deep copy of the cover
        (subclasses clone as their own type; the copy starts
        unsealed)."""
        clone = type(self)()
        clone.interner = self.interner.copy()
        clone._nodes = set(self._nodes)
        for name in self._TABLE_NAMES:
            setattr(
                clone, name, [a[:] if a else None for a in getattr(self, name)]
            )
        return clone

    def __getstate__(self) -> Dict[str, object]:
        # pickling deep-copies every row, so the unpickled instance owns
        # all of them; the id()-keyed ownership map would be stale. The
        # slabs hold memoryviews (unpicklable) and are rebuilt on demand:
        # the copy starts unsealed
        state = self.__dict__.copy()
        state["_cow"] = None
        state["_slabs"] = None
        return state

    # -- seal lifecycle -------------------------------------------------
    def _seal(self) -> _Slabs:
        """Pack the label tables into CSR slabs (idempotent until the
        next mutation)."""
        slabs = self._slabs
        if slabs is None:
            slabs = self._slabs = _Slabs(self)
        return slabs

    @property
    def sealed(self) -> bool:
        """Whether the current generation's slabs are built."""
        return self._slabs is not None

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
        self._slabs = None
        self._nodes.add(self._intern(v))

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register every node of ``nodes`` in the universe."""
        self._slabs = None
        for v in nodes:
            self._nodes.add(self._intern(v))

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

    # -- disjoint merge --------------------------------------------------
    def absorb_disjoint(self, other) -> None:
        """:meth:`union`, optimised for node-disjoint covers.

        When none of ``other``'s labels are interned here yet (partition
        covers joined into a fresh merged cover), every internal id
        shifts by one constant, so label rows and backward-index rows
        move as block copies with sortedness preserved. Anything else
        takes :meth:`union` (identical result).
        """
        self._slabs = None
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

    # -- sealed batch probes ----------------------------------------------
    def _translate(self, slabs: _Slabs, candidates: Sequence[Node]):
        """``(ids, active_flags)`` for a candidate sequence.

        ``ids`` is the internal-id translation (-1 for labels the
        interner has never seen); ``active_flags`` pre-answers the
        ``id ∈ active universe`` half of the membership test (None on
        the portable path, whose descendant sets are already restricted
        to the active universe). A **tuple** is immutable, so its
        translation is cached per seal by object identity — the query
        engine memoises one candidate tuple per step key, so repeated
        probes (and every source of an ``intersect_many`` block)
        translate once. Any other sequence may have been mutated in
        place since the last call and is translated every time.
        """
        cacheable = type(candidates) is tuple
        if cacheable:
            entry = slabs.cand_cache.get(id(candidates))
            if entry is not None and entry[0] is candidates:
                return entry[1], entry[2]
        ids = self.interner.translate(candidates)
        active_flags = None
        if _np is not None:
            ids = _np.array(ids, dtype=_np.int64)
            active_flags = _in_sorted_np(ids, slabs.active_np)
        if cacheable:
            if len(slabs.cand_cache) >= _CAND_CACHE_LIMIT:
                slabs.cand_cache.clear()
            slabs.cand_cache[id(candidates)] = (candidates, ids, active_flags)
        return ids, active_flags

    def _desc_sorted_np(self, slabs: _Slabs, ui: int):
        """Sorted numpy array of ``ui``'s descendant ids (incl. self).

        May contain duplicates — the only consumers do sorted-array
        membership (``searchsorted``), which is duplicate-oblivious, so
        one in-place sort replaces ``np.unique``'s sort-plus-dedupe.
        Cached per seal, so a hot source pays the concatenation once
        per epoch.
        """
        cache = slabs.desc_cache
        cached = cache.get(ui)
        if cached is not None:
            return cached
        inv_indptr = slabs.indptr["inv_lin"]
        inv_data = slabs.np_data["inv_lin"]
        inv_n = len(inv_indptr)
        parts = [_np.array([ui], dtype=_np.intc)]
        if ui + 1 < inv_n:
            inv_row = inv_data[inv_indptr[ui]:inv_indptr[ui + 1]]
            if inv_row.size:
                parts.append(inv_row)
        lout_row = slabs.np_row("lout", ui)
        if lout_row.size:
            parts.append(lout_row)
            for c in lout_row.tolist():
                if c + 1 < inv_n:
                    row = inv_data[inv_indptr[c]:inv_indptr[c + 1]]
                    if row.size:
                        parts.append(row)
        if len(parts) == 1:
            desc = parts[0]
        else:
            desc = _np.concatenate(parts)
            desc.sort()
        if len(cache) >= _DESC_CACHE_LIMIT:
            cache.clear()
        cache[ui] = desc
        return desc

    def _desc_set(self, slabs: _Slabs, ui: int) -> Set[int]:
        """Descendant ids of ``ui`` as a set, from the sealed slabs
        (portable path), restricted to the active universe."""
        result = {ui}
        inv_row = slabs.row("inv_lin", ui)
        if len(inv_row):
            result.update(inv_row)
        lout_row = slabs.row("lout", ui)
        if len(lout_row):
            result.update(lout_row)
            for c in lout_row:
                row = slabs.row("inv_lin", c)
                if len(row):
                    result.update(row)
        # labels may reference centers outside the active universe;
        # connected() rejects them, so the batch must too
        result.intersection_update(self._nodes)
        return result

    def connected_many(self, u: Node, candidates: Sequence[Node]) -> List[bool]:
        """Batched ``[connected(u, c) for c in candidates]`` over the
        sealed slabs: the descendant id set is materialised once and the
        whole batch tested by sorted-array membership (numpy
        ``searchsorted`` when available, C-level set membership
        otherwise) — the hot path behind the query engine's descendant
        steps."""
        ui = self.interner.get(u)
        if ui is None or ui not in self._nodes:
            return [False] * len(candidates)
        slabs = self._seal()
        ids, active_flags = self._translate(slabs, candidates)
        if _np is not None:
            flags = _in_sorted_np(ids, self._desc_sorted_np(slabs, ui))
            _np.logical_and(flags, active_flags, out=flags)
            return flags.tolist()
        desc = self._desc_set(slabs, ui)
        return [i in desc for i in ids]

    def intersect_many(
        self, sources: Sequence[Node], candidates: Sequence[Node]
    ) -> List[List[int]]:
        """For each source, the sorted **indices** into ``candidates``
        it reaches — the batch probe behind the query executor's block
        joins. Equivalent to ``[[i for i, ok in
        enumerate(connected_many(s, candidates)) if ok] for s in
        sources]`` with the candidate translation amortised across the
        whole batch."""
        slabs = self._seal()
        ids, active_flags = self._translate(slabs, candidates)
        out: List[List[int]] = []
        get = self.interner.get
        nodes = self._nodes
        for u in sources:
            ui = get(u)
            if ui is None or ui not in nodes:
                out.append([])
            elif _np is not None:
                flags = _in_sorted_np(ids, self._desc_sorted_np(slabs, ui))
                _np.logical_and(flags, active_flags, out=flags)
                out.append(_np.flatnonzero(flags).tolist())
            else:
                desc = self._desc_set(slabs, ui)
                out.append([j for j, i in enumerate(ids) if i in desc])
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
        """CSR snapshot payload (see :mod:`repro.storage.snapshot`)."""
        payload: Dict[str, object] = {
            "distance": self.is_distance_aware,
            "labels": self.interner.labels(),
            "active": array(ID_TYPECODE, sorted(self._nodes)),
        }
        for name in ("lin", "lout", "inv_lin", "inv_lout"):
            payload[name] = self._pack_table(getattr(self, f"_{name}"))
        return payload

    @classmethod
    def from_csr(cls, payload: Mapping[str, object]):
        """Rebuild a cover from a :meth:`to_csr` payload (block copies)."""
        new = cls()
        new.interner = NodeInterner.from_labels(payload["labels"])
        new._nodes = set(payload["active"])
        for name in ("lin", "lout", "inv_lin", "inv_lout"):
            setattr(new, f"_{name}", cls._unpack_table(*payload[name]))
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
        self._slabs = None
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
        self._slabs = None
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

    def discard_lin(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lin(node)`` if present."""
        ni, ci = self.interner.get(node), self.interner.get(center)
        if ni is None or ci is None:
            return
        row = self._row(self._lin, ni)
        if row is not None and sorted_contains(row, ci):
            self._slabs = None
            sorted_remove(self._owned(self._lin, ni), ci)
            self._inv_discard(self._inv_lin, ci, ni)

    def discard_lout(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lout(node)`` if present."""
        ni, ci = self.interner.get(node), self.interner.get(center)
        if ni is None or ci is None:
            return
        row = self._row(self._lout, ni)
        if row is not None and sorted_contains(row, ci):
            self._slabs = None
            sorted_remove(self._owned(self._lout, ni), ci)
            self._inv_discard(self._inv_lout, ci, ni)

    def _set_label(
        self,
        table: List[Optional[array]],
        inv: List[Optional[array]],
        node: Node,
        centers: Iterable[Node],
    ) -> None:
        self._slabs = None
        ni = self._intern(node)
        old = table[ni]
        if old:
            for ci in old:
                self._inv_discard(inv, ci, ni)
        new_ids = sorted({self._intern(c) for c in centers if c != node})
        table[ni] = array(ID_TYPECODE, new_ids) if new_ids else None
        for ci in new_ids:
            self._inv_add(inv, ci, ni)

    def set_lin(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lin(node)`` wholesale (used by Theorems 2 and 3)."""
        self._set_label(self._lin, self._inv_lin, node, centers)

    def set_lout(self, node: Node, centers: Iterable[Node]) -> None:
        """Replace ``Lout(node)`` wholesale (used by Theorems 2 and 3)."""
        self._set_label(self._lout, self._inv_lout, node, centers)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label
        entry that uses them as a center (document deletion support)."""
        self._slabs = None
        removed_ids = []
        for v in removed:
            iid = self.interner.get(v)
            if iid is not None:
                removed_ids.append(iid)
                self._nodes.discard(iid)
        label = self.interner.label
        for iid in removed_ids:
            # _set_label nulls the table slot itself on an empty label
            self.set_lin(label(iid), ())
            self.set_lout(label(iid), ())
        for iid in removed_ids:
            inv_row = self._row(self._inv_lin, iid)
            if inv_row:
                for ni in list(inv_row):
                    row = self._lin[ni]
                    if row is not None and sorted_contains(row, iid):
                        sorted_remove(self._owned(self._lin, ni), iid)
            inv_row = self._row(self._inv_lout, iid)
            if inv_row:
                for ni in list(inv_row):
                    row = self._lout[ni]
                    if row is not None and sorted_contains(row, iid):
                        sorted_remove(self._owned(self._lout, ni), iid)
            self._inv_lin[iid] = None
            self._inv_lout[iid] = None

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
        that compensate for self-entries not being stored. Sealed, the
        row slices are intersected by a density-chosen kernel; unsealed,
        by a galloping merge over the mutable rows (so write-heavy
        phases never force a reseal per probe)."""
        get = self.interner.get
        ui, vi = get(u), get(v)
        if ui is None or vi is None:
            return False
        nodes = self._nodes
        if ui not in nodes or vi not in nodes:
            return False
        if ui == vi:
            return True
        slabs = self._slabs
        if slabs is None:
            lout = self._row(self._lout, ui) or ()
            lin = self._row(self._lin, vi) or ()
        else:
            lout = slabs.row("lout", ui)
            lin = slabs.row("lin", vi)
        if len(lout) and sorted_contains(lout, vi):
            return True
        if len(lin) and sorted_contains(lin, ui):
            return True
        if not len(lout) or not len(lin):
            return False
        if slabs is None:
            return galloping_intersects(lout, lin)
        return kernels.intersects_any(lout, lin, span=len(self.interner))

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
        cover's :meth:`entries` or a store's LIN/LOUT rows; no
        self-entries). Rows are grouped per node and sorted once
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
        for kind, node, center in entries:
            rows = lin_rows if kind == "in" else lout_rows
            rows.setdefault(intern(node), []).append(intern(center))
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
    insertion. ``distance()`` / ``connected()`` always read the mutable
    rows (the slabs carry ids only); the batch reachability probes go
    through the seal like the reachability cover's.
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
        self._slabs = None
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

    def _discard(
        self,
        table: List[Optional[array]],
        dists: List[Optional[array]],
        inv: List[Optional[array]],
        node: Node,
        center: Node,
    ) -> None:
        ni, ci = self.interner.get(node), self.interner.get(center)
        if ni is None or ci is None:
            return
        centers = self._row(table, ni)
        if centers is None:
            return
        i = bisect_left(centers, ci)
        if i < len(centers) and centers[i] == ci:
            self._slabs = None
            del self._owned(table, ni)[i]
            del self._owned(dists, ni)[i]
            self._inv_discard(inv, ci, ni)

    def discard_lin(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lin(node)`` if present."""
        self._discard(self._lin, self._lin_dist, self._inv_lin, node, center)

    def discard_lout(self, node: Node, center: Node) -> None:
        """Remove ``center`` from ``Lout(node)`` if present."""
        self._discard(self._lout, self._lout_dist, self._inv_lout, node, center)

    def _set_label(
        self,
        table: List[Optional[array]],
        dists: List[Optional[array]],
        inv: List[Optional[array]],
        node: Node,
        entries: Mapping[Node, int],
    ) -> None:
        self._slabs = None
        ni = self._intern(node)
        old = table[ni]
        if old:
            for ci in old:
                self._inv_discard(inv, ci, ni)
        pairs = sorted(
            (self._intern(c), d) for c, d in entries.items() if c != node
        )
        if pairs:
            table[ni] = array(ID_TYPECODE, (p[0] for p in pairs))
            dists[ni] = array(ID_TYPECODE, (p[1] for p in pairs))
            for ci, _ in pairs:
                self._inv_add(inv, ci, ni)
        else:
            table[ni] = None
            dists[ni] = None

    def set_lin(self, node: Node, entries: Mapping[Node, int]) -> None:
        """Replace ``Lin(node)`` wholesale (used by Theorems 2 and 3)."""
        self._set_label(self._lin, self._lin_dist, self._inv_lin, node, entries)

    def set_lout(self, node: Node, entries: Mapping[Node, int]) -> None:
        """Replace ``Lout(node)`` wholesale (used by Theorems 2 and 3)."""
        self._set_label(self._lout, self._lout_dist, self._inv_lout, node, entries)

    def remove_nodes(self, removed: Set[Node]) -> None:
        """Drop nodes from the universe, their labels, and every label entry using them as a center."""
        self._slabs = None
        removed_ids = []
        for v in removed:
            iid = self.interner.get(v)
            if iid is not None:
                removed_ids.append(iid)
                self._nodes.discard(iid)
        label = self.interner.label
        for iid in removed_ids:
            self.set_lin(label(iid), {})
            self.set_lout(label(iid), {})
        for iid in removed_ids:
            inv_row = self._row(self._inv_lin, iid)
            if inv_row:
                for ni in list(inv_row):
                    self._discard(
                        self._lin, self._lin_dist, self._inv_lin,
                        label(ni), label(iid),
                    )
            inv_row = self._row(self._inv_lout, iid)
            if inv_row:
                for ni in list(inv_row):
                    self._discard(
                        self._lout, self._lout_dist, self._inv_lout,
                        label(ni), label(iid),
                    )
            self._inv_lin[iid] = None
            self._inv_lout[iid] = None

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

    def to_reachability(self) -> TwoHopCover:
        """Forget distances."""
        cover = TwoHopCover(self.nodes)
        for kind, node, center, _ in self.entries():
            if kind == "in":
                cover.add_lin(node, center)
            else:
                cover.add_lout(node, center)
        return cover

    @classmethod
    def from_entries(
        cls,
        nodes: Iterable[Node],
        entries: Iterable[Tuple[str, Node, Node, int]],
    ) -> "DistanceTwoHopCover":
        """Batch constructor: a cover over ``nodes`` holding ``entries``
        (``(kind, node, center, dist)`` rows in any order, at most one
        per ``(kind, node, center)``; no self-entries). Rows are grouped
        per node and sorted once — O(k log k) per label instead of
        O(k^2) repeated sorted inserts."""
        # sorted interning: see TwoHopCover.from_entries
        try:
            ordered = sorted(nodes)
        except TypeError:  # mixed/unorderable node types
            ordered = nodes
        new = cls(ordered)
        lin_rows: Dict[int, List[Tuple[int, int]]] = {}
        lout_rows: Dict[int, List[Tuple[int, int]]] = {}
        intern = new._intern
        for kind, node, center, dist in entries:
            rows = lin_rows if kind == "in" else lout_rows
            rows.setdefault(intern(node), []).append((intern(center), dist))
        new._nodes.update(lin_rows, lout_rows)
        for rows, table, dists, inv in (
            (lin_rows, new._lin, new._lin_dist, new._inv_lin),
            (lout_rows, new._lout, new._lout_dist, new._inv_lout),
        ):
            inv_rows: Dict[int, List[int]] = {}
            for ni, pairs in rows.items():
                pairs.sort()
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

    @classmethod
    def from_csr(cls, payload: Mapping[str, object]) -> "DistanceTwoHopCover":
        """Rebuild a cover from a :meth:`to_csr` payload (block copies)."""
        new = super().from_csr(payload)
        for name in ("lin", "lout"):
            indptr = payload[name][0]
            setattr(
                new, f"_{name}_dist",
                cls._unpack_table(indptr, payload[f"{name}_dist"]),
            )
        return new

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
