"""Dense node-ID interning.

Every array-backed structure in the index operates on dense ``int32``
ids instead of arbitrary hashable node labels. The :class:`NodeInterner`
provides the stable bidirectional mapping: a label is assigned the next
free internal id on first sight and keeps it for the lifetime of the
interner — removal of a node from a cover's universe does *not* recycle
its id, so label entries, backward indexes and persisted snapshots can
never be confused by id reuse.

At the collection level element ids are already dense integers, but the
interner keeps the core generic (the cover algorithms accept any
hashable node type) and — crucially — guarantees *contiguity*, which
element ids lose after deletions. Contiguous ids are what make
list-indexed label tables and CSR snapshots possible.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional

Label = Hashable

#: Inclusive bound of the snapshot-portable id range (int32).
MAX_INTERNED = 2**31 - 1


class NodeInterner:
    """A stable bidirectional ``label <-> dense int`` mapping.

    Ids are assigned sequentially from 0 and never recycled. Lookups in
    both directions are O(1).
    """

    __slots__ = ("_id_of", "_labels")

    def __init__(self, labels: Iterable[Label] = ()) -> None:
        self._id_of: Dict[Label, int] = {}
        self._labels: List[Label] = []
        for label in labels:
            self.intern(label)

    @classmethod
    def from_labels(cls, labels: Iterable[Label]) -> "NodeInterner":
        """Bulk-build an interner from distinct labels in id order.

        The snapshot-decode fast path: one dict comprehension instead
        of one :meth:`intern` call per label. ``labels`` must be
        duplicate-free (snapshot label tables are by construction).
        """
        interner = cls()
        interner._labels = list(labels)
        if len(interner._labels) - 1 > MAX_INTERNED:  # pragma: no cover
            raise OverflowError("interner exceeded the int32 id range")
        interner._id_of = {lab: i for i, lab in enumerate(interner._labels)}
        if len(interner._id_of) != len(interner._labels):
            raise ValueError("labels must be distinct")
        return interner

    def intern(self, label: Label) -> int:
        """Return the id of ``label``, assigning the next free id if new."""
        iid = self._id_of.get(label)
        if iid is None:
            iid = len(self._labels)
            if iid > MAX_INTERNED:  # pragma: no cover - 2^31 nodes
                raise OverflowError("interner exceeded the int32 id range")
            self._id_of[label] = iid
            self._labels.append(label)
        return iid

    def get(self, label: Label) -> Optional[int]:
        """The id of ``label``, or ``None`` when it was never interned."""
        return self._id_of.get(label)

    def translate(self, labels: Iterable[Label]) -> List[int]:
        """The ids of ``labels`` in order, ``-1`` for never-interned
        ones (the batch form of :meth:`get`)."""
        get = self._id_of.get
        return [get(label, -1) for label in labels]

    def label(self, iid: int) -> Label:
        """The label behind an internal id (raises IndexError if unknown)."""
        return self._labels[iid]

    def labels(self) -> List[Label]:
        """All labels in id order (index == internal id)."""
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Label) -> bool:
        return label in self._id_of

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def copy(self) -> "NodeInterner":
        """An independent interner with the same label <-> id mapping."""
        clone = NodeInterner()
        clone._id_of = dict(self._id_of)
        clone._labels = list(self._labels)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"NodeInterner({len(self._labels)} labels)"
