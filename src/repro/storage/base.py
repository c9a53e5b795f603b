"""The store interface shared by every cover store.

Three implementations exist, one per storage representation:

* :class:`repro.storage.memstore.MemoryCoverStore` — wraps a live
  in-memory cover (no serialisation; benchmark baseline);
* :class:`repro.storage.db.SQLiteCoverStore` — the paper's relational
  LIN/LOUT layout with forward + backward indexes (Section 3.4);
* :class:`repro.storage.snapshot.SnapshotCoverStore` — compact CSR
  binary snapshots.

Adding a store means implementing this ABC; everything above the
storage layer (CLI, benchmarks, query engine) only sees ``CoverStore``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Set

from repro.core.cover import DistanceTwoHopCover, TwoHopCover


class CoverStore(ABC):
    """Persistence + query interface over a stored 2-hop cover.

    Implementations answer the paper's four query shapes: connection
    test, shortest distance (when the stored cover is distance-aware),
    and ancestor/descendant enumeration.
    """

    @abstractmethod
    def save_cover(self, cover) -> None:
        """(Re)write the stored cover from an in-memory one."""

    @abstractmethod
    def connected(self, u: int, v: int) -> bool:
        """Reachability test ``u ->* v``."""

    def connected_many(self, u: int, candidates: Sequence[int]) -> List[bool]:
        """Batched connection tests; stores override when they can do
        better than one probe per candidate."""
        return [self.connected(u, c) for c in candidates]

    @abstractmethod
    def distance(self, u: int, v: int) -> Optional[int]:
        """Shortest distance or None; requires a distance-aware cover."""

    @abstractmethod
    def descendants(self, u: int) -> Set[int]:
        """All elements reachable from ``u`` (including ``u``)."""

    @abstractmethod
    def ancestors(self, v: int) -> Set[int]:
        """All elements reaching ``v`` (including ``v``)."""

    @abstractmethod
    def cover_size(self) -> int:
        """Number of stored label entries (|L|)."""

    @abstractmethod
    def load_cover(self) -> "TwoHopCover | DistanceTwoHopCover":
        """Materialise the stored cover back into memory."""
