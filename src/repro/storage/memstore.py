"""In-memory cover store with the same interface as the SQL store.

Used as the no-database baseline in the query-performance benchmark
(E16): identical semantics, no SQL layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.storage.base import CoverStore

Cover = Union[TwoHopCover, DistanceTwoHopCover]


class MemoryCoverStore(CoverStore):
    """Wraps an in-memory cover behind the :class:`CoverStore`
    interface."""

    def __init__(self, cover: Cover) -> None:
        self._cover = cover

    def save_cover(self, cover: Cover) -> None:
        self._cover = cover

    def connected(self, u: int, v: int) -> bool:
        return self._cover.connected(u, v)

    def connected_many(self, u: int, candidates: Sequence[int]) -> List[bool]:
        return self._cover.connected_many(u, candidates)

    def distance(self, u: int, v: int) -> Optional[int]:
        if not self._cover.is_distance_aware:
            raise TypeError("store does not hold a distance-aware cover")
        return self._cover.distance(u, v)

    def descendants(self, u: int) -> Set[int]:
        return self._cover.descendants(u)

    def ancestors(self, v: int) -> Set[int]:
        return self._cover.ancestors(v)

    def cover_size(self) -> int:
        return self._cover.size

    def load_cover(self) -> Cover:
        return self._cover
