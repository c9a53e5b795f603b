"""Index statistics in the paper's accounting (Sections 3.4 and 7.2).

Table 2 reports, per build strategy, the build *time*, the cover *size*
(number of label entries), and the *compression* factor relative to the
materialised transitive closure. Both closure and cover are stored as
two-integer rows plus a backward index that doubles the space, so the
factor reduces to ``connections / entries`` — e.g. the paper's baseline:
344,992,370 connections / 15,976,677 entries ≈ 21.6, and the
unpartitioned cover's 1,289,930 entries give ≈ 267.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def compression_ratio(closure_connections: int, cover_size: int) -> float:
    """Closure-to-cover compression factor (Table 2's last column)."""
    if cover_size == 0:
        return float("inf") if closure_connections else 1.0
    return closure_connections / cover_size


def entries_per_node(cover_size: int, num_nodes: int) -> float:
    """Average label entries per element.

    Section 7.2 reports "less than three index entries per node" for the
    INEX build as its efficiency yardstick when the closure itself is
    too large to materialise.
    """
    return cover_size / num_nodes if num_nodes else 0.0


@dataclass
class IndexSizeReport:
    """Size accounting of one built index."""

    num_nodes: int
    cover_size: int
    closure_connections: Optional[int] = None

    @property
    def stored_integers(self) -> int:
        """2 ints per entry + backward index (Section 3.4)."""
        return 4 * self.cover_size

    @property
    def compression(self) -> Optional[float]:
        """Closure ints / cover ints — Table 2's compression column."""
        if self.closure_connections is None:
            return None
        return compression_ratio(self.closure_connections, self.cover_size)

    @property
    def entries_per_node(self) -> float:
        """Average label entries per node (the paper's INEX metric)."""
        return entries_per_node(self.cover_size, self.num_nodes)
