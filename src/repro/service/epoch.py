"""The epoch-based hot-swap protocol (RCU for the HOPI index).

A *published* index never mutates. Readers take one reference to the
current :class:`EpochState` at the start of a request and answer the
whole request from it; the writer forks the published index
copy-on-write (:meth:`repro.core.hopi.HopiIndex.cow_copy`), applies
maintenance to the fork (readers keep going on the old epoch — zero
downtime), then publishes it with a single atomic reference assignment.
A reader therefore always observes answers consistent with exactly one
epoch: either entirely pre-swap or entirely post-swap, never a torn mix.

The atomicity of the swap is a plain attribute write — atomic under the
GIL, and the only synchronisation readers ever need. Writers serialise
among themselves with the service's write lock; readers take no lock at
all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hopi import HopiIndex
from repro.query.engine import QueryEngine


@dataclass(frozen=True)
class EpochState:
    """One published generation of the serving tier.

    Everything a request needs travels together, so a single reference
    grab pins a consistent view:

    Attributes:
        epoch: the index's change counter at publish time.
        index: the (immutable-by-contract) index of this generation.
        engine: the shared, re-entrant query engine bound to this
            generation's index; all reader threads use it, and its
            probe memos hold this generation's probe answers only, so
            stale answers cannot leak through a swap.
    """

    epoch: int
    index: HopiIndex
    engine: QueryEngine


class EpochHolder:
    """The atomic publication point of the current :class:`EpochState`."""

    def __init__(self, state: EpochState) -> None:
        self._state = state
        self.swaps = 0

    @property
    def current(self) -> EpochState:
        """The published state. One attribute read — atomic, lock-free;
        callers must grab it once per request and use only that."""
        return self._state

    def publish(self, state: EpochState) -> EpochState:
        """Atomically publish a new generation (must advance the epoch).

        Returns the state that was replaced. In-flight readers keep
        their reference to it and finish on the old epoch; new requests
        see the new one — that is the entire swap protocol.
        """
        if state.epoch <= self._state.epoch:
            raise ValueError(
                f"epoch must advance: {state.epoch} <= {self._state.epoch}"
            )
        old = self._state
        self._state = state
        self.swaps += 1
        return old
