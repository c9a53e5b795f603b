"""The paper's primary contribution: HOPI, a 2-hop-cover connection index.

Modules:

* :mod:`repro.core.cover` — the 2-hop cover (reachability and
  distance-aware): sorted id arrays with forward and backward label
  indexes and a lazily built CSR seal for batch probes (Sections 3.1,
  3.4, 5.1).
* :mod:`repro.core.center_graph` — center graphs and the linear-time
  densest-subgraph 2-approximation (Section 3.2).
* :mod:`repro.core.cover_builder` — Cohen-style approximation algorithm
  with the paper's priority-queue optimisation and center-node
  preselection (Sections 3.2, 4.2).
* :mod:`repro.core.partitioning` — document-level graph partitioners
  (Sections 3.3, 4.3).
* :mod:`repro.core.skeleton` — skeleton graph and partition-level
  skeleton graph with anc/desc weight estimation (Sections 4.1, 4.3).
* :mod:`repro.core.join` — the original incremental and the new
  structurally recursive partition-cover joins (Sections 3.3, 4.1).
* :mod:`repro.core.pipeline` — the divide-and-conquer build
  orchestrator, serial or over a process pool (Section 4).
* :mod:`repro.core.distance` — distance-aware cover construction
  (Section 5).
* :mod:`repro.core.maintenance` — incremental insertions and deletions
  (Section 6).
* :mod:`repro.core.hopi` — the :class:`~repro.core.hopi.HopiIndex`
  facade tying everything together.
"""

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.cover_builder import build_cover, build_cover_for_closure
from repro.core.distance import build_distance_cover
from repro.core.hopi import BuildStats, HopiIndex
from repro.core.partitioning import Partitioning, partition_by_closure_size, partition_by_node_weight
from repro.core.join import join_covers_incremental, join_covers_recursive
from repro.core.pipeline import BuildPipeline

__all__ = [
    "BuildPipeline",
    "DistanceTwoHopCover",
    "TwoHopCover",
    "build_cover",
    "build_cover_for_closure",
    "build_distance_cover",
    "BuildStats",
    "HopiIndex",
    "Partitioning",
    "partition_by_closure_size",
    "partition_by_node_weight",
    "join_covers_incremental",
    "join_covers_recursive",
]
