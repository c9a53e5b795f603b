"""Probe cost models for the physical planner.

The planner's direction decisions used to compare raw candidate-count
estimates, implicitly assuming a forward ``descendants``-side probe and
a backward ``ancestors``-side probe cost the same. They do not: the
sealed cover answers forward blocks with one amortised candidate
translation plus C-level membership tests, while a backward probe still
materialises an ancestor set per target. A :class:`ProbeCostModel`
carries one relative unit cost per direction;
:func:`repro.query.planner.plan_query` multiplies its candidate
estimates by them, so cheap forward probes flip fewer joins backward
than a model where both directions cost alike.

Two sources of models:

* :data:`DEFAULT_COST_MODEL` — the static constants an uncalibrated
  index reports. Deterministic, so plans never flicker between runs.
* :func:`calibrate_probe_costs` — a micro-benchmark run at build time
  (``HopiIndex.build(..., calibrate_costs=True)`` or
  ``index.calibrate_probe_costs()``) that measures both directions on
  the actual index and clamps the ratio into a sane range.

Either way the *answers* never depend on the model — any join order is
sound (pinned by the planner-soundness property tests); the model only
moves the plan along the cost/latency trade-off.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ProbeCostModel:
    """Relative per-probe costs of the two probe directions.

    Attributes:
        forward: unit cost of one forward (``descendants``-side,
            ``connected_many``/``intersect_many``) probe.
        backward: unit cost of one backward (``ancestors``-side
            materialisation) probe.
        source: ``"default"`` (static constants), ``"calibrated"``
            (micro-bench), ``"neutral"`` (direction-blind legacy
            behaviour) or ``"synthetic"`` (tests).
    """

    forward: float
    backward: float
    source: str = "default"

    @property
    def neutral(self) -> bool:
        """True when both directions cost the same — the planner then
        reproduces the legacy count-only decisions exactly."""
        return self.forward == self.backward

    def unit(self, axis: str, direction: str) -> float:
        """The weight for joining one position: descendant joins probe
        the cover (direction-dependent); child joins follow parent
        pointers and are direction-blind."""
        if axis != "descendant":
            return 1.0
        return self.forward if direction == "forward" else self.backward


#: The direction-blind model: multiplies every estimate by 1, so every
#: decision reduces to the legacy candidate-count comparison.
NEUTRAL_COST_MODEL = ProbeCostModel(1.0, 1.0, source="neutral")

#: The static constants (relative units; only the ratio between
#: directions matters): forward probes go through the sealed-slab
#: kernels (amortised translation + C membership), so the forward unit
#: is far below the backward unit, which pays a per-target ancestor-set
#: materialisation.
DEFAULT_COST_MODEL = ProbeCostModel(0.35, 1.3)


def calibrate_probe_costs(
    index,
    *,
    samples: int = 24,
    max_candidates: int = 512,
    repeats: int = 3,
    seed: int = 17,
) -> ProbeCostModel:
    """Measure forward vs backward probe cost on a concrete index.

    Samples elements of the index's collection, times ``samples``
    forward ``connected_many`` probes against a fixed candidate list
    and ``samples`` backward ``ancestors``-side materialisations (the
    exact shapes the executor issues), and returns a model with
    ``forward`` normalised to 1.0. The measured ratio is clamped to
    ``[0.05, 20]`` so one noisy run can never produce a degenerate
    planner. Falls back to the static constants on collections too
    small to measure.
    """
    elements = sorted(index.collection.elements)
    if len(elements) < 2:
        return DEFAULT_COST_MODEL
    rng = random.Random(seed)
    # a tuple, like the engine's candidate memos: translated once per seal
    candidates = tuple(elements[:max_candidates])
    cand_set = set(candidates)
    probes = [rng.choice(elements) for _ in range(samples)]

    def time_best(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return max(best, 1e-9)

    def forward_pass() -> None:
        for s in probes:
            index.connected_many(s, candidates)

    def backward_pass() -> None:
        # mirrors ExecContext.backward_reach: materialise the ancestor
        # set, intersect with the candidate map, sort
        for t in probes:
            ancestors = index.ancestors(t)
            if len(cand_set) < len(ancestors):
                sorted(e for e in cand_set if e in ancestors)
            else:
                sorted(e for e in ancestors if e in cand_set)

    forward_pass()  # warm caches/slabs so the seal is not billed
    forward_seconds = time_best(forward_pass)
    backward_seconds = time_best(backward_pass)
    ratio = backward_seconds / forward_seconds
    ratio = min(max(ratio, 0.05), 20.0)
    return ProbeCostModel(1.0, round(ratio, 3), source="calibrated")
