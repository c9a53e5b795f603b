"""Pipelined physical operators executing a :class:`PhysicalPlan`.

Operators are generators: a scan seeds partial bindings (tuples
covering a contiguous range of step positions) and each join stage
extends them one adjacent position at a time — forward joins append
via ``descendants``-side probes (or children of the bound parent),
backward joins prepend via the cover's ``ancestors`` side (or one
parent-pointer hop). Nothing is materialised between stages, so

* ``exists`` stops at the **first** full binding,
* an unranked ``stream`` stops as soon as its window is filled,
* empty intermediate frontiers terminate the whole pipeline early,

while the ranked ``evaluate`` path does not run this pipeline at all:
:func:`run_ranked` reduces the positions the plan reaches backward to
sets, enumerates bindings left to right in rank order and prunes every
partial whose score can no longer enter the top ``k``.

:func:`run_count` is the aggregated counting path: the number of full
bindings through an element depends only on that element, so a purely
forward (or purely backward) plan aggregates ``element → multiplicity``
per frontier instead of materialising tuples — the reason
:func:`~repro.query.planner.plan_query` plans counts ``directional``.

All per-execution memo state (forward probe answers, ``ancestors``
materialisations, predicate verdicts) lives in one :class:`ExecContext`
so a single query never repeats a probe, while nothing leaks across
epochs — the service layer's per-epoch probe cache plugs in underneath
via the engine's ``probe`` hook. Probe *objects* may expose two
optional batch hooks the executor feature-detects: ``probe.many`` lets
descendant joins prefetch a whole block of frontier sources in one
``intersect_many`` round-trip (the cover's bulk entry point),
and ``probe.backward`` lets the serving tier cache ``ancestors``-side
materialisations across queries; plain callables keep the legacy
one-source-per-call behaviour (what the probe-counting tests rely on).
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.query.pathexpr import Predicate, Step
from repro.query.planner import PhysicalOp, PhysicalPlan
from repro.xmlmodel.model import ElementId

Binding = Tuple[ElementId, ...]

#: Descendant-join block size: how many partial bindings a forward
#: stage pulls from its upstream before issuing one batched
#: ``intersect_many`` prefetch for their sources. Bounds the laziness
#: loss of batching — ``exists`` pulls at most one block through a
#: descendant stage before its first answer.
FORWARD_BLOCK = 32


class ExecContext:
    """Per-execution state shared by all operators of one run.

    Args:
        engine: the owning :class:`~repro.query.engine.QueryEngine`
            (supplies candidate lists/maps and the parent maps).
        index: the HOPI index to probe (an explicit epoch's index when
            the service layer runs the pipeline).
        probe: optional forward-probe substitute (the serving tier's
            per-epoch coalescing cache); ``None`` probes the index
            directly.
    """

    def __init__(self, engine, index, probe=None) -> None:
        self.engine = engine
        self.index = index
        self.probe = probe
        self.elements = engine.collection.elements
        self._forward: Dict[Tuple[ElementId, Tuple[str, bool]], List[int]] = {}
        self._backward: Dict[Tuple[ElementId, Tuple[str, bool]], List[ElementId]] = {}
        self._verdicts: Dict[Tuple[Predicate, ElementId], bool] = {}

    # -- probes ---------------------------------------------------------
    def forward_reach(self, source: ElementId, step: Step) -> List[int]:
        """Indices into ``step``'s candidate list reachable from
        ``source`` (one batched probe per distinct source, memoized)."""
        key = (step.tag, step.similar)
        cached = self._forward.get((source, key))
        if cached is None:
            cand_elems = self.engine._candidate_elems(step)
            cached = self.engine._reachable(
                self.index, self.probe, source, key, cand_elems
            )
            self._forward[(source, key)] = cached
        return cached

    def prefetch_forward(
        self, sources: Sequence[ElementId], step: Step
    ) -> None:
        """Fill the forward memo for a whole block of sources in one
        batched probe.

        Routes through ``probe.many`` when the probe object exposes it
        (the serving tier's per-epoch cache answers hits and computes
        the misses in one ``intersect_many``); without a probe, calls
        ``index.intersect_many`` directly — one candidate translation
        amortised across the block. A plain
        callable probe without ``.many`` disables prefetching so every
        source still goes through the per-source hook (probe-counting
        tests and exotic probes keep their exact call pattern).
        """
        key = (step.tag, step.similar)
        missing = [
            s for s in dict.fromkeys(sources)
            if (s, key) not in self._forward
        ]
        if not missing:
            return
        cand_elems = self.engine._candidate_elems(step)
        if self.probe is not None:
            many = getattr(self.probe, "many", None)
            if many is None:
                return
            answers: Dict[ElementId, List[int]] = many(
                missing, key, cand_elems
            )
        else:
            rows = self.index.intersect_many(missing, cand_elems)
            answers = dict(zip(missing, rows))
        for source in missing:
            self._forward[(source, key)] = answers[source]

    def backward_reach(self, target: ElementId, step: Step) -> List[ElementId]:
        """Candidates of ``step`` that *reach* ``target`` — the
        ``ancestors``-side probe (one materialisation per distinct
        ``(target, step key)``, memoized; sorted for determinism).

        Only the candidate intersection is retained — the raw ancestor
        set is transient — so, like the forward cache, memory stays
        bounded by true positives rather than by full reach sets.
        When the probe object exposes ``backward``, the materialisation
        is routed through it so the serving tier can cache it across
        queries of the same epoch (these probes used to miss the probe
        cache unconditionally)."""
        step_key = (step.tag, step.similar)
        key = (target, step_key)
        cached = self._backward.get(key)
        if cached is None:
            def compute() -> List[ElementId]:
                ancestors: Set[ElementId] = self.index.ancestors(target)
                cmap = self.engine._candidate_map(step)
                if len(cmap) < len(ancestors):
                    return sorted(e for e in cmap if e in ancestors)
                return sorted(e for e in ancestors if e in cmap)

            backward: Optional[object] = (
                getattr(self.probe, "backward", None)
                if self.probe is not None else None
            )
            cached = backward(target, step_key, compute) if backward else compute()
            self._backward[key] = cached
        return cached

    # -- filters --------------------------------------------------------
    def anchor_ok(self, element: ElementId) -> bool:
        """Absolute-path anchor: position 0 must be a document root."""
        return self.elements[element].parent is None

    def filters_ok(
        self, element: ElementId, predicates: Tuple[Predicate, ...]
    ) -> bool:
        """All given ``[predicate]`` filters hold for ``element``."""
        return all(self.predicate_ok(element, p) for p in predicates)

    def predicate_ok(self, element: ElementId, predicate: Predicate) -> bool:
        """Existence test of one predicate, memoized per element."""
        key = (predicate, element)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._exists(element, predicate.steps, 0)
            self._verdicts[key] = verdict
        return verdict

    def _exists(
        self, source: ElementId, steps: Sequence[Step], i: int
    ) -> bool:
        """Does the relative path ``steps[i:]`` match from ``source``?
        Early-exits on the first full match."""
        step = steps[i]
        if step.axis == "child":
            matches: Sequence[ElementId] = self.engine._parent_map(step).get(
                source, ()
            )
        else:
            cand_elems = self.engine._candidate_elems(step)
            matches = [
                cand_elems[j]
                for j in self.forward_reach(source, step)
                if cand_elems[j] != source
            ]
        for element in matches:
            if not self.filters_ok(element, step.predicates):
                continue
            if i + 1 == len(steps) or self._exists(element, steps, i + 1):
                return True
        return False


# ---------------------------------------------------------------------------
# binding pipeline
# ---------------------------------------------------------------------------


def _gate(
    ctx: ExecContext, plan: PhysicalPlan, position: int
) -> Optional[Callable[[ElementId], bool]]:
    """The admission test of one step position, or ``None`` when every
    candidate passes: the absolute-path anchor (position 0 only), then
    the position's ``[predicate]`` filters."""
    filters = plan.filters_at(position)
    anchored = position == 0 and plan.expr.steps[0].axis == "child"
    if not (filters or anchored):
        return None

    def admits(element: ElementId) -> bool:
        if anchored and not ctx.anchor_ok(element):
            return False
        return ctx.filters_ok(element, filters)

    return admits


def _scan(
    ctx: ExecContext, plan: PhysicalPlan, position: int
) -> Iterator[ElementId]:
    """The admitted candidates of ``position``, in rank order."""
    admits = _gate(ctx, plan, position)
    for element, _score in ctx.engine._candidates(plan.expr.steps[position]):
        if admits is None or admits(element):
            yield element


def _successors(
    ctx: ExecContext, plan: PhysicalPlan, position: int, element: ElementId
) -> Sequence[ElementId]:
    """Candidates of ``position`` joined to ``element`` bound at
    ``position - 1``, before admission and in rank order: its children
    or the ``descendants``-side probe, never ``element`` itself."""
    step = plan.expr.steps[position]
    if step.axis == "child":
        return ctx.engine._parent_map(step).get(element, ())
    cand_elems = ctx.engine._candidate_elems(step)
    return [
        cand_elems[j] for j in ctx.forward_reach(element, step)
        if cand_elems[j] != element
    ]


def _extend_forward(
    ctx: ExecContext, plan: PhysicalPlan, stream: Iterator[Binding],
    position: int,
) -> Iterator[Binding]:
    """Append ``position`` to partials ending at ``position - 1``."""
    step = plan.expr.steps[position]
    admits = _gate(ctx, plan, position)
    probed = step.axis == "descendant"
    # pull partials in blocks so the whole block's sources go out as
    # ONE batched probe (intersect_many / probe.many) instead of one
    # round-trip per partial; within a block the per-source memo
    # answers instantly. Block size bounds the laziness loss.
    while True:
        block = list(itertools.islice(stream, FORWARD_BLOCK if probed else 1))
        if not block:
            return
        if probed:
            ctx.prefetch_forward([p[-1] for p in block], step)
        for partial in block:
            for element in _successors(ctx, plan, position, partial[-1]):
                if admits is None or admits(element):
                    yield partial + (element,)


def _predecessors(
    ctx: ExecContext, plan: PhysicalPlan, position: int, element: ElementId
) -> Sequence[ElementId]:
    """Candidates of ``position`` joined to ``element`` bound at
    ``position + 1``, before admission: the parent (the edge axis
    belongs to ``steps[position + 1]``) or the ``ancestors``-side
    probe, never ``element`` itself."""
    steps = plan.expr.steps
    step = steps[position]
    if steps[position + 1].axis == "child":
        parent = ctx.elements[element].parent
        if parent is None or parent not in ctx.engine._candidate_map(step):
            return ()
        return (parent,)
    return [a for a in ctx.backward_reach(element, step) if a != element]


def _extend_backward(
    ctx: ExecContext, plan: PhysicalPlan, stream: Iterator[Binding],
    position: int,
) -> Iterator[Binding]:
    """Prepend ``position`` to partials starting at ``position + 1``."""
    admits = _gate(ctx, plan, position)
    for partial in stream:
        for element in _predecessors(ctx, plan, position, partial[0]):
            if admits is None or admits(element):
                yield (element,) + partial


def run_bindings(plan: PhysicalPlan, ctx: ExecContext) -> Iterator[Binding]:
    """Stream full binding tuples (step order) for ``plan``.

    The stream is lazy end-to-end: consuming one binding pulls exactly
    the work it needs through every stage, which is what makes
    ``exists``/``limit`` early termination real rather than cosmetic.
    Binding tuples are unique (each stage extends with distinct
    elements), in pipeline order — ranking is the caller's concern.
    """
    ops: Sequence[PhysicalOp] = plan.ops
    stream: Iterator[Binding] = (
        (element,) for element in _scan(ctx, plan, ops[0].position)
    )
    for op in ops[1:]:
        if op.direction == "forward":
            stream = _extend_forward(ctx, plan, stream, op.position)
        else:
            stream = _extend_backward(ctx, plan, stream, op.position)
    return stream


# ---------------------------------------------------------------------------
# ranked top-k enumeration
# ---------------------------------------------------------------------------


def _reduce(
    ctx: ExecContext, plan: PhysicalPlan
) -> Tuple[Iterable[ElementId], Dict[int, Dict[ElementId, List[ElementId]]]]:
    """Semi-join reduction of the positions left of the plan's seed.

    Walks from the seed down to position 0 over sets of elements, never
    tuples: ``below[p][a]`` lists the admitted elements of position
    ``p + 1`` that ``a`` (admitted at ``p``) joins to, in rank order,
    and the returned heads are position 0's survivors in rank order.
    Each element is admitted (anchor, predicates) at most once per
    position. A plan seeded at 0 reduces nothing and its heads stay a
    lazy scan.
    """
    steps = plan.expr.steps
    seed = plan.ops[0].position
    allowed: Iterable[ElementId] = _scan(ctx, plan, seed)
    below: Dict[int, Dict[ElementId, List[ElementId]]] = {}
    for position in range(seed - 1, -1, -1):
        admits = _gate(ctx, plan, position)
        joined: Dict[ElementId, List[ElementId]] = {}
        rejected: Set[ElementId] = set()
        # ``allowed`` is in rank order, so every list below is too
        for element in allowed:
            for candidate in _predecessors(ctx, plan, position, element):
                successors = joined.get(candidate)
                if successors is None:
                    if candidate in rejected:
                        continue
                    if admits is not None and not admits(candidate):
                        rejected.add(candidate)
                        continue
                    successors = joined[candidate] = []
                successors.append(element)
        below[position] = joined
        step = steps[position]
        if step.similar:
            cmap = ctx.engine._candidate_map(step)
            allowed = sorted(joined, key=lambda e: (-cmap[e], e))
        else:
            allowed = sorted(joined)
    return allowed, below


def run_ranked(
    plan: PhysicalPlan, ctx: ExecContext, k: int
) -> List[Tuple[float, Binding]]:
    """The ``k`` best matches as sorted ``(-score, bindings)`` pairs.

    Identical to scoring every binding of :func:`run_bindings` with the
    engine's ``_score_binding`` and keeping the ``k`` smallest
    ``(-score, bindings)``, for any seed position — but it builds only
    the bindings that can still get there:

    1. the positions the plan reaches *backward* from its seed are
       reduced to sets (:func:`_reduce`), so the selective step prunes
       the heads without one tuple being built;
    2. bindings are enumerated depth-first, left to right, every list
       in rank order ``(-tag score, element id)`` — the order the
       engine keeps its candidate lists in — carrying the partial
       score in the canonical left-to-right association; forward
       probes still go out in ``FORWARD_BLOCK`` blocks;
    3. once ``k`` results are held, a partial ``(s, prefix)`` whose
       ``(-s, prefix)`` sorts after the k-th is dropped. Every
       remaining factor (a tag score, ``1 / (1 + distance)``) lies in
       ``(0, 1]`` and an IEEE product by such a factor never exceeds
       its left operand, so ``s`` bounds the score of every extension,
       and a prefix sorts before all its extensions.
    """
    if k <= 0:
        return []
    steps = plan.expr.steps
    last = len(steps) - 1
    seed = plan.ops[0].position
    cmaps = [ctx.engine._candidate_map(step) for step in steps]
    # the seed scan and the reduction admit their own elements
    gates = {
        position: _gate(ctx, plan, position)
        for position in range(seed + 1, len(steps))
    }
    distance = ctx.index.distance if ctx.index.is_distance_aware else None
    heads, below = _reduce(ctx, plan)
    top: List[Tuple[float, Binding]] = []  # sorted once it holds k

    def live(
        position: int, elements: Iterable[ElementId],
        prefix: Binding, score: float,
    ) -> Iterator[Tuple[float, Binding]]:
        """``(score, binding)`` of ``prefix`` extended by each of the
        rank-ordered ``elements`` that can still enter the top ``k``."""
        cmap = cmaps[position]
        hop = None
        if position and steps[position].axis == "descendant":
            hop = distance
        admits = gates.get(position)
        for element in elements:
            s = score * cmap[element] if position else cmap[element]
            full = len(top) == k
            if full and -s > top[-1][0]:
                return  # rank order: no later element scores higher
            if hop is not None:
                s = s * (1.0 / (1.0 + hop(prefix[-1], element)))
            binding = prefix + (element,)
            if full and (-s, binding) > top[-1]:
                continue
            if admits is None or admits(element):
                yield s, binding

    def bind(
        position: int, elements: Iterable[ElementId],
        prefix: Binding, score: float,
    ) -> None:
        survivors = live(position, elements, prefix, score)
        if position == last:
            for s, binding in survivors:
                if len(top) < k:
                    top.append((-s, binding))
                    if len(top) == k:
                        top.sort()
                else:
                    insort(top, (-s, binding))
                    top.pop()
            return
        following = steps[position + 1]
        probed = position >= seed and following.axis == "descendant"
        while True:
            block = list(itertools.islice(survivors, FORWARD_BLOCK))
            if not block:
                return
            if probed:
                ctx.prefetch_forward([b[-1] for _, b in block], following)
            for s, binding in block:
                # the k-th may have moved while the block was worked
                if len(top) == k and (-s, binding) > top[-1]:
                    continue
                if position < seed:
                    joined = below[position][binding[-1]]
                else:
                    joined = _successors(ctx, plan, position + 1, binding[-1])
                if joined:
                    bind(position + 1, joined, binding, s)

    try:
        bind(0, heads, (), 1.0)
    finally:
        # the recursive closure refers to itself, and through ctx to the
        # whole epoch's index: break the cycle so the epoch is freed by
        # reference counting, not by a later full GC pass
        del bind
    top.sort()
    return top


# ---------------------------------------------------------------------------
# aggregated counting
# ---------------------------------------------------------------------------

def run_count(plan: PhysicalPlan, ctx: ExecContext) -> int:
    """Total match count via frontier aggregation (no tuples).

    Requires a *directional* plan (purely forward or purely backward):
    the number of full bindings extending a partial depends only on the
    partial's open-end element, so the frontier aggregates to
    ``element → multiplicity`` — one integer per distinct endpoint
    instead of one tuple per match. Early-exits on an empty frontier.
    A final descendant join that admits every candidate is counted,
    not walked: each frontier element adds its multiplicity times the
    size of its probe answer (less itself, when it is a candidate).
    """
    directions = {op.direction for op in plan.ops[1:]}
    if len(directions) > 1:
        raise ValueError(
            "run_count requires a directional plan "
            f"(got mixed directions in {plan.ops!r})"
        )
    steps = plan.expr.steps
    backward = directions == {"backward"}
    joined = _predecessors if backward else _successors
    frontier: Dict[ElementId, int] = dict.fromkeys(
        _scan(ctx, plan, plan.ops[0].position), 1
    )
    for op in plan.ops[1:]:
        if not frontier:
            break
        position = op.position
        step = steps[position]
        admits = _gate(ctx, plan, position)
        if op.op == "descendant":
            if not backward:
                # the whole frontier is known up front: one batched probe
                ctx.prefetch_forward(list(frontier), step)
            if op is plan.ops[-1] and admits is None:
                reach = ctx.backward_reach if backward else ctx.forward_reach
                cmap = ctx.engine._candidate_map(step)
                return sum(
                    multiplicity * (len(reach(element, step)) - (element in cmap))
                    for element, multiplicity in frontier.items()
                )
        grown: Dict[ElementId, int] = {}
        for element, multiplicity in frontier.items():
            for other in joined(ctx, plan, position, element):
                if admits is None or admits(other):
                    grown[other] = grown.get(other, 0) + multiplicity
        frontier = grown
    return sum(frontier.values())
