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

while the ranked ``evaluate`` path drains the stream and scores at the
end (scores are order-independent products, recomputed in canonical
left-to-right association so any join order is bit-identical to the
legacy evaluator).

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
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
        first_filter: optional predicate over the element bound at
            step position 0. When given, only bindings whose *first*
            element passes are produced — the shard serving tier uses
            this to restrict a query to the tuples a shard owns
            (ownership is decided by the first binding's document)
            without post-filtering a full evaluation.
    """

    def __init__(self, engine, index, probe=None, first_filter=None) -> None:
        self.engine = engine
        self.index = index
        self.probe = probe
        self.first_filter = first_filter
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


def _scan(ctx: ExecContext, plan: PhysicalPlan, position: int) -> Iterator[Binding]:
    step = plan.expr.steps[position]
    filters = plan.filters_at(position)
    anchored = position == 0 and step.axis == "child"
    first = ctx.first_filter if position == 0 else None
    for element, _score in ctx.engine._candidates(step):
        if anchored and not ctx.anchor_ok(element):
            continue
        if first is not None and not first(element):
            continue
        if ctx.filters_ok(element, filters):
            yield (element,)


def _extend_forward(
    ctx: ExecContext, plan: PhysicalPlan, stream: Iterator[Binding],
    position: int,
) -> Iterator[Binding]:
    """Append ``position`` to partials ending at ``position - 1``."""
    step = plan.expr.steps[position]
    filters = plan.filters_at(position)
    if step.axis == "child":
        parent_map = ctx.engine._parent_map(step)
        for partial in stream:
            for element in parent_map.get(partial[-1], ()):
                if ctx.filters_ok(element, filters):
                    yield partial + (element,)
    else:
        cand_elems = ctx.engine._candidate_elems(step)
        # pull partials in blocks so the whole block's sources go out
        # as ONE batched probe (intersect_many / probe.many) instead of
        # one round-trip per partial; within a block the per-source
        # memo answers instantly. Block size bounds the laziness loss.
        while True:
            block = list(itertools.islice(stream, FORWARD_BLOCK))
            if not block:
                return
            ctx.prefetch_forward([p[-1] for p in block], step)
            for partial in block:
                prev = partial[-1]
                for j in ctx.forward_reach(prev, step):
                    element = cand_elems[j]
                    if element == prev:
                        continue
                    if ctx.filters_ok(element, filters):
                        yield partial + (element,)


def _extend_backward(
    ctx: ExecContext, plan: PhysicalPlan, stream: Iterator[Binding],
    position: int,
) -> Iterator[Binding]:
    """Prepend ``position`` to partials starting at ``position + 1``.

    The edge axis between the two positions belongs to
    ``steps[position + 1]``; the element test and predicates come from
    ``steps[position]``.
    """
    steps = plan.expr.steps
    edge_axis = steps[position + 1].axis
    step = steps[position]
    filters = plan.filters_at(position)
    anchored = position == 0 and step.axis == "child"
    first = ctx.first_filter if position == 0 else None
    if edge_axis == "child":
        cmap = ctx.engine._candidate_map(step)
        for partial in stream:
            parent = ctx.elements[partial[0]].parent
            if parent is None or parent not in cmap:
                continue
            if anchored and not ctx.anchor_ok(parent):
                continue
            if first is not None and not first(parent):
                continue
            if ctx.filters_ok(parent, filters):
                yield (parent,) + partial
    else:
        for partial in stream:
            head = partial[0]
            for element in ctx.backward_reach(head, step):
                if element == head:
                    continue
                if anchored and not ctx.anchor_ok(element):
                    continue
                if first is not None and not first(element):
                    continue
                if ctx.filters_ok(element, filters):
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
    stream = _scan(ctx, plan, ops[0].position)
    for op in ops[1:]:
        if op.direction == "forward":
            stream = _extend_forward(ctx, plan, stream, op.position)
        else:
            stream = _extend_backward(ctx, plan, stream, op.position)
    return stream


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
    """
    directions = {op.direction for op in plan.ops[1:]}
    if len(directions) > 1:
        raise ValueError(
            "run_count requires a directional plan "
            f"(got mixed directions in {plan.ops!r})"
        )
    steps = plan.expr.steps
    seed = plan.ops[0].position
    backward = directions == {"backward"}

    frontier: Dict[ElementId, int] = {}
    for binding in _scan(ctx, plan, seed):
        frontier[binding[0]] = frontier.get(binding[0], 0) + 1

    positions = [op.position for op in plan.ops[1:]]
    for position in positions:
        if not frontier:
            break
        step = steps[position]
        filters = plan.filters_at(position)
        grown: Dict[ElementId, int] = {}
        if backward:
            edge_axis = steps[position + 1].axis
            anchored = position == 0 and step.axis == "child"
            first = ctx.first_filter if position == 0 else None
            if edge_axis == "child":
                cmap = ctx.engine._candidate_map(step)
                for element, multiplicity in frontier.items():
                    parent = ctx.elements[element].parent
                    if parent is None or parent not in cmap:
                        continue
                    if anchored and not ctx.anchor_ok(parent):
                        continue
                    if first is not None and not first(parent):
                        continue
                    if ctx.filters_ok(parent, filters):
                        grown[parent] = grown.get(parent, 0) + multiplicity
            else:
                for element, multiplicity in frontier.items():
                    for ancestor in ctx.backward_reach(element, step):
                        if ancestor == element:
                            continue
                        if anchored and not ctx.anchor_ok(ancestor):
                            continue
                        if first is not None and not first(ancestor):
                            continue
                        if ctx.filters_ok(ancestor, filters):
                            grown[ancestor] = (
                                grown.get(ancestor, 0) + multiplicity
                            )
        else:
            if step.axis == "child":
                parent_map = ctx.engine._parent_map(step)
                for element, multiplicity in frontier.items():
                    for child in parent_map.get(element, ()):
                        if ctx.filters_ok(child, filters):
                            grown[child] = grown.get(child, 0) + multiplicity
            else:
                cand_elems = ctx.engine._candidate_elems(step)
                # the whole frontier is known up front: one batched probe
                ctx.prefetch_forward(list(frontier), step)
                for element, multiplicity in frontier.items():
                    for j in ctx.forward_reach(element, step):
                        target = cand_elems[j]
                        if target == element:
                            continue
                        if ctx.filters_ok(target, filters):
                            grown[target] = grown.get(target, 0) + multiplicity
        frontier = grown
    return sum(frontier.values())
