"""Physical operators executing a :class:`PhysicalPlan`.

Two evaluators, one per endpoint:

* :func:`run_ranked` (``evaluate``) reduces the positions the plan
  reaches backward from its seed to sets (the cover's ``ancestors``
  side, or one parent-pointer hop), enumerates bindings left to right
  in rank order — forward joins probe the ``descendants`` side in
  ``FORWARD_BLOCK`` blocks — and prunes every partial whose score can
  no longer enter the top ``k``;
* :func:`run_count` (``count``) is the aggregated counting path: the
  number of full bindings through an element depends only on that
  element, so a purely forward (or purely backward) plan aggregates
  ``element → multiplicity`` per frontier instead of materialising
  tuples — the reason :func:`~repro.query.planner.plan_query` plans
  counts ``directional``. An empty frontier ends it early.

All per-execution memo state (forward probe answers, ``ancestors``
materialisations, predicate verdicts) lives in one :class:`ExecContext`
so a single query never repeats a probe, while nothing leaks across
epochs. Every forward probe is a frontier block — Section 3.4's
``LOUT ⋈ LIN`` join of a set of sources against a step's whole
candidate list: descendant joins send ``FORWARD_BLOCK`` sources at a
time, counting sends the whole frontier, and a ``[//tag]`` predicate
check sends its one source. A block goes to ``index.intersect_many``,
or to the engine's ``probe`` substitute (see
:class:`~repro.query.engine.Probe`): its ``many`` answers blocks, and
its optional ``backward`` lets the serving tier cache ``ancestors``-side
materialisations across queries. Backward probes are blocks too:
counting sends its whole backward frontier, the semi-join reduction
each position's survivors, and a single lookup a block of one.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.query.pathexpr import Predicate, Step
from repro.query.planner import FORWARD_BLOCK, PhysicalPlan
from repro.xmlmodel.model import ElementId

Binding = Tuple[ElementId, ...]


class ExecContext:
    """Per-execution state shared by all operators of one run.

    Args:
        engine: the owning :class:`~repro.query.engine.QueryEngine`
            (supplies candidate lists/maps and the parent maps).
        index: the HOPI index to probe (an explicit epoch's index when
            the service layer runs the pipeline).
        probe: optional probe substitute (the serving tier's per-epoch
            probe cache); ``None`` probes the index directly.
    """

    def __init__(self, engine, index, probe=None) -> None:
        self.engine = engine
        self.index = index
        self.probe = probe
        self.elements = engine.collection.elements
        # probe memos, per step key: element → its answer
        self._forward: Dict[Tuple[str, bool], Dict[ElementId, List[int]]] = {}
        self._backward: Dict[Tuple[str, bool], Dict[ElementId, List[ElementId]]] = {}
        self._verdicts: Dict[Tuple[Predicate, ElementId], bool] = {}

    # -- probes ---------------------------------------------------------
    def forward_reach(self, source: ElementId, step: Step) -> List[int]:
        """Indices into ``step``'s candidate list reachable from
        ``source``, memoized; a miss is probed as a block of one."""
        rows = self._forward.get((step.tag, step.similar))
        row = rows.get(source) if rows is not None else None
        if row is None:
            row = self.prefetch_forward((source,), step)[source]
        return row

    def prefetch_forward(
        self, sources: Iterable[ElementId], step: Step
    ) -> Dict[ElementId, List[int]]:
        """Fill the forward memo for a whole block of sources in one
        batched probe: ``probe.many`` when a probe substitute is set
        (the serving tier's per-epoch cache answers hits and computes
        the misses in one ``intersect_many``), else
        ``index.intersect_many`` directly — either way the candidates
        are grouped by center once for the whole block. Returns the
        step's memo, which then holds every source.
        """
        key = (step.tag, step.similar)
        rows = self._forward.setdefault(key, {})
        missing = [s for s in dict.fromkeys(sources) if s not in rows]
        if missing:
            cand_elems = self.engine._candidate_elems(step)
            if self.probe is not None:
                rows.update(self.probe.many(missing, key, cand_elems))
            else:
                rows.update(
                    zip(missing, self.index.intersect_many(missing, cand_elems))
                )
        return rows

    def backward_reach(self, target: ElementId, step: Step) -> List[ElementId]:
        """Candidates of ``step`` that *reach* ``target`` — the
        ``ancestors``-side probe, memoized; a miss is probed as a block
        of one."""
        rows = self._backward.get((step.tag, step.similar))
        row = rows.get(target) if rows is not None else None
        if row is None:
            row = self.prefetch_backward((target,), step)[target]
        return row

    def prefetch_backward(
        self, targets: Iterable[ElementId], step: Step
    ) -> Dict[ElementId, List[ElementId]]:
        """Fill the backward memo for a whole block of targets: one
        ``ancestors`` materialisation per target, intersected with
        ``step``'s candidates and sorted for determinism. Only that
        intersection is kept — the raw ancestor set is transient — so,
        like the forward memo, memory stays bounded by true positives.
        With a probe substitute that defines ``backward``, the block
        goes through it, so the serving tier answers cached targets
        and computes only the misses. Returns the step's memo."""
        key = (step.tag, step.similar)
        rows = self._backward.setdefault(key, {})
        missing = [t for t in dict.fromkeys(targets) if t not in rows]
        if not missing:
            return rows

        def compute(block: List[ElementId]) -> List[List[ElementId]]:
            cmap = self.engine._candidate_map(step)
            found = []
            for target in block:
                ancestors: Set[ElementId] = self.index.ancestors(target)
                if len(cmap) < len(ancestors):
                    found.append(sorted(e for e in cmap if e in ancestors))
                else:
                    found.append(sorted(e for e in ancestors if e in cmap))
            return found

        backward = getattr(self.probe, "backward", None)
        if backward is not None:
            rows.update(backward(missing, key, compute))
        else:
            rows.update(zip(missing, compute(missing)))
        return rows

    def sample_first_join(self, plan: PhysicalPlan) -> Tuple[int, int]:
        """``(heads, hits)`` for the planner's window term: the first
        ``FORWARD_BLOCK`` admitted heads of a plan seeded at 0, in rank
        order, and how many admitted candidates of step 1 they join to.
        The block is probed as :func:`run_ranked` probes its first
        one, so a run in this context finds the answers memoised."""
        heads = list(itertools.islice(_scan(self, plan, 0), FORWARD_BLOCK))
        step = plan.expr.steps[1]
        if step.axis == "descendant":
            self.prefetch_forward(heads, step)
        admits = _gate(self, plan, 1)
        hits = sum(
            1 for head in heads
            for element in _successors(self, plan, 1, head)
            if admits is None or admits(element)
        )
        return len(heads), hits

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
# admission and joins shared by both evaluators
# ---------------------------------------------------------------------------


def _gate(
    ctx: ExecContext, plan: PhysicalPlan, position: int
) -> Optional[Callable[[ElementId], bool]]:
    """The admission test of one step position, or ``None`` when every
    candidate passes: the absolute-path anchor (position 0 only), then
    the position's ``[predicate]`` filters."""
    filters = plan.expr.steps[position].predicates
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
    """The admitted candidates of ``position``, in rank order (lazily
    admitted)."""
    admits = _gate(ctx, plan, position)
    elements = ctx.engine._candidate_elems(plan.expr.steps[position])
    return iter(elements) if admits is None else filter(admits, elements)


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
        if steps[position + 1].axis == "descendant":
            # the whole position is known up front: one batched probe
            allowed = list(allowed)
            ctx.prefetch_backward(allowed, steps[position])
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

    Identical to scoring every full binding in the canonical
    left-to-right association — ``((t0·t1)·h1)·t2…`` of tag scores
    ``t`` and, on a distance-aware index, descendant-hop discounts
    ``h = 1 / (1 + distance)`` — and keeping the ``k`` smallest
    ``(-score, bindings)``, for any seed position (pinned against the
    frozen legacy evaluator in the tests) — but it builds only the
    bindings that can still get there:

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
       and a prefix sorts before all its extensions. A head is its own
       binding and its score is its tag score, so heads in rank order
       rise in ``(-s, binding)``: the first head dropped ends the walk.
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
                if not position:
                    return  # heads: (-score, id) rises, so all sort after
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
            # the whole frontier is known up front: one batched probe
            prefetch = ctx.prefetch_backward if backward else ctx.prefetch_forward
            reach = prefetch(frontier, step)
            if op is plan.ops[-1] and admits is None:
                cmap = ctx.engine._candidate_map(step)
                return sum(
                    multiplicity * (len(reach[element]) - (element in cmap))
                    for element, multiplicity in frontier.items()
                )
        grown: Dict[ElementId, int] = {}
        for element, multiplicity in frontier.items():
            for other in joined(ctx, plan, position, element):
                if admits is None or admits(other):
                    grown[other] = grown.get(other, 0) + multiplicity
        frontier = grown
    return sum(frontier.values())
