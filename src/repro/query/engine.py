"""Evaluating path expressions with the HOPI index.

The engine is a thin facade over the query stack::

    AST (pathexpr) → physical plan (planner) → operators (exec)

Each endpoint has one evaluation path. :meth:`QueryEngine.evaluate`
parses, plans and runs the ranked top-k enumerator
(:func:`repro.query.exec.run_ranked`): scores combine tag similarities
multiplicatively and, when the index is distance-aware, each
descendant hop is discounted by ``1 / (1 + distance)`` — "a path where
an author element is found far away from a book element should be
ranked lower" (Section 5.1). Scores are accumulated in canonical
left-to-right association, so every join order the planner picks is
**bit-identical** to the legacy left-to-right evaluator (pinned by the
differential suite in ``tests/test_query_pipeline.py``), and only the
bindings that can still reach the requested window are ever built.
:meth:`QueryEngine.count` runs the frontier aggregation
(:func:`repro.query.exec.run_count`) over a directional plan and never
materialises a tuple.

What the planner buys: a ``//*//rare_tag`` query no longer materialises
one binding per element of the unselective head — the plan seeds at
the rare tail and probes *backward* over the cover's ``ancestors``
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.hopi import HopiIndex
from repro.query.exec import ExecContext, run_count, run_ranked
from repro.query.ontology import TagOntology, default_ontology
from repro.query.pathexpr import PathExpression, Step, parse_path
from repro.query.planner import PhysicalPlan, PreparedQuery, plan_query
from repro.xmlmodel.model import ElementId

#: Anything the engine's entry points accept as a query: raw text, a
#: parsed expression, or a prepared query (whose parsed expression is
#: reused — the service layer's hot path).
Query = "str | PathExpression | PreparedQuery"

#: Identity of a step's candidate list: ``(tag, similar)``. Two steps
#: with the same key select the same candidates (wildcards use ``"*"``),
#: which is what makes candidate memoization and cross-query probe
#: caching sound.
StepKey = Tuple[str, bool]

class Probe(Protocol):
    """A descendant-step probe substitute (the ``probe=`` argument of
    :meth:`QueryEngine.evaluate` / :meth:`QueryEngine.count`).

    ``many(sources, step_key, candidates)`` answers a frontier block:
    ``{source: sorted indices into candidates it reaches}`` for every
    source, as ``index.intersect_many`` computes them. It is the only
    forward shape the executor sends. A probe may also define
    ``backward(targets, step_key, compute)``, the backward block:
    ``{target: candidates that reach it}`` for every target, as
    ``compute(targets)`` would return them in target order (it may
    pass ``compute`` only the targets it does not hold). The service
    layer's per-epoch probe cache implements both.
    """

    def many(
        self, sources: Sequence[ElementId], step_key: StepKey,
        candidates: Sequence[ElementId],
    ) -> Dict[ElementId, List[int]]: ...


@dataclass(frozen=True)
class QueryResult:
    """One ranked match of a path expression.

    Attributes:
        bindings: one element per step, in step order.
        score: combined tag-similarity and distance score in ``(0, 1]``.
    """

    bindings: Tuple[ElementId, ...]
    score: float

    @property
    def target(self) -> ElementId:
        """The element bound to the last step (the query answer)."""
        return self.bindings[-1]


class QueryEngine:
    """Path-expression evaluation over a :class:`HopiIndex`.

    Evaluation is **re-entrant**: :meth:`evaluate` and :meth:`count`
    mutate no instance state beyond benign memo fills, so one engine
    can serve many threads at once — the service layer keeps a single
    engine per published index epoch and lets every reader share its
    tag index and candidate memos. Both methods also take an explicit
    ``index`` so pooled engines (e.g. one per published epoch over the
    same collection) can share one engine's derived state.

    Args:
        index: the index to evaluate against by default.
        ontology: tag ontology for ``~tag`` steps.
        similarity_threshold: minimum ontology similarity for a tag to
            join a ``~tag`` candidate list.
        max_results: ranked-result truncation per query (applied after
            the expression's own ``offset``/``limit`` window), at
            least 1.
        previous: the engine of the generation this index was forked
            from; its candidate memos are adopted where they still hold
            (see :meth:`_adopt`).
    """

    #: the per-step-key memos, all derived from one candidate list
    _MEMOS = (
        "_candidate_memo", "_candidate_map_memo", "_candidate_elems_memo",
        "_parent_map_memo", "_anchored_count_memo",
    )

    def __init__(
        self,
        index: HopiIndex,
        *,
        ontology: Optional[TagOntology] = None,
        similarity_threshold: float = 0.3,
        max_results: int = 1000,
        previous: Optional["QueryEngine"] = None,
    ) -> None:
        if max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {max_results}")
        self.index = index
        self.collection = index.collection
        self.ontology = ontology or default_ontology()
        self.similarity_threshold = similarity_threshold
        self.max_results = max_results
        self._tag_index: Dict[str, List[ElementId]] = self.collection.tags()
        # per-(tag, similar) memos; concurrent fills of the same key
        # compute the same value, so the races are benign under the GIL
        self._candidate_memo: Dict[StepKey, List[Tuple[ElementId, float]]] = {}
        self._candidate_map_memo: Dict[StepKey, Dict[ElementId, float]] = {}
        self._candidate_elems_memo: Dict[StepKey, Tuple[ElementId, ...]] = {}
        self._parent_map_memo: Dict[StepKey, Dict[ElementId, List[ElementId]]] = {}
        self._anchored_count_memo: Dict[StepKey, int] = {}
        if previous is not None:
            self._adopt(previous)

    def _adopt(self, previous: "QueryEngine") -> None:
        """Take over ``previous``'s memos for every step key whose
        candidates cannot have changed.

        :meth:`Collection.tags() <repro.xmlmodel.model.Collection.tags>`
        hands out lists that later maintenance never mutates in place
        (a change copies the list first), so a tag list that is the
        same *object* in both tag indexes holds the same ids; and an
        element's tag and parent never change, so every memo derived
        from those ids — candidates, elements, map, parent map,
        anchored count — still holds. A ``(tag, False)`` key is adopted
        when its tag's list is the same object; ``*`` and ``~tag`` keys
        read several lists and the tag set, so only when every list is
        the same object and no tag came or went. Empty candidate lists
        are not carried over (they cost nothing to recompute, and this
        keeps what is carried bounded by the collection's tags). Nothing
        is adopted across a different ontology or threshold.
        """
        if (
            previous.ontology is not self.ontology
            or previous.similarity_threshold != self.similarity_threshold
        ):
            return
        old, new = previous._tag_index, self._tag_index
        unchanged = old.keys() == new.keys() and all(
            ids is old[tag] for tag, ids in new.items()
        )
        # one atomic C-level copy each: readers of the previous epoch
        # may still be filling these dicts
        theirs = {name: getattr(previous, name).copy() for name in self._MEMOS}
        kept = [
            key for key, candidates in theirs["_candidate_memo"].items()
            if candidates and (
                unchanged if key[0] == "*" or key[1]
                else new.get(key[0]) is old.get(key[0])
            )
        ]
        for name, memo in theirs.items():
            mine = getattr(self, name)
            for key in kept:
                if key in memo:
                    mine[key] = memo[key]

    # ------------------------------------------------------------------
    # derived candidate state (shared by planner and operators)
    # ------------------------------------------------------------------
    def _candidates(self, step: Step) -> List[Tuple[ElementId, float]]:
        """Elements matching a step's element test with their tag score,
        in rank order ``(-score, element id)`` — every list the
        operators derive from this one (probe answers, parent maps)
        inherits the order the ranked enumerator walks in.

        Memoized per ``(tag, similar)``: a path like ``//a//b//a`` (or a
        workload of many queries sharing element tests) computes each
        candidate list once per engine — and the service builds one
        engine per published epoch, so no memo outlives the collection
        state it was computed from. Callers must
        not mutate the returned list. ``[predicate]`` filters are *not*
        applied here — they are per-element and evaluated lazily by the
        operators, so the memo stays shareable across queries.
        """
        key: StepKey = (step.tag, step.similar)
        memo = self._candidate_memo.get(key)
        if memo is not None:
            return memo
        if step.tag == "*":
            matches = [
                (e, 1.0) for e in sorted(
                    e for ids in self._tag_index.values() for e in ids
                )
            ]
        elif not step.similar:
            # the tag index lists ids ascending
            matches = [(e, 1.0) for e in self._tag_index.get(step.tag, [])]
        else:
            matches = []
            for tag, score in self.ontology.similar_tags(
                step.tag, self._tag_index.keys(), threshold=self.similarity_threshold
            ):
                matches.extend((e, score) for e in self._tag_index[tag])
            matches.sort(key=lambda match: (-match[1], match[0]))
        self._candidate_memo[key] = matches
        return matches

    def _candidate_elems(self, step: Step) -> Tuple[ElementId, ...]:
        """Just the elements of :meth:`_candidates` (probe batch shape).

        A memoised **tuple**: the cover caches a candidate sequence's
        center map by object identity only for tuples (immutable,
        so identity implies equal content), and this one object is what
        every probe of the step passes down."""
        key: StepKey = (step.tag, step.similar)
        memo = self._candidate_elems_memo.get(key)
        if memo is None:
            memo = tuple(e for e, _ in self._candidates(step))
            self._candidate_elems_memo[key] = memo
        return memo

    def _candidate_map(self, step: Step) -> Dict[ElementId, float]:
        """``element → tag score`` for a step (membership tests and
        scoring; each element appears in at most one similar tag list,
        so the mapping is unambiguous)."""
        key: StepKey = (step.tag, step.similar)
        memo = self._candidate_map_memo.get(key)
        if memo is None:
            memo = dict(self._candidates(step))
            self._candidate_map_memo[key] = memo
        return memo

    def _parent_map(self, step: Step) -> Dict[ElementId, List[ElementId]]:
        """``parent → candidate children`` for a child step/predicate."""
        key: StepKey = (step.tag, step.similar)
        memo = self._parent_map_memo.get(key)
        if memo is None:
            memo = {}
            for e, _score in self._candidates(step):
                parent = self.collection.elements[e].parent
                if parent is not None:
                    memo.setdefault(parent, []).append(e)
            self._parent_map_memo[key] = memo
        return memo

    def _anchored_count(self, step: Step) -> int:
        """How many of a step's candidates are document roots (the
        planner's cardinality estimate for an anchored position 0)."""
        key: StepKey = (step.tag, step.similar)
        memo = self._anchored_count_memo.get(key)
        if memo is None:
            elements = self.collection.elements
            memo = sum(
                1 for e, _ in self._candidates(step)
                if elements[e].parent is None
            )
            self._anchored_count_memo[key] = memo
        return memo

    # ------------------------------------------------------------------
    # planning API
    # ------------------------------------------------------------------
    def _lower(self, path: Query) -> PathExpression:
        """The parsed expression of any accepted query form: parse a
        string, unwrap a prepared query."""
        if isinstance(path, PreparedQuery):
            return path.expr
        return parse_path(path) if isinstance(path, str) else path

    def context(
        self, index: Optional[HopiIndex] = None, probe: Optional[Probe] = None
    ) -> ExecContext:
        """A fresh execution context over ``index`` (default: the
        engine's own), probing through ``probe`` when one is given."""
        return ExecContext(self, index or self.index, probe)

    def plan(self, path: Query, *, directional: bool = False) -> PhysicalPlan:
        """The physical plan :meth:`evaluate` would run for ``path``
        (``directional=True`` shows the endpoint-seeded plan
        :meth:`count` would run instead)."""
        return plan_query(self._lower(path), self, directional=directional)

    def explain(self, path: Query, *, mode: str = "evaluate") -> str:
        """Human-readable plan rendering (``repro query --explain``).

        ``mode`` is the endpoint whose plan and execution profile the
        rendering shows: ``"evaluate"`` or ``"count"`` (the directional
        plan the counting path runs).
        """
        return self.plan(path, directional=(mode == "count")).explain(mode)

    # ------------------------------------------------------------------
    # evaluation API
    # ------------------------------------------------------------------
    def _pipeline(
        self,
        path: Query,
        index: Optional[HopiIndex],
        probe: Optional[Probe],
        *,
        directional: bool = False,
    ) -> Tuple[PhysicalPlan, ExecContext]:
        """The shared entry-point preamble: parse, build the execution
        context, plan in it (the window term's sample lands in its
        memo)."""
        ctx = self.context(index, probe)
        plan = plan_query(
            self._lower(path), self, directional=directional, ctx=ctx
        )
        return plan, ctx

    def evaluate(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
    ) -> List[QueryResult]:
        """Evaluate a path expression, returning ranked results.

        Args:
            path: a path string (parsed on the fly), a pre-parsed
                :class:`PathExpression`, or a :class:`PreparedQuery`
                (its parsed expression reused).
            index: evaluate against this index instead of the engine's
                own (must cover the same collection — e.g. the
                published epoch of a service).
            probe: substitute descendant-step probe (see :class:`Probe`);
                lets a serving tier cache probes across queries.

        Returns:
            Results sorted by descending score (ties broken by element
            ids for determinism), windowed by the expression's
            ``offset``/``limit``, truncated to ``max_results``.
        """
        plan, ctx = self._pipeline(path, index, probe)
        offset = plan.expr.offset
        limit = self.max_results
        if plan.expr.limit is not None:
            limit = plan.expr.limit
        # one ranked path: an unwindowed call is the window
        # ``limit max_results`` (it was always truncated there)
        top = run_ranked(plan, ctx, offset + limit)
        return [
            QueryResult(bindings, -neg)
            for neg, bindings in top[offset:][: self.max_results]
        ]

    def count(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
    ) -> int:
        """The total number of matches, without ranking.

        Unlike ``len(evaluate(path))`` this skips scoring, sorting and
        the ``max_results`` truncation, and never materialises binding
        tuples: the number of full bindings ending at an element depends
        only on that element, so partial results aggregate to
        ``element -> count`` — one integer per distinct frontier
        element. The planner restricts counting plans to a pure
        direction (forward or backward, whichever end the modeled probe
        cost favours); the expression's ``offset``/``limit`` window is
        ignored — the count is a property of the match set.
        """
        plan, ctx = self._pipeline(path, index, probe, directional=True)
        return run_count(plan, ctx)
