"""Evaluating path expressions with the HOPI index.

The engine is a thin facade over the three-layer query stack::

    AST (pathexpr) → logical plan (plan) → physical plan (planner)
                                         → operators (exec)

:meth:`QueryEngine.evaluate` parses, plans and runs the ranked top-k
enumerator (:func:`repro.query.exec.run_ranked`): scores combine tag
similarities multiplicatively and, when the index is distance-aware,
each descendant hop is discounted by ``1 / (1 + distance)`` — "a path
where an author element is found far away from a book element should
be ranked lower" (Section 5.1). Scores are accumulated in canonical
left-to-right association, so every join order the planner picks is
**bit-identical** to the legacy left-to-right evaluator (pinned by the
differential suite in ``tests/test_query_pipeline.py``), and only the
bindings that can still reach the requested window are ever built.

What the planner buys: a ``//*//rare_tag`` query no longer materialises
one binding per element of the unselective head — the pipeline seeds at
the rare tail and probes *backward* over the cover's ``ancestors``
side. ``count`` aggregates ``element → multiplicity`` frontiers (never
materialising tuples), ``exists`` stops at the first match, and
``stream`` yields unranked results lazily, honouring the expression's
``limit`` without draining the pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.hopi import HopiIndex
from repro.query.exec import ExecContext, run_bindings, run_count, run_ranked
from repro.query.ontology import TagOntology, default_ontology
from repro.query.pathexpr import PathExpression, Step
from repro.query.plan import LogicalPlan, build_logical_plan
from repro.query.planner import PhysicalPlan, PreparedQuery, plan_query
from repro.xmlmodel.model import ElementId

#: Anything the engine's entry points accept as a query: raw text, a
#: parsed expression, a lowered logical plan, or a prepared query
#: (whose cached lowering is reused — the service layer's hot path).
Query = "str | PathExpression | LogicalPlan | PreparedQuery"

#: Identity of a step's candidate list: ``(tag, similar)``. Two steps
#: with the same key select the same candidates (wildcards use ``"*"``),
#: which is what makes candidate memoization and cross-query probe
#: caching sound.
StepKey = Tuple[str, bool]

#: A descendant-step probe: ``probe(source, step_key, candidates)``
#: returns the indices into ``candidates`` reachable from ``source``.
#: The default computes via ``index.connected_many``; the service layer
#: substitutes a per-epoch, cross-thread coalescing cache. A probe
#: *object* may additionally expose two optional hooks the executor
#: feature-detects: ``probe.many(sources, step_key, candidates)``
#: returning ``{source: [indices]}`` for a whole frontier block (backed
#: by ``index.intersect_many``), and ``probe.backward(target, step_key,
#: compute)`` caching backward (``ancestors``-side) materialisations —
#: plain callables keep the legacy one-source-per-call behaviour.
Probe = Callable[[ElementId, StepKey, Sequence[ElementId]], List[int]]


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
            the expression's own ``offset``/``limit`` window).
        planner: default join-ordering mode — ``"selective"``
            (cardinality-driven, may flip descendant joins backward)
            or ``"naive"`` (legacy left-to-right). Either mode returns
            bit-identical results.
    """

    def __init__(
        self,
        index: HopiIndex,
        *,
        ontology: Optional[TagOntology] = None,
        similarity_threshold: float = 0.3,
        max_results: int = 1000,
        planner: str = "selective",
    ) -> None:
        self.index = index
        self.collection = index.collection
        self.ontology = ontology or default_ontology()
        self.similarity_threshold = similarity_threshold
        self.max_results = max_results
        self.planner = planner
        self._tag_index: Dict[str, List[ElementId]] = self.collection.tags()
        # per-(tag, similar) memos; concurrent fills of the same key
        # compute the same value, so the races are benign under the GIL
        self._candidate_memo: Dict[StepKey, List[Tuple[ElementId, float]]] = {}
        self._candidate_map_memo: Dict[StepKey, Dict[ElementId, float]] = {}
        self._candidate_elems_memo: Dict[StepKey, Tuple[ElementId, ...]] = {}
        self._parent_map_memo: Dict[StepKey, Dict[ElementId, List[ElementId]]] = {}
        self._anchored_count_memo: Dict[StepKey, int] = {}

    def refresh(self) -> None:
        """Re-read the tag index from the collection (which keeps it up
        to date, so this costs O(tags)) and drop every derived memo
        after collection maintenance."""
        self._tag_index = self.collection.tags()
        self._candidate_memo = {}
        self._candidate_map_memo = {}
        self._candidate_elems_memo = {}
        self._parent_map_memo = {}
        self._anchored_count_memo = {}

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
        candidate list once per :meth:`refresh` generation. Callers must
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
        id translation by object identity only for tuples (immutable,
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
    # probes and scoring
    # ------------------------------------------------------------------
    def _hop_score(self, index: HopiIndex, u: ElementId, v: ElementId) -> float:
        """Distance discount of a descendant hop (1.0 without distances)."""
        if not index.is_distance_aware:
            return 1.0
        dist = index.distance(u, v)
        if dist is None:  # pragma: no cover - guarded by connected()
            return 0.0
        return 1.0 / (1.0 + dist)

    def _reachable(
        self,
        index: HopiIndex,
        probe: Optional[Probe],
        source: ElementId,
        step_key: StepKey,
        cand_elems: Sequence[ElementId],
    ) -> List[int]:
        """Indices of ``cand_elems`` reachable from ``source``."""
        if probe is not None:
            return probe(source, step_key, cand_elems)
        flags = index.connected_many(source, cand_elems)
        return [i for i, ok in enumerate(flags) if ok]

    def _score_binding(
        self, index: HopiIndex, expr: PathExpression, bindings: Tuple[ElementId, ...]
    ) -> float:
        """The canonical score of one full binding.

        Computed in left-to-right association — ``((t0·t1)·h1)·t2…`` —
        exactly as the legacy evaluator accumulated it, so a result's
        score is bit-identical no matter which join order produced the
        binding. Predicates contribute no score.
        """
        steps = expr.steps
        score = self._candidate_map(steps[0])[bindings[0]]
        for i in range(1, len(steps)):
            step = steps[i]
            score = score * self._candidate_map(step)[bindings[i]]
            if step.axis == "descendant":
                score = score * self._hop_score(index, bindings[i - 1], bindings[i])
        return score

    # ------------------------------------------------------------------
    # planning API
    # ------------------------------------------------------------------
    def _lower(self, path: Query) -> LogicalPlan:
        """Normalise any accepted query form to its logical plan,
        reusing cached lowerings where they exist."""
        if isinstance(path, PreparedQuery):
            return path.logical
        if isinstance(path, LogicalPlan):
            return path
        return build_logical_plan(path)

    def prepare(self, path: "str | PathExpression") -> PreparedQuery:
        """Parse and lower once; re-plan cheaply per epoch via
        :meth:`PreparedQuery.bind`."""
        return PreparedQuery(path)

    @property
    def cost_model(self):
        """The index's per-direction probe cost model (what
        :func:`~repro.query.planner.plan_query` weighs direction and
        seed decisions with). Sourced from ``index.probe_costs`` —
        the static constants unless the index was calibrated."""
        return getattr(self.index, "probe_costs", None)

    def plan(
        self,
        path: Query,
        *,
        order: Optional[str] = None,
        directional: bool = False,
    ) -> PhysicalPlan:
        """The physical plan :meth:`evaluate` would run for ``path``
        (``directional=True`` shows the endpoint-seeded plan
        :meth:`count` would run instead)."""
        return plan_query(
            self._lower(path), self, order=order or self.planner,
            directional=directional,
        )

    def explain(
        self,
        path: Query,
        *,
        order: Optional[str] = None,
        mode: str = "evaluate",
    ) -> str:
        """Human-readable plan rendering (``repro query --explain``).

        ``mode`` selects which execution profile the ``exec:`` line
        describes (``"evaluate"``, ``"stream"``, ``"count"``,
        ``"exists"``); ``count`` renders the directional plan that the
        counting path actually runs.
        """
        return self.plan(
            path, order=order, directional=(mode == "count"),
        ).explain(mode)

    # ------------------------------------------------------------------
    # evaluation API
    # ------------------------------------------------------------------
    def _pipeline(
        self,
        path: Query,
        index: Optional[HopiIndex],
        probe: Optional[Probe],
        order: Optional[str],
        *,
        directional: bool = False,
    ) -> Tuple[LogicalPlan, PhysicalPlan, ExecContext, HopiIndex]:
        """The shared entry-point preamble: lower, plan, build the
        execution context. Every public evaluation method goes through
        this, so planning defaults can never silently diverge."""
        index = index or self.index
        logical = self._lower(path)
        plan = plan_query(
            logical, self, order=order or self.planner,
            directional=directional,
        )
        return logical, plan, ExecContext(self, index, probe), index

    def evaluate(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
        order: Optional[str] = None,
    ) -> List[QueryResult]:
        """Evaluate a path expression, returning ranked results.

        Args:
            path: a path string (parsed on the fly), a pre-parsed
                :class:`PathExpression`, or a :class:`PreparedQuery` /
                :class:`~repro.query.plan.LogicalPlan` (cached lowering
                reused).
            index: evaluate against this index instead of the engine's
                own (must cover the same collection — e.g. the
                published epoch of a service).
            probe: substitute descendant-step probe (see :data:`Probe`);
                lets a serving tier cache/coalesce probes across
                concurrent queries.
            order: override the engine's planner mode for this call.

        Returns:
            Results sorted by descending score (ties broken by element
            ids for determinism), windowed by the expression's
            ``offset``/``limit``, truncated to ``max_results``.
        """
        logical, plan, ctx, _ = self._pipeline(path, index, probe, order)
        window = logical.window
        offset = 0 if window is None else window.offset
        limit = self.max_results
        if window is not None and window.limit is not None:
            limit = window.limit
        # one ranked path: an unwindowed call is the window
        # ``limit max_results`` (it was always truncated there)
        top = run_ranked(plan, ctx, offset + limit)
        return [
            QueryResult(bindings, -neg)
            for neg, bindings in top[offset:][: self.max_results]
        ]

    def stream(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
        order: Optional[str] = None,
    ) -> Iterator[QueryResult]:
        """Yield matches lazily, **unranked** (pipeline order).

        The expression's ``limit`` caps the stream — the pipeline stops
        as soon as it is filled, the early-termination path for "give
        me any N matches". ``offset`` is **ignored** here: windows are
        defined over the *ranked* list (see :mod:`repro.query.pathexpr`)
        and the pipeline order is planner-dependent, so skipping the
        first N streamed matches would discard an arbitrary subset that
        corresponds to no meaningful page — use :meth:`evaluate` for
        ranked pagination.
        """
        logical, plan, ctx, index = self._pipeline(path, index, probe, order)
        expr = logical.expr
        bindings = run_bindings(plan, ctx)
        window = logical.window
        stop = None if window is None else window.limit
        for b in itertools.islice(bindings, stop):
            yield QueryResult(b, self._score_binding(index, expr, b))

    def exists(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
        order: Optional[str] = None,
    ) -> bool:
        """True iff the expression has at least one match.

        Consumes exactly one binding from the pipeline (the window is
        ignored — existence is a property of the match set).
        """
        _, plan, ctx, _ = self._pipeline(path, index, probe, order)
        return next(iter(run_bindings(plan, ctx)), None) is not None

    def count(
        self,
        path: Query,
        *,
        index: Optional[HopiIndex] = None,
        probe: Optional[Probe] = None,
        order: Optional[str] = None,
    ) -> int:
        """The total number of matches, without ranking.

        Unlike ``len(evaluate(path))`` this skips scoring, sorting and
        the ``max_results`` truncation, and never materialises binding
        tuples: the number of full bindings ending at an element depends
        only on that element, so partial results aggregate to
        ``element -> count`` — one integer per distinct frontier
        element. The planner restricts counting plans to a pure
        direction (forward or backward, whichever end is more
        selective); the expression's ``offset``/``limit`` window is
        ignored — the count is a property of the match set.
        """
        _, plan, ctx, _ = self._pipeline(
            path, index, probe, order, directional=True
        )
        return run_count(plan, ctx)
