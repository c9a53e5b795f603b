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

An engine answers for one index, and the service builds one engine per
published epoch, so the engine is where everything derived from the
index is kept — the cover keeps nothing. Per step key it holds one
:class:`StepMemo` (the candidates, what is derived from them and the
cover's center map for them) and the probe answers every execution
reads and fills (see :data:`PROBE_MEMO_BOUND`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.cover import Basis, CenterMap
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
#: which is what makes candidate and probe memoization sound.
StepKey = Tuple[str, bool]

#: The most probe answers (forward and backward together) an engine
#: keeps. A block that takes the memos past it drops them whole.
PROBE_MEMO_BOUND = 8192


class Probe(Protocol):
    """A forward probe substitute (the ``probe=`` argument of
    :meth:`QueryEngine.evaluate` / :meth:`QueryEngine.count`), asked
    only for the sources the engine's probe memo does not hold.

    ``many(sources, step_key, candidates)`` answers a frontier block:
    ``{source: sorted indices into candidates it reaches}`` for every
    source, as ``index.intersect_many`` computes them; its answers go
    into the memo. The seam stays only for ``perf/wl_read.py``'s
    ``_CountingProbe``, which counts the candidates a read sends.
    """

    def many(
        self, sources: Sequence[ElementId], step_key: StepKey,
        candidates: Sequence[ElementId],
    ) -> Dict[ElementId, List[int]]: ...


class StepMemo:
    """What an engine derives from one step key's candidate list.

    ``candidates`` are ``(element, tag score)`` pairs in rank order
    ``(-score, element id)`` and ``elems`` their elements (a tuple: the
    probe batch shape), both made with the record; :meth:`scores`,
    :meth:`parents` and :meth:`anchored` are made on first use. None
    changes once made, so readers share them without a lock.

    ``center_map`` is the cover's ``(groups, basis)`` for ``elems``
    (:meth:`~repro.core.cover.TwoHopCover.center_map`), set by this
    engine's first forward probe of the step. ``carried`` is one an
    earlier epoch's engine used, which that first probe reuses if its
    basis still holds here.
    """

    __slots__ = (
        "candidates", "elems", "_scores", "_parents", "_anchored",
        "center_map", "carried",
    )

    def __init__(self, candidates: List[Tuple[ElementId, float]]) -> None:
        self.candidates = candidates
        self.elems: Tuple[ElementId, ...] = tuple(e for e, _ in candidates)
        self._scores: Optional[Dict[ElementId, float]] = None
        self._parents: Optional[Dict[ElementId, List[ElementId]]] = None
        self._anchored: Optional[int] = None
        self.center_map: Optional[Tuple[CenterMap, Basis]] = None
        self.carried: Optional[Tuple[CenterMap, Basis]] = None

    def scores(self) -> Dict[ElementId, float]:
        """``element → tag score`` (each element is in at most one
        similar tag list, so it is unambiguous)."""
        if self._scores is None:
            self._scores = dict(self.candidates)
        return self._scores

    def parents(self, elements) -> Dict[ElementId, List[ElementId]]:
        """``parent → candidate children`` in rank order, the parents
        read from ``elements`` (the collection's element table)."""
        if self._parents is None:
            parents: Dict[ElementId, List[ElementId]] = {}
            for e in self.elems:
                parent = elements[e].parent
                if parent is not None:
                    parents.setdefault(parent, []).append(e)
            self._parents = parents
        return self._parents

    def anchored(self, elements) -> int:
        """How many candidates are document roots (the planner's
        estimate for an anchored position 0)."""
        if self._anchored is None:
            self._anchored = sum(1 for e in self.elems if elements[e].parent is None)
        return self._anchored

    def carry(self, used: bool) -> "StepMemo":
        """This record for the next epoch's engine: the same derived
        state, carrying the center map this engine used or, when this
        engine ``used`` no map at all, the one it carried."""
        memo = StepMemo.__new__(StepMemo)
        memo.candidates, memo.elems = self.candidates, self.elems
        memo._scores, memo._parents = self._scores, self._parents
        memo._anchored, memo.center_map = self._anchored, None
        memo.carried = self.center_map if used else self.carried
        return memo


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
    tag index, step memos and probe memos. Two readers that make one
    step's record or center map at once make equal ones; one of each
    is kept.

    The probe memos map a step key to ``{element → answer}``, forward
    (indices into the step's candidate tuple that the element reaches)
    and backward (the candidates that reach it). Lookups and fills are
    plain dict operations with no lock: two readers that miss one
    element at once both compute it, to the same answer. One lock
    guards only the per-block counters (:meth:`probe_stats`) and the
    drop at :data:`PROBE_MEMO_BOUND`, which rebinds fresh dicts and
    never clears one in place — a running query may still hold it.

    Args:
        index: the index every query is answered over.
        ontology: tag ontology for ``~tag`` steps.
        similarity_threshold: minimum ontology similarity for a tag to
            join a ``~tag`` candidate list.
        max_results: ranked-result truncation per query (applied after
            the expression's own ``offset``/``limit`` window), at
            least 1.
        previous: the engine of the generation this index was
            ``cow_copy()`` forked from, whose index no longer changes;
            its step memos are adopted where they still hold (see
            :meth:`_adopt`). Probe memos never are: their answers
            depend on the labels, not only on the tag lists.
    """

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
        self._memos: Dict[StepKey, StepMemo] = {}
        # the probe memos, per step key: element → its answer
        self._forward: Dict[StepKey, Dict[ElementId, List[int]]] = {}
        self._backward: Dict[StepKey, Dict[ElementId, List[ElementId]]] = {}
        self._probe_lock = threading.Lock()
        self._probe_size = 0
        self._probe_hits = 0
        self._probe_misses = 0
        self._probe_evictions = 0
        if previous is not None:
            self._adopt(previous)

    def _adopt(self, previous: "QueryEngine") -> None:
        """Take over ``previous``'s step memos for every step key whose
        candidates cannot have changed (:meth:`StepMemo.carry`).

        :meth:`Collection.tags() <repro.xmlmodel.model.Collection.tags>`
        hands out lists that later maintenance never mutates in place
        (a change copies the list first), so a tag list that is the
        same *object* in both tag indexes holds the same ids; and an
        element's tag and parent never change, so every memo derived
        from those ids — candidates, elements, scores, parent map,
        anchored count — still holds. A ``(tag, False)`` key is adopted
        when its tag's list is the same object; ``*`` and ``~tag`` keys
        read several lists and the tag set, so only when every list is
        the same object and no tag came or went. Empty candidate lists
        are not carried over (they cost nothing to recompute, and this
        keeps what is carried bounded by the collection's tags). Nothing
        is adopted across a different ontology or threshold.

        A record carries the center map the previous engine used or, if
        that engine used none (no read between two publishes), the one
        it carried: never both, so what is carried is one generation's
        maps at most, and a map that a generation which probed did not
        use goes no further. :meth:`_reach_many` checks a carried map
        against this engine's cover on first use.
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
        # one atomic C-level copy: readers of the previous epoch may
        # still be filling the dict
        theirs = previous._memos.copy()
        used = any(memo.center_map is not None for memo in theirs.values())
        for key, memo in theirs.items():
            if memo.candidates and (
                unchanged if key[0] == "*" or key[1]
                else new.get(key[0]) is old.get(key[0])
            ):
                self._memos[key] = memo.carry(used)

    def _count_probes(self, hits: int, misses: int) -> None:
        """Count one prefetch block: ``hits`` distinct elements the
        memo answered, ``misses`` it computed. Past
        :data:`PROBE_MEMO_BOUND` both memos are dropped by rebinding."""
        with self._probe_lock:
            self._probe_hits += hits
            self._probe_misses += misses
            self._probe_size += misses
            if self._probe_size > PROBE_MEMO_BOUND:
                self._forward, self._backward = {}, {}
                self._probe_evictions += self._probe_size
                self._probe_size = 0

    def probe_stats(self) -> Dict[str, object]:
        """The probe memos' counters, in the key set of
        :meth:`LRUCache.stats <repro.service.cache.LRUCache.stats>`
        (nothing is computed by single flight, so ``coalesced`` and
        ``inflight`` are 0)."""
        with self._probe_lock:
            hits, misses = self._probe_hits, self._probe_misses
            size, evictions = self._probe_size, self._probe_evictions
        return {
            "size": size,
            "capacity": PROBE_MEMO_BOUND,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / (hits + misses) if hits + misses else None,
            "coalesced": 0,
            "inflight": 0,
        }

    # ------------------------------------------------------------------
    # derived candidate state (shared by planner and operators)
    # ------------------------------------------------------------------
    def _memo(self, step: Step) -> StepMemo:
        """The step key's record, made on first use.

        A path like ``//a//b//a`` (or a workload of many queries sharing
        element tests) makes each record once per engine — and the
        service builds one engine per published epoch, so no record
        outlives the collection state it was made from unless
        :meth:`_adopt` proves it still holds. ``[predicate]`` filters
        are *not* applied here — they are per-element and evaluated
        lazily by the operators, so the record stays shareable across
        queries.
        """
        key: StepKey = (step.tag, step.similar)
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos.setdefault(key, StepMemo(self._match(step)))
        return memo

    def _candidates(self, step: Step) -> List[Tuple[ElementId, float]]:
        """Elements matching a step's element test with their tag score,
        in rank order ``(-score, element id)`` — every list the
        operators derive from this one (probe answers, parent maps)
        inherits the order the ranked enumerator walks in. Callers must
        not mutate the returned list."""
        return self._memo(step).candidates

    def _match(self, step: Step) -> List[Tuple[ElementId, float]]:
        """:meth:`_candidates`, computed from the tag index."""
        if step.tag == "*":
            return [
                (e, 1.0) for e in sorted(
                    e for ids in self._tag_index.values() for e in ids
                )
            ]
        if not step.similar:
            # the tag index lists ids ascending
            return [(e, 1.0) for e in self._tag_index.get(step.tag, [])]
        matches = []
        for tag, score in self.ontology.similar_tags(
            step.tag, self._tag_index.keys(), threshold=self.similarity_threshold
        ):
            matches.extend((e, score) for e in self._tag_index[tag])
        matches.sort(key=lambda match: (-match[1], match[0]))
        return matches

    def _reach_many(
        self, sources: Sequence[ElementId], step: Step
    ) -> List[List[int]]:
        """For each source, the sorted indices into the step's ``elems``
        it reaches: ``index.intersect_many`` with the step's center map
        kept. The engine's first probe of the step reuses the carried
        map if its basis still holds on this cover (checked here, once,
        so publishing never pays for it), and builds one otherwise."""
        memo = self._memo(step)
        cover = self.index.cover
        cmap = memo.center_map
        if cmap is None:
            cmap = memo.carried
            if cmap is None or not cover.basis_holds(cmap[1]):
                cmap = cover.center_map(memo.elems)
            memo.center_map, memo.carried = cmap, None
        return cover.reach_many(cmap[0], sources)

    # ------------------------------------------------------------------
    # planning API
    # ------------------------------------------------------------------
    def _lower(self, path: Query) -> PathExpression:
        """The parsed expression of any accepted query form: parse a
        string, unwrap a prepared query."""
        if isinstance(path, PreparedQuery):
            return path.expr
        return parse_path(path) if isinstance(path, str) else path

    def context(self, probe: Optional[Probe] = None) -> ExecContext:
        """A fresh execution context, whose memo misses go to ``probe``
        when one is given."""
        return ExecContext(self, probe)

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
    def evaluate(
        self, path: Query, *, probe: Optional[Probe] = None
    ) -> List[QueryResult]:
        """Evaluate a path expression, returning ranked results.

        Args:
            path: a path string (parsed on the fly), a pre-parsed
                :class:`PathExpression`, or a :class:`PreparedQuery`
                (its parsed expression reused).
            probe: substitute forward probe for memo misses (see
                :class:`Probe`).

        Returns:
            Results sorted by descending score (ties broken by element
            ids for determinism), windowed by the expression's
            ``offset``/``limit``, truncated to ``max_results``.
        """
        plan = plan_query(self._lower(path), self)
        offset = plan.expr.offset
        limit = self.max_results
        if plan.expr.limit is not None:
            limit = plan.expr.limit
        # one ranked path: an unwindowed call is the window
        # ``limit max_results`` (it was always truncated there)
        top = run_ranked(plan, self.context(probe), offset + limit)
        return [
            QueryResult(bindings, -neg)
            for neg, bindings in top[offset:][: self.max_results]
        ]

    def count(self, path: Query, *, probe: Optional[Probe] = None) -> int:
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
        plan = plan_query(self._lower(path), self, directional=True)
        return run_count(plan, self.context(probe))
