"""The query-stack redesign's safety net.

Three families of checks pin the AST → logical plan → physical
operators pipeline to the pre-redesign evaluator:

* a **differential suite** against a frozen copy of the legacy
  left-to-right evaluator (bit-identical bindings, scores *and*
  ordering, over the cover and over the oracle cover
  (``tests/cover_oracle.py`` — the ``sets`` rows), with and without
  probe substitution);
* **planner soundness** — every legal zig-zag join order (each possible
  seed position) returns the same result set and scores;
* behaviour of the new surface: predicates, expression windows,
  ``exists``/``stream`` early termination, ``explain`` and
  :class:`PreparedQuery`.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cover_oracle import index_in_state
from repro.core import HopiIndex
from repro.query import (
    PreparedQuery,
    QueryEngine,
    QueryResult,
    build_logical_plan,
    parse_path,
    plan_key,
    plan_query,
)
from repro.query.exec import (
    FORWARD_BLOCK,
    ExecContext,
    run_bindings,
    run_count,
    run_ranked,
)
from repro.query.ontology import TagOntology
from repro.query.pathexpr import PathExpression, Predicate, Step
from repro.query.plan import (
    ChildJoin,
    DescendantJoin,
    Filter,
    Limit,
    Rank,
    Scan,
)
from repro.xmlmodel import Collection, dblp_like


# ---------------------------------------------------------------------------
# the frozen legacy evaluator (verbatim semantics of the pre-redesign
# QueryEngine.evaluate/count; supports the legacy dialect only)
# ---------------------------------------------------------------------------


def reference_evaluate(engine, path, *, index=None, probe=None):
    """The legacy left-to-right evaluator, kept as the oracle."""
    index = index or engine.index
    expr = parse_path(path) if isinstance(path, str) else path
    first, *rest = expr.steps

    partial = []
    for e, score in engine._candidates(first):
        if first.axis == "child":
            if engine.collection.elements[e].parent is not None:
                continue
        partial.append(((e,), score))

    for step in rest:
        candidates = engine._candidates(step)
        grown = []
        if step.axis == "child":
            by_parent = {}
            for e, score in candidates:
                parent = engine.collection.elements[e].parent
                if parent is not None:
                    by_parent.setdefault(parent, []).append((e, score))
            for bindings, score in partial:
                for e, tag_score in by_parent.get(bindings[-1], ()):
                    grown.append((bindings + (e,), score * tag_score))
        else:
            step_key = (step.tag, step.similar)
            cand_elems = [e for e, _ in candidates]
            reach_cache = {}
            for bindings, score in partial:
                prev = bindings[-1]
                reach = reach_cache.get(prev)
                if reach is None:
                    reach = engine._reachable(
                        index, probe, prev, step_key, cand_elems
                    )
                    reach_cache[prev] = reach
                for i in reach:
                    e, tag_score = candidates[i]
                    if e == prev:
                        continue
                    hop = engine._hop_score(index, prev, e)
                    grown.append((bindings + (e,), score * tag_score * hop))
        partial = grown
        if not partial:
            break

    results = [QueryResult(b, s) for b, s in partial]
    results.sort(key=lambda r: (-r.score, r.bindings))
    return results[: engine.max_results]


def reference_count(engine, path, *, index=None, probe=None):
    """The legacy aggregated counting path, kept as the oracle."""
    index = index or engine.index
    expr = parse_path(path) if isinstance(path, str) else path
    first, *rest = expr.steps

    tails = {}
    for e, _ in engine._candidates(first):
        if first.axis == "child":
            if engine.collection.elements[e].parent is not None:
                continue
        tails[e] = tails.get(e, 0) + 1

    for step in rest:
        candidates = engine._candidates(step)
        grown = {}
        if step.axis == "child":
            for e, _ in candidates:
                parent = engine.collection.elements[e].parent
                if parent in tails:
                    grown[e] = grown.get(e, 0) + tails[parent]
        else:
            step_key = (step.tag, step.similar)
            cand_elems = [e for e, _ in candidates]
            for prev, multiplicity in tails.items():
                for i in engine._reachable(
                    index, probe, prev, step_key, cand_elems
                ):
                    e = cand_elems[i]
                    if e == prev:
                        continue
                    grown[e] = grown.get(e, 0) + multiplicity
        tails = grown
        if not tails:
            break
    return sum(tails.values())


LEGACY_PATHS = [
    "//article//author",
    "//article//cite",
    "//article//*",
    "//*//author",
    "//~article//author",
    "/article/authors/author",
    "/article",
    "//author",
    "//article//cite//author",
    "//article//citations//cite",
    "//nonexistent//author",
    "/article//cite//*",
]


@pytest.fixture(scope="module", params=["sets", "arrays"])
def cover_engines(request):
    """(engine, distance_engine) over the cover (``arrays``) and over
    its oracle twin (``sets``), on one collection."""
    c = dblp_like(12, seed=31)
    index = index_in_state(
        HopiIndex.build(c, strategy="recursive", partitioner="closure"),
        request.param,
    )
    dist = index_in_state(
        HopiIndex.build(c, strategy="unpartitioned", distance=True),
        request.param,
    )
    return (
        QueryEngine(index, max_results=10**9),
        QueryEngine(dist, max_results=10**9),
    )


def as_pairs(results):
    return [(r.bindings, r.score) for r in results]


class TestDifferential:
    """New pipeline ≡ frozen legacy evaluator, bit for bit."""

    @pytest.mark.parametrize("path", LEGACY_PATHS)
    def test_evaluate_matches_reference(self, cover_engines, path):
        engine, dist_engine = cover_engines
        for eng in (engine, dist_engine):
            expected = as_pairs(reference_evaluate(eng, path))
            for order in ("naive", "selective"):
                got = as_pairs(eng.evaluate(path, order=order))
                assert got == expected, (path, order)

    @pytest.mark.parametrize("path", LEGACY_PATHS)
    def test_count_matches_reference(self, cover_engines, path):
        engine, dist_engine = cover_engines
        for eng in (engine, dist_engine):
            expected = reference_count(eng, path)
            for order in ("naive", "selective"):
                assert eng.count(path, order=order) == expected, (path, order)

    def test_matches_reference_under_probe_substitution(self, cover_engines):
        engine, _ = cover_engines
        index = engine.index
        calls = []

        def probe(source, step_key, cand_elems):
            calls.append((source, step_key))
            flags = index.connected_many(source, cand_elems)
            return [i for i, ok in enumerate(flags) if ok]

        for path in ["//article//cite", "//*//author", "//article//cite//author"]:
            expected = as_pairs(reference_evaluate(engine, path, probe=probe))
            got = as_pairs(engine.evaluate(path, probe=probe))
            assert got == expected, path
            assert engine.count(path, probe=probe) == reference_count(
                engine, path, probe=probe
            )
        assert calls, "the probe substitute must actually be exercised"

    def test_truncation_matches_reference(self, cover_engines):
        engine, _ = cover_engines
        truncated = QueryEngine(engine.index, max_results=7)
        path = "//article//author"
        assert as_pairs(truncated.evaluate(path)) == as_pairs(
            reference_evaluate(truncated, path)
        )
        assert len(truncated.evaluate(path)) == 7


class TestPlannerSoundness:
    """Any legal zig-zag order returns the same results and scores."""

    @pytest.mark.parametrize(
        "path", ["//article//cite//author", "/article//cite/title",
                 "//*//cite//*", "//~article//author//*"]
    )
    def test_every_seed_position_agrees(self, cover_engines, path):
        engine, _ = cover_engines
        expr = parse_path(path)
        baseline = as_pairs(engine.evaluate(path, order="naive"))
        for start in range(len(expr.steps)):
            plan = plan_query(expr, engine, start=start)
            ctx = ExecContext(engine, engine.index)
            results = [
                QueryResult(b, engine._score_binding(engine.index, expr, b))
                for b in run_bindings(plan, ctx)
            ]
            results.sort(key=lambda r: (-r.score, r.bindings))
            assert as_pairs(results) == baseline, (path, start)

    def test_directional_counts_agree_both_ways(self, cover_engines):
        engine, _ = cover_engines
        for path in ["//article//cite//author", "//*//author"]:
            expr = parse_path(path)
            forward = run_count(
                plan_query(expr, engine, start=0),
                ExecContext(engine, engine.index),
            )
            backward = run_count(
                plan_query(expr, engine, start=len(expr.steps) - 1),
                ExecContext(engine, engine.index),
            )
            assert forward == backward == engine.count(path), path

    def test_count_rejects_zigzag_plans(self, cover_engines):
        engine, _ = cover_engines
        expr = parse_path("//article//cite//author")
        plan = plan_query(expr, engine, start=1)  # middle seed: mixed
        if len({op.direction for op in plan.ops[1:]}) > 1:
            with pytest.raises(ValueError):
                run_count(plan, ExecContext(engine, engine.index))

    def test_selective_seeds_at_rare_tail(self):
        c = dblp_like(10, seed=3)
        rare = c.add_child(
            c.documents[sorted(c.documents)[0]].root, "erratum"
        )
        index = HopiIndex.build(c, strategy="unpartitioned")
        engine = QueryEngine(index)
        plan = engine.plan("//*//erratum")
        assert plan.ops[0] == plan.ops[0].__class__("scan", 1, "seed")
        assert plan.ops[1].direction == "backward"
        results = engine.evaluate("//*//erratum")
        assert {r.target for r in results} == {rare.eid}


# ---------------------------------------------------------------------------
# the ranked enumerator's pruning rule, where scores actually differ
# ---------------------------------------------------------------------------


def nesting_ontology():
    """Two ``~tag`` tests spread over five tags that nest in each other.

    ``~item`` scores are powers of two, so different paths tie exactly
    — (article 0.5, citations 1.0) against (citations 1.0, cite 0.5) —
    and the higher-scored head is walked first although it sorts
    second. ``~part`` gives the best score to elements with larger ids
    than the worst-scored ones, so rank order and id order disagree at
    every level."""
    ontology = TagOntology()
    for tag, item, part in [("citations", 1.0, 1.0), ("article", 0.5, 0.5),
                            ("cite", 0.5, 0.9), ("authors", 0.5, 0.35),
                            ("author", 0.5, 0.8)]:
        ontology.relate("item", tag, item)
        ontology.relate("part", tag, part)
    ontology.relate("paper", "article", 0.9)
    return ontology


@pytest.fixture(scope="module")
def ranked_engine():
    """A distance-aware index under :func:`nesting_ontology`, so
    extension lists mix tag scores and hop discounts."""
    index = HopiIndex.build(
        dblp_like(7, seed=13), strategy="unpartitioned", distance=True
    )
    return QueryEngine(index, ontology=nesting_ontology(), max_results=10**9)


_RANKED_TESTS = st.sampled_from(
    ["article", "cite", "citations", "~item", "~part", "~paper", "*"]
)


@st.composite
def ranked_steps(draw, predicates=True):
    test = draw(_RANKED_TESTS)
    filters = ()
    if predicates and draw(st.integers(0, 3)) == 0:
        filters = (Predicate((draw(ranked_steps(predicates=False)),)),)
    return Step(
        draw(st.sampled_from(["child", "descendant", "descendant"])),
        test.lstrip("~"), test.startswith("~"), filters,
    )


@st.composite
def ranked_queries(draw):
    """(expression, max_results): windows include ``limit 0``, windows
    past the end, and no window at all under a small ``max_results``."""
    steps = tuple(draw(ranked_steps()) for _ in range(draw(st.integers(1, 3))))
    limit = draw(st.one_of(st.none(), st.integers(0, 12), st.just(10**6)))
    offset = draw(st.one_of(st.just(0), st.integers(0, 12), st.just(10**6)))
    max_results = draw(st.sampled_from([3, 10, 10**9]))
    return PathExpression(steps, limit=limit, offset=offset), max_results


def reference_window(engine, expr, max_results):
    """The expected page, derived from ``reference_evaluate`` alone:
    the legacy evaluator ranks the predicate-free, window-free path; a
    predicate holds for the elements heading a legacy match of
    ``//*`` + its relative path; then filter, window, truncate."""
    bare = PathExpression(
        tuple(Step(s.axis, s.tag, s.similar) for s in expr.steps)
    )
    keep = reference_evaluate(engine, bare)
    for position, step in enumerate(expr.steps):
        for predicate in step.predicates:
            holders = {
                r.bindings[0] for r in reference_evaluate(
                    engine,
                    PathExpression((Step("descendant", "*"),) + predicate.steps),
                )
            }
            keep = [r for r in keep if r.bindings[position] in holders]
    keep = keep[expr.offset:]
    if expr.limit is not None:
        keep = keep[: expr.limit]
    return as_pairs(keep[:max_results])


class TestRankedEnumeration:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(ranked_queries())
    # exact score ties found out of binding order (see nesting_ontology)
    @example((parse_path("//~item/~item limit 1"), 10**9))
    @example((parse_path("//~item/~item//* limit 4 offset 1"), 10**9))
    def test_matches_reference_for_every_window_seed_and_filter(
        self, ranked_engine, query
    ):
        expr, max_results = query
        engine = QueryEngine(
            ranked_engine.index, ontology=ranked_engine.ontology,
            max_results=max_results,
        )
        expected = reference_window(ranked_engine, expr, max_results)
        for order in ("naive", "selective"):
            got = as_pairs(engine.evaluate(expr, order=order))
            assert got == expected, (str(expr), order)

        # every seed position (run_ranked is what evaluate calls with
        # k = offset + (limit or max_results))
        limit = max_results if expr.limit is None else expr.limit
        for start in range(len(expr.steps)):
            top = run_ranked(
                plan_query(expr, engine, start=start),
                ExecContext(engine, engine.index),
                expr.offset + limit,
            )
            got = [(b, -neg) for neg, b in top[expr.offset:][:max_results]]
            assert got == expected, (str(expr), start)

    def test_reduced_heads_are_walked_in_rank_order(self):
        """More reduced heads than one ``FORWARD_BLOCK``, best-scored
        tag not first by id: the head loop's early exit is only sound
        if the reduction hands its survivors over in rank order."""
        index = HopiIndex.build(dblp_like(20, seed=13), strategy="unpartitioned")
        engine = QueryEngine(
            index, ontology=nesting_ontology(), max_results=10**9
        )
        for path in ["//~part/~part", "//~part//~part/~part"]:
            expr = parse_path(path)
            expected = as_pairs(reference_evaluate(engine, expr))
            last = len(expr.steps) - 1
            for k in (1, 3, 40):
                top = run_ranked(
                    plan_query(expr, engine, start=last),
                    ExecContext(engine, index), k,
                )
                assert [(b, -neg) for neg, b in top] == expected[:k], (path, k)

    def test_small_window_probes_blocks_not_every_source(self):
        """The non-timing work guard: with early stop, a three-step
        ``limit 25`` query probes at most two ``FORWARD_BLOCK``s of
        distinct sources per step. Full enumeration probes every head
        and every reachable middle element, so a silent fall-back to it
        fails here."""
        index = HopiIndex.build(dblp_like(60, seed=7), strategy="unpartitioned")
        engine = QueryEngine(index)
        path = "//citations//cite//article"

        class CountingProbe:
            def __init__(self):
                self.sources = {}

            def __call__(self, source, step_key, cand_elems):
                return self.many([source], step_key, cand_elems)[source]

            def many(self, sources, step_key, cand_elems):
                self.sources.setdefault(step_key, set()).update(sources)
                rows = index.intersect_many(list(sources), cand_elems)
                return dict(zip(sources, rows))

        probe = CountingProbe()
        windowed = engine.evaluate(path + " limit 25", probe=probe, order="naive")
        assert as_pairs(windowed) == as_pairs(
            reference_evaluate(engine, path)[:25]
        )
        assert set(probe.sources) == {("cite", False), ("article", False)}
        for step_key, sources in probe.sources.items():
            assert len(sources) <= 2 * FORWARD_BLOCK, step_key
        # ... which is a fraction of what enumerating everything probes
        full = CountingProbe()
        list(engine.stream(path, probe=full, order="naive"))
        assert len(full.sources[("article", False)]) > 2 * FORWARD_BLOCK


# ---------------------------------------------------------------------------
# the new dialect: predicates and windows
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pred_fixture():
    """Two books (one with an author, one without) plus a linked note."""
    c = Collection()
    bib = c.new_document("d1", "bib")
    with_author = c.add_child(bib.eid, "book")
    author = c.add_child(with_author.eid, "author")
    c.add_child(with_author.eid, "title")
    without = c.add_child(bib.eid, "book")
    c.add_child(without.eid, "title")

    note_doc = c.new_document("d2", "note")
    deep = c.add_child(note_doc.eid, "remark")
    c.add_link(without.eid, note_doc.eid)  # book2 -> note doc (link)
    index = HopiIndex.build(c, strategy="unpartitioned")
    ids = dict(bib=bib.eid, book1=with_author.eid, book2=without.eid,
               author=author.eid, note=note_doc.eid, remark=deep.eid)
    return QueryEngine(index, max_results=10**9), ids


class TestPredicatesAndWindows:
    def test_child_existence_predicate(self, pred_fixture):
        engine, ids = pred_fixture
        results = engine.evaluate("//book[author]")
        assert {r.target for r in results} == {ids["book1"]}

    def test_descendant_existence_predicate_crosses_links(self, pred_fixture):
        engine, ids = pred_fixture
        # only book2 reaches a remark — through the link to the note doc
        results = engine.evaluate("//book[//remark]")
        assert {r.target for r in results} == {ids["book2"]}

    def test_nested_predicate(self, pred_fixture):
        engine, ids = pred_fixture
        results = engine.evaluate("/bib[book[author]]")
        assert {r.target for r in results} == {ids["bib"]}
        assert engine.evaluate("/bib[book[remark]]") == []

    def test_predicates_filter_without_scoring(self, pred_fixture):
        engine, ids = pred_fixture
        plain = {r.target: r.score for r in engine.evaluate("//book")}
        filtered = engine.evaluate("//book[author]")
        assert all(plain[r.target] == r.score for r in filtered)

    def test_count_and_exists_with_predicates(self, pred_fixture):
        engine, _ = pred_fixture
        for path in ["//book[author]", "//book[//remark]", "//bib[book]//title"]:
            assert engine.count(path) == len(engine.evaluate(path)), path
        assert engine.exists("//book[author]")
        assert not engine.exists("//book[nonexistent]")

    def test_window_slices_ranked_results(self, cover_engines):
        engine, _ = cover_engines
        full = engine.evaluate("//article//author")
        windowed = engine.evaluate("//article//author limit 5 offset 3")
        assert as_pairs(windowed) == as_pairs(full)[3:8]
        offset_only = engine.evaluate("//article//author offset 4")
        assert as_pairs(offset_only) == as_pairs(full)[4:]

    def test_count_ignores_window(self, cover_engines):
        engine, _ = cover_engines
        assert engine.count("//article//author limit 1") == engine.count(
            "//article//author"
        )

    def test_stream_is_lazy_and_windowed(self, cover_engines):
        engine, _ = cover_engines
        full = engine.evaluate("//article//author")
        streamed = list(engine.stream("//article//author limit 4"))
        assert len(streamed) == 4
        expected = {(r.bindings, r.score) for r in full}
        assert all((r.bindings, r.score) in expected for r in streamed)

    def test_stream_terminates_early(self):
        """A limited stream must not probe every head element."""
        c = dblp_like(10, seed=5)
        index = HopiIndex.build(c, strategy="unpartitioned")
        engine = QueryEngine(index)
        probes = []

        def probe(source, step_key, cand_elems):
            probes.append(source)
            flags = index.connected_many(source, cand_elems)
            return [i for i, ok in enumerate(flags) if ok]

        list(engine.stream("//article//cite limit 1", probe=probe,
                           order="naive"))
        limited = len(probes)
        probes.clear()
        list(engine.stream("//article//cite", probe=probe, order="naive"))
        assert limited < len(probes)


# ---------------------------------------------------------------------------
# plans, keys, prepared queries
# ---------------------------------------------------------------------------


class TestPlanApi:
    def test_logical_plan_shape(self):
        plan = build_logical_plan("/bib//book[author]//title limit 3 offset 1")
        kinds = [type(n) for n in plan.nodes]
        assert kinds == [Scan, DescendantJoin, Filter, DescendantJoin,
                         Rank, Limit]
        scan = plan.nodes[0]
        assert scan.anchored and scan.position == 0
        assert plan.nodes[-1] == Limit(3, 1)

    def test_child_join_node(self):
        plan = build_logical_plan("//book/title")
        assert type(plan.nodes[1]) is ChildJoin

    def test_plan_key_canonicalises(self):
        assert plan_key("  //book//author  ") == "//book//author"
        assert plan_key("//a offset 2 limit 5") == plan_key(
            "//a limit 5 offset 2"
        )

    def test_prepared_query_binds_per_engine(self, cover_engines):
        engine, _ = cover_engines
        prepared = engine.prepare("//article//author")
        assert prepared.key == "//article//author"
        plan = prepared.bind(engine)
        assert plan.key == prepared.key
        assert [op.position for op in plan.ops] in ([0, 1], [1, 0])

    def test_explain_mentions_order_and_estimates(self, cover_engines):
        engine, _ = cover_engines
        text = engine.explain("//article//author")
        assert "order:" in text and "candidates" in text
        naive = engine.explain("//article//author", order="naive")
        assert "naive" in naive and "reduced" not in naive
        # one evaluate strategy, windowed or not; a backward-reached
        # position is reported as reduced
        assert "via ranked-topk(k=max_results)" in text
        tail = engine.explain("//*//year limit 3 offset 2")
        assert "via ranked-topk(k=5); reduced: steps [0]" in tail

    def test_plan_describe_is_json_safe(self, cover_engines):
        import json

        engine, _ = cover_engines
        payload = engine.plan("//article[//cite]//author limit 2").describe()
        json.dumps(payload)
        assert payload["limit"] == 2
        assert len(payload["steps"]) == 2
        assert payload["steps"][0]["predicates"] == 1
        execution = payload["execution"]
        assert execution["strategy"] == "ranked-topk(k=2)"
        assert execution["reduced"] == [
            op["position"] for op in payload["order"]
            if op["direction"] == "backward"
        ]


# ---------------------------------------------------------------------------
# refresh after maintenance (stale memos must never leak)
# ---------------------------------------------------------------------------


class TestRefresh:
    def test_all_memos_invalidated(self):
        c = dblp_like(6, seed=2)
        index = HopiIndex.build(c, strategy="unpartitioned")
        engine = QueryEngine(index)
        expr = parse_path("//article//author")
        step = expr.steps[1]
        engine.evaluate(expr)
        engine.plan(expr)
        before_map = engine._candidate_map(step)
        before_parents = engine._parent_map(step)
        doc = sorted(c.documents)[0]
        deleted = set(c.documents[doc].elements)
        index.delete_document(doc)
        engine.refresh()
        assert engine._candidate_map(step) is not before_map
        assert engine._parent_map(step) is not before_parents
        after = engine.evaluate(expr)
        assert after and not any(
            e in deleted for r in after for e in r.bindings
        )
        assert engine.count(expr) == len(after)
