"""The probe-cost constants: planner decisions and ranked top-k.

The contract pinned here: the two constants flip direction and seed
choices on near-equal estimates (and ``explain()`` shows the flip);
every plan the planner makes on a fixed corpus is the one it made
before the cost model collapsed to two constants; the window term
seeds a small-window two-step at its head only after sampling it, and
never touches a counting plan; any seed the costs may pick returns the
same answers; the bounded ranked path is answer-identical to full
materialisation.
"""

import pytest

from repro.core.hopi import HopiIndex
from repro.query.engine import QueryEngine
from repro.query.exec import ExecContext, run_ranked
from repro.query.pathexpr import parse_path
from repro.query.planner import (
    BACKWARD_COST,
    FORWARD_BLOCK,
    FORWARD_COST,
    _window_cost,
    order_steps,
    plan_query,
)
from repro.xmlmodel.generator import dblp_like


class FakeEngine:
    """Just enough engine for :func:`plan_query`: cardinalities come
    from a tag → count table instead of a tag index."""

    def __init__(self, counts):
        self._counts = counts

    def _candidates(self, step):
        return [(i, 1.0) for i in range(self._counts[step.tag])]


@pytest.fixture(scope="module")
def small_index():
    return HopiIndex.build(
        dblp_like(8, seed=5), strategy="recursive",
        partitioner="node_weight", partition_limit=60,
    )


# ---------------------------------------------------------------------------
# the constants
# ---------------------------------------------------------------------------


def test_neutral_and_default_models():
    """The default (only) costs weigh descendant joins by direction;
    child joins follow parent pointers and stay direction-neutral."""
    assert (FORWARD_COST, BACKWARD_COST) == (0.35, 1.3)
    _, forward = order_steps(parse_path("//a//b"), (100, 95), start=0)
    _, backward = order_steps(parse_path("//a//b"), (100, 95), start=1)
    assert forward == pytest.approx(100 + 100 * FORWARD_COST)
    assert backward == pytest.approx(95 + 95 * BACKWARD_COST)
    _, down = order_steps(parse_path("//a/b"), (100, 95), start=0)
    _, up = order_steps(parse_path("//a/b"), (100, 95), start=1)
    assert (down, up) == (200.0, 190.0)


def test_neutral_model_reduces_to_legacy_order():
    """Where every join is a child join the weights are all 1, and the
    order is the legacy count-only one: extend towards the smaller
    neighbouring estimate, ties forward."""

    def legacy(estimates, start):
        order, lo, hi = [start], start, start
        while lo > 0 or hi < len(estimates) - 1:
            if hi < len(estimates) - 1 and (
                lo == 0 or estimates[hi + 1] <= estimates[lo - 1]
            ):
                hi += 1
                order.append(hi)
            else:
                lo -= 1
                order.append(lo)
        return order

    expr = parse_path("/a/b/c/d")
    for estimates in [(40, 7, 25, 3), (5, 5, 5, 5), (1, 9, 9, 2)]:
        for start in range(4):
            ops, _ = order_steps(expr, estimates, start=start)
            assert [op.position for op in ops] == legacy(estimates, start)
            assert all(op.op != "descendant" for op in ops)


# ---------------------------------------------------------------------------
# planner decisions
# ---------------------------------------------------------------------------


def test_cost_model_flips_the_directional_seed():
    """est = (100, 95): a count-only rule would seed at the cheaper
    tail and run backward; with backward probes dearer the modeled
    cost of the backward plan (95 + 95 backward probes) exceeds the
    forward plan (100 + 100 forward probes), so the seed is position
    0."""
    plan = plan_query("//a//b", FakeEngine({"a": 100, "b": 95}),
                      directional=True)
    assert plan.ops[0].position == 0
    assert plan.ops[1].direction == "forward"
    # a tail rare enough still wins the seed and runs backward
    rare = plan_query("//a//b", FakeEngine({"a": 100, "b": 20}),
                      directional=True)
    assert [op.direction for op in rare.ops] == ["seed", "backward"]


def test_cost_model_flip_is_visible_in_explain():
    engine = FakeEngine({"a": 100, "b": 95})
    text = plan_query("//a//b", engine, directional=True).explain()
    assert "forward probe: descendants side" in text
    assert "backward probe" not in text
    rare = plan_query(
        "//a//b", FakeEngine({"a": 100, "b": 20}), directional=True
    ).explain()
    assert "backward probe: ancestors side" in rare


def test_cost_model_moves_the_selective_seed():
    """Non-directional: a count-only rule would seed at the global
    minimum (the middle step); the costs seed where the modeled total
    is lowest even though its scan is bigger."""
    plan = plan_query("//a//b//c", FakeEngine({"a": 50, "b": 45, "c": 48}))
    # seed 0 runs purely forward: 50 + (50 + 45) * 0.35; every other
    # seed pays at least one backward stage
    assert plan.ops[0].position == 0
    assert all(op.direction != "backward" for op in plan.ops)


def test_cost_aware_plans_return_identical_answers(small_index):
    """Whichever seed the costs pick, the ranked answer is the same."""
    engine = QueryEngine(small_index, max_results=10**9)
    for path in ("//article//author", "//*//cite", "//article//*//author"):
        expr = parse_path(path)
        expected = [(r.bindings, r.score) for r in engine.evaluate(path)]
        assert expected == sorted(expected, key=lambda x: (-x[1], x[0]))
        for start in range(len(expr.steps)):
            top = run_ranked(
                plan_query(expr, engine, start=start),
                ExecContext(engine), 10**9,
            )
            assert [(b, -neg) for neg, b in top] == expected, (path, start)


#: ``(evaluate, count)`` plans as ``op:position:direction`` sequences,
#: recorded before the probe cost model collapsed to two constants, on
#: :func:`frozen_plan_engine`'s corpus: every ``read-cold`` shape class
#: of the benchmark (two-step cheap / mid / heavy, selective tail,
#: three-step, predicate, ``~tag``, count) plus shapes whose seed or
#: directions the costs decide (a middle seed, mixed directions, child
#: steps).
FROZEN_PLANS = {
    "//title//cite": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//year//article": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//metadata//ee": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//article//pages": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//citations//title": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//article//url": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//citations//year": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//article//year": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//article//author": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//cite//title": (
        "scan:1:seed descendant:0:backward",
        "scan:1:seed descendant:0:backward",
    ),
    "//citations//author": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//*//erratum": (
        "scan:1:seed descendant:0:backward",
        "scan:1:seed descendant:0:backward",
    ),
    "//article//erratum": (
        "scan:1:seed descendant:0:backward",
        "scan:1:seed descendant:0:backward",
    ),
    "//cite//erratum": (
        "scan:1:seed descendant:0:backward",
        "scan:1:seed descendant:0:backward",
    ),
    "//citations//cite//article": (
        "scan:0:seed descendant:1:forward descendant:2:forward",
        "scan:0:seed descendant:1:forward descendant:2:forward",
    ),
    "//article//cite//title": (
        "scan:0:seed descendant:1:forward descendant:2:forward",
        "scan:0:seed descendant:1:forward descendant:2:forward",
    ),
    "//citations//article//author": (
        "scan:0:seed descendant:1:forward descendant:2:forward",
        "scan:0:seed descendant:1:forward descendant:2:forward",
    ),
    "//article[//erratum]//author": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//article[citations]//keyword": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//citations[cite]//title": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//~article//author": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//~paper//title": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//citations//keyword": (
        "scan:0:seed descendant:1:forward",
        "scan:0:seed descendant:1:forward",
    ),
    "//*//cite//title": (
        "scan:2:seed descendant:1:backward descendant:0:backward",
        "scan:2:seed descendant:1:backward descendant:0:backward",
    ),
    "//*//citations//*": (
        "scan:1:seed descendant:2:forward descendant:0:backward",
        "scan:0:seed descendant:1:forward descendant:2:forward",
    ),
    "//cite//*//erratum": (
        "scan:0:seed descendant:1:forward descendant:2:forward",
        "scan:0:seed descendant:1:forward descendant:2:forward",
    ),
    "//citations/cite//erratum": (
        "scan:0:seed child:1:forward descendant:2:forward",
        "scan:0:seed child:1:forward descendant:2:forward",
    ),
    "/article//cite/title": (
        "scan:0:seed descendant:1:forward child:2:forward",
        "scan:0:seed descendant:1:forward child:2:forward",
    ),
}


@pytest.fixture(scope="module")
def frozen_plan_engine():
    """``dblp_like(60)`` with a rare ``erratum`` child on every 20th
    root — the benchmark corpus's shape at test size."""
    collection = dblp_like(60, seed=2005)
    for doc_id in list(collection.documents)[::20]:
        collection.add_child(collection.documents[doc_id].root, "erratum")
    return QueryEngine(HopiIndex.build(collection))


def ops(plan):
    return " ".join(f"{op.op}:{op.position}:{op.direction}" for op in plan.ops)


@pytest.mark.parametrize("path", sorted(FROZEN_PLANS))
def test_plans_are_frozen(frozen_plan_engine, path):
    evaluate, count = FROZEN_PLANS[path]
    assert ops(frozen_plan_engine.plan(path)) == evaluate
    assert ops(frozen_plan_engine.plan(path, directional=True)) == count


# ---------------------------------------------------------------------------
# the window term
# ---------------------------------------------------------------------------

#: ranked plans with a window on :func:`frozen_plan_engine`'s corpus:
#: ``//cite//title`` fills ten results from its first block of heads,
#: so it seeds at 0; a two-errata tail stays cheaper than any block.
WINDOWED_PLANS = {
    "//cite//title limit 10": "scan:0:seed descendant:1:forward",
    "//*//erratum limit 30": "scan:1:seed descendant:0:backward",
    "//cite//erratum limit 30": "scan:1:seed descendant:0:backward",
}


@pytest.mark.parametrize("path", sorted(WINDOWED_PLANS))
def test_windowed_plans(frozen_plan_engine, path):
    plan = frozen_plan_engine.plan(path)
    assert ops(plan) == WINDOWED_PLANS[path]
    # seed 0 is sampled only where one block of it could beat the seed
    # the plain costs pick
    sampled = plan.ops[0].position == 0
    assert (plan.sampled is not None) == sampled
    if sampled:
        heads, hits = plan.sampled
        assert heads == FORWARD_BLOCK and hits > 0
    # the counting plan of the same query is the frozen one
    frozen = FROZEN_PLANS[path.split(" limit")[0]][1]
    assert ops(frozen_plan_engine.plan(path, directional=True)) == frozen


@pytest.mark.parametrize("window", [" limit 1", " limit 10 offset 3", " limit 30"])
def test_directional_plans_ignore_the_window(frozen_plan_engine, window):
    for path, (_, count) in FROZEN_PLANS.items():
        plan = frozen_plan_engine.plan(path + window, directional=True)
        assert ops(plan) == count, path
        assert plan.k is None and plan.sampled is None


def test_window_term_probes_its_sample_once(frozen_plan_engine):
    """The run reuses the sampled block: the planner's sample and the
    run miss one ``FORWARD_BLOCK`` of sources between them, each once,
    and a second context over the same engine adds no miss."""
    # a fresh engine, so its probe memo holds nothing yet
    engine = QueryEngine(frozen_plan_engine.index)
    path = "//cite//title limit 10"

    def misses():
        return engine.probe_stats()["misses"]

    got = engine.evaluate(path)
    assert misses() == FORWARD_BLOCK
    # the planner samples into the engine's memo, where a run finds it
    plan = plan_query(parse_path(path), engine)
    assert plan.sampled is not None and misses() == FORWARD_BLOCK
    assert run_ranked(plan, engine.context(), 10) == run_ranked(
        plan, ExecContext(engine), 10
    )
    assert misses() == FORWARD_BLOCK
    backward = run_ranked(
        plan_query(parse_path(path), engine, start=1),
        ExecContext(engine), 10,
    )
    assert [(r.bindings, r.score) for r in got] == [
        (b, -neg) for neg, b in backward
    ]


@pytest.mark.parametrize("distance", [False, True])
def test_windowed_top_k_is_the_same_for_every_seed(distance):
    """Whatever seed the window term picks, every forced seed returns
    the same window; on a distance-aware index (whose hop discounts
    keep the enumerator from stopping early) nothing is sampled."""
    # a distance-aware index never samples, so a smaller corpus will do
    collection = dblp_like(20 if distance else 60, seed=2005)
    for doc_id in list(collection.documents)[::20]:
        collection.add_child(collection.documents[doc_id].root, "erratum")
    index = HopiIndex.build(collection, distance=distance)
    engine = QueryEngine(index, max_results=10**9)
    flipped = []
    for path in ("//cite//title", "//*//cite", "//*//author",
                 "//article//author", "//cite//erratum", "//*//erratum"):
        expr = parse_path(path)
        unwindowed = engine.plan(expr).ops[0].position
        for limit, offset in ((1, 0), (5, 0), (10, 3), (100, 0), (300, 7)):
            windowed = parse_path(f"{path} limit {limit} offset {offset}")
            plan = engine.plan(windowed)
            if distance:
                assert plan.sampled is None
            if plan.ops[0].position != unwindowed:
                flipped.append((path, limit))
            got = [(r.bindings, r.score) for r in engine.evaluate(windowed)]
            for start in range(2):
                top = run_ranked(
                    plan_query(windowed, engine, start=start),
                    ExecContext(engine), offset + limit,
                )
                assert got == [(b, -neg) for neg, b in top[offset:]], (
                    path, limit, offset, start,
                )
    # the window term moved some seed here, or nothing above tested it
    assert bool(flipped) != distance, flipped


# ---------------------------------------------------------------------------
# ranked top-k heap vs full materialisation
# ---------------------------------------------------------------------------


def test_limited_evaluate_matches_full_prefix(small_index):
    engine = QueryEngine(small_index, max_results=10**9)
    full = engine.evaluate("//article//author")
    assert len(full) > 12
    for limit in (1, 5, len(full), len(full) + 10):
        heap = engine.evaluate(f"//article//author limit {limit}")
        assert [(r.bindings, r.score) for r in heap] == [
            (r.bindings, r.score) for r in full[:limit]
        ]
    windowed = engine.evaluate("//article//author limit 4 offset 3")
    assert [(r.bindings, r.score) for r in windowed] == [
        (r.bindings, r.score) for r in full[3:7]
    ]


# ---------------------------------------------------------------------------
# execution profiles in describe()/explain()
# ---------------------------------------------------------------------------


def test_execution_profiles_expose_short_circuits(small_index):
    engine = QueryEngine(small_index)
    limited = engine.plan("//article//author limit 5")
    profile = limited.execution_profile("evaluate")
    assert profile["strategy"] == "ranked-topk(k=5)"
    assert "full sort" in profile["skipped"]
    assert "ranked-topk(k=5)" in limited.explain()

    # one strategy: an unwindowed evaluate is the same path, bounded by
    # the engine's max_results
    plain = engine.plan("//article//author")
    assert (
        plain.execution_profile("evaluate")["strategy"]
        == "ranked-topk(k=max_results)"
    )
    count = plain.execution_profile("count")
    assert count["strategy"] == "frontier-aggregation"
    assert "scoring" in count["skipped"]
    # one evaluator per endpoint: no other execution profile exists
    for mode in ("exists", "stream", "sideways"):
        with pytest.raises(ValueError, match="'evaluate', 'count'"):
            plain.execution_profile(mode)
        with pytest.raises(ValueError, match="unknown execution mode"):
            engine.explain("//article//author", mode=mode)

    text = engine.explain("//article//author", mode="count")
    assert "exec:  count via frontier-aggregation" in text
    assert "seed:" not in text
    described = engine.plan("//article//author").describe("count")
    assert described["execution"]["strategy"] == "frontier-aggregation"
    assert "cost_model" not in described and "mode" not in described


def test_describe_reports_the_window_term(frozen_plan_engine):
    engine = frozen_plan_engine
    sampled = engine.plan("//cite//title limit 10")
    heads, hits = sampled.sampled
    assert sampled.describe()["seeding"] == {
        "k": 10, "fan_out": hits / heads,
        "sampled_heads": heads, "sampled_hits": hits,
    }
    assert (
        f"seed:  window k=10; fan-out {hits / heads:.2f} "
        f"({hits} hits from {heads} heads)"
    ) in sampled.explain()
    tail = engine.plan("//*//erratum limit 20 offset 10")
    assert tail.describe()["seeding"] == {"k": 30, "fan_out": "not sampled"}
    assert "seed:  window k=30; fan-out not sampled" in tail.explain()
    counting = engine.plan("//cite//title limit 10", directional=True)
    assert counting.describe("count")["seeding"] == {
        "k": None, "fan_out": "not sampled",
    }
    assert engine.plan("//cite//title").describe()["seeding"]["k"] is None


def test_a_sample_without_hits_keeps_the_plain_cost(frozen_plan_engine):
    """A ``[predicate]`` on step 1 gates the sampled hits as it gates
    the run: no title has an erratum below it, so the sample finds
    nothing and the plain costs' backward plan stands."""
    plan = frozen_plan_engine.plan("//cite//title[//erratum] limit 10")
    assert plan.sampled == (FORWARD_BLOCK, 0)
    assert ops(plan) == "scan:1:seed descendant:0:backward"


def test_the_window_cost_counts_whole_blocks():
    """Seed 0 is charged for the heads that fill ``k`` at the sampled
    fan-out, rounded up to whole blocks and capped at its estimate."""
    cost = 1000 * (1 + FORWARD_COST)
    # two hits a head: five heads fill k = 10, and a block is probed whole
    assert _window_cost(cost, 1000, 10, (32, 64)) == pytest.approx(
        cost * FORWARD_BLOCK / 1000
    )
    # one hit in 32 heads: 160 heads, five whole blocks
    assert _window_cost(cost, 1000, 5, (32, 1)) == pytest.approx(
        cost * 5 * FORWARD_BLOCK / 1000
    )
    # never more than the whole scan
    assert _window_cost(cost, 100, 50, (32, 1)) == pytest.approx(cost)
