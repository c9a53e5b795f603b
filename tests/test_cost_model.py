"""The probe cost model: planner differentials and ranked top-k.

The contract pinned here: a neutral model reproduces the legacy
count-only planner decisions *exactly*; a skewed model flips direction
and seed choices on near-equal estimates (and ``explain()`` shows the
flip plus the model that caused it); the bounded-heap ranked path is
answer-identical to full materialisation; calibration always yields a
sane, clamped model.
"""

import pytest

from repro.core.hopi import HopiIndex
from repro.query.cost import (
    DEFAULT_COST_MODEL,
    NEUTRAL_COST_MODEL,
    ProbeCostModel,
    calibrate_probe_costs,
)
from repro.query.engine import QueryEngine
from repro.query.pathexpr import parse_path
from repro.query.planner import order_steps, plan_cost, plan_query
from repro.xmlmodel.generator import dblp_like
from repro.xmlmodel.model import Collection

#: Forward probes 3x cheaper than backward — enough skew to flip any
#: near-equal decision.
SYNTHETIC = ProbeCostModel(1.0, 3.0, source="synthetic")


class FakeEngine:
    """Just enough engine for :func:`plan_query`: cardinalities come
    from a tag → count table instead of a tag index."""

    planner = "selective"
    cost_model = None

    def __init__(self, counts):
        self._counts = counts

    def _candidates(self, step):
        return [(i, 1.0) for i in range(self._counts[step.tag])]

    def _anchored_count(self, step):
        return self._counts[step.tag]


@pytest.fixture(scope="module")
def small_index():
    return HopiIndex.build(
        dblp_like(8, seed=5), strategy="recursive",
        partitioner="node_weight", partition_limit=60,
    )


# ---------------------------------------------------------------------------
# model basics
# ---------------------------------------------------------------------------


def test_neutral_and_default_models():
    assert NEUTRAL_COST_MODEL.neutral
    model = DEFAULT_COST_MODEL
    assert (model.forward, model.backward, model.source) == (0.35, 1.3, "default")
    assert not model.neutral
    assert model.unit("descendant", "backward") == model.backward
    assert model.unit("descendant", "forward") == model.forward
    # child joins follow parent pointers — direction-blind
    assert model.unit("child", "backward") == 1.0
    assert model.unit("child", "forward") == 1.0


def test_engine_cost_model_comes_from_the_index(small_index):
    engine = QueryEngine(small_index)
    assert engine.cost_model is DEFAULT_COST_MODEL
    pinned = small_index.calibrate_probe_costs(samples=4, repeats=1)
    try:
        assert engine.cost_model is pinned
    finally:
        small_index._probe_costs = None


def test_calibration_is_normalised_and_clamped(small_index):
    model = calibrate_probe_costs(small_index, samples=4, repeats=1)
    assert model.source == "calibrated"
    assert model.forward == 1.0
    assert 0.05 <= model.backward <= 20.0


def test_calibration_falls_back_on_tiny_collections():
    index = HopiIndex.build(Collection(), strategy="unpartitioned")
    model = calibrate_probe_costs(index)
    assert model is DEFAULT_COST_MODEL


# ---------------------------------------------------------------------------
# planner differentials
# ---------------------------------------------------------------------------


def test_neutral_model_reduces_to_legacy_order():
    expr = parse_path("//a//b//c")
    estimates = (40, 7, 25)
    for start in range(3):
        legacy = order_steps(expr, estimates, start=start)
        neutral = order_steps(
            expr, estimates, start=start, cost_model=NEUTRAL_COST_MODEL
        )
        assert neutral == legacy
    # neutral two-step plan costs preserve the legacy endpoint order:
    # total(start) = 2 * estimate(start), so the cheaper endpoint wins
    two = parse_path("//a//b")
    assert plan_cost(two, (100, 95), NEUTRAL_COST_MODEL, start=0) == 200.0
    assert plan_cost(two, (100, 95), NEUTRAL_COST_MODEL, start=1) == 190.0


def test_cost_model_flips_the_directional_seed():
    """est = (100, 95): the count-only rule seeds at the cheaper tail
    and runs backward; with backward probes 3x dearer the modeled cost
    of the backward plan (95 + 95*3 frontier probes) dwarfs the forward
    plan (100 + 100*1), so the seed flips to position 0."""
    engine = FakeEngine({"a": 100, "b": 95})
    neutral = plan_query(
        "//a//b", engine, directional=True, cost_model=NEUTRAL_COST_MODEL
    )
    assert neutral.ops[0].position == 1
    assert neutral.ops[1].direction == "backward"
    assert neutral.cost_model is None

    skewed = plan_query(
        "//a//b", engine, directional=True, cost_model=SYNTHETIC
    )
    assert skewed.ops[0].position == 0
    assert skewed.ops[1].direction == "forward"
    assert skewed.cost_model is SYNTHETIC

    expr = parse_path("//a//b")
    assert plan_cost(expr, (100, 95), SYNTHETIC, start=0) == 200.0
    assert plan_cost(expr, (100, 95), SYNTHETIC, start=1) == 380.0


def test_cost_model_flip_is_visible_in_explain():
    engine = FakeEngine({"a": 100, "b": 95})
    neutral = plan_query(
        "//a//b", engine, directional=True, cost_model=NEUTRAL_COST_MODEL
    ).explain()
    skewed = plan_query(
        "//a//b", engine, directional=True, cost_model=SYNTHETIC
    ).explain()
    assert "backward probe: ancestors side" in neutral
    assert "costs:" not in neutral
    assert "forward probe: descendants side" in skewed
    assert "backward probe" not in skewed
    assert "costs: forward x1, backward x3" in skewed
    assert "synthetic model" in skewed


def test_cost_model_moves_the_selective_seed():
    """Non-directional: the count-only rule seeds at the global minimum
    (the middle step); a skewed model seeds where the modeled total is
    lowest even though its scan is bigger."""
    engine = FakeEngine({"a": 50, "b": 45, "c": 48})
    neutral = plan_query("//a//b//c", engine, cost_model=NEUTRAL_COST_MODEL)
    assert neutral.ops[0].position == 1
    skewed = plan_query("//a//b//c", engine, cost_model=SYNTHETIC)
    # seed 0 runs purely forward: 50 + 50*1 + 45*1 = 145; every other
    # seed pays at least one 3x backward stage
    assert skewed.ops[0].position == 0
    assert all(op.direction != "backward" for op in skewed.ops)


def test_cost_aware_plans_return_identical_answers(small_index):
    engine = QueryEngine(small_index, max_results=10**9)
    for path in ("//article//author", "//*//cite", "//article//*//author"):
        baseline = plan_query(path, engine, cost_model=NEUTRAL_COST_MODEL)
        skewed = plan_query(path, engine, cost_model=SYNTHETIC)
        a = [(r.bindings, r.score) for r in engine.evaluate(path)]
        # evaluate() replans with the engine's own model; run both
        # explicit plans through the executor via forced starts
        for plan in (baseline, skewed):
            forced = plan_query(
                path, engine, start=plan.ops[0].position,
                cost_model=plan.cost_model,
            )
            assert forced.ops == plan.ops
        assert a == sorted(a, key=lambda x: (-x[1], x[0]))


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
    assert plain.execution_profile("exists")["strategy"] == "first-match"
    assert plain.execution_profile("stream")["strategy"] == "lazy-stream"
    with pytest.raises(ValueError, match="unknown execution mode"):
        plain.execution_profile("sideways")

    text = engine.explain("//article//author", mode="count")
    assert "exec:  count via frontier-aggregation" in text
    described = engine.plan("//article//author").describe("exists")
    assert described["execution"]["strategy"] == "first-match"
    assert described["cost_model"] == {
        "forward": 0.35, "backward": 1.3, "source": "default",
    }
