"""Tier-1 checks of the benchmark harness itself (seconds, not minutes).

The numbers the benchmark prints are only worth bounding if its inputs
are reproducible, its statistics are the ones it says they are, and
every workload reports exactly what ``BENCHMARK.json`` declares.
"""

import ast
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

from perf import compare, config, corpora, measure, ops, oracle, run  # noqa: E402
from perf import wl_build, wl_read, wl_write  # noqa: E402
from perf.hostspeed import PERIOD, SpeedGauge  # noqa: E402
from perf.spans import Tracer  # noqa: E402

BENCHMARK = config.load_benchmark(ROOT)


# -- workload generation ------------------------------------------------

def _generated(seed):
    """Everything a seed decides, as bytes."""
    collection = corpora.dblp(12)
    stream = ops.UpdateStream(seed, collection, exclude=["dblp3"])
    return json.dumps(
        {
            "cold": ops.cold_requests(seed, 2),
            "hot": ops.hot_draws(seed, 2, 50),
            "connected": ops.connected_pairs(seed, 2, 20, collection.num_elements),
            "rw": stream.rw_batches(20),
            "ww": stream.ww_batches("a", 9),
        },
        sort_keys=True,
    ).encode("utf-8")


def test_generation_is_identical_per_seed_and_differs_across_seeds():
    assert _generated(7) == _generated(7)
    assert _generated(7) != _generated(8)


def test_cold_requests_are_distinct_and_keep_their_mix_under_every_seed():
    for seed in (1, 2):
        requests = ops.cold_requests(seed, 3)
        assert len({(e, p) for _, e, p in requests}) == len(requests) == 60
        mix = {cls: sum(1 for c, _, _ in requests if c == cls) for cls in ops.COLD_MIX}
        assert mix == {cls: 3 * n for cls, n in ops.COLD_MIX.items()}


def test_update_stream_never_touches_an_excluded_document():
    collection = corpora.dblp(12)
    gone = collection.documents["dblp3"].root
    stream = ops.UpdateStream(1, collection, exclude=["dblp3"])
    text = json.dumps(stream.rw_batches(40) + stream.ww_batches("a", 20))
    assert f'"target": {gone}' not in text and f", {gone}]" not in text
    assert f'"parent": {gone}' not in text


def test_reference_replay_matches_the_real_update_path():
    """``apply_to_collection`` + breadth-first search must agree with
    ``apply_update_op`` + the maintained cover — it is the yardstick the
    recovered server is held to."""
    from repro.core.ops import apply_update_op
    from repro.query import QueryEngine

    collection = corpora.dblp(12)
    index = corpora.build_served_index(collection)
    reference = collection.copy()
    stream = ops.UpdateStream(3, collection)
    for batch in stream.rw_batches(20):
        for op in batch:
            apply_update_op(index, op)
            ops.apply_to_collection(reference, op)
    pairs = ops.VERIFICATION_PATHS
    truth = oracle.pair_counts(reference, pairs)
    engine = QueryEngine(index)
    for head, tail in pairs:
        assert engine.count(f"//{head}//{tail}") == truth[head, tail]
    assert oracle.check_cover_sample(index, 50, 3) == 0


# -- statistics -----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert measure.percentile(values, 5) == 15
    assert measure.percentile(values, 30) == 20
    assert measure.percentile(values, 40) == 20
    assert measure.percentile(values, 50) == 35
    assert measure.percentile(values, 100) == 50
    assert measure.percentile(list(range(1, 101)), 99) == 99
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile(values, 0)


def test_median_of_segments_takes_each_segment_percentile_first():
    segments = [[1, 2, 100], [1, 2, 3], [1, 2, 5]]
    assert measure.median_of_segments(segments, 100) == 5
    assert measure.median_of_segments(segments, 50) == 2
    with pytest.raises(ValueError):
        measure.median_of_segments([], 50)


def test_relative_spread_is_the_interquartile_share_of_the_median():
    assert measure.relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert measure.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_unattributed_share_is_parent_time_no_child_covers():
    tracer = Tracer()
    with tracer.span("parent", 1):
        with tracer.span("child", 1):
            pass
        with tracer.span("child", 1):
            pass
    durations = tracer.durations()
    assert len(durations["child"]) == 2
    loose = durations["parent"][0] - sum(durations["child"])
    assert tracer.unattributed_share() == {
        "parent": pytest.approx(loose / durations["parent"][0])
    }
    assert tracer.by_trace("child") == {1: pytest.approx(sum(durations["child"]))}
    assert Tracer(enabled=False).span("x", 0).__enter__() is not None
    assert Tracer(enabled=False).spans == []


# -- the contract with BENCHMARK.json --------------------------------------

def _smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", config.workload_names(BENCHMARK))
def test_smoke_run_emits_exactly_the_declared_metrics(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = config.metric_units(BENCHMARK, "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


TRACE_LAYERS = {
    **wl_build.TRACE_LAYERS, **wl_read.TRACE_LAYERS, **wl_write.TRACE_LAYERS,
}
TRACE_SPANS = {
    "build": {"build", "core.partition", "core.cover", "core.join"},
    "read-cold": {"http", "request", "service.dispatch", "read", "query.exec"},
    "read-hot": {"http", "request", "service.dispatch"},
    "write-mixed": {"write", "core.cow_fork", "service.update"},
}


@pytest.mark.parametrize("workload", config.workload_names(BENCHMARK))
def test_smoke_trace_reports_its_own_layers_and_writes_the_span_file(workload):
    result = _smoke(workload, 1)
    units = config.metric_units(BENCHMARK, "per_layer")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert result["correct"] is True
    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as fh:
        spans = json.load(fh)
    assert spans["columns"] == ["name", "start", "end", "parent", "trace"]
    assert TRACE_SPANS[workload] <= {s[0] for s in spans["spans"]}
    # "layers" is what the workload measured, before run.py fills the
    # layers it never enters with zeros
    required = set(TRACE_LAYERS[workload]) | set(run.COMMON_LAYERS)
    assert required <= set(spans["layers"])
    assert set(TRACE_LAYERS[workload]) <= set(units)


def test_a_run_that_loses_a_metric_is_refused():
    declared = {"a": "s", "b": "s", "c": "s"}
    run.check_reported({"a": 1.0, "b": 2.0}, declared, required={"a", "b"})
    with pytest.raises(SystemExit, match="did not report.*'b'"):
        run.check_reported({"a": 1.0}, declared, required={"a", "b"})
    with pytest.raises(SystemExit, match="not declared.*'z'"):
        run.check_reported({"a": 1.0, "z": 1.0}, declared, required={"a"})


# -- host speed and comparing sets ---------------------------------------

def test_speed_gauge_samples_beside_the_work_and_stops(tmp_path):
    gauge = SpeedGauge(str(tmp_path))
    try:
        t0 = time.perf_counter()
        time.sleep(3 * PERIOD)
        t1 = time.perf_counter()
        factor = gauge.factor(t0, t1)
        assert 0.2 < factor < 20
        assert gauge.quiet_seconds(t0, t1) == pytest.approx((t1 - t0) / factor)
        assert len(gauge.times) >= 3 and gauge.times == sorted(gauge.times)
    finally:
        gauge.stop()
    assert gauge.proc.poll() is not None


def test_paired_verdict_needs_alternating_back_to_back_pairs():
    seeds = range(1, 11)
    a = {s: 10.0 + s / 100 for s in seeds}
    b = {s: 8.0 + s / 100 for s in seeds}
    tags = lambda first: {s: f"w-{s}/{(s + first) % 2}" for s in seeds}  # noqa: E731
    pairs = compare.alternating_seeds(tags(0), tags(1))
    assert pairs == list(seeds)
    assert compare.paired(a, b, "lower", pairs) == "gains 10/10"
    assert compare.paired(b, a, "lower", pairs) == "loses 10/10"
    assert compare.paired(a, a, "lower", pairs) == "none 0/10"
    # two sets made one after the other carry no pair tags
    assert compare.paired(a, b, "lower", compare.alternating_seeds({}, {})).startswith("n/a")
    # one side always first: not alternating
    always = {s: f"w-{s}/0" for s in seeds}
    after = {s: f"w-{s}/1" for s in seeds}
    assert compare.alternating_seeds(always, after) == []
    # tags of different pairs do not match up
    other = {s: f"w-{s + 1}/{(s + 1) % 2}" for s in seeds}
    assert compare.alternating_seeds(tags(0), other) == []


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.1) == "within"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "outside"
    noisy = [100.0, 140.0, 70.0, 120.0, 80.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [v / 3 for v in noisy], "lower", 0.1) == "within"


def test_benchmark_json_names_the_workloads_the_harness_has():
    names = set(config.workload_names(BENCHMARK))
    assert names == set(config.SIZES) == set(config.SMOKE_SIZES)
    assert BENCHMARK["run_seconds"] == config.REFERENCE_SECONDS
    assert "setup_s" in config.metric_units(BENCHMARK, "end_to_end")


def test_no_perf_module_imports_the_old_bench_package():
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            for module in modules:
                assert not module.startswith(("repro.bench", "benchmarks")), (
                    f"{name} imports {module}"
                )
