"""Tests of the benchmark's own code: span arithmetic, patching, the replay
generator and the metric names. Run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest

import replaygen
import run
from tracer import Span, Tracer, self_times


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=_ticking_clock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    spans = tracer.take()
    # One clock tick per read: top opens at 0 and closes at 9.
    assert [(s.name, s.start, s.end, s.parent) for s in spans] == [
        ("top", 0.0, 9.0, None),
        ("mid", 1.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 5.0, 1),
        ("leaf", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start
    assert tracer.spans == []


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),
        Span("c", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_closes_and_sizes_on_raise_and_return():
    tracer = Tracer(clock=_ticking_clock())

    def fail(items):
        raise ValueError("boom")

    wrapped = tracer.wrap("fail", fail)
    with pytest.raises(ValueError):
        wrapped([1, 2, 3])
    pair = tracer.wrap("pair", lambda a, b, path: (a, b[:1]))
    pair([1, 2], [3, 4, 5], "some/path")
    first, second = tracer.take()
    assert (first.end, first.n_in) == (1.0, 3)
    assert (second.n_in, second.n_out) == (5, 3)
    assert tracer._open == []


def test_patch_skips_missing_functions_and_unpatch_restores():
    def propagate_arm():
        return "arm"

    def run_session():
        return "session"

    channel = types.SimpleNamespace(propagate_arm=propagate_arm)
    netsim = types.SimpleNamespace(run_session=run_session)
    cli = types.SimpleNamespace(run_session=run_session)
    package = types.SimpleNamespace(channel=channel, netsim=netsim, cli=cli)
    tracer = Tracer()
    tracer.patch(package)
    assert channel.propagate_arm() == "arm" and cli.run_session() == "session"
    assert [s.name for s in tracer.take()] == ["channel.propagate_arm", "netsim.run_session"]
    assert not hasattr(channel, "assign_pair_modes")
    tracer.unpatch()
    assert channel.propagate_arm is propagate_arm and cli.run_session is run_session


@pytest.fixture(scope="module")
def fq():
    return run.import_package()


def _small_replay(duration_s=2.0):
    spec = run.SPEC["workloads"]["replay_2km"]
    params = replaygen.ReplayParams(**spec["replay"])
    return dataclasses.replace(params, duration_s=duration_s), spec["analysis"]


def test_replay_generator_is_deterministic():
    params, _ = _small_replay(0.2)
    first, second = replaygen.generate(params, 5), replaygen.generate(params, 5)
    assert first.offset_ps == second.offset_ps
    for side in ("a", "b"):
        for name in ("times_ps", "detectors", "origins"):
            assert np.array_equal(getattr(getattr(first, side), name), getattr(getattr(second, side), name))
        assert np.all(np.diff(getattr(first, side).times_ps) >= 0)
    assert replaygen.generate(params, 6).offset_ps != first.offset_ps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_generator_reproduces_offset_and_error_rate(fq, seed):
    params, analysis = _small_replay()
    made = replaygen.generate(params, seed)
    tags = [
        fq.receiver.TagStream(
            times_ps=side.times_ps,
            detectors=side.detectors,
            origins=side.origins,
            pair_ids=np.full(side.times_ps.size, -1, dtype=np.int64),
            modes=np.full(side.times_ps.size, -1, dtype=np.int8),
        )
        for side in (made.a, made.b)
    ]
    offset = fq.tagproc.find_offset(
        *tags, search_span_ps=analysis["search_span_ps"], bin_width_ps=analysis["bin_width_ps"]
    )
    assert abs(offset - made.offset_ps) <= analysis["bin_width_ps"]
    records = fq.tagproc.match_coincidences(*tags, offset, 20_000)
    # The delayed-mode population sits at the injected mode delay, well
    # above the accidental floor (under 20 records in such a window here).
    late = np.abs(np.abs(records.delta) - params.mode_delay_ps) < 1500
    assert late.sum() > 0.02 * len(records)
    filtered = fq.tagproc.temporal_mode_filter(
        records, params.mode_delay_ps, analysis["coincidence_window_ps"] // 2
    )
    key = fq.distill.sift(filtered, params.duration_s)
    sigma = math.sqrt(params.error_rate * (1 - params.error_rate) / len(key))
    assert abs(key.qber - params.error_rate) <= 4 * sigma


def test_metric_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spans = [Span("cli.run_experiment", 0.0, 1.0, None)]
    per_layer = set(run.layer_metrics(spans, 1.0)) | {"receiver.tag_bytes", "trace.overhead_frac"}
    assert per_layer == set(run.SPEC["layer_metrics"])
    assert [m["name"] for m in declared["per_layer"]] == list(run.SPEC["layer_metrics"])
    for entry in declared["per_layer"]:
        spec = run.SPEC["layer_metrics"][entry["name"]]
        assert (entry["unit"], entry["better"]) == (spec["unit"], spec["better"])
    outcome = run.Outcome(wall_s=1.0, ok=True, source_s=1.0, sifted_bits=1)
    end_to_end = run.end_to_end_metrics([outcome], 0.1)
    assert [m["name"] for m in declared["end_to_end"]] == list(end_to_end)
    assert all(m["unit"] == end_to_end[m["name"]][1] for m in declared["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(run.SPEC["workloads"])
