import math
import warnings

import numpy as np
import pytest

from conftest import (
    SessionSink,
    assert_records_equal,
    assert_streams_equal,
    concat_records,
    dead_time_reference,
    noise_merge_reference,
)
from fiberqkd.channel import (
    ChannelConfig,
    ClassicalTraffic,
    TrafficDirection,
    background_rate_per_detector,
)
from fiberqkd.netsim import Link, predict_key_rates, run_session
from fiberqkd.pairgen import SourceParams
from fiberqkd import netsim, receiver, tagproc
from fiberqkd.receiver import DetectorParams, TagOrigin, TagStream, sample_pair_tags
from fiberqkd.tagproc import ModeFilterWarning, NoCorrelationPeakError


def _link(length_km=1.0, traffic=None, pair_rate=4e5, visibility=0.95, **kwargs):
    traffic = traffic if traffic is not None else ClassicalTraffic()
    arm = ChannelConfig(length_km=length_km, traffic=traffic)
    return Link(
        arm, arm, SourceParams(pair_rate=pair_rate, intrinsic_visibility=visibility), **kwargs
    )


def _dark():
    return ClassicalTraffic(direction=TrafficDirection.NONE)


def _active(mbps=10.5):
    return ClassicalTraffic(
        direction=TrafficDirection.COUNTER_PROPAGATING, data_rate_mbps=mbps
    )


@pytest.mark.parametrize("duration_s", [4e-13, 0.0, -1.0, math.inf, math.nan])
def test_session_rejects_less_than_one_tick(monkeypatch, duration_s):
    # 0.4 ps rounds to a session of no tick, which has no slice to run:
    # the session refuses before drawing anything.
    drawn = []
    monkeypatch.setattr(receiver, "sample_pair_tags", lambda *a, **k: drawn.append(a))
    with pytest.raises(ValueError, match="duration_s"):
        run_session(_link(), duration_s, seed=1)
    assert drawn == []


@pytest.mark.parametrize(
    "traffic, dark_cps, match",
    [
        # Only uncorrelated dark and background counts: no peak is found.
        (None, DetectorParams().dark_cps, "no correlation peak"),
        # No tag at all: the session names the empty side.
        (_dark(), 0.0, "no correlation peak: stream A holds no tags"),
    ],
    ids=["dark_counts_only", "no_tags"],
)
def test_dead_detectors_raise_no_correlation_peak(traffic, dark_cps, match):
    detector = DetectorParams(efficiency=0.0, dark_cps=dark_cps)
    link = _link(traffic=traffic, pair_rate=2e5, detector=detector)
    with pytest.raises(NoCorrelationPeakError, match=match):
        run_session(link, 1.0, seed=5)


def test_empty_b_side_raises_no_correlation_peak(monkeypatch):
    # A holds tags and B none: the session names B, where find_offset would
    # raise a bare ValueError.
    sample = receiver.sample_pair_tags

    def no_b(*args, **kwargs):
        tags_a, tags_b, pairs = sample(*args, **kwargs)
        return tags_a, TagStream.empty(), pairs

    monkeypatch.setattr(receiver, "sample_pair_tags", no_b)
    detector = DetectorParams(dark_cps=0.0)
    link = _link(traffic=_dark(), pair_rate=2e5, detector=detector)
    with pytest.raises(NoCorrelationPeakError, match="stream B holds no tags"):
        run_session(link, 1.0, seed=5)


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_link_mode_filter_ambiguous_follows_the_filter_warning(step):
    # Mode delays of half the coincidence window minus one tick, exactly,
    # and plus one, set through the delay per km on 1 km arms: the link
    # calls the filter ambiguous exactly where the session's filter warns.
    half = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS // 2
    arm = ChannelConfig(length_km=1.0, mode_delay_ns_per_km=(half + step) / 1000)
    link = Link(arm, arm, SourceParams(pair_rate=4e5))
    delay = min(link.budget.mode_delay_ps)
    assert delay == half + step
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tagproc.temporal_mode_filter(concat_records([]), delay, link.coincidence_window_ps // 2)
    warned = any(issubclass(w.category, ModeFilterWarning) for w in caught)
    assert link.mode_filter_ambiguous == warned == (step <= 0)


def test_run_session_deterministic():
    link = _link(pair_rate=3e5)
    sinks = [SessionSink(), SessionSink()]
    report1, art1 = run_session(link, 2.0, seed=42, sink=sinks[0])
    report2, art2 = run_session(link, 2.0, seed=42, sink=sinks[1])
    assert report1 == report2
    assert art1 == art2
    (a1, b1), (a2, b2) = (sink.streams() for sink in sinks)
    assert np.array_equal(a1.times_ps, a2.times_ps)
    assert np.array_equal(b1.detectors, b2.detectors)
    assert np.array_equal(sinks[0].records()[1].delta, sinks[1].records()[1].delta)
    report3, _ = run_session(link, 2.0, seed=43)
    assert report3 != report1


@pytest.mark.parametrize("seed", [3, 4])
def test_session_streams_equal_oracle_chain(monkeypatch, seed):
    # The session's streams against a chain rebuilt from each slice's seed:
    # the sampler, the concatenate-and-stable-sort merge of background and
    # dark noise, all slices concatenated and stably sorted, then the
    # sequential dead-time scan. Short slices put about seven in 0.5 s.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 14)
    link = _link(length_km=0.25, traffic=_active())
    duration_s = 0.5
    calls = []
    for name in ("add_noise_tags", "apply_dead_time"):
        def spy(stream, *args, _name=name, _call=getattr(receiver, name), **kwargs):
            calls.append((_name, args))
            return _call(stream, *args, **kwargs)

        monkeypatch.setattr(receiver, name, spy)
    sink = SessionSink()
    with pytest.warns(ModeFilterWarning):
        run_session(link, duration_s, seed, sink=sink)
    # Per slice, one merge of both noise processes on each side, then dead
    # time on each side. Session streams hardly ever hold equal times, so
    # the tie order (stream, background, dark) is pinned here by the order
    # of the processes passed to the merge.
    detector = link.detector
    arm = link.arm_a
    plan = link.slices(duration_s)
    assert len(plan) >= 5
    per_slice = ["add_noise_tags"] * 2 + ["apply_dead_time"] * 2
    assert [name for name, _ in calls] == per_slice * len(plan)
    for _, (noise, _) in (call for call in calls if call[0] == "add_noise_tags"):
        assert [origin for _, origin, _ in noise] == [TagOrigin.BACKGROUND, TagOrigin.DARK]

    background = background_rate_per_detector(arm.traffic)
    assert background > 0
    merged = ([], [])
    next_id = 0
    for k, (start, stop, _) in enumerate(plan):
        slice_s = (stop - start) / 1e12
        s_pairs, *s_noise = np.random.SeedSequence(seed, spawn_key=(k,)).spawn(5)
        *pair_tags, pairs = sample_pair_tags(
            link.source, arm, arm, detector, slice_s, s_pairs, start_ps=start, first_pair_id=next_id
        )
        next_id += pairs
        for side, tags in enumerate(pair_tags):
            noise = [
                (background, TagOrigin.BACKGROUND, s_noise[side]),
                (detector.dark_cps, TagOrigin.DARK, s_noise[2 + side]),
            ]
            merged[side].append(noise_merge_reference(tags, noise, slice_s, start))
    dead_ps = round(detector.dead_time_ns * 1000)
    for parts, got in zip(merged, sink.streams()):
        whole = TagStream.concat(parts).sorted_by_time()
        kept = dead_time_reference(whole.times_ps.tolist(), whole.detectors.tolist(), dead_ps)
        # Noise and dead time both act: some noise tags are kept and some
        # tags are dropped.
        assert 0 < len(kept) < len(whole)
        assert np.count_nonzero(got.origins != TagOrigin.PAIR) > 0
        assert_streams_equal(got, whole.take(kept))


def test_short_arm_qber_band():
    # 0.25 km arms on dark fiber, defaults, 60 s of source time.
    link = _link(length_km=0.25, traffic=_dark())
    with pytest.warns(Warning):
        report, _ = run_session(link, 60.0, seed=101)
    assert link.mode_filter_ambiguous
    assert 0.02 <= report.qber <= 0.06


def test_zero_length_arms_filter_with_warning():
    # With no fiber there is no mode delay: the mode filter warns that it
    # cannot separate the modes and keeps the central coincidence window.
    link = _link(length_km=0.0, traffic=_dark())
    sink = SessionSink()
    with pytest.warns(ModeFilterWarning):
        report, _ = run_session(link, 1.0, seed=5, sink=sink)
    records, filtered = sink.records()
    half = link.coincidence_window_ps // 2
    expected = records.take(np.abs(records.delta) <= half)
    assert len(expected) > 0
    assert_records_equal(filtered, expected)
    assert link.mode_filter_ambiguous
    assert report.retained_fraction == len(expected) / len(records)


def test_active_and_dark_agree_at_3km():
    reports = {}
    for variant, traffic in (("dark", _dark()), ("active", _active())):
        report, _ = run_session(_link(length_km=3.0, traffic=traffic), 15.0, seed=202)
        reports[variant] = report
    q_active, q_dark = reports["active"].qber, reports["dark"].qber
    sigma = math.sqrt(
        q_active * (1 - q_active) / reports["active"].sifted_bits
        + q_dark * (1 - q_dark) / reports["dark"].sifted_bits
    )
    assert abs(q_active - q_dark) <= 0.02 + 4 * sigma


def test_arm_symmetry_under_arm_swap():
    # An asymmetric link with its arms swapped: the mode filter and the
    # sifting treat both ends alike, so the QBER does not see the swap.
    source = SourceParams(pair_rate=3e5, intrinsic_visibility=0.95)
    short, long = (ChannelConfig(length_km=km, traffic=ClassicalTraffic()) for km in (1.0, 1.5))
    links = {"ab": Link(short, long, source), "ba": Link(long, short, source)}
    reports = {key: [] for key in links}
    for seed in range(4):
        for key, link in links.items():
            report, _ = run_session(link, 3.0, seed=300 + seed)
            reports[key].append(report)
    runs = reports["ab"] + reports["ba"]
    pooled = sum(r.qber * r.sifted_bits for r in runs) / sum(r.sifted_bits for r in runs)
    # Each mean is over four runs, so its variance is q(1-q)/16 times the
    # sum of 1/n over its runs; sigma is that of the difference of the means.
    sigma = math.sqrt(pooled * (1 - pooled) / 16 * sum(1 / r.sifted_bits for r in runs))
    mean_ab, mean_ba = (np.mean([r.qber for r in reports[key]]) for key in ("ab", "ba"))
    assert abs(mean_ab - mean_ba) < 4 * sigma


def test_traffic_level_has_no_model_effect():
    # Counter-propagating noise is data-rate independent, so sessions at 0
    # and 100 Mbps with the same seed differ only in the report's metadata.
    reports = []
    for mbps in (0.0, 100.0):
        report, _ = run_session(_link(length_km=1.0, traffic=_active(mbps)), 2.0, seed=404)
        reports.append(report)
    assert reports[0].qber == reports[1].qber
    assert reports[0].sifted_bits == reports[1].sifted_bits
    assert reports[0].traffic_mbps != reports[1].traffic_mbps


def test_report_invariants():
    report, artifacts = run_session(_link(length_km=2.0), 5.0, seed=9)
    assert report.asymptotic_rate <= report.sifted_rate
    assert report.finite_length <= report.sifted_bits
    assert 0.0 <= report.retained_fraction <= 1.0
    assert report.sifted_bits <= artifacts.retained
    assert report.length_km_per_arm == 2.0


def test_prediction_matches_simulation():
    # The closed-form operating-point model agrees with a simulated session.
    traffic = _active()
    arm = ChannelConfig(length_km=2.0, traffic=traffic)
    source = SourceParams(pair_rate=4e5, intrinsic_visibility=0.95)
    predicted = predict_key_rates(source, arm, arm, duration_s=20.0)
    simulated, _ = run_session(_link(length_km=2.0, traffic=traffic), 20.0, seed=11)
    sigma = math.sqrt(predicted.qber * (1 - predicted.qber) / simulated.sifted_bits)
    assert abs(predicted.qber - simulated.qber) < 4 * sigma + 0.002
    assert predicted.sifted_rate == pytest.approx(simulated.sifted_rate, rel=0.05)


def test_prediction_at_zero_jitter_captures_the_window_edge_to_edge():
    # With no jitter a mode is captured whole or not at all; at 1e-3 ps
    # the normal CDFs give the same capture to double precision.
    source = SourceParams(pair_rate=4e5, intrinsic_visibility=0.95)
    arm = ChannelConfig(length_km=2.0)
    sharp, near = (
        predict_key_rates(source, arm, arm, detector=DetectorParams(jitter_sigma_ps=jitter))
        for jitter in (0.0, 1e-3)
    )
    assert sharp.qber == pytest.approx(0.025436, abs=1e-6)
    assert sharp.sifted_rate == pytest.approx(1295.04, abs=0.01)
    assert sharp.retained_fraction == pytest.approx(0.97372, abs=1e-5)
    for name in ("qber", "sifted_rate", "retained_fraction"):
        assert getattr(sharp, name) == pytest.approx(getattr(near, name), rel=1e-12)


def test_prediction_without_any_click_raises():
    source = SourceParams(pair_rate=4e5, intrinsic_visibility=0.95)
    arm = ChannelConfig(length_km=1.0, traffic=_dark())
    with pytest.raises(ValueError, match="operating point yields no coincidences"):
        predict_key_rates(source, arm, arm, detector=DetectorParams(efficiency=0.0, dark_cps=0.0))


def test_session_rejects_more_tags_than_int32_indices_reach(monkeypatch):
    # The matcher checks each side's running tag count against MAX_TAGS
    # before it holds a slice; lowered to 50,000, a 2 s session at 1 km
    # and 4e5 pairs/s passes it in its first slice.
    monkeypatch.setattr(netsim, "MAX_TAGS", 50_000)
    with pytest.raises(ValueError, match="stream A holds more than the 50000 tags"):
        run_session(_link(length_km=1.0, pair_rate=4e5), 2.0, seed=5)


BAD_ANALYSIS = [
    ("coincidence_window_ps", -10, "coincidence_window_ps must be >= 0"),
    ("coincidence_window_ps", -1, "coincidence_window_ps must be >= 0"),
    ("ec_inefficiency", 0.5, "error_correction_inefficiency must be >= 1"),
    ("ec_inefficiency", float("nan"), "error_correction_inefficiency must be >= 1"),
    ("epsilon", 2.0, "security_epsilon must be in"),
    ("epsilon", 0.0, "security_epsilon must be in"),
]


@pytest.mark.parametrize(
    "name, value, message", BAD_ANALYSIS, ids=[f"{n}={v}" for n, v, _ in BAD_ANALYSIS]
)
def test_link_rejects_bad_analysis_before_any_slice(monkeypatch, name, value, message):
    # Each value is refused when the link is built, so no slice is
    # drawn: a session that started would draw and match all its slices
    # before the key bounds read ec_inefficiency and epsilon. The
    # predictor builds the same link from its arguments and refuses too.
    drawn = []
    monkeypatch.setattr(receiver, "sample_pair_tags", lambda *a, **k: drawn.append(a))
    with pytest.raises(ValueError, match=message):
        run_session(_link(**{name: value}), 1.0, seed=3)
    assert drawn == []
    link = _link()
    with pytest.raises(ValueError, match=message):
        predict_key_rates(link.source, link.arm_a, link.arm_b, **{name: value})
