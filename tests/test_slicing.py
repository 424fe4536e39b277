"""Sessions run in slices of source time: each slice's draws, the state
carried across slice boundaries, and the loud failures of the slicing.

The oracle for every case is the whole-stream pipeline: the same per-slice
draws of pair tags and noise, concatenated and stably sorted by time, then
``apply_dead_time``, ``find_offset`` on the same prefix,
``match_coincidences``, ``temporal_mode_filter`` and ``sift``.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DENSE_ARM,
    DENSE_SOURCE,
    SessionSink,
    assert_records_equal,
    assert_streams_equal,
    traced_peak,
)
from fiberqkd import netsim, receiver, tagproc
from fiberqkd.channel import ChannelConfig, ClassicalTraffic, TrafficDirection
from fiberqkd.distill import sift, sift_tally
from fiberqkd.netsim import Link, SessionArtifacts, SliceOrderError, run_session
from fiberqkd.pairgen import PS_PER_SECOND, SourceParams
from fiberqkd.receiver import DetectorParams, TagStream
from fiberqkd.tagproc import ModeFilterWarning

ACTIVE = ClassicalTraffic(direction=TrafficDirection.COUNTER_PROPAGATING)
DARK = ClassicalTraffic(direction=TrafficDirection.NONE)


def _link(arm_a, arm_b, pair_rate=4e5, detector=None):
    source = SourceParams(pair_rate=pair_rate, intrinsic_visibility=0.95)
    return Link(arm_a, arm_b, source, detector or DetectorParams())


def _drawn_slices(link, duration_s, seed):
    """Each slice's fresh tags per side, drawn as the session draws them."""
    fresh = ([], [])
    next_id = 0
    for k, (start, stop, _) in enumerate(link.slices(duration_s)):
        *tags, pairs = netsim._draw_slice(link, seed, k, start, stop, next_id)
        next_id += pairs
        for held, side in zip(fresh, tags):
            held.append(side)
    return fresh


def _whole_stream(link, duration_s, fresh, offset=None):
    """The whole-stream pipeline on the per-slice ``fresh`` tags: (streams,
    offset, wide-window records, filtered records)."""
    det = link.detector
    streams = [
        receiver.apply_dead_time(TagStream.concat(parts).sorted_by_time(), det.dead_time_ns)
        for parts in fresh
    ]
    if offset is None:
        # Offset recovery reads the tags before the first frontier that has
        # at least find_offset's fine-stage count of A tags before it.
        prefix = streams
        for _, _, frontier in link.slices(duration_s):
            if frontier is not None and np.count_nonzero(
                streams[0].times_ps < frontier
            ) >= tagproc._FINE_SOURCE_TAGS:
                prefix = [tags.take(tags.times_ps < frontier) for tags in streams]
                break
        offset = tagproc.find_offset(*prefix)
    delays = (link.arm_a.mode_delay_ps, link.arm_b.mode_delay_ps)
    records = tagproc.match_coincidences(*streams, offset, link.match_window_ps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeFilterWarning)
        filtered = tagproc.temporal_mode_filter(
            records, min(delays), link.coincidence_window_ps // 2
        )
    return streams, offset, records, filtered


def _assert_session_equals_whole_stream(link, duration_s, seed, fresh, offset=None):
    """Run the session and check it against the whole-stream pipeline on
    ``fresh``; returns the session's sink."""
    sink = SessionSink()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeFilterWarning)
        report, artifacts = run_session(link, duration_s, seed, sink=sink)
    streams, offset, records, filtered = _whole_stream(link, duration_s, fresh, offset)
    for got, want in zip(sink.streams(), streams):
        assert_streams_equal(got, want)
    got_records, got_filtered = sink.records()
    assert_records_equal(got_records, records)
    assert_records_equal(got_filtered, filtered)
    key = sift(filtered)
    assert report.offset_ps == offset
    assert report.sifted_bits == len(key)
    assert report.qber == key.qber
    assert report.retained_fraction == len(filtered) / len(records)
    # Every drawn pair clicks on at least one side, so the drawn pairs are
    # the distinct pair ids of the fresh tags.
    ids = np.concatenate([tags.pair_ids for parts in fresh for tags in parts])
    assert artifacts == SessionArtifacts(
        pairs=np.unique(ids[ids >= 0]).size,
        tags_a=len(streams[0]),
        tags_b=len(streams[1]),
        records=len(records),
        retained=len(filtered),
        wide_sift=sift_tally(records),
        filtered_sift=sift_tally(filtered),
    )
    assert sink.calls == len(link.slices(duration_s))
    return sink


# (name, arm A, arm B, pair rate, detector, source seconds, seed). The first
# two are the benchmark's session workloads.
ORACLE_CASES = [
    ("dense_025km", ChannelConfig(0.25, traffic=ACTIVE), None, 4e5, None, 30.0, 1),
    (
        "sparse_4km",
        ChannelConfig(4.0, traffic=ACTIVE),
        None,
        4e6,
        DetectorParams(efficiency=1.0),
        4.5,
        1,
    ),
    (
        "asymmetric_025_6km",
        ChannelConfig(0.25, traffic=ACTIVE),
        ChannelConfig(6.0, traffic=ACTIVE),
        4e5,
        None,
        10.0,
        2,
    ),
    ("zero_length", ChannelConfig(0.0, traffic=DARK), None, 4e5, None, 6.0, 3),
    ("dark_1km", ChannelConfig(1.0, traffic=DARK), None, 4e5, None, 10.0, 4),
]


@pytest.mark.parametrize(
    "name, arm_a, arm_b, pair_rate, detector, duration_s, seed",
    ORACLE_CASES,
    ids=[case[0] for case in ORACLE_CASES],
)
def test_session_equals_whole_stream_pipeline(
    name, arm_a, arm_b, pair_rate, detector, duration_s, seed
):
    link = _link(arm_a, arm_b or arm_a, pair_rate, detector)
    fresh = _drawn_slices(link, duration_s, seed)
    sink = _assert_session_equals_whole_stream(link, duration_s, seed, fresh)
    assert sink.calls >= 3


@pytest.mark.parametrize(
    "name, arm_a, arm_b, pair_rate, detector",
    [case[:5] for case in ORACLE_CASES],
    ids=[case[0] for case in ORACLE_CASES],
)
def test_session_equals_whole_stream_pipeline_in_short_slices(
    monkeypatch, name, arm_a, arm_b, pair_rate, detector
):
    # 2^11 clicking pairs per slice: dozens of slices in 2 s, so that
    # dead-time runs, waiting tags and matcher runs meet many boundaries.
    # With offset recovery (and its fine stage) on 2^14 A tags, matching
    # runs slice by slice after a prefix of several slices.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 11)
    monkeypatch.setattr(tagproc, "_FINE_SOURCE_TAGS", 1 << 14)
    link = _link(arm_a, arm_b or arm_a, pair_rate, detector)
    sink = _assert_session_equals_whole_stream(link, 2.0, 7, _drawn_slices(link, 2.0, 7))
    assert sink.calls >= 20
    assert sum(len(part) > 0 for part in sink.parts[2]) >= 5


def test_slice_seeds_follow_the_slice_index():
    # Slice k draws from SeedSequence(seed, spawn_key=(k,)), which is the
    # k-th child that SeedSequence(seed).spawn() hands out.
    children = np.random.SeedSequence(99).spawn(3)
    for k, child in enumerate(children):
        again = np.random.SeedSequence(99, spawn_key=(k,))
        assert np.array_equal(child.generate_state(4), again.generate_state(4))


def test_pair_ids_run_on_across_slices(monkeypatch):
    # Without dead time every drawn pair keeps its tags.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 12)
    link = _link(DENSE_ARM, DENSE_ARM, DENSE_SOURCE.pair_rate, DetectorParams(dead_time_ns=0.0))
    sink = SessionSink()
    with pytest.warns(ModeFilterWarning):
        _, artifacts = run_session(link, 0.3, seed=8, sink=sink)
    tags_a, tags_b = sink.streams()
    ids = np.union1d(tags_a.pair_ids[tags_a.pair_ids >= 0], tags_b.pair_ids[tags_b.pair_ids >= 0])
    # Every drawn pair clicks somewhere, and one counter numbers them all.
    assert np.array_equal(ids, np.arange(artifacts.pairs))
    assert sink.calls > 10


# Arms of zero length (no delays), no noise, and slices of about 100 us:
# the synthetic tags below sit within 30 ns of slice boundaries, so that
# dead-time runs and matcher runs (7.7 ns windows) cross them.
QUIET_ARM = ChannelConfig(length_km=0.0, traffic=DARK)
REACH_PS = math.ceil(netsim._JITTER_REACH * DetectorParams().jitter_sigma_ps)


def _slice_ps(link) -> int:
    """The length of a whole slice of ``link``'s sessions."""
    return link.slices(1.0)[0][1]


def _quiet_link(dead_time_ns):
    detector = DetectorParams(dark_cps=0.0, dead_time_ns=dead_time_ns)
    budget = receiver.link_budget(QUIET_ARM, QUIET_ARM, detector)
    # One expected clicking pair per 100 us.
    pair_rate = 1e4 / budget.class_probs.sum()
    return _link(QUIET_ARM, QUIET_ARM, pair_rate, detector)


def _synthetic_sampler(data, fresh):
    """A stand-in for ``sample_pair_tags`` that returns tags drawn by
    hypothesis near the slice's two ends, and from the middle of the first
    slice on 100 error-free pairs 100 ns apart, and records each slice's
    tags in ``fresh``."""
    # From the jitter reach before the start to 30 ns after it, and from
    # 30 ns before the end to the reach after it, in 2.5 ns steps, half of
    # them within the reach of the boundary, and some moved by a half or a
    # whole match window (3,828 ps) or one tick more.
    nudge = st.sampled_from([0, 0, 0, 0, 1250, -1250, 3828, -3828, 3829, -3829])
    step = st.one_of(st.integers(-2, 2), st.integers(-2, 12))
    steps = st.builds(lambda j, d: 2500 * j + d, step, nudge).filter(lambda t: t >= -REACH_PS)

    def sample(source, config_a, config_b, detector, duration_s, seed, *, start_ps=0,
               first_pair_id=0):
        stop = start_ps + round(duration_s * PS_PER_SECOND)
        near_ends = st.one_of(steps.map(lambda t: start_ps + t), steps.map(lambda t: stop - t))
        streams = []
        for side in range(2):
            drawn = data.draw(st.lists(st.tuples(near_ends, st.integers(0, 3)), max_size=10))
            if start_ps == 0:
                drawn += [((start_ps + stop) // 2 + 100_000 * i, 0) for i in range(100)]
            first = first_pair_id + (len(streams[0]) if streams else 0)
            streams.append(
                TagStream(
                    times_ps=np.array([t for t, _ in drawn], dtype=np.int64).reshape(-1),
                    detectors=np.array([d for _, d in drawn], dtype=np.int8).reshape(-1),
                    origins=np.zeros(len(drawn), dtype=np.int8),
                    pair_ids=np.arange(first, first + len(drawn), dtype=np.int32),
                    modes=np.zeros(len(drawn), dtype=np.int8),
                ).sorted_by_time()
            )
        for held, tags in zip(fresh, streams):
            held.append(tags)
        # Each tag is a pair of its own.
        return (*streams, sum(map(len, streams)))

    return sample


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n_slices=st.integers(1, 4),
    last_fraction=st.sampled_from([0.01, 0.5, 1.0]),
    dead_time_ns=st.sampled_from([0.0, 8.0, 50.0]),
)
def test_slice_boundaries_equal_whole_stream(data, n_slices, last_fraction, dead_time_ns):
    # Covers equal times on both sides of a boundary, dead-time and matcher
    # runs across one, empty slices (a slice may draw no tags), a session
    # shorter than one slice (one slice, last_fraction < 1) and a duration
    # that is not a whole number of slices.
    link = _quiet_link(dead_time_ns)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netsim, "SLICE_PAIRS", 1)
        slice_ps = _slice_ps(link)
        duration_ps = (n_slices - 1) * slice_ps + max(1, round(last_fraction * slice_ps))
        duration_s = duration_ps / PS_PER_SECOND
        fresh = ([], [])
        patch.setattr(receiver, "sample_pair_tags", _synthetic_sampler(data, fresh))
        # A fixed offset, and matching that starts after the first slice
        # with an A tag, so that later slices match one by one.
        patch.setattr(tagproc, "find_offset", lambda tags_a, tags_b: 0)
        patch.setattr(tagproc, "_FINE_SOURCE_TAGS", 1)
        sink = _assert_session_equals_whole_stream(link, duration_s, 0, fresh, offset=0)
    assert sink.calls == n_slices


def test_tag_behind_the_processed_frontier_raises(monkeypatch):
    # A tag of a later slice whose jitter takes it past the jitter reach
    # before the slice's start would land among tags already processed:
    # the session raises rather than drop or misorder it.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 12)
    reach = math.ceil(netsim._JITTER_REACH * DetectorParams().jitter_sigma_ps)
    sample = receiver.sample_pair_tags
    late = []

    def far_jitter(*args, start_ps=0, **kwargs):
        tags_a, tags_b, pairs = sample(*args, start_ps=start_ps, **kwargs)
        if start_ps > 0 and len(tags_a):
            tags_a.times_ps[0] = start_ps - reach - 1
            late.append(start_ps)
        return tags_a, tags_b, pairs

    monkeypatch.setattr(receiver, "sample_pair_tags", far_jitter)
    link = _link(DENSE_ARM, DENSE_ARM, DENSE_SOURCE.pair_rate)
    with pytest.raises(SliceOrderError, match="behind"):
        run_session(link, 0.1, seed=9)
    assert len(late) == 1


def test_link_slices_follow_the_slice_plan(monkeypatch):
    # The plan from its definition: slices of SLICE_PAIRS expected clicking
    # pairs, the last one cut at the session's end, each with its frontier
    # ten jitter sigmas before its stop and none on the last.
    link = _link(DENSE_ARM, DENSE_ARM, DENSE_SOURCE.pair_rate)
    click_rate = DENSE_SOURCE.pair_rate * receiver.link_budget(
        DENSE_ARM, DENSE_ARM, link.detector
    ).class_probs.sum()
    slice_ps = math.ceil(netsim.SLICE_PAIRS / click_rate * 1e12)
    reach = math.ceil(10 * link.detector.jitter_sigma_ps)
    for duration_ps in (slice_ps // 3, slice_ps, 3 * slice_ps, 3 * slice_ps + 1234):
        n = -(-duration_ps // slice_ps)
        stops = [slice_ps * (k + 1) for k in range(n - 1)] + [duration_ps]
        frontiers = [stop - reach for stop in stops[:-1]] + [None]
        want = list(zip([slice_ps * k for k in range(n)], stops, frontiers))
        assert link.slices(duration_ps / 1e12) == want
    # No pair can click: the whole session is one slice.
    dead = _link(DENSE_ARM, DENSE_ARM, 4e5, DetectorParams(efficiency=0.0))
    assert dead.slices(100.0) == [(0, 100 * 10**12, None)]
    # Refused before any draw: a session under 1 ps, and slices shorter
    # than the time a tag can wait past them. At 1e12 pairs/s a slice lasts
    # about 1 us, less than the 50 us offset search span alone.
    drawn = []
    monkeypatch.setattr(receiver, "sample_pair_tags", lambda *a, **k: drawn.append(a))
    with pytest.raises(ValueError, match="duration_s"):
        run_session(link, 4e-13, seed=1)
    with pytest.raises(ValueError, match="shorter than the .* ps a tag can wait"):
        run_session(_link(DENSE_ARM, DENSE_ARM, pair_rate=1e12), 1e-3, seed=1)
    assert drawn == []


def test_session_peak_memory_is_set_by_a_slice():
    # dense_025km settings: nine times the source time may raise the traced
    # peak by at most 10%, and no peak may pass 24 MiB. A slice's arrays
    # peaked at 19.3-19.9 MiB with Python 3.11 and numpy 2.4.
    link = _link(ChannelConfig(0.25, traffic=ACTIVE), ChannelConfig(0.25, traffic=ACTIVE), 4e5)
    peaks = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeFilterWarning)
        for duration_s in (10.0, 90.0):
            (_, artifacts), peaks[duration_s] = traced_peak(run_session, link, duration_s, 3)
            assert artifacts.tags_a > duration_s * 1e5
    assert peaks[90.0] <= 1.1 * peaks[10.0], peaks
    assert max(peaks.values()) <= 24 * 2**20, peaks


def test_session_parts_keep_each_columns_declared_width(monkeypatch):
    # The byte digests cannot see a column that widened. Every part a short
    # dense_025km-like session hands its sink, in short slices with the
    # offset found in the first, keeps each column at its declared width.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 15)
    monkeypatch.setattr(tagproc, "_FINE_SOURCE_TAGS", 1 << 14)
    link = _link(ChannelConfig(0.25, traffic=ACTIVE), ChannelConfig(0.25, traffic=ACTIVE), 4e5)
    sink = SessionSink()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeFilterWarning)
        run_session(link, 0.5, seed=4, sink=sink)
    tags_a, tags_b, records, filtered = sink.parts
    assert len(filtered) == sink.calls >= 3
    assert all(len(part) for part in filtered)
    for part in tags_a + tags_b:
        for f in fields(TagStream):
            assert getattr(part, f.name).dtype == f.metadata["dtype"], f.name
    widths = dict.fromkeys(("times_a", "times_b", "delta"), np.int64)
    widths |= dict.fromkeys(("det_a", "det_b"), np.int8)
    widths |= dict.fromkeys(("idx_a", "idx_b"), np.int32)
    for part in records + filtered:
        for name, dtype in widths.items():
            assert getattr(part, name).dtype == dtype, name


@pytest.mark.parametrize("counts, reached", [((4, 2, 3), 1), ((6, 1), 0)])
def test_offset_recovered_in_the_slice_where_a_reaches_the_prefix(monkeypatch, counts, reached):
    # Slice k draws counts[k] pairs, each clicking on both sides, far from
    # the slice's ends. A holds exactly 6 final tags, the patched
    # fine-stage count, at slice ``reached``: the offset is recovered in
    # that slice, from those 6 tags, and not a slice earlier or later.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1)
    monkeypatch.setattr(tagproc, "_FINE_SOURCE_TAGS", 6)
    link = _quiet_link(dead_time_ns=0.0)
    slice_ps = _slice_ps(link)

    def sample(*args, start_ps=0, first_pair_id=0, **kwargs):
        n = counts[start_ps // slice_ps]
        times = start_ps + slice_ps // 2 + 100_000 * np.arange(n, dtype=np.int64)
        ids = np.arange(first_pair_id, first_pair_id + n, dtype=np.int32)
        zeros = np.zeros(n, dtype=np.int8)
        return (*(TagStream(times.copy(), zeros, zeros, ids, zeros) for _ in "AB"), n)

    searched = []

    def find_offset(tags_a, tags_b):
        searched.append((len(tags_a), len(tags_b)))
        return 0

    monkeypatch.setattr(receiver, "sample_pair_tags", sample)
    monkeypatch.setattr(tagproc, "find_offset", find_offset)
    sink = SessionSink()
    with pytest.warns(ModeFilterWarning):
        run_session(link, len(counts) * slice_ps / PS_PER_SECOND, seed=0, sink=sink)
    assert searched == [(6, 6)]
    # The slices before ``reached`` hand the sink no records.
    assert sink.calls == len(counts)
    assert [len(part) for part in sink.parts[2]] == [6] + list(counts[reached + 1:])
