import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_streams_equal,
    dead_time_reference,
    dump_times,
    make_tag_stream,
    noise_merge_reference,
)
from fiberqkd.channel import ChannelConfig
from fiberqkd import receiver
from fiberqkd.pairgen import SourceParams
from fiberqkd.receiver import (
    NUM_DETECTORS,
    DetectorParams,
    TagOrigin,
    TagStream,
    add_noise_tags,
    apply_dead_time,
    merge_streams,
    read_tags,
    write_tags,
)
from perphoton import ArmTransits, detect_pairs, generate_pair_stream, propagate_arm


def _lossless_transits(n=50_000, seed=1, all_second_order=False):
    pairs = generate_pair_stream(SourceParams(pair_rate=1e6), n / 1e6, seed)
    config = ChannelConfig(
        length_km=0.0, splitter_quantum_loss_db=0.0, second_mode_fraction=0.0
    )
    transits = propagate_arm(
        pairs, config, seed=seed, second_order=np.zeros(len(pairs), bool)
    )
    # Zero-length arms add no mode delay; force the flags for tests that
    # need depolarized photons without the arrival lag.
    if all_second_order:
        forced = transits.survived.copy()
        transits = ArmTransits(
            survived=transits.survived,
            second_order=forced,
            depolarized=forced.copy(),
            arrival_ps=transits.arrival_ps,
        )
    return pairs, transits


def _matched_outcomes(tags_a, tags_b):
    """Join two pair-origin tag streams on pair id and keep matched bases."""
    common, ia, ib = np.intersect1d(
        tags_a.pair_ids, tags_b.pair_ids, return_indices=True
    )
    det_a = tags_a.detectors[ia]
    det_b = tags_b.detectors[ib]
    matched = (det_a >> 1) == (det_b >> 1)
    return det_a[matched] & 1, det_b[matched] & 1


def test_zero_efficiency_produces_no_tags():
    _, transits = _lossless_transits(5_000)
    det = DetectorParams(efficiency=0.0)
    tags_a, tags_b = detect_pairs(transits, transits, 0.95, det, det, seed=1)
    assert len(tags_a) == 0 and len(tags_b) == 0


def test_perfect_visibility_no_discordant_outcomes():
    _, transits = _lossless_transits(20_000)
    det = DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0)
    tags_a, tags_b = detect_pairs(transits, transits, 1.0, det, det, seed=2)
    bits_a, bits_b = _matched_outcomes(tags_a, tags_b)
    assert bits_a.size > 0
    assert np.array_equal(bits_a, bits_b)


def test_visibility_sets_discordant_fraction():
    _, transits = _lossless_transits(400_000)
    det = DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0)
    tags_a, tags_b = detect_pairs(transits, transits, 0.95, det, det, seed=3)
    bits_a, bits_b = _matched_outcomes(tags_a, tags_b)
    n = bits_a.size
    discordant = int(np.count_nonzero(bits_a != bits_b))
    sigma = math.sqrt(n * 0.025 * 0.975)
    assert abs(discordant - 0.025 * n) < 4 * sigma


def test_depolarized_photons_uncorrelated():
    _, transits = _lossless_transits(100_000, all_second_order=True)
    det = DetectorParams(
        efficiency=1.0, jitter_sigma_ps=0.0, second_mode_rejection_db=0.0
    )
    tags_a, tags_b = detect_pairs(transits, transits, 1.0, det, det, seed=4)
    bits_a, bits_b = _matched_outcomes(tags_a, tags_b)
    n = bits_a.size
    discordant = int(np.count_nonzero(bits_a != bits_b))
    sigma = math.sqrt(n * 0.25)
    assert abs(discordant - 0.5 * n) < 4 * sigma


def test_second_mode_rejection_attenuates_detection():
    _, transits = _lossless_transits(200_000, all_second_order=True)
    det = DetectorParams(
        efficiency=1.0, jitter_sigma_ps=0.0, second_mode_rejection_db=13.0
    )
    tags_a, _ = detect_pairs(transits, transits, 0.95, det, det, seed=5)
    p = 10 ** (-1.3)
    sigma = math.sqrt(200_000 * p * (1 - p))
    assert abs(len(tags_a) - 200_000 * p) < 4 * sigma


def test_mismatched_pair_sets_rejected():
    _, transits_a = _lossless_transits(1_000)
    _, transits_b = _lossless_transits(999)
    det = DetectorParams()
    with pytest.raises(ValueError):
        detect_pairs(transits_a, transits_b, 0.95, det, det, seed=1)


def test_basis_balance():
    _, transits = _lossless_transits(200_000)
    det = DetectorParams(efficiency=1.0)
    tags_a, _ = detect_pairs(transits, transits, 0.95, det, det, seed=6)
    rectilinear = int(np.count_nonzero(tags_a.detectors < 2))
    n = len(tags_a)
    sigma = math.sqrt(n * 0.25)
    assert abs(rectilinear - 0.5 * n) < 4 * sigma


def test_noise_zero_rate_is_identity():
    stream = make_tag_stream([10, 20, 30])
    assert add_noise_tags(stream, [(0.0, TagOrigin.DARK, 1)], 1.0) is stream
    zeros = [(0.0, TagOrigin.BACKGROUND, 1), (0.0, TagOrigin.DARK, 2)]
    assert add_noise_tags(stream, zeros, 1.0) is stream
    assert add_noise_tags(stream, [], 1.0) is stream
    # Even processes that draw nothing need a sorted stream.
    with pytest.raises(ValueError, match="sorted"):
        add_noise_tags(stream.take([2, 1, 0]), zeros, 1.0)


@pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
def test_noise_rejects_bad_rate(rate):
    stream = make_tag_stream([10, 20, 30])
    with pytest.raises(ValueError, match="rate_cps_per_detector"):
        add_noise_tags(stream, [(0.0, TagOrigin.BACKGROUND, 1), (rate, TagOrigin.DARK, 2)], 1.0)


def test_noise_counts_per_detector():
    # 500 cps for 10 s: about 5000 tags on each of the four detectors.
    stream = TagStream.empty()
    noisy = add_noise_tags(stream, [(500.0, TagOrigin.BACKGROUND, 2)], 10.0)
    sigma = math.sqrt(5000)
    for det in range(NUM_DETECTORS):
        count = int(np.count_nonzero(noisy.detectors == det))
        assert abs(count - 5000) < 4 * sigma
    assert np.all(noisy.origins == int(TagOrigin.BACKGROUND))
    assert noisy.is_sorted()


def test_dark_counts_mean():
    noisy = add_noise_tags(TagStream.empty(), [(300.0, TagOrigin.DARK, 3)], 1.0)
    sigma = math.sqrt(4 * 300)
    assert abs(len(noisy) - 1200) < 4 * sigma


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_noise_merge_equals_concat_and_stable_sort(rng, seed):
    # 50 ps of source time at 4e12 cps per detector: about 200 noise tags
    # per detector on 50 distinct times, so noise tags tie with each other
    # and, on the same detectors, with the stream's tags at those times.
    duration_s = 50e-12
    noise = [(4e12, TagOrigin.BACKGROUND, seed)]
    n = 300
    stream = TagStream(
        times_ps=np.sort(rng.integers(-5, 55, size=n, dtype=np.int64)),
        detectors=rng.integers(0, NUM_DETECTORS, size=n).astype(np.int8),
        origins=np.zeros(n, dtype=np.int8),
        pair_ids=np.arange(n, dtype=np.int32),
        modes=rng.integers(0, 2, size=n).astype(np.int8),
    )
    for case in (stream, TagStream.empty()):
        got = add_noise_tags(case, noise, duration_s)
        assert_streams_equal(got, noise_merge_reference(case, noise, duration_s))
    with pytest.raises(ValueError, match="sorted"):
        add_noise_tags(stream.take(rng.permutation(n)), noise, duration_s)


# Noise processes for the one-merge property: rates of 0 (no draws), 1e12
# and 4e12 cps per detector over 50 ps, so the drawn tags tie with each
# other, across processes and with the stream's tags.
_noise_processes = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e12, 4e12]),
        st.sampled_from([TagOrigin.BACKGROUND, TagOrigin.DARK]),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=3,
)
_stream_tags = st.lists(
    st.tuples(st.integers(-5, 55), st.integers(0, NUM_DETECTORS - 1), st.integers(0, 1)),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(_stream_tags, _noise_processes)
@example([], [(4e12, TagOrigin.BACKGROUND, 1), (4e12, TagOrigin.DARK, 2)])
@example([(0, 0, 0)] * 5, [(0.0, TagOrigin.BACKGROUND, 1), (4e12, TagOrigin.DARK, 2)])
@example(
    [(t, 1, 0) for t in range(50)],
    [(4e12, TagOrigin.DARK, 7), (4e12, TagOrigin.DARK, 8), (1e12, TagOrigin.BACKGROUND, 9)],
)
def test_noise_merge_equals_reference_property(tags, noise):
    duration_s = 50e-12
    tags = sorted(tags, key=lambda tag: tag[0])
    n = len(tags)
    stream = TagStream(
        times_ps=np.array([t for t, _, _ in tags], dtype=np.int64),
        detectors=np.array([d for _, d, _ in tags], dtype=np.int8),
        origins=np.zeros(n, dtype=np.int8),
        pair_ids=np.arange(n, dtype=np.int32),
        modes=np.array([m for _, _, m in tags], dtype=np.int8),
    )
    got = add_noise_tags(stream, noise, duration_s)
    assert_streams_equal(got, noise_merge_reference(stream, noise, duration_s))
    if all(rate == 0 for rate, _, _ in noise):
        assert got is stream


def _merge_side(times, first_id: int) -> TagStream:
    """A sorted stream whose pair ids number its tags from ``first_id``, so
    that every tag of two merged sides can be told apart."""
    times = np.sort(np.array(times, dtype=np.int64))
    n = times.size
    return TagStream(
        times_ps=times,
        detectors=(np.arange(n) % NUM_DETECTORS).astype(np.int8),
        origins=np.full(n, first_id % 3, dtype=np.int8),
        pair_ids=np.arange(first_id, first_id + n, dtype=np.int32),
        modes=(np.arange(n) % 2).astype(np.int8),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 10), max_size=8),
    st.lists(st.integers(0, 10), max_size=8),
    st.sampled_from([-20, -10, -5, 0, 5, 10, 20]),
)
@example([5, 7], [20, 30], 0)   # disjoint, first ahead
@example([20, 30], [5, 7], 0)   # disjoint, second ahead
@example([3, 5], [5, 9], 0)     # touching at 5, first ahead
@example([5, 9], [3, 5], 0)     # touching at 5, second ahead
@example([1, 4, 4, 8], [0, 4, 4, 9], 0)  # interleaved with ties
@example([], [2, 3], 0)
@example([2, 3], [], 0)
def test_merge_streams_equals_concat_and_stable_sort(first, second, shift):
    first = _merge_side(first, 0)
    second = _merge_side([t + shift for t in second], 100)
    want = TagStream.concat([first, second]).sorted_by_time()
    assert_streams_equal(merge_streams(first, second), want)


def test_singles_budget_by_origin():
    # Per-detector totals decompose into pair + background + dark rates.
    _, transits = _lossless_transits(100_000)
    det = DetectorParams(efficiency=0.5, jitter_sigma_ps=0.0)
    duration = 0.1
    tags, _ = detect_pairs(transits, transits, 0.95, det, det, seed=9)
    noise = [(500.0, TagOrigin.BACKGROUND, 10), (300.0, TagOrigin.DARK, 11)]
    tags = add_noise_tags(tags, noise, duration)
    expected = {
        int(TagOrigin.PAIR): 100_000 * 0.5 / NUM_DETECTORS,
        int(TagOrigin.BACKGROUND): 500.0 * duration,
        int(TagOrigin.DARK): 300.0 * duration,
    }
    for detector in range(NUM_DETECTORS):
        on_det = tags.detectors == detector
        for origin, mean in expected.items():
            count = int(np.count_nonzero(on_det & (tags.origins == origin)))
            assert abs(count - mean) < 4 * math.sqrt(mean) + 4


def test_dead_time_zero_is_identity():
    stream = make_tag_stream([0, 10, 20], [0, 0, 0])
    assert apply_dead_time(stream, 0.0) is stream


def test_dead_time_drops_close_tag():
    # Two tags 10 ns apart on one detector; 50 ns dead time keeps the first.
    stream = make_tag_stream([0, 10_000], [2, 2])
    kept = apply_dead_time(stream, 50.0)
    assert kept.times_ps.tolist() == [0]


def test_dead_time_keeps_other_detectors():
    stream = make_tag_stream([0, 10_000], [0, 1])
    kept = apply_dead_time(stream, 50.0)
    assert len(kept) == 2


def test_dead_time_matches_sequential_oracle(rng):
    for trial in range(20):
        n = 5_000
        times = np.sort(rng.integers(0, 2_000_000, size=n))
        detectors = rng.integers(0, NUM_DETECTORS, size=n)
        stream = make_tag_stream(times, detectors)
        dead_ns = float(rng.integers(1, 200))
        kept = apply_dead_time(stream, dead_ns)
        ref = dead_time_reference(
            stream.times_ps.tolist(), stream.detectors.tolist(), round(dead_ns * 1000)
        )
        assert kept.times_ps.tolist() == stream.times_ps[ref].tolist()
        assert kept.detectors.tolist() == stream.detectors[ref].tolist()


@st.composite
def _dead_time_cases(draw):
    """(dead time in ns, sorted times, detectors) with gaps that sit on and
    just inside the dead time, repeated times and long close chains."""
    dead_ns = draw(st.sampled_from([0.001, 0.003, 50.0]))
    dead_ps = round(dead_ns * 1000)
    n_detectors = draw(st.integers(1, NUM_DETECTORS))
    near = st.sampled_from([0, 1, dead_ps - 1, dead_ps, dead_ps + 1])
    gaps = draw(st.lists(st.one_of(near, st.integers(0, 3 * dead_ps)), max_size=200))
    detectors = draw(
        st.lists(st.integers(0, n_detectors - 1), min_size=len(gaps), max_size=len(gaps))
    )
    return dead_ns, np.cumsum(gaps, dtype=np.int64), detectors


@settings(max_examples=300, deadline=None)
@given(_dead_time_cases())
@example((50.0, np.empty(0, dtype=np.int64), []))
@example((50.0, np.array([7], dtype=np.int64), [3]))
@example((50.0, np.array([0, 0, 0], dtype=np.int64), [1, 1, 1]))
@example((50.0, np.array([0, 50_000, 99_999, 100_000], dtype=np.int64), [2, 2, 2, 2]))
@example((50.0, np.arange(300, dtype=np.int64) * 49_999, [0] * 300))
def test_dead_time_equals_sequential_oracle_property(case):
    dead_ns, times, detectors = case
    n = times.size
    stream = TagStream(
        times_ps=times,
        detectors=np.array(detectors, dtype=np.int8),
        origins=np.zeros(n, dtype=np.int8),
        pair_ids=np.arange(n, dtype=np.int32),
        modes=np.zeros(n, dtype=np.int8),
    )
    kept = apply_dead_time(stream, dead_ns)
    expected = dead_time_reference(times.tolist(), detectors, round(dead_ns * 1000))
    assert kept.pair_ids.tolist() == expected
    assert np.array_equal(kept.times_ps, times[expected])
    assert np.array_equal(kept.detectors, stream.detectors[expected])


def test_dead_time_idempotent_on_large_stream(rng):
    times = np.sort(rng.integers(0, 10_000_000_000, size=100_000))
    detectors = rng.integers(0, NUM_DETECTORS, size=100_000)
    stream = make_tag_stream(times, detectors)
    once = apply_dead_time(stream, 50.0)
    twice = apply_dead_time(once, 50.0)
    assert np.array_equal(once.times_ps, twice.times_ps)
    assert np.array_equal(once.detectors, twice.detectors)


def test_dead_time_spacing_invariant(rng):
    times = np.sort(rng.integers(0, 50_000_000, size=30_000))
    detectors = rng.integers(0, NUM_DETECTORS, size=30_000)
    kept = apply_dead_time(make_tag_stream(times, detectors), 50.0)
    for det in range(NUM_DETECTORS):
        per_det = kept.times_ps[kept.detectors == det]
        assert np.all(np.diff(per_det) >= 50_000)


def test_dead_time_rejects_unsorted():
    stream = TagStream(
        times_ps=np.array([100, 0], dtype=np.int64),
        detectors=np.zeros(2, dtype=np.int8),
        origins=np.zeros(2, dtype=np.int8),
        pair_ids=np.full(2, -1, dtype=np.int32),
        modes=np.full(2, -1, dtype=np.int8),
    )
    with pytest.raises(ValueError):
        apply_dead_time(stream, 50.0)


def test_tag_text_roundtrip(tmp_path, rng):
    times = np.sort(rng.integers(0, 10_000_000, size=500))
    detectors = rng.integers(0, NUM_DETECTORS, size=500)
    origins = rng.integers(0, 3, size=500)
    stream = make_tag_stream(times, detectors, origins)
    path = tmp_path / "tags.txt"
    write_tags(stream, path)
    loaded = read_tags(path)
    assert np.array_equal(loaded.times_ps, stream.times_ps)
    assert np.array_equal(loaded.detectors, stream.detectors)
    assert np.array_equal(loaded.origins, stream.origins)


def test_read_tags_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("12 0 p\n13 1 zz\n")
    with pytest.raises(ValueError):
        read_tags(path)


@pytest.mark.parametrize("chunk_rows", [2, receiver.TEXT_CHUNK_ROWS])
def test_write_tags_exact_bytes(monkeypatch, tmp_path, chunk_rows):
    monkeypatch.setattr(receiver, "TEXT_CHUNK_ROWS", chunk_rows)
    stream = make_tag_stream(
        [-40, 0, 7, 7, 123_456_789_012_345],
        detectors=[3, 0, 1, 2, 3],
        origins=[2, 0, 1, 2, 0],
    )
    path = tmp_path / "tags.txt"
    write_tags(stream, path)
    assert path.read_bytes() == (
        b"-40 3 d\n0 0 p\n7 1 b\n7 2 d\n123456789012345 3 p\n"
    )
    write_tags(TagStream.empty(), path)
    assert path.read_bytes() == b""


@pytest.mark.parametrize("origin", [-1, 3])
def test_write_tags_rejects_unknown_origin(tmp_path, origin):
    stream = make_tag_stream([1, 2], origins=[0, origin])
    with pytest.raises(ValueError):
        write_tags(stream, tmp_path / "tags.txt")


@pytest.mark.parametrize("detector", [-1, 4, 7])
def test_write_tags_rejects_detector_outside_0_to_3(tmp_path, detector):
    # read_tags refuses such a file, so the writer must not make one.
    stream = make_tag_stream([1, 9], detectors=[0, detector])
    path = tmp_path / "tags.txt"
    with pytest.raises(ValueError, match="detectors must be 0..3"):
        write_tags(stream, path)
    assert not path.exists()


@settings(max_examples=100, deadline=None)
@given(
    tags=st.lists(
        st.tuples(
            dump_times, st.integers(0, NUM_DETECTORS - 1), st.sampled_from(list(TagOrigin))
        ),
        max_size=40,
    ),
    pad=st.sampled_from(["", "\t", " \t  "]),
    blank=st.sampled_from([None, "", " \t "]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
@example(tags=[], pad="", blank=None, newline="\n")
@example(tags=[], pad="", blank=" ", newline="\r\n")
@example(
    tags=[(123_456_789_012_345, 3, TagOrigin.DARK), (-987_654_321_098_765, 0, TagOrigin.PAIR)],
    pad="\t",
    blank="",
    newline="\r\n",
)
def test_tag_text_roundtrip_property(tmp_path_factory, tags, pad, blank, newline):
    # Written tags, in any order and re-spaced with tabs, blank lines and
    # CRLF ends, read back sorted by time with the written dtypes.
    times, detectors, origins = zip(*tags) if tags else ((), (), ())
    n = len(tags)
    stream = TagStream(
        times_ps=np.array(times, dtype=np.int64),
        detectors=np.array(detectors, dtype=np.int8),
        origins=np.array(origins, dtype=np.int8),
        pair_ids=np.full(n, -1, dtype=np.int32),
        modes=np.full(n, -1, dtype=np.int8),
    )
    path = tmp_path_factory.mktemp("tags") / "tags.txt"
    write_tags(stream, path)
    lines = [
        pad + line.replace(" ", f"{pad} {pad}") + pad for line in path.read_text().splitlines()
    ]
    if blank is not None:
        lines = [blank] + [out for line in lines for out in (line, blank)]
    path.write_bytes("".join(line + newline for line in lines).encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = read_tags(path)
    expected = stream.sorted_by_time()
    for name in ("times_ps", "detectors", "origins", "pair_ids", "modes"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert loaded.pair_ids.dtype == np.int32


@pytest.mark.parametrize(
    "line, names_row",
    [
        ("7 1", False),  # too few fields
        ("7 1 p 9", False),  # too many fields
        ("7.5 1 p", False),  # non-integer time
        ("7 x p", False),  # non-integer detector
        ("7 1.0 p", False),
        ("7 1 z", True),  # unknown origin code
        ("7 1 P", True),
        ("7 1 pp", True),  # two-letter origin code
        ("7 1 pb", True),
        ("7 1 p # pair", False),  # trailing comment
        ("7 1 p#", True),
        ("7 -1 p", True),  # detector outside 0..3
        ("7 4 p", True),
        ("7 300 p", False),  # does not fit the detector field
    ],
)
def test_read_tags_rejects_malformed_line(tmp_path, line, names_row):
    path = tmp_path / "tags.txt"
    path.write_text(f"5 0 p\n\n{line}\n9 2 d\n")
    with pytest.raises(ValueError, match=re.escape(str(path))) as raised:
        read_tags(path)
    if names_row:
        assert "data row 2 " in str(raised.value)
