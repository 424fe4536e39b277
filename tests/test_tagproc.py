import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DENSE_ARM,
    DENSE_SOURCE,
    assert_records_equal,
    column_bytes,
    dump_times,
    make_tag_stream,
    traced_peak,
)
from fiberqkd import receiver, tagproc
from fiberqkd.channel import ChannelConfig
from fiberqkd.distill import sift
from fiberqkd.netsim import Link
from fiberqkd.pairgen import SourceParams
from fiberqkd.receiver import DetectorParams, sample_pair_tags
from fiberqkd.tagproc import (
    Coincidences,
    ModeFilterWarning,
    NoCorrelationPeakError,
    find_offset,
    match_coincidences,
    read_coincidences,
    temporal_mode_filter,
    write_coincidences,
)


def _poisson_times(rng, rate_cps, duration_s=1.0):
    n = rng.poisson(rate_cps * duration_s)
    return np.sort(rng.integers(0, int(duration_s * 1e12), size=n, dtype=np.int64))


def _records(delta, det_a=None, det_b=None):
    delta = np.asarray(delta, dtype=np.int64)
    n = delta.size
    if det_a is None:
        det_a = np.zeros(n, dtype=np.int8)
    if det_b is None:
        det_b = np.zeros(n, dtype=np.int8)
    times_a = np.arange(n, dtype=np.int64) * 1_000_000
    return Coincidences(
        times_a=times_a,
        times_b=times_a + delta,
        det_a=np.asarray(det_a, dtype=np.int8),
        det_b=np.asarray(det_b, dtype=np.int8),
        delta=delta,
        idx_a=np.arange(n, dtype=np.int32),
        idx_b=np.arange(n, dtype=np.int32),
        offset_ps=0,
    )


def _pairing_histogram(ta, tb, span, width, max_source_tags=None):
    """(origin, counts) of find_offset's coarse histogram grid, filled with
    the pairings of the earliest ``max_source_tags`` A times with every B
    time. Bin k covers [origin + k*width, origin + (k+1)*width)."""
    origin, n_bins = tagproc._bin_grid(make_tag_stream(ta), make_tag_stream(tb), span, width)
    counts = np.zeros(n_bins, dtype=np.int64)
    tagproc._add_pairings(counts, ta[:max_source_tags], tb, origin, width)
    return origin, counts


def test_histogram_counts_all_pairings(rng):
    # Total histogram mass equals a brute-force count of in-range pairings.
    ta = _poisson_times(rng, 2_000, 0.001)
    tb = _poisson_times(rng, 2_000, 0.001)
    span, width = 100_000, 200
    origin, counts = _pairing_histogram(ta, tb, span, width)
    hi = origin + counts.size * width
    brute = sum(
        1 for a in ta.tolist() for b in tb.tolist() if origin <= b - a < hi
    )
    assert int(counts.sum()) == brute


def _assert_histogram_equals_brute_force(ta, tb, span, width, max_source_tags):
    origin, counts = _pairing_histogram(ta, tb, span, width, max_source_tags)
    n_bins = counts.size
    assert n_bins % 2 == 1
    # The bin centers find_offset reads off the grid.
    centers = origin + width // 2 + width * np.arange(n_bins, dtype=np.int64)
    assert centers[n_bins // 2] == 0 and np.all(np.diff(centers) == width)
    edges = origin + width * np.arange(n_bins + 1, dtype=np.int64)
    assert edges[0] <= -span and edges[-1] > span
    diffs = (tb[None, :] - ta[:max_source_tags, None]).ravel()
    # np.histogram closes its last bin on the right; these bins are half-open.
    expected, _ = np.histogram(diffs[diffs < edges[-1]], bins=edges)
    assert np.array_equal(counts, expected)
    return edges


@pytest.mark.parametrize("width", [1, 7, 200, 201])
@pytest.mark.parametrize("chunk_tags", [3, None])
def test_histogram_bins_equal_brute_force(monkeypatch, rng, width, chunk_tags):
    # Every bin equals np.histogram of all brute-force B-minus-A differences,
    # also when A is cut by max_source_tags and walked a few tags at a time.
    if chunk_tags is not None:
        monkeypatch.setattr(tagproc, "_PAIRING_CHUNK", chunk_tags)
    for _ in range(5):
        ta = np.sort(rng.integers(-3_000, 3_000, size=rng.integers(1, 40)))
        tb = np.sort(rng.integers(-3_000, 3_000, size=rng.integers(1, 40)))
        span = int(rng.integers(1, 2_500))
        _assert_histogram_equals_brute_force(ta, tb, span, width, int(rng.integers(1, 50)))
    # Differences on, just below and just past every bin edge.
    ta = np.array([-1, 0, 1], dtype=np.int64)
    edges = _assert_histogram_equals_brute_force(ta, ta, 600, width, 3)
    tb = np.sort(np.concatenate([edges - 1, edges]))
    _assert_histogram_equals_brute_force(ta, tb, 600, width, 3)
    # B ends inside the windows of the later A tags, so their walks run
    # past the last B tag.
    ta = np.sort(rng.integers(-3_000, 3_000, size=30))
    tb = np.sort(rng.integers(-3_000, 0, size=30))
    _assert_histogram_equals_brute_force(ta, tb, 2_000, width, 30)
    # Hundreds of B tags in one A tag's window: a walk of as many rounds.
    tb = np.sort(rng.integers(-100, 100, size=400))
    _assert_histogram_equals_brute_force(ta, tb, 2_000, width, 30)
    # The fine stage's edges, coarse -+ (half window + margin), around a
    # planted shift, with B tags on, just inside and just past both edges.
    coarse = 5_000_000
    reach = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS // 2 + tagproc._FINE_MARGIN_PS
    ta = np.sort(rng.integers(0, 100_000, size=40))
    near = np.array([-reach - 1, -reach, -reach + 1, 0, reach - 1, reach, reach + 1])
    planted = ta + coarse + rng.integers(-reach, reach, size=ta.size)
    on_edges = (ta[::8, None] + coarse + near).ravel()
    noise = coarse + rng.integers(0, 100_000, size=40)
    tb = np.sort(np.concatenate([planted, on_edges, noise]))
    lo, hi = coarse - reach, coarse + reach + 1
    walked = np.concatenate(list(tagproc._pairing_differences(ta, tb, lo, hi)))
    brute = (tb[None, :] - ta[:, None]).ravel()
    assert np.array_equal(np.sort(walked), np.sort(brute[(lo <= brute) & (brute < hi)]))


_INT64 = np.iinfo(np.int64)


@st.composite
def _rank_case(draw):
    """Sorted B times and sorted keys. Keys are often B times themselves
    and repeat; they reach below and above every B time, and now and then
    B or the keys hold the int64 extremes."""
    small = st.integers(-40, 40)
    times = st.one_of(small, small, small, st.integers(_INT64.min, _INT64.max))
    tb = draw(st.lists(times, max_size=50))
    keys = st.integers(-60, 60)
    if tb:
        keys = st.one_of(keys, st.sampled_from(tb))
    return sorted(tb), sorted(draw(st.lists(st.one_of(keys, times), max_size=50)))


@pytest.mark.parametrize("chunk", [1, 2, 5, tagproc._RANK_CHUNK])
@settings(max_examples=200, deadline=None)
@given(case=_rank_case())
@example(case=([], []))
@example(case=([], [-3, 0, 0, 4]))
@example(case=([-2, 0, 0, 7], []))
@example(case=([0, 1, 1, 2], [1, 1, 1]))
@example(case=([5, 6, 7], [-9, -8, 1, 2]))
@example(case=([5, 6, 7], [8, 8, 100]))
@example(case=([_INT64.min, 0, _INT64.max], [_INT64.min, _INT64.min, 0, _INT64.max]))
def test_rank_equals_searchsorted_property(chunk, case):
    # The merge gives numpy's left-side binary search for sorted keys, one
    # block of keys at a time.
    tb, keys = (np.array(values, dtype=np.int64) for values in case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tagproc, "_RANK_CHUNK", chunk)
        ranks = tagproc._rank(tb, keys)
    assert ranks.dtype == np.intp
    assert np.array_equal(ranks, np.searchsorted(tb, keys, side="left"))


def test_rank_equals_searchsorted_at_dense_size():
    # The matcher's window starts at about 0.22 M tags per side: keys and B
    # times interleave, and blocks of keys end inside runs of B times.
    tags_a, tags_b, _ = sample_pair_tags(
        DENSE_SOURCE, DENSE_ARM, DENSE_ARM, DetectorParams(), 2.0, seed=3
    )
    tb = tags_b.times_ps
    for lower in (-6_000, 0, 1):
        keys = tags_a.times_ps + lower
        assert keys.size > 20 * tagproc._RANK_CHUNK
        assert np.array_equal(tagproc._rank(tb, keys), np.searchsorted(tb, keys, side="left"))


def test_find_offset_exact_for_shifted_stream(rng):
    times = _poisson_times(rng, 50_000)
    tags_a = make_tag_stream(times)
    tags_b = make_tag_stream(times + 5_000_000)
    assert find_offset(tags_a, tags_b) == 5_000_000


def test_find_offset_with_jitter_near_truth(rng):
    # Gaussian jitter sigma 500 ps on both sides, 200 ps bins: the peak of
    # the convolved distribution stays within 600 ps of the true offset.
    times = _poisson_times(rng, 50_000)
    jit_a = np.rint(rng.normal(0, 500, times.size)).astype(np.int64)
    jit_b = np.rint(rng.normal(0, 500, times.size)).astype(np.int64)
    tags_a = make_tag_stream(times + jit_a)
    tags_b = make_tag_stream(times + 5_000_000 + jit_b)
    offset = find_offset(tags_a, tags_b)
    assert abs(offset - 5_000_000) <= 600
    # Brute-force scan oracle: argmax over an independent difference
    # histogram around the truth agrees with the returned bin center.
    diffs = []
    tb = tags_b.times_ps
    for t in tags_a.times_ps[:20_000].tolist():
        lo = np.searchsorted(tb, t + 5_000_000 - 10_000)
        hi = np.searchsorted(tb, t + 5_000_000 + 10_000)
        diffs.extend((tb[lo:hi] - t).tolist())
    centers = np.arange(5_000_000 - 10_000, 5_000_000 + 10_001, 200)
    counts = [
        int(np.sum(np.abs(np.asarray(diffs) - c) <= 100)) for c in centers.tolist()
    ]
    brute_peak = centers[int(np.argmax(counts))]
    assert abs(offset - brute_peak) <= 200


def test_find_offset_unrelated_streams_raise(rng):
    tags_a = make_tag_stream(_poisson_times(rng, 10_000))
    tags_b = make_tag_stream(_poisson_times(rng, 10_000))
    with pytest.raises(NoCorrelationPeakError):
        find_offset(tags_a, tags_b)


def test_find_offset_empty_stream_raises(rng):
    tags = make_tag_stream(_poisson_times(rng, 1_000))
    with pytest.raises(ValueError):
        find_offset(make_tag_stream([]), tags)


def test_find_offset_shift_equivariance(rng):
    times = _poisson_times(rng, 30_000)
    tags_a = make_tag_stream(times)
    base = find_offset(tags_a, tags_a)
    for shift in (-2_000_000, -200, 200, 7_400, 3_141_800):
        shifted = make_tag_stream(times + shift)
        assert find_offset(tags_a, shifted) == base + shift


def test_find_offset_independent_session_rate_streams_raise(rng):
    # Independent streams at session singles rates (170 k tags/s for 4.5 s a
    # side): the fullest of the 500,001 bins clears 5 sigma over the median
    # by chance, but not the look-elsewhere bound.
    tags_a = make_tag_stream(_poisson_times(rng, 170_000, 4.5))
    tags_b = make_tag_stream(_poisson_times(rng, 170_000, 4.5))
    with pytest.raises(NoCorrelationPeakError, match="chance bound"):
        find_offset(tags_a, tags_b)


@pytest.mark.parametrize("side", [0, 1])
def test_find_offset_rejects_unsorted(rng, side):
    # Out of order A times would give wrong merge ranks, and out of order B
    # times a flat pairing index of billions of entries; both raise instead.
    times = _poisson_times(rng, 50_000)
    streams = [make_tag_stream(times), make_tag_stream(times + 5_000_000)]
    streams[side] = streams[side].take(rng.permutation(times.size))
    with pytest.raises(ValueError, match="sorted"):
        find_offset(*streams)


def test_find_offset_no_pairing_in_span_raises():
    tags_a = make_tag_stream([0, 1_000])
    tags_b = make_tag_stream([10**9])
    with pytest.raises(NoCorrelationPeakError, match="no pairing"):
        find_offset(tags_a, tags_b)


def test_peak_shortfall_needs_five_sigma_over_the_median():
    # 600 of 1,001 bins at 100: a bin at 125 is far beyond the chance bound
    # over a mean of 60 per bin, yet under 5 sigma over the median floor of
    # 100, which a bin at 150 reaches.
    counts = np.zeros(1001, dtype=np.int64)
    counts[:600] = 100
    counts[700] = 125
    assert tagproc._peak_shortfall(counts) == "max bin 125 vs floor 100.0 (needs 5.0 sigma)"
    counts[700] = 150
    assert tagproc._peak_shortfall(counts) is None


def _sparse_times(n, seed):
    # Gaps of 20 ns plus an exponential 20 us: no B-minus-A difference of
    # two different tags falls within 20 ns of the shift.
    gaps = 20_000 + np.random.default_rng(seed).exponential(20e6, n).astype(np.int64)
    return np.cumsum(gaps)


_SPARSE_TIMES = _sparse_times(2_000, 7)


@st.composite
def _width_and_shift(draw):
    width = draw(st.sampled_from([200, 201, 1000]))
    reach = tagproc.DEFAULT_SEARCH_SPAN_PS - width
    return width, draw(st.integers(-reach, reach))


@settings(max_examples=60, deadline=None)
@given(_width_and_shift())
@example((200, 5_000_100))
@example((200, 5_000_099))
@example((200, -100))
@example((200, -101))
def test_find_offset_exact_shift_returns_its_bin_center(width_and_shift):
    # A jitter-free shift s anywhere within +-(span - one bin) comes back as
    # the center k*w of the half-open bin [k*w - w//2, k*w - w//2 + w) that
    # holds it: 5,000,100 -> 5,000,200, 5,000,099 -> 5,000,000, -100 -> 0,
    # -101 -> -200 at w = 200.
    width, shift = width_and_shift
    expected = (shift + width // 2) // width * width
    tags_a = make_tag_stream(_SPARSE_TIMES)
    tags_b = make_tag_stream(_SPARSE_TIMES + shift)
    assert find_offset(tags_a, tags_b, bin_width_ps=width) == expected


@pytest.mark.parametrize("true_offset, nearest", [(10_080, 10_000), (10_130, 10_200), (-3_170, -3_200)])
def test_find_offset_jittered_returns_nearest_bin_center(rng, true_offset, nearest):
    # 50 k pairs with 500 ps jitter a side: the estimate lands within a few
    # ps of the truth, so the nearest bin center comes back, also when the
    # fullest 200 ps bin is a neighbour.
    times = _poisson_times(rng, 50_000)
    jit_a = np.rint(rng.normal(0, 500, times.size)).astype(np.int64)
    jit_b = np.rint(rng.normal(0, 500, times.size)).astype(np.int64)
    tags_a = make_tag_stream(times + jit_a)
    tags_b = make_tag_stream(times + true_offset + jit_b)
    assert find_offset(tags_a, tags_b) == nearest


def _weak_peak_streams(draw):
    """(A, B) tag streams in which 0.3% of about 765 k A tags have a
    jittered partner at +2,000,000 ps among independent B tags."""
    rng = np.random.default_rng(draw)
    times_a = _poisson_times(rng, 170_000, 4.5)
    partners = times_a[rng.random(times_a.size) < 0.003]
    jitter = np.rint(rng.normal(0, 500 * math.sqrt(2), partners.size)).astype(np.int64)
    times_b = np.concatenate([_poisson_times(rng, 170_000, 4.5), partners + 2_000_000 + jitter])
    return make_tag_stream(times_a), make_tag_stream(times_b)


def _searched_steps(monkeypatch):
    """The list to which each coarse step's count of A tags is appended."""
    searched = []
    add_pairings = tagproc._add_pairings

    def counting(counts, ta, *args):
        searched.append(ta.size)
        add_pairings(counts, ta, *args)

    monkeypatch.setattr(tagproc, "_add_pairings", counting)
    return searched


def test_find_offset_doubles_source_tags_for_a_weak_peak(monkeypatch):
    # The draw is fixed so that 2**15 source tags are not enough and 2**16
    # are.
    tags_a, tags_b = _weak_peak_streams(0)
    searched = _searched_steps(monkeypatch)
    assert find_offset(tags_a, tags_b) == 2_000_000
    assert searched == [32_768, 32_768]
    # Starting from fewer tags doubles more often; starting at the cap
    # searches every tag at once. Both find the same offset.
    monkeypatch.setattr(tagproc, "_COARSE_SOURCE_TAGS", 1_024)
    assert find_offset(tags_a, tags_b) == 2_000_000
    monkeypatch.setattr(tagproc, "_COARSE_SOURCE_TAGS", tagproc.DEFAULT_MAX_SOURCE_TAGS)
    assert find_offset(tags_a, tags_b) == 2_000_000


@pytest.mark.parametrize(
    "draw, coarse_stop",
    [(0, 65_536), (1, 65_536), (2, 65_536), (3, 32_768), (4, 65_536), (5, 65_536)],
)
def test_find_offset_refines_a_weak_peak_from_the_fine_stage_cap(monkeypatch, draw, coarse_stop):
    # Whether the coarse stage stops at 2**15 or 2**16 A tags, the fine
    # stage reads its cap of 2**18, from which about 790 partners come, and
    # lands within one 200 ps bin of the shift; draw 5 gives 1,999,800.
    tags_a, tags_b = _weak_peak_streams(draw)
    searched = _searched_steps(monkeypatch)
    refined = []
    mean_shift = tagproc._mean_shift_offset

    def counting(ta, *args):
        refined.append(ta.size)
        return mean_shift(ta, *args)

    monkeypatch.setattr(tagproc, "_mean_shift_offset", counting)
    offset = find_offset(tags_a, tags_b)
    assert sum(searched) == coarse_stop
    assert refined == [262_144]
    assert abs(offset - 2_000_000) <= 200


def test_find_offset_over_every_source_tag_finds_the_weak_peak(monkeypatch):
    # The weak-peak streams above, searched in one histogram over all A tags
    # (no pairing bound on the start): the offset the doubling search finds.
    tags_a, tags_b = _weak_peak_streams(0)
    searched = _searched_steps(monkeypatch)
    monkeypatch.setattr(tagproc, "_COARSE_SOURCE_TAGS", tagproc.DEFAULT_MAX_SOURCE_TAGS)
    monkeypatch.setattr(tagproc, "_COARSE_PAIRINGS", math.inf)
    assert find_offset(tags_a, tags_b) == 2_000_000
    assert searched == [min(tagproc.DEFAULT_MAX_SOURCE_TAGS, len(tags_a))]


def test_find_offset_starts_from_fewer_source_tags_on_a_bright_stream(monkeypatch):
    # About 2.2 M B tags/s put 220 B tags in the +-50 us span of each A tag,
    # so 2**15 source tags would expect 7.2 M pairings on the first step.
    rng = np.random.default_rng(3)
    times_a = _poisson_times(rng, 2_000_000, 0.5)
    partners = times_a[rng.random(times_a.size) < 0.1]
    jitter = np.rint(rng.normal(0, 500 * math.sqrt(2), partners.size)).astype(np.int64)
    times_b = np.concatenate([_poisson_times(rng, 2_000_000, 0.5), partners + 3_000_000 + jitter])
    tags_a, tags_b = make_tag_stream(times_a), make_tag_stream(times_b)
    tb = tags_b.times_ps
    per_a = tb.size * 500_001 * 200 / (tb[-1] - tb[0])
    searched = _searched_steps(monkeypatch)
    offset = find_offset(tags_a, tags_b)
    assert offset == 3_000_000
    assert searched[0] * per_a <= 2**21 < 2 * searched[0] * per_a
    # Without the bound the search starts from 2**15 tags, to the same end.
    monkeypatch.setattr(tagproc, "_COARSE_PAIRINGS", math.inf)
    searched.clear()
    assert find_offset(tags_a, tags_b) == offset
    assert searched[0] == 32_768


def test_find_offset_peak_memory_bounded_by_the_pairing_step():
    # The sparse session's arms and rate (4 km, 4e6 pairs/s, efficiency 1)
    # over 1 s: 0.17 M tags per side and about 17 pairings per A tag in the
    # +-50 us span. The pairings are walked _PAIRING_CHUNK A tags at a time,
    # so the scratch beside the counts is bounded by that step and not by
    # the pairings. The walk holds about eight step-long arrays; the median
    # floor's copy of the counts, 15.3 steps here, is the largest part.
    arm = ChannelConfig(length_km=4.0)
    tags_a, tags_b, _ = sample_pair_tags(
        SourceParams(pair_rate=4e6), arm, arm, DetectorParams(efficiency=1.0), 1.0, seed=3
    )
    offset, peak = traced_peak(find_offset, tags_a, tags_b)
    assert offset == 0
    ta, tb = tags_a.times_ps, tags_b.times_ps
    origin, n_bins = tagproc._bin_grid(tags_a, tags_b, tagproc.DEFAULT_SEARCH_SPAN_PS, 200)
    first_step = ta[: tagproc._coarse_start(tb, n_bins * 200)]
    pairings = int(
        np.sum(
            np.searchsorted(tb, first_step + origin + n_bins * 200)
            - np.searchsorted(tb, first_step + origin)
        )
    )
    step = 8 * tagproc._PAIRING_CHUNK
    # The bound is tighter than one int64 per pairing of the first step.
    assert 16 * step < 8 * pairings
    scratch = peak - 8 * n_bins
    assert scratch <= 16 * step, f"scratch {scratch / step:.2f} x the step"
    counts = np.zeros(n_bins, dtype=np.int64)
    _, walk = traced_peak(tagproc._add_pairings, counts, first_step, tb, origin, 200)
    assert walk <= 10 * step, f"walk {walk / step:.2f} x the step"


def test_match_disjoint_ranges_empty(rng):
    tags_a = make_tag_stream(np.arange(100, dtype=np.int64) * 1000)
    tags_b = make_tag_stream(np.arange(100, dtype=np.int64) * 1000 + 10_000_000)
    assert len(match_coincidences(tags_a, tags_b, 0, 2000)) == 0


def test_match_aligned_streams_all_matched():
    times = np.arange(1_000, dtype=np.int64) * 100_000
    tags = make_tag_stream(times)
    records = match_coincidences(tags, tags, 0, 2000)
    assert len(records) == 1_000
    assert np.all(records.delta == 0)


def _match_oracle(ta, tb, offset, window):
    """Greedy earliest-first matching, written as an explicit scan over
    unused partners (independent of the implementation under test)."""
    used = np.zeros(len(tb), dtype=bool)
    pairs = []
    start = 0
    for i, t in enumerate(ta):
        for j in range(start, len(tb)):
            if used[j]:
                continue
            doubled = 2 * (tb[j] - t - offset)
            if doubled < -window:
                start = j + 1
                continue
            if doubled > window:
                break
            used[j] = True
            pairs.append((i, j))
            break
    return pairs


def test_match_equals_oracle_on_random_instances(rng):
    for _ in range(100):
        na, nb = rng.integers(0, 60, size=2)
        ta = np.sort(rng.integers(0, 500, size=na, dtype=np.int64))
        tb = np.sort(rng.integers(0, 500, size=nb, dtype=np.int64))
        offset = int(rng.integers(-40, 40))
        window = int(rng.integers(0, 120))
        records = match_coincidences(make_tag_stream(ta), make_tag_stream(tb), offset, window)
        expected = _match_oracle(ta.tolist(), tb.tolist(), offset, window)
        assert list(zip(records.idx_a.tolist(), records.idx_b.tolist())) == expected


def test_match_equals_oracle_large_instance(rng):
    n = 10_000
    ta = np.sort(rng.integers(0, 10_000_000_000, size=n, dtype=np.int64))
    tb = np.sort(ta + rng.normal(0, 700, size=n).astype(np.int64))
    extra = np.sort(rng.integers(0, 10_000_000_000, size=n // 2, dtype=np.int64))
    tb = np.sort(np.concatenate([tb, extra]))
    records = match_coincidences(make_tag_stream(ta), make_tag_stream(tb), 0, 2000)
    expected = _match_oracle(ta.tolist(), tb.tolist(), 0, 2000)
    assert list(zip(records.idx_a.tolist(), records.idx_b.tolist())) == expected


def _assert_matches_oracle(ta, tb, offset, window):
    ta, tb = sorted(ta), sorted(tb)
    records = match_coincidences(make_tag_stream(ta), make_tag_stream(tb), offset, window)
    pairs = list(zip(records.idx_a.tolist(), records.idx_b.tolist()))
    assert pairs == _match_oracle(ta, tb, offset, window)
    return pairs


_small_times = st.lists(st.integers(0, 300), max_size=40)


@settings(max_examples=300, deadline=None)
@given(
    ta=_small_times,
    tb=_small_times,
    offset=st.integers(-120, 120),
    window=st.integers(0, 150),
)
@example(ta=[], tb=[], offset=0, window=2000)
@example(ta=[], tb=[5, 9], offset=0, window=2000)
@example(ta=[5, 9], tb=[], offset=0, window=2000)
@example(ta=[3, 3, 10], tb=[3, 4, 10, 11], offset=0, window=0)
@example(ta=[3, 3, 10], tb=[2, 4, 9, 11], offset=-1, window=3)
@example(ta=[-7, -3, 0, 4], tb=[-6, -5, -2, 5], offset=-1, window=4)
def test_match_property_equals_oracle(ta, tb, offset, window):
    # Empty and one-sided streams, window 0, odd windows, negative offsets
    # and negative times.
    _assert_matches_oracle(ta, tb, offset, window)


@settings(max_examples=200, deadline=None)
@given(
    na=st.integers(0, 60),
    nb=st.integers(0, 60),
    t=st.integers(0, 1_000),
    lag=st.integers(-3, 3),
    offset=st.integers(-3, 3),
    window=st.integers(0, 8),
)
def test_match_property_all_equal_timestamps(na, nb, t, lag, offset, window):
    _assert_matches_oracle([t] * na, [t + lag] * nb, offset, window)


@settings(max_examples=200, deadline=None)
@given(
    ta=st.lists(st.integers(0, 50), min_size=1, max_size=80),
    tb=st.lists(st.integers(0, 50), min_size=1, max_size=80),
    offset=st.integers(-10, 10),
    extra=st.integers(0, 40),
)
def test_match_property_burst_in_one_window(ta, tb, offset, extra):
    # Every B tag is a candidate of every A tag, so the A tags form one
    # long chain and the greedy rule matches min(na, nb) pairs.
    window = 2 * (50 + 10) + extra
    pairs = _assert_matches_oracle(ta, tb, offset, window)
    assert len(pairs) == min(len(ta), len(tb))


@settings(max_examples=100, deadline=None)
@given(
    ta=_small_times,
    tb=_small_times,
    window=st.integers(0, 150),
    side=st.sampled_from([-1, 1]),
    beyond=st.integers(1, 10_000),
)
def test_match_property_offset_out_of_range(ta, tb, window, side, beyond):
    # Times lie in [0, 300], so |offset| > 300 + window/2 leaves no B tag
    # inside any A tag's window.
    offset = side * (300 + window // 2 + beyond)
    assert _assert_matches_oracle(ta, tb, offset, window) == []


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@settings(max_examples=300, deadline=None)
@given(
    ta=_small_times,
    tb=_small_times,
    offset=st.integers(-120, 120),
    window=st.integers(0, 150),
)
# One run of chained tags through every chunk boundary.
@example(ta=list(range(8)), tb=list(range(8)), offset=0, window=20)
# Every tag matched, so every chunk ends on a match.
@example(ta=list(range(0, 400, 50)), tb=list(range(0, 400, 50)), offset=0, window=0)
# A chained tag after a boundary whose predecessors went unmatched.
@example(ta=[3, 3, 3, 10], tb=[3, 10], offset=0, window=0)
# A chunk's first tag pushed past its lo by the previous chunk's pick.
@example(ta=[0, 0, 100], tb=[0, 1, 100], offset=0, window=2)
# A chunk's first tag whose raised pick falls outside its window.
@example(ta=[0, 0], tb=[0, 5], offset=0, window=2)
# Negative times crossing zero.
@example(ta=[-7, -3, 0, 4], tb=[-6, -5, -2, 5], offset=-1, window=4)
@example(ta=[], tb=[5, 9], offset=0, window=2000)
def test_match_in_chunks_equals_oracle(chunk, ta, tb, offset, window):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tagproc, "_MATCH_CHUNK", chunk)
        _assert_matches_oracle(ta, tb, offset, window)


def _assert_dense_chains_match_oracle(rng):
    # Dense streams with a window of many tag spacings chain almost every
    # tag; the chained-tag resolution must give the oracle's pairs.
    for _ in range(20):
        na, nb = rng.integers(50, 300, size=2)
        ta = np.sort(rng.integers(0, 3_000, size=na, dtype=np.int64))
        tb = np.sort(rng.integers(0, 3_000, size=nb, dtype=np.int64))
        offset = int(rng.integers(-100, 100))
        window = int(rng.integers(50, 1_500))
        _assert_matches_oracle(ta.tolist(), tb.tolist(), offset, window)


def test_match_dense_chains_equal_oracle(rng):
    _assert_dense_chains_match_oracle(rng)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_match_dense_chains_in_chunks_equal_oracle(monkeypatch, rng, chunk):
    monkeypatch.setattr(tagproc, "_MATCH_CHUNK", chunk)
    _assert_dense_chains_match_oracle(rng)


def test_match_chunks_equal_one_chunk_at_dense_size(monkeypatch):
    # About 0.22 M tags per side in the session's match window: the default
    # chunk walks A in several pieces, which must pick what one piece does.
    tags_a, tags_b, _ = sample_pair_tags(
        DENSE_SOURCE, DENSE_ARM, DENSE_ARM, DetectorParams(), 2.0, seed=3
    )
    assert len(tags_a) > 3 * tagproc._MATCH_CHUNK
    window = Link(DENSE_ARM, DENSE_ARM, DENSE_SOURCE).match_window_ps
    chunked = match_coincidences(tags_a, tags_b, 0, window)
    monkeypatch.setattr(tagproc, "_MATCH_CHUNK", len(tags_a))
    whole = match_coincidences(tags_a, tags_b, 0, window)
    assert len(chunked) > 40_000
    for records in (chunked, whole):
        assert records.idx_a.dtype == records.idx_b.dtype == np.int32
    assert np.array_equal(chunked.idx_a, whole.idx_a)
    assert np.array_equal(chunked.idx_b, whole.idx_b)


def test_match_rejects_streams_beyond_int32_indices():
    # Zero-stride columns of 2**31 tags take no memory; the matcher must
    # refuse them before it reads a tag, so is_sorted may not be called.
    from fiberqkd.receiver import TagStream

    n = 2**31
    huge = TagStream(
        times_ps=np.broadcast_to(np.int64(0), (n,)),
        detectors=np.broadcast_to(np.int8(0), (n,)),
        origins=np.broadcast_to(np.int8(0), (n,)),
        pair_ids=np.broadcast_to(np.int32(-1), (n,)),
        modes=np.broadcast_to(np.int8(-1), (n,)),
    )
    small = make_tag_stream([0])
    for tags in (huge, small):
        tags.is_sorted = lambda: pytest.fail("the matcher read the tags")
    for tags_a, tags_b in ((huge, small), (small, huge)):
        with pytest.raises(ValueError, match="int32"):
            match_coincidences(tags_a, tags_b, 0, 2000)


def test_match_injective(rng):
    ta = np.sort(rng.integers(0, 2_000, size=500, dtype=np.int64))
    tb = np.sort(rng.integers(0, 2_000, size=500, dtype=np.int64))
    records = match_coincidences(make_tag_stream(ta), make_tag_stream(tb), 0, 400)
    assert np.unique(records.idx_a).size == len(records)
    assert np.unique(records.idx_b).size == len(records)


def test_match_capture_fraction_matches_erf(rng):
    # Correlated pairs with 500 ps jitter per side: a 2 ns window captures
    # erf(1) of them (the delta spread is sqrt(2)*500 ps).
    n = 10_000
    base = np.sort(rng.integers(0, int(1e12), size=n, dtype=np.int64))
    ta = base + np.rint(rng.normal(0, 500, n)).astype(np.int64)
    tb = base + np.rint(rng.normal(0, 500, n)).astype(np.int64)
    records = match_coincidences(
        make_tag_stream(ta).sorted_by_time(), make_tag_stream(tb).sorted_by_time(), 0, 2000
    )
    capture = math.erf(1.0)
    sigma = math.sqrt(n * capture * (1 - capture))
    assert abs(len(records) - capture * n) < 4 * sigma


def test_match_peak_memory_beyond_records():
    # The first candidates are found a chunk of A at a time; the scratch on top
    # of the returned records must stay within half of A's times.
    tags_a, tags_b, _ = sample_pair_tags(
        DENSE_SOURCE, DENSE_ARM, DENSE_ARM, DetectorParams(), 2.0, seed=3
    )
    records, peak = traced_peak(match_coincidences, tags_a, tags_b, 0)
    fields = ("times_a", "times_b", "det_a", "det_b", "delta", "idx_a", "idx_b")
    scratch = peak - column_bytes(records, fields)
    assert len(records) > 40_000
    assert scratch <= 0.5 * tags_a.times_ps.nbytes, (
        f"scratch {scratch / tags_a.times_ps.nbytes:.2f} x A's times"
    )


def test_match_rejects_unsorted():
    from fiberqkd.receiver import TagStream

    bad = TagStream(
        times_ps=np.array([5, 1], dtype=np.int64),
        detectors=np.zeros(2, dtype=np.int8),
        origins=np.zeros(2, dtype=np.int8),
        pair_ids=np.full(2, -1, dtype=np.int32),
        modes=np.full(2, -1, dtype=np.int8),
    )
    good = make_tag_stream([1, 5])
    with pytest.raises(ValueError):
        match_coincidences(bad, good, 0, 100)


def test_mode_filter_identity_on_prompt_records():
    records = _records(np.zeros(100, dtype=np.int64))
    kept = temporal_mode_filter(records, mode_delay_ps=4400, reject_half_width_ps=1000)
    assert len(kept) == 100


def test_mode_filter_removes_delayed_records():
    # 2 km arms delay the second mode by 4400 ps, well past the 1000 ps
    # retained half-width.
    delta = np.concatenate(
        [np.zeros(50, dtype=np.int64), np.full(30, 4400), np.full(20, -4400)]
    )
    records = _records(delta)
    kept = temporal_mode_filter(records, mode_delay_ps=4400, reject_half_width_ps=1000)
    assert len(kept) == 50
    assert np.all(np.abs(kept.delta) <= 1000)


def test_mode_filter_warns_when_modes_overlap():
    records = _records(np.zeros(10, dtype=np.int64))
    with pytest.warns(ModeFilterWarning):
        temporal_mode_filter(records, mode_delay_ps=550, reject_half_width_ps=1000)


def test_mode_filter_subset_and_idempotent(rng):
    delta = rng.integers(-6_000, 6_000, size=5_000).astype(np.int64)
    records = _records(delta)
    once = temporal_mode_filter(records, 4400, 1000)
    twice = temporal_mode_filter(once, 4400, 1000)
    assert len(once) <= len(records)
    assert np.array_equal(once.delta, twice.delta)
    assert np.isin(once.idx_a, records.idx_a).all()


@st.composite
def _filter_case(draw):
    """(deltas, half width): deltas anywhere within three half widths,
    and often exactly at or one past either edge."""
    half = draw(st.integers(0, 3000))
    edges = st.sampled_from([-half - 1, -half, 0, half, half + 1])
    reach = 3 * half + 5
    delta = draw(st.lists(st.one_of(edges, st.integers(-reach, reach)), max_size=60))
    return delta, half


@settings(max_examples=200, deadline=None)
@given(case=_filter_case(), seed=st.integers(0, 2**32 - 1))
@example(case=([], 0), seed=0)
@example(case=([], 500), seed=0)
@example(case=([0, 0, 1, -1, 0], 0), seed=0)  # h = 0
@example(case=([-500, 0, 499, 500], 500), seed=0)  # all kept, both edges
@example(case=([-501, 501, 9000, -9000], 500), seed=0)  # all dropped
def test_mode_filter_equals_mask_take(case, seed):
    # The filter gathers by index; its reference compacts by mask. All seven
    # columns and their dtypes must agree.
    delta, half = case
    det_a, det_b = np.random.default_rng(seed).integers(0, 4, size=(2, len(delta)))
    records = _records(delta, det_a, det_b)
    kept = temporal_mode_filter(records, mode_delay_ps=half + 1, reject_half_width_ps=half)
    assert_records_equal(kept, records.take(np.abs(records.delta) <= half))


def test_mode_filter_rejects_negative_delay():
    with pytest.raises(ValueError):
        temporal_mode_filter(_records([0]), mode_delay_ps=-1)


def test_mode_filter_zero_delay_warns_and_keeps_central_window(rng):
    # At zero delay both modes sit at delta 0: the filter cannot separate
    # them, says so, and still keeps exactly the records with |delta| <= half.
    delta = rng.integers(-3_000, 3_000, size=2_000).astype(np.int64)
    records = _records(delta)
    with pytest.warns(ModeFilterWarning):
        kept = temporal_mode_filter(records, 0, 1000)
    inside = np.abs(delta) <= 1000
    assert np.array_equal(kept.delta, delta[inside])
    assert np.array_equal(kept.idx_a, records.idx_a[inside])


def test_filtered_visibility_never_below_unfiltered(rng):
    # Mixed population: correlated records near zero delay plus depolarized
    # ones at the mode delay; filtering must not lower the visibility.
    n_good, n_bad = 12_000, 6_000
    delta = np.concatenate(
        [
            np.rint(rng.normal(0, 707, n_good)).astype(np.int64),
            np.rint(rng.normal(4400, 707, n_bad)).astype(np.int64),
        ]
    )
    det_a = np.zeros(n_good + n_bad, dtype=np.int8)
    det_b = np.concatenate(
        [
            (rng.random(n_good) < 0.025).astype(np.int8),
            rng.integers(0, 2, size=n_bad).astype(np.int8),
        ]
    )
    records = _records(delta, det_a, det_b)
    unfiltered = sift(records)
    v_unfiltered = 1 - 2 * unfiltered.qber
    filtered = temporal_mode_filter(records, 4400, 1000)
    v_filtered = 1 - 2 * sift(filtered).qber
    assert len(unfiltered) >= 10_000
    assert v_filtered >= v_unfiltered


def test_reanalysis_from_text_dump(tmp_path, rng):
    # Tag streams written by the receiver re-enter the processing chain.
    from fiberqkd.receiver import read_tags, write_tags

    base = np.sort(rng.integers(0, int(1e12), size=20_000, dtype=np.int64))
    tags_a = make_tag_stream(base + np.rint(rng.normal(0, 500, base.size)).astype(np.int64))
    tags_b = make_tag_stream(
        base + 123_400 + np.rint(rng.normal(0, 500, base.size)).astype(np.int64)
    )
    write_tags(tags_a, tmp_path / "a.txt")
    write_tags(tags_b, tmp_path / "b.txt")
    loaded_a = read_tags(tmp_path / "a.txt")
    loaded_b = read_tags(tmp_path / "b.txt")
    offset = find_offset(loaded_a, loaded_b)
    assert abs(offset - 123_400) <= 600
    records = match_coincidences(loaded_a, loaded_b, offset, 2000)
    assert len(records) > 0.7 * base.size


def test_coincidence_csv_roundtrip(tmp_path, rng):
    delta = rng.integers(-1000, 1000, size=200).astype(np.int64)
    det_a = rng.integers(0, 4, size=200).astype(np.int8)
    det_b = rng.integers(0, 4, size=200).astype(np.int8)
    records = _records(delta, det_a, det_b)
    path = tmp_path / "coincidences.csv"
    write_coincidences(records, path)
    loaded = read_coincidences(path)
    assert np.array_equal(loaded.times_a, records.times_a)
    assert np.array_equal(loaded.times_b, records.times_b)
    assert np.array_equal(loaded.det_a, records.det_a)
    assert np.array_equal(loaded.det_b, records.det_b)
    assert np.array_equal(loaded.delta, records.delta)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "time_a_ps,time_b_ps,det_a,det_b,delta_ps"


@pytest.mark.parametrize("chunk_rows", [2, receiver.TEXT_CHUNK_ROWS])
def test_write_coincidences_exact_bytes(monkeypatch, tmp_path, chunk_rows):
    monkeypatch.setattr(receiver, "TEXT_CHUNK_ROWS", chunk_rows)
    records = _records(
        [0, -1_250, 4_400, -4_400, 17],
        det_a=[0, 1, 2, 3, 0],
        det_b=[3, 2, 1, 0, 0],
    )
    path = tmp_path / "coincidences.csv"
    write_coincidences(records, path)
    assert path.read_bytes() == (
        b"time_a_ps,time_b_ps,det_a,det_b,delta_ps\n"
        b"0,0,0,3,0\n"
        b"1000000,998750,1,2,-1250\n"
        b"2000000,2004400,2,1,4400\n"
        b"3000000,2995600,3,0,-4400\n"
        b"4000000,4000017,0,0,17\n"
    )
    write_coincidences(records.take(np.zeros(5, dtype=bool)), path)
    assert path.read_bytes() == b"time_a_ps,time_b_ps,det_a,det_b,delta_ps\n"


@pytest.mark.parametrize("det_a, det_b", [(9, 0), (0, -1), (4, 3)])
def test_write_coincidences_rejects_detector_outside_0_to_3(tmp_path, det_a, det_b):
    # read_coincidences refuses such a file, so the writer must not make one.
    records = _records([0, 5], det_a=[1, det_a], det_b=[2, det_b])
    path = tmp_path / "coincidences.csv"
    with pytest.raises(ValueError, match="detectors must be 0..3"):
        write_coincidences(records, path)
    assert not path.exists()


_detectors = st.integers(0, 3)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(dump_times, dump_times, _detectors, _detectors, dump_times), max_size=30
    ),
    pad=st.sampled_from(["", "\t", " \t "]),
    blank=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    offset=st.integers(-(10**9), 10**9),
)
@example(rows=[], pad="", blank=False, newline="\n", offset=0)
@example(rows=[], pad="", blank=True, newline="\r\n", offset=0)
def test_coincidence_csv_roundtrip_property(tmp_path_factory, rows, pad, blank, newline, offset):
    # Written records, re-spaced with tabs, blank lines and CRLF ends, read
    # back as the written arrays and dtypes.
    columns = list(zip(*rows)) if rows else [()] * 5
    n = len(rows)
    records = Coincidences(
        times_a=np.array(columns[0], dtype=np.int64),
        times_b=np.array(columns[1], dtype=np.int64),
        det_a=np.array(columns[2], dtype=np.int8),
        det_b=np.array(columns[3], dtype=np.int8),
        delta=np.array(columns[4], dtype=np.int64),
        idx_a=np.full(n, -1, dtype=np.int32),
        idx_b=np.full(n, -1, dtype=np.int32),
        offset_ps=offset,
    )
    path = tmp_path_factory.mktemp("coincidences") / "coincidences.csv"
    write_coincidences(records, path)
    header, *lines = path.read_text().splitlines()
    lines = [pad + line.replace(",", f"{pad},{pad}") + pad for line in lines]
    if blank:
        lines = [""] + [out for line in lines for out in (line, "")]
    path.write_bytes("".join(line + newline for line in [header, *lines]).encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = read_coincidences(path, offset)
    assert loaded.offset_ps == offset
    for name in ("times_a", "times_b", "det_a", "det_b", "delta", "idx_a", "idx_b"):
        got, want = getattr(loaded, name), getattr(records, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


_HEADER = "time_a_ps,time_b_ps,det_a,det_b,delta_ps\n"


@pytest.mark.parametrize(
    "text, names_row",
    [
        pytest.param(_HEADER + "1,2,3,0,1\n4,5,6,1\n", False, id="ragged"),
        pytest.param(_HEADER + "1,2,3,0\n4,5,6,1\n", False, id="four-fields"),
        pytest.param(_HEADER + "1,2,3,0,1,9\n", False, id="six-fields"),
        pytest.param(_HEADER + "1,2,3,0,1.5\n", False, id="float"),
        pytest.param(_HEADER + "1,2,x,0,1\n", False, id="letter"),
        pytest.param(_HEADER + "1,2,,0,1\n", False, id="empty-field"),
        pytest.param(_HEADER + "1,2,3,0,1 # pair\n", False, id="comment"),
        pytest.param(_HEADER + "1,2,3,0,1\n\n4,5,-1,0,1\n", True, id="det-a-minus-1"),
        pytest.param(_HEADER + "1,2,3,0,1\n\n4,5,4,0,1\n", True, id="det-a-4"),
        pytest.param(_HEADER + "1,2,3,0,1\n\n4,5,300,0,1\n", True, id="det-a-300"),
        pytest.param(_HEADER + "1,2,3,0,1\n\n4,5,0,4,1\n", True, id="det-b-4"),
        pytest.param("", False, id="empty-file"),
        pytest.param("1,2,3,0,1\n", False, id="no-header"),
        pytest.param("time_a_ps,time_b_ps,det_a,det_b\n", False, id="short-header"),
        pytest.param("# " + _HEADER + "1,2,3,0,1\n", False, id="commented-header"),
    ],
)
def test_read_coincidences_rejects_malformed(tmp_path, text, names_row):
    path = tmp_path / "coincidences.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))) as raised:
        read_coincidences(path)
    if names_row:
        assert "data row 2 " in str(raised.value)
