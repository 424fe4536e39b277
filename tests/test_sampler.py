import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DENSE_ARM,
    DENSE_SOURCE,
    column_bytes,
    traced_peak,
)
from fiberqkd import receiver
from fiberqkd.channel import PS_PER_KM, ChannelConfig
from fiberqkd.pairgen import PS_PER_SECOND, SourceParams
from fiberqkd.receiver import (
    CLICK_A_ONLY,
    CLICK_B_ONLY,
    CLICK_BOTH,
    MODE_DEGRADED_A,
    MODE_DEGRADED_B,
    MODE_GOOD,
    DetectorParams,
    TagOrigin,
    link_budget,
    sample_pair_tags,
)
from perphoton import assign_pair_modes, detect_pairs, generate_pair_stream, propagate_arm

# Asymmetric arms and a weak mode-selective jumper, so that every observable
# class of clicks is populated at a small scale.
ARM_A = ChannelConfig(length_km=1.0)
ARM_B = ChannelConfig(length_km=1.5)
DETECTOR = DetectorParams(second_mode_rejection_db=3.0)
SOURCE = SourceParams(pair_rate=1e6, intrinsic_visibility=0.9)
DURATION_S = 1.0


def _reference_tags(source, config_a, config_b, detector, duration_s, seed):
    """Both parties' pair clicks from the per-photon reference pipeline."""
    seeds = np.random.SeedSequence(seed).spawn(5)
    pairs = generate_pair_stream(source, duration_s, int(seeds[0].generate_state(1)[0]))
    fraction = max(config_a.second_mode_fraction, config_b.second_mode_fraction)
    mode_a, mode_b = assign_pair_modes(len(pairs), fraction, seeds[1])
    transits_a = propagate_arm(pairs, config_a, seeds[2], second_order=mode_a)
    transits_b = propagate_arm(pairs, config_b, seeds[3], second_order=mode_b)
    return detect_pairs(
        transits_a, transits_b, source.intrinsic_visibility, detector, detector, seeds[4]
    )


def _joined(tags_a, tags_b):
    """Positions in each stream of the pairs seen on both sides."""
    _, ia, ib = np.intersect1d(tags_a.pair_ids, tags_b.pair_ids, return_indices=True)
    return ia, ib


def _observed_classes(tags_a, tags_b) -> Counter:
    """Counts of the classes visible in the tags: a pair seen on both sides
    with its two mode flags, or on one side with that side's flag."""
    ia, ib = _joined(tags_a, tags_b)
    counts = Counter(
        ("both", int(ma), int(mb))
        for ma, mb in zip(tags_a.modes[ia], tags_b.modes[ib])
    )
    for label, tags, seen_both in (("A", tags_a, ia), ("B", tags_b, ib)):
        alone = np.ones(len(tags), dtype=bool)
        alone[seen_both] = False
        counts.update((label, int(m)) for m in tags.modes[alone])
    return counts


def _matched_errors(tags_a, tags_b, both_first_order=False):
    """(errors, matched-basis pairs) among pairs seen on both sides."""
    ia, ib = _joined(tags_a, tags_b)
    det_a, det_b = tags_a.detectors[ia], tags_b.detectors[ib]
    keep = (det_a >> 1) == (det_b >> 1)
    if both_first_order:
        keep &= (tags_a.modes[ia] == 0) & (tags_b.modes[ib] == 0)
    return int(np.count_nonzero(((det_a ^ det_b) & 1)[keep])), int(keep.sum())


@pytest.fixture(scope="module")
def both_paths():
    sampled = sample_pair_tags(SOURCE, ARM_A, ARM_B, DETECTOR, DURATION_S, seed=31)[:2]
    reference = _reference_tags(SOURCE, ARM_A, ARM_B, DETECTOR, DURATION_S, seed=32)
    return sampled, reference


def test_link_budget_lossless_arms():
    arm = ChannelConfig(length_km=0.0, splitter_quantum_loss_db=0.0, second_mode_fraction=0.0)
    budget = link_budget(arm, arm, DetectorParams(efficiency=1.0))
    expected = np.zeros((3, 3))
    expected[MODE_GOOD, CLICK_BOTH] = 1.0
    assert np.array_equal(budget.class_probs, expected)
    assert budget.first_order_delay_ps == (0, 0) and budget.mode_delay_ps == (0, 0)


def test_link_budget_classes_and_delays():
    budget = link_budget(ARM_A, ARM_B, DETECTOR)
    p = budget.class_probs
    arm = [10 ** (-(3.0 * cfg.length_km + 1.0) / 10) * 0.5 for cfg in (ARM_A, ARM_B)]
    second = [a * 10 ** -0.3 for a in arm]
    assert p[MODE_GOOD, CLICK_BOTH] == pytest.approx(0.65 * arm[0] * arm[1], rel=1e-12)
    assert p[MODE_DEGRADED_A, CLICK_B_ONLY] == pytest.approx(
        0.175 * (1 - second[0]) * arm[1], rel=1e-12
    )
    assert p[MODE_DEGRADED_B, CLICK_A_ONLY] == pytest.approx(
        0.175 * arm[0] * (1 - second[1]), rel=1e-12
    )
    # Marginal click probability of arm A: every mode class that reaches it.
    clicks_a = p[:, CLICK_BOTH].sum() + p[:, CLICK_A_ONLY].sum()
    assert clicks_a == pytest.approx(0.825 * arm[0] + 0.175 * second[0], rel=1e-12)
    assert budget.first_order_delay_ps == (
        round(1.0 * PS_PER_KM),
        round(1.5 * PS_PER_KM),
    )
    assert budget.mode_delay_ps == (2200, 3300)


def test_sampler_class_counts_match_reference(both_paths):
    (sa, sb), (ra, rb) = both_paths
    sampled, reference = _observed_classes(sa, sb), _observed_classes(ra, rb)
    # A pair is never second-order on both arms.
    assert sampled[("both", 1, 1)] == 0 and reference[("both", 1, 1)] == 0
    for key in set(sampled) | set(reference):
        n_s, n_r = sampled[key], reference[key]
        assert n_r > 100, key
        assert abs(n_s - n_r) < 4 * math.sqrt(n_s + n_r), key


def test_sampler_qber_matches_reference(both_paths):
    (sa, sb), (ra, rb) = both_paths
    for first_order_only in (False, True):
        e_s, n_s = _matched_errors(sa, sb, first_order_only)
        e_r, n_r = _matched_errors(ra, rb, first_order_only)
        q = (e_s + e_r) / (n_s + n_r)
        assert abs(e_s / n_s - e_r / n_r) < 4 * math.sqrt(q * (1 - q) * (1 / n_s + 1 / n_r))
    # First-order pairs carry the source's error rate (1 - V) / 2.
    e_s, n_s = _matched_errors(sa, sb, both_first_order=True)
    assert abs(e_s / n_s - 0.05) < 4 * math.sqrt(0.05 * 0.95 / n_s)


def test_sampler_second_mode_fraction_matches_reference(both_paths):
    for sampled, reference in zip(*both_paths):
        k_s, n_s = int(sampled.modes.sum()), len(sampled)
        k_r, n_r = int(reference.modes.sum()), len(reference)
        f = (k_s + k_r) / (n_s + n_r)
        assert abs(k_s / n_s - k_r / n_r) < 4 * math.sqrt(f * (1 - f) * (1 / n_s + 1 / n_r))


def test_sampler_arrival_delays_match_reference():
    # Without jitter, the time difference of a pair seen on both sides is
    # fixed by its mode class; both paths give the same three values.
    detector = DetectorParams(jitter_sigma_ps=0.0, second_mode_rejection_db=3.0)
    source = SourceParams(pair_rate=2e5, intrinsic_visibility=0.9)
    lags = []
    for tags_a, tags_b in (
        sample_pair_tags(source, ARM_A, ARM_B, detector, DURATION_S, seed=41)[:2],
        _reference_tags(source, ARM_A, ARM_B, detector, DURATION_S, seed=42),
    ):
        ia, ib = _joined(tags_a, tags_b)
        lags.append(set((tags_b.times_ps[ib] - tags_a.times_ps[ia]).tolist()))
    first = round(1.5 * PS_PER_KM) - round(1.0 * PS_PER_KM)
    assert lags[0] == lags[1] == {first, first - 2200, first + 3300}


def test_sampler_times_uniform_over_window():
    detector = DetectorParams(jitter_sigma_ps=0.0)
    arm = ChannelConfig(length_km=0.0)
    tags_a, _, _ = sample_pair_tags(SOURCE, arm, arm, detector, 2.0, seed=5)
    assert tags_a.times_ps[0] >= 0 and tags_a.times_ps[-1] < 2 * PS_PER_SECOND
    quarters = np.bincount(tags_a.times_ps // (PS_PER_SECOND // 2), minlength=4)
    expected = len(tags_a) / 4
    assert np.all(np.abs(quarters - expected) < 4 * math.sqrt(expected))


def test_sampler_deterministic_under_seed():
    first = sample_pair_tags(SOURCE, ARM_A, ARM_B, DETECTOR, 0.2, seed=7)
    again = sample_pair_tags(SOURCE, ARM_A, ARM_B, DETECTOR, 0.2, seed=7)
    other = sample_pair_tags(SOURCE, ARM_A, ARM_B, DETECTOR, 0.2, seed=8)
    for side in range(2):
        for name in ("times_ps", "detectors", "origins", "pair_ids", "modes"):
            assert np.array_equal(getattr(first[side], name), getattr(again[side], name))
    assert first[2] == again[2]
    assert not np.array_equal(first[0].times_ps, other[0].times_ps)


@pytest.mark.parametrize("duration_s", [0.0, -2.0, float("inf")])
def test_sampler_rejects_bad_duration(duration_s):
    with pytest.raises(ValueError):
        sample_pair_tags(SOURCE, ARM_A, ARM_B, DETECTOR, duration_s, seed=1)


def test_sampler_rejects_more_pairs_than_int32_ids():
    # About 4e16 clicking pairs: the count must be refused before the ticks,
    # which would need far more memory than any machine has, are drawn.
    with pytest.raises(ValueError, match="int32 pair ids"):
        sample_pair_tags(SourceParams(pair_rate=1e15), DENSE_ARM, DENSE_ARM, DETECTOR, 100.0, 1)


@settings(max_examples=60, deadline=None)
@given(
    pair_rate=st.sampled_from([0.0, 1e3, 3e5]),
    efficiency=st.sampled_from([0.0, 0.5, 1.0]),
    length_km=st.sampled_from([0.0, 0.25, 4.0]),
    fraction=st.sampled_from([0.0, 0.35, 1.0]),
    rejection_db=st.sampled_from([0.0, 13.0]),
    jitter=st.sampled_from([0.0, 500.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampler_edge_cases_give_valid_streams(
    pair_rate, efficiency, length_km, fraction, rejection_db, jitter, seed
):
    arm = ChannelConfig(length_km=length_km, second_mode_fraction=fraction)
    detector = DetectorParams(
        efficiency=efficiency, jitter_sigma_ps=jitter, second_mode_rejection_db=rejection_db
    )
    source = SourceParams(pair_rate=pair_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tags_a, tags_b, pairs = sample_pair_tags(source, arm, arm, detector, 0.01, seed)
    if pair_rate == 0.0 or efficiency == 0.0:
        assert len(tags_a) == 0 and len(tags_b) == 0 and pairs == 0
    for tags in (tags_a, tags_b):
        assert tags.is_sorted()
        assert np.all((tags.detectors >= 0) & (tags.detectors < 4))
        assert np.all(tags.origins == int(TagOrigin.PAIR))
        assert np.unique(tags.pair_ids).size == len(tags)
        assert set(tags.modes.tolist()) <= ({0} if fraction == 0.0 else {0, 1})
        assert tags.times_ps.dtype == np.int64
        assert tags.pair_ids.dtype == np.int32
    # Every sampled event clicks somewhere: the ids of both sides together
    # number the returned count of pairs, 0..pairs-1.
    ids = np.union1d(tags_a.pair_ids, tags_b.pair_ids)
    assert np.array_equal(ids, np.arange(pairs))
    ia, ib = _joined(tags_a, tags_b)
    assert not np.any((tags_a.modes[ia] == 1) & (tags_b.modes[ib] == 1))
    if fraction == 1.0:
        assert np.all(tags_a.modes[ia] + tags_b.modes[ib] == 1)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 1e-12, 0.05, 0.3, 1.0, 7.0]), min_size=1, max_size=12)
    .filter(lambda w: sum(w) > 0),
    n=st.integers(0, 3_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_draw_equals_generator_choice(weights, n, seed):
    p = np.array(weights) / sum(weights)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    classes = receiver._draw_classes(ours, p, n)
    assert classes.dtype == np.int8
    assert np.array_equal(classes, numpys.choice(p.size, size=n, p=p))
    # The generator is left where choice leaves it.
    assert ours.random() == numpys.random()


def test_sampler_equal_times_keep_pair_order():
    # 2,000 pairs over 1,000 emission ticks collide. Without jitter,
    # second-order photons (220 ps late) land on other pairs' ticks; with
    # the default 500 ps of jitter nearly every tag moves past hundreds of
    # others.
    arm = ChannelConfig(length_km=0.1, second_mode_fraction=1.0)
    source = SourceParams(pair_rate=2e12)
    for jitter_sigma_ps in (0.0, DetectorParams().jitter_sigma_ps):
        detector = DetectorParams(
            efficiency=1.0, jitter_sigma_ps=jitter_sigma_ps, second_mode_rejection_db=0.0
        )
        for tags in sample_pair_tags(source, arm, arm, detector, 1e-9, seed=4)[:2]:
            assert np.any(np.diff(tags.times_ps) == 0)
            assert np.any(np.diff(tags.pair_ids) < 0)
            # Sorted by time, and by pair among equal times, as a stable
            # sort of the pair-ordered tags gives.
            order = np.lexsort((tags.pair_ids, tags.times_ps))
            assert np.array_equal(order, np.arange(len(tags)))


def test_sampler_sort_keeps_each_tag_whole():
    # The jittered collisions above, with first-order pairs whose
    # matched-basis outcomes always agree: a column sorted apart from the
    # times would give tags the detectors and modes of other pairs.
    arm = ChannelConfig(length_km=0.1, second_mode_fraction=0.35)
    detector = DetectorParams(efficiency=1.0, second_mode_rejection_db=0.0)
    source = SourceParams(pair_rate=2e12, intrinsic_visibility=1.0)
    tags_a, tags_b, _ = sample_pair_tags(source, arm, arm, detector, 1e-9, seed=4)
    ia, ib = _joined(tags_a, tags_b)
    modes = tags_a.modes[ia] + tags_b.modes[ib]
    assert np.all(modes <= 1) and np.any(modes == 1)
    det_a, det_b = tags_a.detectors[ia], tags_b.detectors[ib]
    matched = (modes == 0) & (det_a >> 1 == det_b >> 1)
    assert np.count_nonzero(matched) > 100
    assert np.array_equal(det_a[matched], det_b[matched])


def test_sampler_peak_memory_tracks_its_output():
    # The sampler's scratch (class uniforms, indices, jitter, sort order)
    # must stay below three quarters of the tags it returns. numpy imports
    # numpy.random on first use, so it is used here first, and its import
    # is not counted in the peak whichever test runs first.
    np.random.default_rng(0)
    (*streams, _), peak = traced_peak(
        sample_pair_tags, DENSE_SOURCE, DENSE_ARM, DENSE_ARM, DetectorParams(), 2.0, seed=3
    )
    fields = ("times_ps", "detectors", "origins", "pair_ids", "modes")
    output = sum(column_bytes(tags, fields) for tags in streams)
    assert min(len(tags) for tags in streams) > 200_000
    assert peak <= 1.75 * output, f"peak {peak / output:.2f} x the output"
