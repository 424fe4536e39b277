import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberqkd.distill import (
    KeyRateError,
    SiftTally,
    asymptotic_rate,
    binary_entropy,
    finite_key_length,
    required_raw_bits,
    sift,
    sift_tally,
)
from fiberqkd.tagproc import Coincidences


def _records(det_a, det_b):
    det_a = np.asarray(det_a, dtype=np.int8)
    det_b = np.asarray(det_b, dtype=np.int8)
    n = det_a.size
    zeros = np.zeros(n, dtype=np.int64)
    return Coincidences(
        times_a=zeros,
        times_b=zeros,
        det_a=det_a,
        det_b=det_b,
        delta=zeros,
        idx_a=np.arange(n, dtype=np.int32),
        idx_b=np.arange(n, dtype=np.int32),
        offset_ps=0,
    )


def test_sift_rejects_all_mismatched():
    with pytest.raises(ValueError):
        sift(_records([0, 1], [2, 3]))


def test_sift_keeps_about_half_with_passive_bases(rng):
    n = 40_000
    det_a = (2 * rng.integers(0, 2, n) + rng.integers(0, 2, n)).astype(np.int8)
    det_b = (2 * rng.integers(0, 2, n) + rng.integers(0, 2, n)).astype(np.int8)
    key = sift(_records(det_a, det_b), duration_s=1.0)
    sigma = math.sqrt(n * 0.25)
    assert abs(len(key) - n / 2) < 4 * sigma


def test_sift_concordant_input_qber_zero():
    key = sift(_records([0, 1, 2, 3], [0, 1, 2, 3]))
    assert key.qber == 0.0
    assert len(key) == 4


def _tally_reference(det_a, det_b) -> SiftTally:
    """The sift tally, record by record: a matched basis adds a bit, and
    an error when the outcome bits differ."""
    bits = errors = 0
    for a, b in zip(det_a, det_b):
        if a >> 1 == b >> 1:
            bits += 1
            errors += (a & 1) != (b & 1)
    return SiftTally(bits, errors)


def test_sift_qber_matches_brute_force(rng):
    n = 10_000
    det_a = (2 * rng.integers(0, 2, n) + rng.integers(0, 2, n)).astype(np.int8)
    det_b = (2 * rng.integers(0, 2, n) + rng.integers(0, 2, n)).astype(np.int8)
    key = sift(_records(det_a, det_b), duration_s=2.0)
    reference = _tally_reference(det_a.tolist(), det_b.tolist())
    assert len(key) == reference.bits
    assert key.qber == pytest.approx(reference.errors / reference.bits)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=80))
@example([])
@example([(0, 2), (1, 3), (2, 1), (3, 0)])  # no matched basis
@example([(0, 0), (0, 1), (3, 2), (2, 2), (1, 0)])  # every basis matched
def test_sift_tally_equals_per_record_loop(pairs):
    det_a = [a for a, _ in pairs]
    det_b = [b for _, b in pairs]
    assert sift_tally(_records(det_a, det_b)) == _tally_reference(det_a, det_b)


def test_binary_entropy_boundaries():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_near_threshold():
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)


def test_binary_entropy_symmetry():
    for p in np.linspace(0.0, 1.0, 100):
        assert abs(binary_entropy(float(p)) - binary_entropy(float(1 - p))) < 1e-12


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_asymptotic_rate_perfect_channel():
    assert asymptotic_rate(1234.0, 0.0, 1.0) == 1234.0


def test_asymptotic_rate_vanishes_at_threshold():
    # The infinite-key threshold: 1 - 2*H2(0.11) is below 1e-3.
    assert asymptotic_rate(1.0, 0.11, 1.0) <= 1e-3
    assert asymptotic_rate(1.0, 0.10, 1.0) > 0.0
    assert asymptotic_rate(1.0, 0.12, 1.0) == 0.0


def test_asymptotic_rate_known_value():
    # 1000 * (1 - 2.1 * H2(0.025)) with H2(0.025) = 0.16866.
    assert asymptotic_rate(1000.0, 0.025, 1.1) == pytest.approx(645.8, abs=0.1)


def test_asymptotic_rate_monotone_in_qber():
    rates = [asymptotic_rate(1.0, float(q), 1.1) for q in np.linspace(0.0, 0.5, 60)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_asymptotic_rate_validation():
    with pytest.raises(ValueError):
        asymptotic_rate(1.0, 0.6, 1.1)
    with pytest.raises(ValueError):
        asymptotic_rate(1.0, 0.1, 0.9)
    with pytest.raises(ValueError):
        asymptotic_rate(-1.0, 0.1, 1.1)


def test_finite_key_zero_at_half_qber():
    for n in (10, 1_000, 1_000_000):
        assert finite_key_length(n, 0.5) == 0


def test_finite_key_converges_to_asymptotic():
    n = 10_000_000
    qber = 0.025
    per_bit = finite_key_length(n, qber, 1.1, 1e-10) / n
    asymptotic_per_bit = asymptotic_rate(1.0, qber, 1.1)
    assert abs(per_bit - asymptotic_per_bit) / asymptotic_per_bit < 0.01


def test_finite_key_monotone_in_n():
    sizes = [int(x) for x in np.logspace(2, 7, 30)]
    lengths = [finite_key_length(n, 0.025) for n in sizes]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_finite_key_below_asymptotic_yield():
    for qber in (0.0, 0.01, 0.025, 0.05, 0.09):
        yield_per_bit = asymptotic_rate(1.0, qber, 1.1)
        for n in (100, 10_000, 1_000_000):
            assert finite_key_length(n, qber) / n <= yield_per_bit + 1e-9


def test_finite_key_validation():
    with pytest.raises(ValueError):
        finite_key_length(0, 0.1)
    with pytest.raises(ValueError):
        finite_key_length(100, 0.1, epsilon=0.0)
    with pytest.raises(ValueError):
        finite_key_length(100, 0.7)


def test_required_raw_bits_bracketing():
    # The search result is the true threshold: one bit fewer yields nothing.
    n_min = required_raw_bits(0.0, 1.0, 1e-10)
    assert finite_key_length(n_min, 0.0, 1.0, 1e-10) >= 1
    assert n_min == 1 or finite_key_length(n_min - 1, 0.0, 1.0, 1e-10) == 0


def test_required_raw_bits_below_key_is_zero():
    n_min = required_raw_bits(0.025, 1.1, 1e-10)
    assert finite_key_length(n_min - 1, 0.025, 1.1, 1e-10) == 0
    assert finite_key_length(n_min, 0.025, 1.1, 1e-10) >= 1


def test_required_raw_bits_monotone_in_qber():
    assert required_raw_bits(0.05) > required_raw_bits(0.01)


def _entropy_half_qber():
    # Bisection oracle for the qber where H2(q) = 1/2 (asymptotic zero at f=1).
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return hi


def test_required_raw_bits_error_when_rate_zero():
    threshold = _entropy_half_qber()
    with pytest.raises(KeyRateError):
        required_raw_bits(threshold, 1.0)
    with pytest.raises(KeyRateError):
        required_raw_bits(0.12, 1.0)
    with pytest.raises(KeyRateError):
        required_raw_bits(0.11, 1.1)
