import math

import numpy as np
import pytest

from fiberqkd.pairgen import SourceParams, matched_basis_error_probability
from perphoton import Basis, generate_pair_stream, joint_outcome_probability

BASES = (Basis.RECTILINEAR, Basis.DIAGONAL)
BITS = (0, 1)


def test_zero_rate_gives_empty_stream():
    stream = generate_pair_stream(SourceParams(pair_rate=0.0), 1.0, 1)
    assert len(stream) == 0


def test_count_matches_source_rate():
    # 0.4 MHz source over 1 s: count within the 4-sigma Poisson band.
    stream = generate_pair_stream(SourceParams(pair_rate=0.4e6), 1.0, 7)
    assert abs(len(stream) - 400_000) < 4 * math.sqrt(400_000)


def test_same_seed_same_stream():
    params = SourceParams(pair_rate=1e5)
    first = generate_pair_stream(params, 2.0, 99)
    second = generate_pair_stream(params, 2.0, 99)
    assert np.array_equal(first.times_ps, second.times_ps)
    assert first.duration_ps == second.duration_ps


def test_different_seed_different_stream():
    a = generate_pair_stream(SourceParams(pair_rate=1e5), 1.0, 1)
    b = generate_pair_stream(SourceParams(pair_rate=1e5), 1.0, 2)
    assert not np.array_equal(a.times_ps, b.times_ps)


def test_times_strictly_increasing_within_window():
    stream = generate_pair_stream(SourceParams(pair_rate=5e5), 1.0, 3)
    assert np.all(np.diff(stream.times_ps) > 0)
    assert stream.times_ps[0] >= 0
    assert stream.times_ps[-1] < stream.duration_ps


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(pair_rate=-1.0),
        dict(pair_rate=float("nan")),
        dict(pair_rate=float("inf")),
        dict(pair_rate=float("-inf")),
        dict(pair_rate=1.0, intrinsic_visibility=float("nan")),
        dict(pair_rate=1.0, intrinsic_visibility=float("inf")),
        dict(pair_rate=1.0, intrinsic_visibility=1.5),
        dict(pair_rate=1.0, intrinsic_visibility=-0.1),
    ],
)
def test_invalid_source_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SourceParams(**kwargs)


def test_poisson_dispersion_across_seeds():
    # Index of dispersion of per-second counts over 100 independent seeds
    # stays near 1; band is 3 sigma of the chi-square variance estimator.
    rate = 1000.0
    counts = np.array(
        [
            len(generate_pair_stream(SourceParams(pair_rate=rate), 1.0, s))
            for s in range(100)
        ],
        dtype=float,
    )
    dispersion = counts.var(ddof=1) / counts.mean()
    band = 3.0 * math.sqrt(2.0 / (counts.size - 1))
    assert abs(dispersion - 1.0) < band


def test_perfect_visibility_outcomes():
    assert joint_outcome_probability(Basis.RECTILINEAR, Basis.RECTILINEAR, 0, 0, 1.0) == 0.5
    assert joint_outcome_probability(Basis.DIAGONAL, Basis.DIAGONAL, 1, 1, 1.0) == 0.5
    assert joint_outcome_probability(Basis.RECTILINEAR, Basis.RECTILINEAR, 0, 1, 1.0) == 0.0


@pytest.mark.parametrize("visibility", [0.0, 0.3, 0.95, 1.0])
@pytest.mark.parametrize("bit_a", BITS)
@pytest.mark.parametrize("bit_b", BITS)
def test_mismatched_bases_uniform(visibility, bit_a, bit_b):
    p = joint_outcome_probability(Basis.RECTILINEAR, Basis.DIAGONAL, bit_a, bit_b, visibility)
    assert p == 0.25


def test_matched_basis_error_probability_value():
    # Sum of the two discordant outcomes at V = 0.95 is (1 - V)/2 = 0.025.
    p_err = joint_outcome_probability(
        Basis.DIAGONAL, Basis.DIAGONAL, 0, 1, 0.95
    ) + joint_outcome_probability(Basis.DIAGONAL, Basis.DIAGONAL, 1, 0, 0.95)
    assert p_err == pytest.approx(0.025, abs=1e-15)
    assert p_err == pytest.approx(matched_basis_error_probability(0.95), abs=1e-15)


@pytest.mark.parametrize("visibility", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("basis_a", BASES)
@pytest.mark.parametrize("basis_b", BASES)
def test_outcome_distribution_normalized_exactly(visibility, basis_a, basis_b):
    total = sum(
        joint_outcome_probability(basis_a, basis_b, ba, bb, visibility)
        for ba in BITS
        for bb in BITS
    )
    assert total == 1.0


@pytest.mark.parametrize("visibility", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_qber_link_identity(visibility):
    # Matched-basis error probability equals (1 - V)/2 exactly.
    p_err = sum(
        joint_outcome_probability(Basis.RECTILINEAR, Basis.RECTILINEAR, ba, bb, visibility)
        for ba in BITS
        for bb in BITS
        if ba != bb
    )
    assert p_err == (1.0 - visibility) / 2.0


def test_joint_outcome_probability_validation():
    with pytest.raises(ValueError):
        joint_outcome_probability(Basis.RECTILINEAR, Basis.RECTILINEAR, 0, 0, 1.5)
    with pytest.raises(ValueError):
        joint_outcome_probability(Basis.RECTILINEAR, Basis.RECTILINEAR, 2, 0, 0.5)
    with pytest.raises(ValueError):
        matched_basis_error_probability(-0.2)
