import math

import numpy as np
import pytest

from fiberqkd.channel import (
    ChannelConfig,
    ClassicalTraffic,
    TrafficDirection,
    background_rate_per_detector,
    second_mode_delay_ps,
    transmittance,
)
from fiberqkd.pairgen import SourceParams
from perphoton import assign_pair_modes, generate_pair_stream, propagate_arm


def _pairs(n=100_000, rate=1e6, seed=11):
    return generate_pair_stream(SourceParams(pair_rate=rate), n / rate, seed)


def test_transmittance_zero_length_is_one():
    assert transmittance(3.0, 0.0) == 1.0


def test_transmittance_known_values():
    # 3 dB/km over 2 km: 10^-0.6; 0.2 dB/km over 10 km: 10^-0.2.
    assert transmittance(3.0, 2.0) == pytest.approx(0.251189, abs=1e-6)
    assert transmittance(0.2, 10.0) == pytest.approx(0.630957, abs=1e-6)


@pytest.mark.parametrize("alpha,length", [(-1.0, 1.0), (3.0, -0.5), (float("nan"), 1.0)])
def test_transmittance_rejects_bad_inputs(alpha, length):
    with pytest.raises(ValueError):
        transmittance(alpha, length)


def test_loss_composition(rng):
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 5.0))
        l1, l2 = rng.uniform(0.0, 10.0, size=2)
        combined = transmittance(alpha, l1 + l2)
        split = transmittance(alpha, l1) * transmittance(alpha, l2)
        assert combined == pytest.approx(split, rel=1e-12)


def test_transmittance_monotone_in_length():
    values = [transmittance(3.0, length) for length in np.linspace(0.0, 5.0, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_second_mode_delay_values():
    assert second_mode_delay_ps(0.0, 2.2) == 0
    assert second_mode_delay_ps(2.0, 2.2) == 4400
    assert second_mode_delay_ps(1.0, 2.2) == 2200
    with pytest.raises(ValueError):
        second_mode_delay_ps(-1.0, 2.2)


def test_propagate_zero_loss_zero_length():
    pairs = _pairs(10_000)
    config = ChannelConfig(
        length_km=0.0, splitter_quantum_loss_db=0.0, second_mode_fraction=0.0
    )
    transits = propagate_arm(pairs, config, seed=1)
    assert transits.survived.all()
    assert np.array_equal(transits.arrival_ps, pairs.times_ps)
    assert not transits.second_order.any()


def test_propagate_survivor_count_matches_loss():
    # 1e6 photons through 1 km at 3 dB/km: mean survivors 10^-0.3 * 1e6.
    pairs = _pairs(1_000_000)
    config = ChannelConfig(
        length_km=1.0, splitter_quantum_loss_db=0.0, second_mode_fraction=0.0
    )
    transits = propagate_arm(pairs, config, seed=2)
    expected = 501_187
    sigma = math.sqrt(1_000_000 * 0.501187 * (1 - 0.501187))
    assert abs(int(transits.survived.sum()) - expected) < 4 * sigma


def test_propagate_second_mode_all_delayed():
    pairs = _pairs(20_000)
    config = ChannelConfig(
        length_km=2.0, splitter_quantum_loss_db=0.0, second_mode_fraction=1.0
    )
    transits = propagate_arm(pairs, config, seed=3)
    survivors = transits.survived
    assert transits.second_order[survivors].all()
    assert transits.depolarized[survivors].all()
    first_order = propagate_arm(
        pairs,
        ChannelConfig(length_km=2.0, splitter_quantum_loss_db=0.0, second_mode_fraction=0.0),
        seed=3,
    )
    lag = transits.arrival_ps[survivors] - first_order.arrival_ps[survivors]
    assert np.all(lag == 4400)


def test_propagate_mode_fraction_accounting():
    pairs = _pairs(400_000)
    config = ChannelConfig(length_km=1.0, second_mode_fraction=0.35)
    transits = propagate_arm(pairs, config, seed=4)
    survivors = int(transits.survived.sum())
    second = int(transits.second_order.sum())
    sigma = math.sqrt(survivors * 0.35 * 0.65)
    assert abs(second - 0.35 * survivors) < 4 * sigma


def test_propagate_deterministic_under_seed():
    pairs = _pairs(50_000)
    config = ChannelConfig(length_km=2.0)
    first = propagate_arm(pairs, config, seed=8)
    second = propagate_arm(pairs, config, seed=8)
    assert np.array_equal(first.survived, second.survived)
    assert np.array_equal(first.arrival_ps, second.arrival_ps)
    assert np.array_equal(first.second_order, second.second_order)


def test_propagate_explicit_mode_flags():
    pairs = _pairs(10_000)
    flags = np.zeros(len(pairs), dtype=bool)
    flags[::2] = True
    config = ChannelConfig(length_km=2.0, splitter_quantum_loss_db=0.0)
    transits = propagate_arm(pairs, config, seed=5, second_order=flags)
    assert np.array_equal(transits.second_order, flags & transits.survived)
    with pytest.raises(ValueError):
        propagate_arm(pairs, config, seed=5, second_order=flags[:-1])


def test_assign_pair_modes_one_side_per_degraded_pair():
    n = 200_000
    flags_a, flags_b = assign_pair_modes(n, 0.35, seed=6)
    assert not (flags_a & flags_b).any()
    degraded = int((flags_a | flags_b).sum())
    sigma = math.sqrt(n * 0.35 * 0.65)
    assert abs(degraded - 0.35 * n) < 4 * sigma
    # Sides are balanced.
    sigma_side = math.sqrt(degraded * 0.25)
    assert abs(int(flags_a.sum()) - degraded / 2) < 4 * sigma_side
    again = assign_pair_modes(n, 0.35, seed=6)
    assert np.array_equal(flags_a, again[0]) and np.array_equal(flags_b, again[1])


def test_background_rate_dark_fiber_zero():
    assert background_rate_per_detector(ClassicalTraffic(direction=TrafficDirection.NONE)) == 0.0


def test_background_rate_counter_propagating_constant():
    # 500 cps per detector regardless of fiber length or data rate.
    rates = {
        background_rate_per_detector(
            ClassicalTraffic(
                direction=TrafficDirection.COUNTER_PROPAGATING, data_rate_mbps=mbps
            )
        )
        for mbps in (0.0, 10.5, 100.0)
    }
    assert rates == {500.0}


def test_background_rate_co_propagating_scales_with_power():
    traffic = ClassicalTraffic(
        direction=TrafficDirection.CO_PROPAGATING, optical_power_mw=0.55
    )
    assert background_rate_per_detector(traffic) == pytest.approx(2750.0)


def test_background_rate_independent_of_channel_length():
    # The rate never sees the channel, so equality is literal.
    traffic = ClassicalTraffic(direction=TrafficDirection.COUNTER_PROPAGATING)
    reference = background_rate_per_detector(traffic)
    for length in (0.25, 1.0, 4.0):
        ChannelConfig(length_km=length, traffic=traffic)  # length lives elsewhere
        assert background_rate_per_detector(traffic) == reference


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(length_km=-1.0),
        dict(length_km=1.0, alpha_quantum_db_per_km=-3.0),
        dict(length_km=1.0, second_mode_fraction=1.5),
        dict(length_km=1.0, splitters_per_arm=-1),
        dict(length_km=float("nan")),
    ],
)
def test_channel_config_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelConfig(**kwargs)


def test_traffic_validation():
    with pytest.raises(ValueError):
        ClassicalTraffic(optical_power_mw=-0.1)
    with pytest.raises(ValueError):
        ClassicalTraffic(direction="sideways")
