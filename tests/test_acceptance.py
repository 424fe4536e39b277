"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run fixed seeds, so outcomes are reproducible
bit-for-bit; tolerances and simulated durations are stated inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_tag_stream
from fiberqkd import cli
from fiberqkd.channel import (
    ChannelConfig,
    ClassicalTraffic,
    TrafficDirection,
    background_rate_per_detector,
    transmittance,
)
from fiberqkd.distill import asymptotic_rate, binary_entropy, finite_key_length
from fiberqkd.netsim import Link, predict_key_rates, run_session
from fiberqkd.pairgen import SourceParams
from fiberqkd.receiver import DetectorParams, apply_dead_time
from fiberqkd.tagproc import find_offset, match_coincidences


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def _dark():
    return ClassicalTraffic(direction=TrafficDirection.NONE)


def _active(mbps=10.5):
    return ClassicalTraffic(
        direction=TrafficDirection.COUNTER_PROPAGATING, data_rate_mbps=mbps
    )


def _session(length_km, traffic, duration_s, seed, *, pair_rate=4e5,
             visibility=0.95, detector=DetectorParams()):
    arm = ChannelConfig(length_km=length_km, traffic=traffic)
    source = SourceParams(pair_rate=pair_rate, intrinsic_visibility=visibility)
    return run_session(Link(arm, arm, source, detector), duration_s, seed)


def test_a1_infinite_key_threshold():
    # Asymptotic rate vanishes at 11% error (f = 1), is positive at 10%
    # and zero at 12%; tolerance 1e-3 relative to the sifted rate.
    with criterion("A1 infinite-key threshold"):
        sifted = 1.0
        assert abs(asymptotic_rate(sifted, 0.11, 1.0)) <= 1e-3 * sifted
        assert asymptotic_rate(sifted, 0.10, 1.0) > 0.0
        assert asymptotic_rate(sifted, 0.12, 1.0) == 0.0


def test_a2_background_rate_model():
    # Counter-propagating traffic: exactly 500 cps per detector at every
    # length and traffic level.
    with criterion("A2 counter-propagating background"):
        for length in (0.25, 0.5, 1.0, 2.0, 4.0):
            for mbps in (0.0, 10.5, 100.0):
                traffic = ClassicalTraffic(
                    direction=TrafficDirection.COUNTER_PROPAGATING,
                    data_rate_mbps=mbps,
                )
                ChannelConfig(length_km=length, traffic=traffic)
                assert background_rate_per_detector(traffic) == 500.0


def test_a3_mode_filter_calibration():
    # 2 km arms, intrinsic visibility 0.95, pair-mode fraction 0.35, and the
    # receiver's mode-selective jumper removed so the raw bimodal channel is
    # visible: arrival-time filtering lifts the visibility from 0.62 +- 0.04
    # to at least 0.93 at a retained-pair fraction of 0.5 +- 0.1.
    with criterion("A3 mode-filter calibration"):
        report, artifacts = _session(
            2.0,
            _dark(),
            duration_s=12.0,
            seed=20260811,
            detector=DetectorParams(second_mode_rejection_db=0.0),
        )
        assert artifacts.records >= 2e4
        v_unfiltered = 1 - 2 * artifacts.wide_sift.qber
        v_filtered = 1 - 2 * artifacts.filtered_sift.qber
        assert abs(v_unfiltered - 0.62) <= 0.04
        assert v_filtered >= 0.93
        assert abs(report.retained_fraction - 0.5) <= 0.1


def test_a4_active_matches_dark_across_lengths():
    # At every measured length, 30 s per point: the active-fiber QBER is
    # within 0.02 (plus 4 sigma counting noise) of the dark-fiber QBER.
    with criterion("A4 active vs dark QBER"):
        with pytest.warns(Warning):
            for li, length in enumerate((0.25, 0.5, 1.0, 2.0, 3.0)):
                results = {}
                for vi, (label, traffic) in enumerate(
                    (("dark", _dark()), ("active", _active()))
                ):
                    report, _ = _session(
                        length, traffic, duration_s=30.0, seed=1000 + 10 * li + vi
                    )
                    results[label] = report
                q_a, q_d = results["active"].qber, results["dark"].qber
                sigma = math.sqrt(
                    q_a * (1 - q_a) / results["active"].sifted_bits
                    + q_d * (1 - q_d) / results["dark"].sifted_bits
                )
                assert abs(q_a - q_d) <= 0.02 + 4 * sigma, f"length {length} km"


def test_a5_traffic_invariance():
    # 4 km arms, >= 1e4 sifted bits per point: QBER spread across traffic
    # levels stays within 0.005. Ideal-efficiency detectors and a brighter
    # source keep the per-point simulation at desk scale; the property
    # under test is the noise model's data-rate independence.
    with criterion("A5 traffic invariance"):
        qbers = []
        for ti, mbps in enumerate((0.0, 25.0, 50.0, 75.0, 100.0)):
            report, _ = _session(
                4.0,
                _active(mbps),
                duration_s=4.5,
                seed=5000 + ti,
                pair_rate=4e6,
                detector=DetectorParams(efficiency=1.0),
            )
            assert report.sifted_bits >= 1e4
            qbers.append(report.qber)
        assert max(qbers) - min(qbers) <= 0.005


def test_a6_extrapolated_reach():
    # A 15 Mpairs/s source under the 3 dB/km loss model: positive
    # asymptotic rate at 8 km arms (16 km span), none at 12 km arms.
    with criterion("A6 source-rate extrapolation"):
        source = SourceParams(pair_rate=15e6, intrinsic_visibility=0.95)
        for length, check in ((8.0, lambda r: r > 0.0), (12.0, lambda r: r <= 0.0)):
            arm = ChannelConfig(length_km=length, traffic=_active())
            report = predict_key_rates(source, arm, arm)
            assert check(report.asymptotic_rate), f"length {length} km"


def test_a6_timetag_session():
    # The A6 operating point simulated tag by tag: 8 km arms, 15 Mpairs/s,
    # active traffic, 100 s of source time. QBER within 4 sigma + 0.002 and
    # sifted bits within 4 sqrt(n) of the closed-form prediction.
    with criterion("A6 timetag session"):
        source = SourceParams(pair_rate=15e6, intrinsic_visibility=0.95)
        arm = ChannelConfig(length_km=8.0, traffic=_active())
        predicted = predict_key_rates(source, arm, arm, duration_s=100.0)
        report, _ = _session(8.0, _active(), duration_s=100.0, seed=6600, pair_rate=15e6)
        sigma = math.sqrt(predicted.qber * (1 - predicted.qber) / report.sifted_bits)
        assert abs(report.qber - predicted.qber) < 4 * sigma + 0.002
        assert abs(report.sifted_bits - predicted.sifted_bits) < 4 * math.sqrt(
            predicted.sifted_bits
        )


def test_a7_finite_key_feasibility():
    # The degraded 3 km operating point (alignment-limited visibility 0.78,
    # hence QBER >= 0.08) cannot reach the finite-key threshold within 10
    # minutes of collection, while 1 km with nominal alignment can.
    with criterion("A7 finite-key feasibility"):
        report3, _ = _session(
            3.0, _active(), duration_s=60.0, seed=7300, visibility=0.78
        )
        assert report3.qber >= 0.08
        collectible_3km = report3.sifted_rate * 600.0
        assert report3.n_required > collectible_3km

        report1, _ = _session(1.0, _active(), duration_s=20.0, seed=7100)
        n_10min = int(report1.sifted_rate * 600.0)
        assert finite_key_length(n_10min, report1.qber) > 0


def test_a8_property_suite(rng, tmp_path):
    # Bundled structural properties at acceptance level; each also has a
    # dedicated unit test.
    with criterion("A8 property suite"):
        # Offset recovery exactness and shift equivariance.
        times = np.sort(rng.integers(0, int(1e12), size=30_000, dtype=np.int64))
        tags = make_tag_stream(times)
        shifted = make_tag_stream(times + 5_000_000)
        assert find_offset(tags, shifted) == 5_000_000
        assert find_offset(tags, make_tag_stream(times + 5_200_400)) == 5_200_400

        # Matching injectivity and oracle equivalence on a 1e4-tag instance.
        base = np.sort(rng.integers(0, int(1e10), size=10_000, dtype=np.int64))
        ta = make_tag_stream(base + np.rint(rng.normal(0, 500, base.size)).astype(np.int64))
        tb = make_tag_stream(base + np.rint(rng.normal(0, 500, base.size)).astype(np.int64))
        records = match_coincidences(ta, tb, 0, 2000)
        assert np.unique(records.idx_a).size == len(records)
        assert np.unique(records.idx_b).size == len(records)
        used = np.zeros(len(tb), dtype=bool)
        expected = []
        start = 0
        ta_list, tb_list = ta.times_ps.tolist(), tb.times_ps.tolist()
        for i, t in enumerate(ta_list):
            for j in range(start, len(tb_list)):
                if used[j]:
                    continue
                doubled = 2 * (tb_list[j] - t)
                if doubled < -2000:
                    start = j + 1
                    continue
                if doubled > 2000:
                    break
                used[j] = True
                expected.append((i, j))
                break
        assert list(zip(records.idx_a.tolist(), records.idx_b.tolist())) == expected

        # Binary entropy symmetry and boundaries.
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(binary_entropy(float(p)) - binary_entropy(float(1 - p))) < 1e-12

        # Loss composition.
        for _ in range(30):
            alpha = float(rng.uniform(0, 5))
            l1, l2 = rng.uniform(0, 8, size=2)
            assert transmittance(alpha, l1 + l2) == pytest.approx(
                transmittance(alpha, l1) * transmittance(alpha, l2), rel=1e-12
            )

        # Dead-time idempotence.
        noisy = make_tag_stream(
            np.sort(rng.integers(0, 10_000_000, size=20_000)),
            rng.integers(0, 4, size=20_000),
        )
        once = apply_dead_time(noisy, 50.0)
        twice = apply_dead_time(once, 50.0)
        assert np.array_equal(once.times_ps, twice.times_ps)

        # Full-run byte determinism under a fixed seed.
        outputs = []
        for label in ("first", "second"):
            config = cli.ExperimentConfig(
                scenario="single_run",
                duration_s=0.5,
                seed=88,
                output_dir=str(tmp_path / label),
                dump_coincidences=True,
            )
            outputs.append(cli.run_experiment(config))
        for name in sorted(outputs[0]):
            assert outputs[0][name].read_bytes() == outputs[1][name].read_bytes()
