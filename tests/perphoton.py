"""Per-photon reference pipeline: the slow path the event sampler replaces.

It draws every emitted pair, sends each photon down its arm and through
its detector, and keeps arrays sized by the number of emitted pairs. The
session pipeline samples only the pairs that click
(``fiberqkd.receiver.sample_pair_tags``); the tests check that sampler
against this code on distributions at small scale.
``joint_outcome_probability`` states the polarization-correlation model
that both pipelines sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from fiberqkd.channel import PS_PER_KM, ChannelConfig, transmittance
from fiberqkd.pairgen import PS_PER_SECOND, SourceParams, matched_basis_error_probability
from fiberqkd.receiver import DetectorParams, TagOrigin, TagStream


class Basis(IntEnum):
    """Polarization measurement basis: rectilinear (H/V) or diagonal (+/-)."""

    RECTILINEAR = 0
    DIAGONAL = 1


def joint_outcome_probability(
    basis_a: Basis | int,
    basis_b: Basis | int,
    bit_a: int,
    bit_b: int,
    visibility: float,
) -> float:
    """Probability of one joint measurement outcome on an entangled pair.

    With matching bases the outcomes are correlated with contrast
    ``visibility``; with differing bases all four outcomes are equally
    likely. The convention is correlated (not anticorrelated) outcomes in
    both bases; any consistent choice gives the same error rate.

    Returns:
        (1/4) * (1 + (-1)^(bit_a XOR bit_b) * visibility) for matching
        bases, 1/4 otherwise.
    """
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    if bit_a not in (0, 1) or bit_b not in (0, 1):
        raise ValueError(f"bits must be 0 or 1, got {bit_a}, {bit_b}")
    basis_a = Basis(basis_a)
    basis_b = Basis(basis_b)
    if basis_a != basis_b:
        return 0.25
    sign = 1.0 if bit_a == bit_b else -1.0
    return 0.25 * (1.0 + sign * visibility)


@dataclass(eq=False)
class PairStream:
    """Emission times of entangled pairs.

    ``times_ps`` is strictly increasing; the pair id of an event is its
    position in the array.
    """

    times_ps: np.ndarray
    duration_ps: int

    def __len__(self) -> int:
        return int(self.times_ps.size)


def generate_pair_stream(params: SourceParams, duration_s: float, seed) -> PairStream:
    """Draw a homogeneous Poisson emission stream over [0, duration_s).

    The construction is the conditional-uniform one: the total count is
    Poisson(rate * duration) and event times are uniform over the window,
    discretized to picosecond ticks. Ticks that collide (vanishingly rare at
    the rates of interest) are dropped to keep the stream strictly
    increasing. Identical arguments yield a bit-identical stream.
    """
    rng = np.random.default_rng(seed)
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    n = rng.poisson(params.pair_rate * duration_s)
    times = rng.integers(0, duration_ps, size=n, dtype=np.int64)
    times.sort()
    if times.size > 1:
        times = times[np.concatenate(([True], np.diff(times) > 0))]
    return PairStream(times_ps=times, duration_ps=duration_ps)


@dataclass(eq=False)
class ArmTransits:
    """Per-pair transit outcome of one arm, aligned with the pair stream.

    Photons in the second-order spatial mode arrive late by the mode delay
    and have lost their polarization alignment (depolarized).
    """

    survived: np.ndarray      # bool, photon reached the arm output
    second_order: np.ndarray  # bool, photon travelled in the delayed mode
    depolarized: np.ndarray   # bool, outcome will be uniform regardless of partner
    arrival_ps: np.ndarray    # int64, arrival time at the analyzer input

    def __len__(self) -> int:
        return int(self.survived.size)


def assign_pair_modes(
    n_pairs: int, fraction: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Draw coordinated second-order-mode flags for the two arms.

    A pair enters the degraded launch condition with probability
    ``fraction``; one photon of such a pair (the arm picked 50/50) travels
    in the second-order mode. Used by the session pipeline so that the
    degraded population carries the mode delay on exactly one side and can
    be removed by arrival-time filtering; see ``propagate_arm`` for the
    per-arm marginal behaviour when no explicit flags are supplied.

    Returns:
        (flags_arm_a, flags_arm_b) boolean arrays of length n_pairs.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    degraded = rng.random(n_pairs) < fraction
    side_b = rng.integers(0, 2, size=n_pairs, dtype=np.int8) == 1
    return degraded & ~side_b, degraded & side_b


def propagate_arm(
    pairs: PairStream,
    config: ChannelConfig,
    seed,
    second_order: np.ndarray | None = None,
) -> ArmTransits:
    """Send each photon of the stream down one arm.

    Survival is an independent Bernoulli trial with probability
    transmittance(alpha_quantum, length) * splitter transmission. Unless an
    explicit ``second_order`` flag array is given, each photon is marked
    second-order independently with probability
    ``config.second_mode_fraction``; second-order photons arrive late by the
    mode delay and are depolarized. Deterministic under ``seed`` (draw
    order: survival, then mode flags when not supplied).
    """
    rng = np.random.default_rng(seed)
    n = len(pairs)
    splitter_transmission = 10.0 ** (
        -config.splitter_quantum_loss_db * config.splitters_per_arm / 10.0
    )
    p_survive = transmittance(config.alpha_quantum_db_per_km, config.length_km)
    p_survive *= splitter_transmission
    survived = rng.random(n) < p_survive
    if second_order is None:
        second_order = rng.random(n) < config.second_mode_fraction
    else:
        second_order = np.asarray(second_order, dtype=bool)
        if second_order.size != n:
            raise ValueError(
                f"second_order has {second_order.size} entries for {n} pairs"
            )
    second_order = second_order & survived

    first_order_delay = int(math.floor(config.length_km * PS_PER_KM + 0.5))
    arrival = pairs.times_ps + first_order_delay
    if config.length_km > 0:
        arrival = arrival + np.where(second_order, config.mode_delay_ps, 0)
    return ArmTransits(
        survived=survived,
        second_order=second_order,
        depolarized=second_order.copy(),
        arrival_ps=arrival.astype(np.int64),
    )


def detect_pairs(
    transits_a: ArmTransits,
    transits_b: ArmTransits,
    visibility_first_order: float,
    det_a: DetectorParams,
    det_b: DetectorParams,
    seed,
) -> tuple[TagStream, TagStream]:
    """Measure both arms and emit one click stream per party.

    Each arriving photon takes a 50/50 passive basis choice. When both
    photons of a pair are first-order and the bases match, the outcome pair
    is drawn from the correlated distribution with contrast
    ``visibility_first_order``; a depolarized photon yields a uniform
    outcome regardless of its partner. Detection succeeds with the
    detector efficiency, reduced by the second-mode rejection for photons
    in the delayed mode. Tag time is arrival plus Gaussian timing jitter,
    rounded to ps.

    Deterministic under ``seed``; the draw order is basis A, basis B,
    outcome A, correlation flip, uncorrelated outcome B, detection A,
    detection B, jitter A, jitter B.
    """
    n = len(transits_a)
    if len(transits_b) != n:
        raise ValueError(
            f"transit lists disagree on pair count: {n} vs {len(transits_b)}"
        )
    if not (0.0 <= visibility_first_order <= 1.0):
        raise ValueError(
            f"visibility_first_order must be in [0, 1], got {visibility_first_order}"
        )
    rng = np.random.default_rng(seed)

    basis_a = rng.integers(0, 2, size=n, dtype=np.int8)
    basis_b = rng.integers(0, 2, size=n, dtype=np.int8)
    bit_a = rng.integers(0, 2, size=n, dtype=np.int8)
    flip_draw = rng.random(n)
    bit_b_uncorrelated = rng.integers(0, 2, size=n, dtype=np.int8)

    error_p = matched_basis_error_probability(visibility_first_order)
    correlated = (
        (basis_a == basis_b) & ~transits_a.depolarized & ~transits_b.depolarized
    )
    bit_b = np.where(
        correlated, bit_a ^ (flip_draw < error_p), bit_b_uncorrelated
    ).astype(np.int8)

    streams = []
    for transits, basis, bit, det in (
        (transits_a, basis_a, bit_a, det_a),
        (transits_b, basis_b, bit_b, det_b),
    ):
        rejection = 10.0 ** (-det.second_mode_rejection_db / 10.0)
        p_detect = det.efficiency * np.where(transits.second_order, rejection, 1.0)
        kept = transits.survived & (rng.random(n) < p_detect)
        idx = np.flatnonzero(kept)
        times = transits.arrival_ps[idx]
        if det.jitter_sigma_ps > 0:
            times = times + np.rint(
                rng.normal(0.0, det.jitter_sigma_ps, size=idx.size)
            ).astype(np.int64)
        stream = TagStream(
            times_ps=times.astype(np.int64),
            detectors=(2 * basis[idx] + bit[idx]).astype(np.int8),
            origins=np.full(idx.size, TagOrigin.PAIR, dtype=np.int8),
            pair_ids=idx.astype(np.int32),
            modes=transits.second_order[idx].astype(np.int8),
        )
        streams.append(stream.sorted_by_time())
    return streams[0], streams[1]
