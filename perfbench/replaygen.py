"""Synthetic two-party tag streams for the replay workload.

The streams are drawn here with numpy, not with the fiberqkd sampler, so a
change to the simulator cannot change the replay input. They follow the
statistics of a symmetric star session (Poisson pair source, lossy arms,
a delayed second-order spatial mode, passive four-detector receivers with
timing jitter and Poisson noise) and carry three known truths: the B-minus-A
clock offset, the delay of the second-mode population, and the matched-basis
error rate of first-order pairs.

Pairs are thinned before they are drawn: each detection class (seen on
both sides, A only, B only) of each mode class is its own Poisson process,
so only detected photons are ever sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PS_PER_SECOND = 10**12
NUM_DETECTORS = 4
ORIGIN_PAIR, ORIGIN_BACKGROUND, ORIGIN_DARK = 0, 1, 2


@dataclass(frozen=True)
class ReplayParams:
    """Operating point the synthetic streams imitate; the replay workload's
    values are in ``workloads.json``. ``splitter_loss_db`` is the total
    splitter loss of one arm."""

    length_km: float
    pair_rate: float
    duration_s: float
    error_rate: float
    efficiency: float
    alpha_db_per_km: float
    splitter_loss_db: float
    second_mode_fraction: float
    second_mode_rejection_db: float
    mode_delay_ns_per_km: float
    jitter_sigma_ps: float
    dark_cps: float
    background_cps: float
    max_offset_ps: int

    @property
    def mode_delay_ps(self) -> int:
        return int(math.floor(self.length_km * self.mode_delay_ns_per_km * 1000.0 + 0.5))


@dataclass(eq=False)
class Side:
    """One party's clicks, sorted by time."""

    times_ps: np.ndarray   # int64
    detectors: np.ndarray  # int8, 0..3
    origins: np.ndarray    # int8, 0 pair, 1 background, 2 dark


@dataclass(eq=False)
class ReplayInput:
    a: Side
    b: Side
    offset_ps: int  # injected B-minus-A clock offset


def _sorted_side(times, detectors, origins) -> Side:
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return Side(
        times_ps=times[order],
        detectors=np.concatenate(detectors).astype(np.int8)[order],
        origins=np.concatenate(origins).astype(np.int8)[order],
    )


def generate(params: ReplayParams, seed: int) -> ReplayInput:
    """Draw both parties' streams; the same seed gives the same streams."""
    rng = np.random.default_rng(seed)
    duration_ps = int(round(params.duration_s * PS_PER_SECOND))
    offset = int(rng.integers(-params.max_offset_ps, params.max_offset_ps + 1))
    eta = params.efficiency * 10.0 ** (
        -(params.alpha_db_per_km * params.length_km + params.splitter_loss_db) / 10.0
    )
    eta_delayed = eta * 10.0 ** (-params.second_mode_rejection_db / 10.0)
    delay = params.mode_delay_ps
    f = params.second_mode_fraction
    # (class weight, detection prob A, detection prob B, extra delay A, extra delay B)
    mode_classes = (
        (1.0 - f, eta, eta, 0, 0),
        (f / 2.0, eta_delayed, eta, delay, 0),
        (f / 2.0, eta, eta_delayed, 0, delay),
    )
    times = {"a": [], "b": []}
    dets = {"a": [], "b": []}
    origins = {"a": [], "b": []}

    def emit(side, t, detector, origin):
        times[side].append(t)
        dets[side].append(detector)
        origins[side].append(np.full(t.size, origin, dtype=np.int8))

    def jitter(n):
        return np.rint(rng.normal(0.0, params.jitter_sigma_ps, size=n)).astype(np.int64)

    mean_pairs = params.pair_rate * params.duration_s
    for ci, (weight, pa, pb, delay_a, delay_b) in enumerate(mode_classes):
        n = int(rng.poisson(mean_pairs * weight * pa * pb))
        t = rng.integers(0, duration_ps, size=n, dtype=np.int64)
        basis_a = rng.integers(0, 2, size=n, dtype=np.int8)
        basis_b = rng.integers(0, 2, size=n, dtype=np.int8)
        bit_a = rng.integers(0, 2, size=n, dtype=np.int8)
        bit_b = rng.integers(0, 2, size=n, dtype=np.int8)
        if ci == 0:
            # First-order pairs in matched bases agree except at the error rate;
            # a delayed photon is depolarized, so its partner's bit stays random.
            flip = (rng.random(n) < params.error_rate).astype(np.int8)
            bit_b = np.where(basis_a == basis_b, bit_a ^ flip, bit_b).astype(np.int8)
        emit("a", t + delay_a + jitter(n), 2 * basis_a + bit_a, ORIGIN_PAIR)
        emit("b", t + offset + delay_b + jitter(n), 2 * basis_b + bit_b, ORIGIN_PAIR)
        for side, p_here, p_other, extra, shift in (
            ("a", pa, pb, delay_a, 0),
            ("b", pb, pa, delay_b, offset),
        ):
            m = int(rng.poisson(mean_pairs * weight * p_here * (1.0 - p_other)))
            t = rng.integers(0, duration_ps, size=m, dtype=np.int64)
            emit(
                side,
                t + shift + extra + jitter(m),
                rng.integers(0, NUM_DETECTORS, size=m, dtype=np.int8),
                ORIGIN_PAIR,
            )

    for side in ("a", "b"):
        for rate, origin in (
            (params.background_cps, ORIGIN_BACKGROUND),
            (params.dark_cps, ORIGIN_DARK),
        ):
            m = int(rng.poisson(NUM_DETECTORS * rate * params.duration_s))
            emit(
                side,
                rng.integers(0, duration_ps, size=m, dtype=np.int64),
                rng.integers(0, NUM_DETECTORS, size=m, dtype=np.int8),
                origin,
            )

    return ReplayInput(
        a=_sorted_side(times["a"], dets["a"], origins["a"]),
        b=_sorted_side(times["b"], dets["b"], origins["b"]),
        offset_ps=offset,
    )
