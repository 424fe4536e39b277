"""Key sifting and secret-key-rate bounds.

The asymptotic bound is the symmetric-error one,
rate = sifted_rate * (1 - f*H2(Q) - H2(Q)), which vanishes at the usual
11% error threshold for f = 1. The finite-size bound is a conservative
Hoeffding-corrected variant of the same expression; error correction and
privacy amplification themselves are out of scope, only their rate costs
enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tagproc import Coincidences

DEFAULT_EC_INEFFICIENCY = 1.1
DEFAULT_EPSILON = 1e-10
_MAX_SEARCH_BITS = 2**40


class KeyRateError(ValueError):
    """No positive secret key is possible for the given error rate."""


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-key figures for one session or one analytic operating point."""

    length_km_per_arm: float
    traffic_mbps: float
    sifted_bits: int
    sifted_rate: float               # bits/s
    qber: float
    asymptotic_rate: float           # bits/s
    finite_length: int               # extractable bits at the collected size
    n_required: float                # min sifted bits for any positive key; inf if none
    retained_fraction: float         # coincidences surviving the mode filter
    offset_ps: int

    CSV_FIELDS = (
        "length_km_per_arm",
        "traffic_mbps",
        "sifted_rate",
        "qber",
        "asymptotic_rate",
        "finite_length",
        "n_required",
    )

    def csv_row(self) -> dict:
        return {name: getattr(self, name) for name in self.CSV_FIELDS}


@dataclass(frozen=True)
class SiftTally:
    """How many matched-basis records a run of records holds and how many
    of their bit pairs differ: the length and error count of its sifted
    key, added up part by part."""

    bits: int = 0
    errors: int = 0

    def __add__(self, other: "SiftTally") -> "SiftTally":
        return SiftTally(self.bits + other.bits, self.errors + other.errors)

    def __len__(self) -> int:
        return self.bits

    @property
    def qber(self) -> float:
        if self.bits == 0:
            raise ValueError("no matched-basis records to sift")
        return self.errors / self.bits


def sift_tally(records: Coincidences) -> SiftTally:
    """Keep the matched-basis records and count the bit pairs that differ;
    records with no matched basis give a zero tally."""
    matched = (records.det_a >> 1) == (records.det_b >> 1)
    differ = (records.det_a ^ records.det_b) & 1
    # Count with &, not by compacting ``differ`` through the mixed mask,
    # which costs a mispredicted branch per record and a copy.
    return SiftTally(int(np.count_nonzero(matched)), int(np.count_nonzero(differ & matched)))


def sift(records: Coincidences, duration_s: float = 0.0) -> SiftTally:
    """``sift_tally(records)``, which must hold at least one bit;
    ``duration_s`` is read by nothing and stays for callers that pass it."""
    tally = sift_tally(records)
    if tally.bits == 0:
        raise ValueError("no matched-basis records to sift")
    return tally


def binary_entropy(p: float) -> float:
    """H2(p) = -p*log2(p) - (1-p)*log2(1-p), with H2(0) = H2(1) = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def asymptotic_rate(
    sifted_rate: float, qber: float, ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY
) -> float:
    """Secret bits per second in the infinite-key limit."""
    if not (0.0 <= qber <= 0.5):
        raise ValueError(f"qber must be in [0, 0.5], got {qber}")
    if not (math.isfinite(ec_inefficiency) and ec_inefficiency >= 1.0):
        raise ValueError(f"ec_inefficiency must be >= 1, got {ec_inefficiency}")
    if not (math.isfinite(sifted_rate) and sifted_rate >= 0):
        raise ValueError(f"sifted_rate must be finite and >= 0, got {sifted_rate}")
    h = binary_entropy(qber)
    return sifted_rate * max(0.0, 1.0 - ec_inefficiency * h - h)


def finite_key_length(
    n: int,
    qber: float,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    epsilon: float = DEFAULT_EPSILON,
) -> int:
    """Extractable secret bits from n sifted bits at the observed qber.

    Applies a Hoeffding fluctuation mu = sqrt(ln(2/eps) / 2n) to the
    phase-error estimate and charges 2*log2(1/eps) bits of overhead:

        l = floor(n*(1 - H2(min(0.5, qber + mu))) - f*n*H2(qber)
                  - 2*log2(1/eps))

    clamped at zero. Monotone non-decreasing in n for fixed qber.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 <= qber <= 0.5):
        raise ValueError(f"qber must be in [0, 0.5], got {qber}")
    if not (math.isfinite(ec_inefficiency) and ec_inefficiency >= 1.0):
        raise ValueError(f"ec_inefficiency must be >= 1, got {ec_inefficiency}")
    mu = math.sqrt(math.log(2.0 / epsilon) / (2.0 * n))
    phase_estimate = min(0.5, qber + mu)
    length = (
        n * (1.0 - binary_entropy(phase_estimate))
        - ec_inefficiency * n * binary_entropy(qber)
        - 2.0 * math.log2(1.0 / epsilon)
    )
    return max(0, math.floor(length))


def required_raw_bits(
    qber: float,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    epsilon: float = DEFAULT_EPSILON,
) -> int:
    """Smallest sifted-key size from which any secret bits survive.

    Located by exponential bracketing followed by binary search, valid
    because the finite-key length is monotone in n.
    """
    h = binary_entropy(qber)
    if 1.0 - (1.0 + ec_inefficiency) * h <= 0.0:
        # The finite length is bounded by n * asymptotic yield minus overhead.
        raise KeyRateError(f"no positive key at any n for qber {qber}")
    hi = 1
    while finite_key_length(hi, qber, ec_inefficiency, epsilon) < 1:
        hi *= 2
        if hi > _MAX_SEARCH_BITS:
            raise KeyRateError(f"no positive key at any n for qber {qber}")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if finite_key_length(mid, qber, ec_inefficiency, epsilon) >= 1:
            hi = mid
        else:
            lo = mid + 1
    return hi
