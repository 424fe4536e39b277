"""Entangled-pair source settings and the polarization correlation model.

Timestamps throughout the package are integer picosecond ticks (int64) so
that coincidence arithmetic downstream is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

PS_PER_SECOND = 1_000_000_000_000


class Basis(IntEnum):
    """Polarization measurement basis: rectilinear (H/V) or diagonal (+/-)."""

    RECTILINEAR = 0
    DIAGONAL = 1


@dataclass(frozen=True)
class SourceParams:
    """Entangled-pair source settings.

    Args:
        pair_rate: mean emitted pairs per second (homogeneous Poisson rate).
        intrinsic_visibility: correlation contrast of the emitted state, in [0, 1].
        duration_s: emission window in seconds.
        seed: seed for the emission process.
    """

    pair_rate: float
    intrinsic_visibility: float = 0.95
    duration_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pair_rate) and self.pair_rate >= 0):
            raise ValueError(f"pair_rate must be finite and >= 0, got {self.pair_rate}")
        if not (0.0 <= self.intrinsic_visibility <= 1.0):
            raise ValueError(
                f"intrinsic_visibility must be in [0, 1], got {self.intrinsic_visibility}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and > 0, got {self.duration_s}")


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


def matched_basis_error_probability(visibility: float) -> float:
    """Probability of discordant outcomes in a matched basis: (1 - V) / 2."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return (1.0 - visibility) / 2.0
