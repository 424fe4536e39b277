"""Entangled-pair source settings and the polarization correlation model.

Timestamps throughout the package are integer picosecond ticks (int64) so
that coincidence arithmetic downstream is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PS_PER_SECOND = 1_000_000_000_000


@dataclass(frozen=True)
class SourceParams:
    """Entangled-pair source settings.

    Args:
        pair_rate: mean emitted pairs per second (homogeneous Poisson rate).
        intrinsic_visibility: correlation contrast of the emitted state, in [0, 1].
    """

    pair_rate: float
    intrinsic_visibility: float = 0.95

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pair_rate) and self.pair_rate >= 0):
            raise ValueError(f"pair_rate must be finite and >= 0, got {self.pair_rate}")
        if not (0.0 <= self.intrinsic_visibility <= 1.0):
            raise ValueError(
                f"intrinsic_visibility must be in [0, 1], got {self.intrinsic_visibility}"
            )


def matched_basis_error_probability(visibility: float) -> float:
    """Probability of discordant outcomes in a matched basis: (1 - V) / 2."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return (1.0 - visibility) / 2.0
