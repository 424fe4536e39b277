"""One fiber arm: attenuation, splitter insertion loss, the delay of the
second spatial mode the short-wavelength photons can travel in, and noise
counts induced by classical traffic sharing the fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

SPEED_OF_LIGHT_KM_PER_S = 299_792.458
GROUP_INDEX = 1.47
# First-order-mode group delay per km of fiber, in ps.
PS_PER_KM = GROUP_INDEX / SPEED_OF_LIGHT_KM_PER_S * 1e12


class TrafficDirection(str, Enum):
    NONE = "none"
    COUNTER_PROPAGATING = "counter_propagating"
    CO_PROPAGATING = "co_propagating"


@dataclass(frozen=True)
class ClassicalTraffic:
    """Classical signal sharing the fiber with the quantum channel.

    The transceivers emit at constant optical power whether idle or loaded,
    so the induced noise depends on direction and power but not on the data
    rate. Counter-propagating traffic adds a fixed per-detector count rate;
    co-propagating traffic scales with launch power (uncalibrated default).
    """

    direction: TrafficDirection = TrafficDirection.NONE
    optical_power_mw: float = 0.55
    data_rate_mbps: float = 0.0
    background_counter_cps: float = 500.0
    background_co_cps_per_mw: float = 5000.0

    def __post_init__(self) -> None:
        for name in (
            "optical_power_mw",
            "data_rate_mbps",
            "background_counter_cps",
            "background_co_cps_per_mw",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # Accept plain strings in configs.
        object.__setattr__(self, "direction", TrafficDirection(self.direction))


@dataclass(frozen=True)
class ChannelConfig:
    """Per-arm fiber description.

    Defaults: 3 dB/km attenuation for the quantum signal, two fiber
    splitters per arm at 0.5 dB each for the quantum wavelength, and
    2.2 ns/km group delay between the two spatial modes the
    short-wavelength light can occupy in this fiber.
    """

    length_km: float
    alpha_quantum_db_per_km: float = 3.0
    splitter_quantum_loss_db: float = 0.5
    splitters_per_arm: int = 2
    second_mode_fraction: float = 0.35
    mode_delay_ns_per_km: float = 2.2
    traffic: ClassicalTraffic = field(default_factory=ClassicalTraffic)

    def __post_init__(self) -> None:
        for name in (
            "length_km",
            "alpha_quantum_db_per_km",
            "splitter_quantum_loss_db",
            "mode_delay_ns_per_km",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.splitters_per_arm < 0:
            raise ValueError(f"splitters_per_arm must be >= 0, got {self.splitters_per_arm}")
        if not (0.0 <= self.second_mode_fraction <= 1.0):
            raise ValueError(
                f"second_mode_fraction must be in [0, 1], got {self.second_mode_fraction}"
            )

    @property
    def mode_delay_ps(self) -> int:
        return second_mode_delay_ps(self.length_km, self.mode_delay_ns_per_km)


def transmittance(alpha_db_per_km: float, length_km: float) -> float:
    """Power transmission 10^(-alpha*L/10) of a fiber span."""
    if not (math.isfinite(alpha_db_per_km) and alpha_db_per_km >= 0):
        raise ValueError(f"alpha_db_per_km must be finite and >= 0, got {alpha_db_per_km}")
    if not (math.isfinite(length_km) and length_km >= 0):
        raise ValueError(f"length_km must be finite and >= 0, got {length_km}")
    return 10.0 ** (-alpha_db_per_km * length_km / 10.0)


def second_mode_delay_ps(length_km: float, mode_delay_ns_per_km: float = 2.2) -> int:
    """Arrival delay of the second-order mode over the arm, rounded to ps."""
    if not (math.isfinite(length_km) and length_km >= 0):
        raise ValueError(f"length_km must be finite and >= 0, got {length_km}")
    if not (math.isfinite(mode_delay_ns_per_km) and mode_delay_ns_per_km >= 0):
        raise ValueError(
            f"mode_delay_ns_per_km must be finite and >= 0, got {mode_delay_ns_per_km}"
        )
    return int(math.floor(length_km * mode_delay_ns_per_km * 1000.0 + 0.5))


def background_rate_per_detector(traffic: ClassicalTraffic) -> float:
    """Noise count rate each detector picks up from the classical signal.

    Counter-propagating traffic contributes a fixed rate independent of
    fiber length and data rate; co-propagating traffic scales with optical
    power; a dark link contributes nothing.
    """
    if traffic.direction is TrafficDirection.NONE:
        return 0.0
    if traffic.direction is TrafficDirection.COUNTER_PROPAGATING:
        return traffic.background_counter_cps
    return traffic.background_co_cps_per_mw * traffic.optical_power_mw
