"""Simulator and analysis toolkit for entanglement-based key distribution
over telecom fibers shared with classical gigabit traffic."""

from .channel import (
    ChannelConfig,
    ClassicalTraffic,
    TrafficDirection,
    background_rate_per_detector,
    second_mode_delay_ps,
    transmittance,
)
from .distill import (
    KeyRateError,
    KeyRateReport,
    SiftedKey,
    asymptotic_rate,
    binary_entropy,
    finite_key_length,
    required_raw_bits,
    sift,
)
from .netsim import (
    SessionPlan,
    SliceOrderError,
    SourceBusyError,
    Topology,
    predict_key_rates,
    run_session,
    schedule_session,
)
from .pairgen import SourceParams, matched_basis_error_probability
from .receiver import (
    DetectorParams,
    LinkBudget,
    TagOrigin,
    TagStream,
    add_noise_tags,
    apply_dead_time,
    link_budget,
    read_tags,
    sample_pair_tags,
    write_tags,
)
from .tagproc import (
    Coincidences,
    ModeFilterWarning,
    NoCorrelationPeakError,
    find_offset,
    match_coincidences,
    temporal_mode_filter,
)

__version__ = "0.1.0"
