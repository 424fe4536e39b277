"""Star-topology network orchestration: a central switched pair source,
per-user fiber arms, and end-to-end key-distribution sessions.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import distill, receiver, tagproc
from .channel import ChannelConfig
from .distill import KeyRateReport
from .pairgen import SourceParams, matched_basis_error_probability
from .receiver import (
    CLICK_A_ONLY,
    CLICK_B_ONLY,
    CLICK_BOTH,
    MODE_DEGRADED_A,
    MODE_DEGRADED_B,
    MODE_GOOD,
    DetectorParams,
    TagOrigin,
    TagStream,
)


class SourceBusyError(RuntimeError):
    """The shared pair source is already switched to another session."""


class UnknownUserError(KeyError):
    pass


class Topology:
    """Central provider with one pair source and switched arms to users.

    The source is a shared resource: at most one session may hold it at a
    time, enforced across threads.
    """

    def __init__(
        self,
        users: list[tuple[str, ChannelConfig]],
        source: SourceParams,
        detector: DetectorParams | None = None,
        qber_drift_per_s: float = 0.0,
        coincidence_window_ps: int = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS,
        ec_inefficiency: float = distill.DEFAULT_EC_INEFFICIENCY,
        epsilon: float = distill.DEFAULT_EPSILON,
    ):
        names = [name for name, _ in users]
        if len(names) < 2:
            raise ValueError("topology needs at least 2 users")
        if len(set(names)) != len(names):
            raise ValueError(f"user names must be unique, got {names}")
        self.users: dict[str, ChannelConfig] = dict(users)
        self.source = source
        self.detector = detector if detector is not None else DetectorParams()
        self.qber_drift_per_s = qber_drift_per_s
        self.coincidence_window_ps = int(coincidence_window_ps)
        self.ec_inefficiency = ec_inefficiency
        self.epsilon = epsilon
        self._lock = threading.Lock()
        self._active: SessionPlan | None = None

    def _acquire(self, plan: "SessionPlan") -> None:
        with self._lock:
            if self._active is not None:
                raise SourceBusyError(
                    f"source busy: session {self._active.user_a}-"
                    f"{self._active.user_b} is active"
                )
            self._active = plan

    def _release(self, plan: "SessionPlan") -> None:
        with self._lock:
            if self._active is plan:
                self._active = None


@dataclass(frozen=True)
class SessionPlan:
    """One scheduled key-distribution session between two users."""

    topology: Topology
    user_a: str
    user_b: str
    config_a: ChannelConfig
    config_b: ChannelConfig
    duration_s: float
    seed: int


@dataclass(eq=False)
class SessionArtifacts:
    """Raw per-session data kept alongside the key-rate report."""

    tags_a: TagStream
    tags_b: TagStream
    records: tagproc.Coincidences          # wide-window matches, pre mode filter
    filtered_records: tagproc.Coincidences
    mode_filter_ambiguous: bool


def schedule_session(
    topology: Topology,
    user_a: str,
    user_b: str,
    duration_s: float,
    seed: int,
) -> SessionPlan:
    """Switch the source to a user pair and return the session plan.

    Holds the source until ``run_session`` completes (or ``release_session``
    is called); scheduling while a session is active fails with
    SourceBusyError.
    """
    for name in (user_a, user_b):
        if name not in topology.users:
            raise UnknownUserError(f"unknown user {name!r}")
    if user_a == user_b:
        raise ValueError(f"cannot pair user {user_a!r} with itself")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    plan = SessionPlan(
        topology=topology,
        user_a=user_a,
        user_b=user_b,
        config_a=topology.users[user_a],
        config_b=topology.users[user_b],
        duration_s=float(duration_s),
        seed=int(seed),
    )
    topology._acquire(plan)
    return plan


def release_session(plan: SessionPlan) -> None:
    plan.topology._release(plan)


def run_session(plan: SessionPlan) -> tuple[KeyRateReport, SessionArtifacts]:
    """Execute a session end to end and release the source when done.

    Pipeline: pair clicks drawn by the thinned event sampler
    (``receiver.sample_pair_tags``), traffic/dark noise, dead time, offset
    recovery, wide-window coincidence matching, arrival-time mode
    filtering, sifting, and key-rate evaluation. The sampler draws only
    the pairs that click on at least one side, with each pair's mode
    class (degraded on at most one arm) and click class taken from the
    shared link budget, so the cost scales with detected events rather
    than emitted pairs. A pair tag's ``pair_ids`` entry indexes the
    session's list of clicking pairs and is shared by both sides.
    Deterministic under the plan seed.
    """
    topo = plan.topology
    try:
        seeds = np.random.SeedSequence(plan.seed).spawn(8)
        # Slots 1-4 are unused so that the noise seeds keep their places.
        s_pairs, s_bg_a, s_bg_b, s_dark = seeds[0], seeds[5], seeds[6], seeds[7]

        tags_a, tags_b = receiver.sample_pair_tags(
            topo.source,
            plan.config_a,
            plan.config_b,
            topo.detector,
            plan.duration_s,
            s_pairs,
            qber_drift_per_s=topo.qber_drift_per_s,
        )

        # Background then dark noise, one merge per side.
        bg_a, bg_b = (
            chan.background_rate_per_detector(cfg.traffic) for cfg in (plan.config_a, plan.config_b)
        )
        dark_cps = topo.detector.dark_cps
        dark_a, dark_b = s_dark.spawn(2)
        tags_a = receiver.add_noise_tags(
            tags_a,
            [(bg_a, TagOrigin.BACKGROUND, s_bg_a), (dark_cps, TagOrigin.DARK, dark_a)],
            plan.duration_s,
        )
        tags_b = receiver.add_noise_tags(
            tags_b,
            [(bg_b, TagOrigin.BACKGROUND, s_bg_b), (dark_cps, TagOrigin.DARK, dark_b)],
            plan.duration_s,
        )
        tags_a = receiver.apply_dead_time(tags_a, topo.detector.dead_time_ns)
        tags_b = receiver.apply_dead_time(tags_b, topo.detector.dead_time_ns)

        offset = tagproc.find_offset(tags_a, tags_b)

        delay_a = plan.config_a.mode_delay_ps
        delay_b = plan.config_b.mode_delay_ps
        max_delay = max(delay_a, delay_b)
        min_delay = min(delay_a, delay_b)
        jitter_spread = math.hypot(
            topo.detector.jitter_sigma_ps, topo.detector.jitter_sigma_ps
        )
        # Wide enough to capture the delayed-mode populations so the
        # arrival-time filter, not the matching window, removes them.
        match_window = topo.coincidence_window_ps + 2 * max_delay + 8 * round(jitter_spread)
        records = tagproc.match_coincidences(tags_a, tags_b, offset, match_window)

        reject_half_width = topo.coincidence_window_ps // 2
        filtered = tagproc.temporal_mode_filter(records, min_delay, reject_half_width)
        retained = len(filtered) / len(records) if len(records) else 0.0

        key = distill.sift(filtered, plan.duration_s)
        report = _key_rate_report(
            plan.config_a,
            plan.config_b,
            sifted_bits=len(key),
            sifted_rate=len(key) / plan.duration_s,
            qber=key.qber,
            retained_fraction=retained,
            offset_ps=offset,
            ec_inefficiency=topo.ec_inefficiency,
            epsilon=topo.epsilon,
        )
        artifacts = SessionArtifacts(
            tags_a=tags_a,
            tags_b=tags_b,
            records=records,
            filtered_records=filtered,
            mode_filter_ambiguous=min_delay <= reject_half_width,
        )
        return report, artifacts
    finally:
        release_session(plan)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def predict_key_rates(
    source: SourceParams,
    config_a: ChannelConfig,
    config_b: ChannelConfig,
    detector: DetectorParams | None = None,
    duration_s: float = 60.0,
    coincidence_window_ps: int = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS,
    ec_inefficiency: float = distill.DEFAULT_EC_INEFFICIENCY,
    epsilon: float = distill.DEFAULT_EPSILON,
) -> KeyRateReport:
    """Closed-form rate prediction for an operating point, no tag simulation.

    Standard link-budget arithmetic: per-arm detection probabilities,
    jitter-limited capture of the retained window, accidental coincidences
    from the singles rates, and the error-rate mix of correlated pairs
    (error (1-V)/2), depolarized-mode leakage and accidentals (error 1/2).
    Dead-time losses are neglected.
    """
    det = detector if detector is not None else DetectorParams()
    reject_half_width = coincidence_window_ps // 2
    sigma = math.hypot(det.jitter_sigma_ps, det.jitter_sigma_ps)

    def capture(center_ps: float) -> float:
        if sigma == 0:
            return 1.0 if abs(center_ps) <= reject_half_width else 0.0
        return _normal_cdf((reject_half_width - center_ps) / sigma) - _normal_cdf(
            (-reject_half_width - center_ps) / sigma
        )

    budget = receiver.link_budget(config_a, config_b, det)
    p = budget.class_probs
    delay_a, delay_b = budget.mode_delay_ps
    rate = source.pair_rate
    good_rate = rate * p[MODE_GOOD, CLICK_BOTH] * capture(0.0)
    degraded_rate = rate * (
        p[MODE_DEGRADED_A, CLICK_BOTH] * capture(delay_a)
        + p[MODE_DEGRADED_B, CLICK_BOTH] * capture(delay_b)
    )

    singles = []
    for cfg, one_sided in ((config_a, CLICK_A_ONLY), (config_b, CLICK_B_ONLY)):
        noise = chan.background_rate_per_detector(cfg.traffic) + det.dark_cps
        clicks = p[:, CLICK_BOTH].sum() + p[:, one_sided].sum()
        singles.append(rate * clicks + receiver.NUM_DETECTORS * noise)
    accidental_rate = (
        singles[0] * singles[1] * (2.0 * reject_half_width) / 1e12
    )

    total = good_rate + degraded_rate + accidental_rate
    if total <= 0:
        raise ValueError("operating point yields no coincidences")
    error_rate = (
        good_rate * matched_basis_error_probability(source.intrinsic_visibility)
        + 0.5 * (degraded_rate + accidental_rate)
    )
    qber = error_rate / total
    sifted_rate = 0.5 * total
    all_true_pairs = rate * p[:, CLICK_BOTH].sum()
    retained = (good_rate + degraded_rate) / all_true_pairs if all_true_pairs else 0.0
    return _key_rate_report(
        config_a,
        config_b,
        sifted_bits=max(1, int(round(sifted_rate * duration_s))),
        sifted_rate=sifted_rate,
        qber=qber,
        retained_fraction=retained,
        offset_ps=0,
        ec_inefficiency=ec_inefficiency,
        epsilon=epsilon,
    )


def _key_rate_report(
    config_a: ChannelConfig,
    config_b: ChannelConfig,
    *,
    sifted_bits: int,
    sifted_rate: float,
    qber: float,
    retained_fraction: float,
    offset_ps: int,
    ec_inefficiency: float,
    epsilon: float,
) -> KeyRateReport:
    """Report for one operating point of a two-arm link: arm length and
    traffic level averaged over the arms, asymptotic and finite-size key
    figures, and ``n_required`` = inf where no key size gives a key."""
    try:
        n_required = float(distill.required_raw_bits(qber, ec_inefficiency, epsilon))
    except distill.KeyRateError:
        n_required = math.inf
    return KeyRateReport(
        length_km_per_arm=(config_a.length_km + config_b.length_km) / 2.0,
        traffic_mbps=(
            config_a.traffic.data_rate_mbps + config_b.traffic.data_rate_mbps
        )
        / 2.0,
        sifted_bits=sifted_bits,
        sifted_rate=sifted_rate,
        qber=qber,
        asymptotic_rate=distill.asymptotic_rate(sifted_rate, qber, ec_inefficiency),
        finite_length=distill.finite_key_length(sifted_bits, qber, ec_inefficiency, epsilon),
        n_required=n_required,
        retained_fraction=retained_fraction,
        offset_ps=offset_ps,
    )
