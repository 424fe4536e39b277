"""Key-distribution sessions over one link: the provider's pair source,
two fiber arms and their detectors, run end to end in slices of source
time, and the closed-form rate predictor for the same link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import channel as chan
from . import distill, receiver, tagproc
from .channel import ChannelConfig
from .distill import KeyRateReport
from .pairgen import PS_PER_SECOND, SourceParams, matched_basis_error_probability
from .receiver import (
    CLICK_A_ONLY,
    CLICK_B_ONLY,
    CLICK_BOTH,
    MAX_TAGS,
    MODE_DEGRADED_A,
    MODE_DEGRADED_B,
    MODE_GOOD,
    DetectorParams,
    TagOrigin,
    TagStream,
)


# Expected clicking pairs per slice of source time. A session draws and
# processes its source one slice at a time, so that its memory is set by a
# slice and not by its length; a brighter source gets shorter slices.
SLICE_PAIRS = 1 << 19
# Timing-jitter sigmas that no tag is taken to pass (the odds of one tag
# doing so are below 1e-22): a tag of a later slice lands at most this far
# ahead of the slice's start.
_JITTER_REACH = 10


class SliceOrderError(RuntimeError):
    """A tag of a later slice landed behind tags already processed."""


def check_analysis(coincidence_window_ps: int, ec_inefficiency: float, epsilon: float) -> None:
    """Range-check the analysis settings of a link, named by their INI keys
    in the ``[analysis]`` section."""
    if coincidence_window_ps < 0:
        raise ValueError(f"coincidence_window_ps must be >= 0, got {coincidence_window_ps}")
    if not (math.isfinite(ec_inefficiency) and ec_inefficiency >= 1.0):
        raise ValueError(f"error_correction_inefficiency must be >= 1, got {ec_inefficiency}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"security_epsilon must be in (0, 1), got {epsilon}")


@dataclass(frozen=True)
class Link:
    """The link of one session: the provider's pair source feeding two
    fiber arms, the detectors at their ends, and the analysis settings.

    The analysis settings are range-checked here, so that a bad value
    raises ValueError before any session draws.
    """

    arm_a: ChannelConfig
    arm_b: ChannelConfig
    source: SourceParams
    detector: DetectorParams = DetectorParams()
    coincidence_window_ps: int = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS
    ec_inefficiency: float = distill.DEFAULT_EC_INEFFICIENCY
    epsilon: float = distill.DEFAULT_EPSILON

    def __post_init__(self) -> None:
        check_analysis(self.coincidence_window_ps, self.ec_inefficiency, self.epsilon)

    @property
    def budget(self) -> receiver.LinkBudget:
        """The fate of one emitted pair, shared by the sampler and the
        predictor."""
        return receiver.link_budget(self.arm_a, self.arm_b, self.detector)

    @property
    def match_window_ps(self) -> int:
        """The session's coincidence-matching window: wide enough to
        capture the delayed-mode populations, so that the arrival-time
        filter, not the matching window, removes them."""
        jitter_spread = math.hypot(self.detector.jitter_sigma_ps, self.detector.jitter_sigma_ps)
        return (
            self.coincidence_window_ps
            + 2 * max(self.budget.mode_delay_ps)
            + 8 * round(jitter_spread)
        )

    @property
    def mode_filter_ambiguous(self) -> bool:
        """Whether the shorter mode delay lies within the retained window,
        where the mode filter cannot separate the delayed mode from the
        prompt one (``tagproc.temporal_mode_filter`` warns there)."""
        return min(self.budget.mode_delay_ps) <= self.coincidence_window_ps // 2

    def slices(self, duration_s: float) -> list[tuple[int, int, int | None]]:
        """``(start_ps, stop_ps, frontier)`` of each slice of a session of
        ``duration_s`` seconds of source time.

        Each slice lasts ``SLICE_PAIRS`` expected clicking pairs, the last
        one cut at the session's end; a link where no pair can click has one
        slice. A tag of a later slice lands at most ``_JITTER_REACH`` jitter
        sigmas before that slice starts, so once a slice is drawn every tag
        before its frontier, its stop less that reach, is final; the last
        slice's frontier is None.

        Raises ValueError when the session is shorter than 1 ps or not
        finite, and when the slices are shorter than the time a tag can wait
        past its slice's end: the arm and mode delays, the jitter reach on
        both sides, the offset search span and half the match window.
        """
        if not (math.isfinite(duration_s) and round(duration_s * PS_PER_SECOND) >= 1):
            raise ValueError(f"duration_s must be finite and at least 1 ps, got {duration_s}")
        budget = self.budget
        duration_ps = int(round(duration_s * PS_PER_SECOND))
        click_rate = self.source.pair_rate * float(budget.class_probs.sum())
        slice_ps = duration_ps
        if click_rate > 0:
            slice_ps = min(slice_ps, math.ceil(SLICE_PAIRS / click_rate * PS_PER_SECOND))
        reach_ps = math.ceil(_JITTER_REACH * self.detector.jitter_sigma_ps)
        holdover_ps = (
            max(budget.first_order_delay_ps)
            + max(budget.mode_delay_ps)
            + 2 * reach_ps
            + tagproc.DEFAULT_SEARCH_SPAN_PS
            + self.match_window_ps // 2
        )
        if slice_ps < min(duration_ps, holdover_ps):
            raise ValueError(
                f"slices of {slice_ps} ps are shorter than the {holdover_ps} ps a tag "
                f"can wait past its slice: {click_rate:.3g} clicking pairs/s is too "
                f"bright for {SLICE_PAIRS} per slice"
            )
        plan = []
        for start in range(0, duration_ps, slice_ps):
            stop = min(start + slice_ps, duration_ps)
            plan.append((start, stop, stop - reach_ps if stop < duration_ps else None))
        return plan


@dataclass(frozen=True)
class SessionArtifacts:
    """A session's totals, kept alongside its key-rate report, which adds
    up field by field as ``distill.SiftTally`` does: the clicking pairs
    drawn, each side's tags after dead time, the wide-window matches
    before the mode filter and those it retained, and the sift tallies of
    both. No tag or record array and no per-slice figure is kept;
    ``run_session``'s ``sink`` receives them slice by slice."""

    pairs: int = 0
    tags_a: int = 0
    tags_b: int = 0
    records: int = 0
    retained: int = 0
    wide_sift: distill.SiftTally = distill.SiftTally()
    filtered_sift: distill.SiftTally = distill.SiftTally()

    def __add__(self, other: "SessionArtifacts") -> "SessionArtifacts":
        return SessionArtifacts(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )


def run_session(
    link: Link, duration_s: float, seed: int, sink=None
) -> tuple[KeyRateReport, SessionArtifacts]:
    """Run a session of ``duration_s`` seconds of source time over ``link``
    end to end.

    Pipeline: pair clicks drawn by the thinned event sampler
    (``receiver.sample_pair_tags``), traffic/dark noise, dead time, offset
    recovery, wide-window coincidence matching, arrival-time mode
    filtering, sifting, and key-rate evaluation. The sampler draws only
    the pairs that click on at least one side, with each pair's mode
    class (degraded on at most one arm) and click class taken from the
    shared link budget, so the cost scales with detected events rather
    than emitted pairs.

    The source is drawn and processed in the slices of ``link.slices``, so
    that memory is set by a slice and not by the session; ``_draw_slice``
    draws each slice's tags, with its pairs numbered on from the pairs the
    slices before drew. Once a slice is drawn, the tags before its
    frontier are final; the later tags wait for the next slice, and a tag
    of a later slice behind the frontier raises ``SliceOrderError``. Final
    tags go through dead time, which carries each detector's last kept
    tags on. The matcher holds the final tags of the first slices until A
    has as many as ``find_offset``'s fine stage reads (or the last slice
    arrives), recovers the clock offset from them, and from then on takes
    the final A tags whose window closes before the frontier and carries
    the rest, and the B tags after the last matched pick, on to the next
    slice; the mode filter and the sift tallies run on each slice's
    records. Every tag, record and report equals what the whole-stream
    stage functions give on the per-slice draws concatenated and stably
    sorted by time, with offset recovery on the same prefix. Deterministic
    under ``seed``.

    Returns the key-rate report and the session's ``SessionArtifacts``
    totals, to which each slice adds one step; the report's retained
    fraction is ``retained / records`` of the totals (0 with no records).

    ``sink``, when given, is called once per slice as ``sink(tags_a,
    tags_b, records, filtered)`` with each side's tags that became final
    in the slice's step, after dead time, and the wide-window and
    filtered records matched in it (None while the tags wait for offset
    recovery). Concatenated over the slices they are the session's
    streams and records; ``idx_a``/``idx_b`` index the session's streams.
    Per-slice arrays and counts come from the sink alone.

    Raises the ValueError of ``link.slices`` before any slice is drawn.
    """
    plan = link.slices(duration_s)
    min_delay = min(link.budget.mode_delay_ps)
    reject_half_width = link.coincidence_window_ps // 2
    sides = [_SideSlicer(link.detector.dead_time_ns), _SideSlicer(link.detector.dead_time_ns)]
    matcher = _SliceMatcher(link.match_window_ps)
    totals = SessionArtifacts()
    for k, (start, stop, frontier) in enumerate(plan):
        *fresh, pairs = _draw_slice(link, seed, k, start, stop, totals.pairs)
        # Popped, so that each side's fresh tags go once they are merged.
        final = [side.advance(fresh.pop(0), frontier) for side in sides]

        step = SessionArtifacts(pairs=pairs, tags_a=len(final[0]), tags_b=len(final[1]))
        records = matcher.feed(*final, frontier)
        filtered = None
        if records is not None:
            filtered = tagproc.temporal_mode_filter(records, min_delay, reject_half_width)
            step += SessionArtifacts(
                records=len(records),
                retained=len(filtered),
                wide_sift=distill.sift_tally(records),
                filtered_sift=distill.sift_tally(filtered),
            )
        if sink is not None:
            sink(*final, records, filtered)
        totals += step
        del final, records, filtered

    sifted = totals.filtered_sift
    report = _key_rate_report(
        link,
        sifted_bits=sifted.bits,
        sifted_rate=sifted.bits / duration_s,
        qber=sifted.qber,
        retained_fraction=totals.retained / totals.records if totals.records else 0.0,
        offset_ps=matcher.offset_ps,
    )
    return report, totals


def _draw_slice(
    link: Link, seed: int, k: int, start_ps: int, stop_ps: int, first_pair_id: int
) -> tuple[TagStream, TagStream, int]:
    """Slice k's fresh tags on A and on B, and the number of clicking
    pairs it drew, numbered from ``first_pair_id``.

    Slice k draws from ``SeedSequence(seed, spawn_key=(k,))``: its first
    child draws the pair clicks over [start_ps, stop_ps), the next two
    the background counts of A and B and the last two their dark counts.
    Each side's tags are sorted by time; at equal times pair tags come
    first, then background, then dark counts.
    """
    duration_s = (stop_ps - start_ps) / PS_PER_SECOND
    s_pairs, *s_noise = np.random.SeedSequence(seed, spawn_key=(k,)).spawn(5)
    *pair_tags, pairs = receiver.sample_pair_tags(
        link.source,
        link.arm_a,
        link.arm_b,
        link.detector,
        duration_s,
        s_pairs,
        start_ps=start_ps,
        first_pair_id=first_pair_id,
    )
    fresh = []
    for cfg, s_bg, s_dark in zip((link.arm_a, link.arm_b), s_noise[:2], s_noise[2:]):
        noise = [
            (chan.background_rate_per_detector(cfg.traffic), TagOrigin.BACKGROUND, s_bg),
            (link.detector.dark_cps, TagOrigin.DARK, s_dark),
        ]
        # Popped, so that each side's pair tags go once the noise is merged.
        fresh.append(
            receiver.add_noise_tags(pair_tags.pop(0), noise, duration_s, start_ps=start_ps)
        )
    return fresh[0], fresh[1], pairs


class _SideSlicer:
    """One side's tags on their way from the slices' draws through dead
    time.

    Tags at or past the frontier wait for the next slice, whose tags all
    land at or past it. The kept tags within the dead time before the
    frontier are carried on and run through dead time again ahead of the
    next slice's tags: each was kept after the carried tags before it, so
    it is kept again, and the tags after it are judged as a scan of the
    whole stream would judge them.
    """

    def __init__(self, dead_time_ns: float):
        self.dead_time_ns = dead_time_ns
        self.dead_ps = int(round(dead_time_ns * 1000.0))
        self.waiting = TagStream.empty()
        self.carry = TagStream.empty()
        self.frontier: int | None = None

    def advance(self, fresh: TagStream, frontier):
        """This side's tags of a slice: its ``fresh`` tags merged with the
        waiting ones, then the tags before ``frontier`` (all of them when it
        is None), after dead time."""
        # The waiting tags come from earlier slices, so they go first at
        # equal times.
        stream = receiver.merge_streams(self.waiting, fresh)
        del fresh
        if self.frontier is not None and len(stream) and stream.times_ps[0] < self.frontier:
            raise SliceOrderError(
                f"a tag at {stream.times_ps[0]} ps lands behind the tags processed up "
                f"to {self.frontier} ps"
            )
        cut = len(stream)
        if frontier is not None:
            cut = int(np.searchsorted(stream.times_ps, frontier))
        self.waiting = stream.take(np.arange(cut, len(stream)))
        carried = len(self.carry)
        kept = receiver.apply_dead_time(
            TagStream.concat([self.carry, stream.take(slice(0, cut))]), self.dead_time_ns
        )
        del stream
        if frontier is not None:
            first = int(np.searchsorted(kept.times_ps, frontier - self.dead_ps, side="right"))
            self.carry = kept.take(np.arange(first, len(kept)))
        self.frontier = frontier
        return kept.take(slice(carried, None))


class _SliceMatcher:
    """``tagproc.match_coincidences`` over two streams that become final
    slice by slice, at the clock offset that ``tagproc.find_offset``
    recovers from their first tags.

    Every final tag waits until A holds as many tags as ``find_offset``'s
    fine stage reads, or until the last slice; the offset is recovered
    from those tags, and matching starts on them. From then on an A tag is
    matched once its window closes before the frontier, since every B tag
    in it is final then. The A tags not yet matched wait, and so do the B
    tags after the last matched pick that a waiting or later A tag's
    window can still reach; the greedy scan of the whole streams picks
    from these B tags alone, so each call starts where that scan stands.
    """

    def __init__(self, window_ps: int):
        self.window_ps = window_ps
        self.offset_ps: int | None = None
        self.waiting = [TagStream.empty(), TagStream.empty()]
        self.base = [0, 0]  # session index of each side's first waiting tag

    def feed(self, tags_a: TagStream, tags_b: TagStream, frontier: int | None):
        """The records of the A tags that the final ``tags_a`` and ``tags_b``
        decide, with ``frontier`` as in ``_SideSlicer.advance``; None while
        the tags wait for offset recovery."""
        a, b = (TagStream.concat(pair) for pair in zip(self.waiting, (tags_a, tags_b)))
        for side, base, tags in zip("AB", self.base, (a, b)):
            if base + len(tags) > MAX_TAGS:
                raise ValueError(
                    f"stream {side} holds more than the {MAX_TAGS} tags that int32 "
                    "indices reach"
                )
        if self.offset_ps is None:
            if frontier is not None and len(a) < tagproc._FINE_SOURCE_TAGS:
                self.waiting = [a, b]
                return None
            for side, tags in zip("AB", (a, b)):
                if len(tags) == 0:
                    raise tagproc.NoCorrelationPeakError(
                        f"no correlation peak: stream {side} holds no tags"
                    )
            self.offset_ps = tagproc.find_offset(a, b)
            self.lower = self.offset_ps - self.window_ps // 2
            self.upper = self.offset_ps + self.window_ps // 2
        n = len(a)
        if frontier is not None:
            n = int(np.searchsorted(a.times_ps, frontier - self.upper))
        records = tagproc.match_coincidences(
            a.take(slice(0, n)), b, self.offset_ps, self.window_ps
        )
        passed = int(records.idx_b[-1]) + 1 if len(records) else 0
        if frontier is not None:
            # No waiting or later A tag's window reaches below the next one's.
            next_a = a.times_ps[n] if n < len(a) else frontier
            passed = max(passed, int(np.searchsorted(b.times_ps, next_a + self.lower)))
        records.idx_a += self.base[0]
        records.idx_b += self.base[1]
        self.waiting = [a.take(np.arange(n, len(a))), b.take(np.arange(passed, len(b)))]
        self.base = [self.base[0] + n, self.base[1] + passed]
        return records


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
    Dead-time losses are neglected. The arguments describe a ``Link``, whose
    checks they pass first.
    """
    det = detector if detector is not None else DetectorParams()
    link = Link(config_a, config_b, source, det, coincidence_window_ps, ec_inefficiency, epsilon)
    reject_half_width = coincidence_window_ps // 2
    sigma = math.hypot(det.jitter_sigma_ps, det.jitter_sigma_ps)

    def capture(center_ps: float) -> float:
        if sigma == 0:
            return 1.0 if abs(center_ps) <= reject_half_width else 0.0
        return _normal_cdf((reject_half_width - center_ps) / sigma) - _normal_cdf(
            (-reject_half_width - center_ps) / sigma
        )

    budget = link.budget
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
        link,
        sifted_bits=max(1, int(round(sifted_rate * duration_s))),
        sifted_rate=sifted_rate,
        qber=qber,
        retained_fraction=retained,
        offset_ps=0,
    )


def _key_rate_report(
    link: Link,
    *,
    sifted_bits: int,
    sifted_rate: float,
    qber: float,
    retained_fraction: float,
    offset_ps: int,
) -> KeyRateReport:
    """Report for one operating point of ``link``: arm length and traffic
    level averaged over the arms, asymptotic and finite-size key figures
    at the link's analysis settings, and ``n_required`` = inf where no key
    size gives a key."""
    config_a, config_b = link.arm_a, link.arm_b
    ec_inefficiency, epsilon = link.ec_inefficiency, link.epsilon
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
