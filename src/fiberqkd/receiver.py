"""Passive-basis polarization analyzer and detector front end, and the
event sampler that draws the pair clicks of a two-arm link.

Each party has four single-photon detectors indexed 0..3 as
(rectilinear, 0), (rectilinear, 1), (diagonal, 0), (diagonal, 1); a tag's
basis is ``detector >> 1`` and its outcome bit ``detector & 1``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np

from .channel import PS_PER_KM, ChannelConfig, transmittance
from .pairgen import PS_PER_SECOND, SourceParams, matched_basis_error_probability

NUM_DETECTORS = 4
# Largest pair id and largest tag stream: pair ids and the matcher's tag
# indices are int32.
MAX_TAGS = int(np.iinfo(np.int32).max)


class TagOrigin(IntEnum):
    PAIR = 0
    BACKGROUND = 1
    DARK = 2


_ORIGIN_CODES = {TagOrigin.PAIR: "p", TagOrigin.BACKGROUND: "b", TagOrigin.DARK: "d"}


@dataclass(frozen=True)
class DetectorParams:
    """Detector stack settings for one party.

    The quad-APD module used in this kind of receiver does not come with
    published figures; efficiency 0.5, 300 cps dark counts, 500 ps timing
    jitter and 50 ns dead time are typical for the class and all exposed
    here. ``second_mode_rejection_db`` is the extra attenuation the
    mode-selective fiber jumper in front of the analyzer applies to photons
    arriving in the second-order spatial mode (0 disables it).
    """

    efficiency: float = 0.5
    dark_cps: float = 300.0
    jitter_sigma_ps: float = 500.0
    dead_time_ns: float = 50.0
    second_mode_rejection_db: float = 13.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        for name in ("dark_cps", "jitter_sigma_ps", "dead_time_ns", "second_mode_rejection_db"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(eq=False)
class TagStream:
    """Detector clicks of one party, sorted by time: one array per field,
    one entry per tag. The constructor takes the arrays as they are; each
    field's ``dtype`` metadata is the dtype that the methods below make.

    ``pair_ids`` holds, for a pair tag, the id of its pair, which the
    partner's tag of the same pair shares (``sample_pair_tags`` numbers
    the session's clicking pairs in time order), and -1 for noise tags;
    it is int32, so a session holds at most 2**31 - 1 clicking pairs.
    ``modes`` is 1 for second-order-mode photons, 0 for first-order, -1
    for noise tags.
    """

    times_ps: np.ndarray = field(metadata={"dtype": np.int64})
    detectors: np.ndarray = field(metadata={"dtype": np.int8})  # 0..3
    origins: np.ndarray = field(metadata={"dtype": np.int8})    # TagOrigin values
    pair_ids: np.ndarray = field(metadata={"dtype": np.int32})
    modes: np.ndarray = field(metadata={"dtype": np.int8})

    def __len__(self) -> int:
        return int(self.times_ps.size)

    @classmethod
    def unpaired(cls, times_ps, detectors, origins) -> "TagStream":
        """Tags of no pair: every field after ``origins`` is -1."""
        return cls(times_ps, detectors, origins, *(
            np.full(times_ps.size, -1, dtype=f.metadata["dtype"]) for f in fields(cls)[3:]
        ))

    @classmethod
    def empty(cls) -> "TagStream":
        return cls(**{f.name: np.empty(0, dtype=f.metadata["dtype"]) for f in fields(cls)})

    @classmethod
    def _map_columns(cls, build, *streams: "TagStream") -> "TagStream":
        """The stream whose each field is ``build`` of the streams' arrays of it."""
        return cls(**{f.name: build(*(getattr(s, f.name) for s in streams)) for f in fields(cls)})

    @classmethod
    def concat(cls, streams: Sequence["TagStream"]) -> "TagStream":
        """The streams one after another; a single non-empty stream comes
        back as it is."""
        parts = [stream for stream in streams if len(stream)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls._map_columns(lambda *columns: np.concatenate(columns), *parts)

    def take(self, index: np.ndarray) -> "TagStream":
        return self._map_columns(lambda column: column[index], self)

    def sorted_by_time(self) -> "TagStream":
        order = np.argsort(self.times_ps, kind="stable")
        return self.take(order)

    def is_sorted(self) -> bool:
        return bool(np.all(self.times_ps[1:] >= self.times_ps[:-1]))


# Classes of a pair, indexing ``LinkBudget.class_probs[mode, click]``. A
# degraded pair has one photon, on arm A or on arm B, in the delayed and
# depolarized second-order mode; the click classes cover pairs that click
# on at least one side.
MODE_GOOD, MODE_DEGRADED_A, MODE_DEGRADED_B = 0, 1, 2
CLICK_BOTH, CLICK_A_ONLY, CLICK_B_ONLY = 0, 1, 2


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """Fate of one emitted pair on a two-arm link.

    ``class_probs[mode, click]`` is the probability that a pair falls in
    that mode class and click class; 1 - class_probs.sum() is the
    probability that neither side clicks. Delays are per arm, (A, B): the
    first-order group delay and the extra delay of the second-order mode.
    """

    class_probs: np.ndarray  # float64, shape (3, 3)
    first_order_delay_ps: tuple[int, int]
    mode_delay_ps: tuple[int, int]


def link_budget(
    config_a: ChannelConfig, config_b: ChannelConfig, detector: DetectorParams
) -> LinkBudget:
    """Class probabilities and arrival delays of one pair on two arms.

    A pair is degraded with the larger of the two arms' second-mode
    fractions, and one photon of a degraded pair (the arm picked 50/50)
    travels in the second-order mode. A photon reaches its analyzer with
    the arm's fiber transmittance times the splitter transmission and
    clicks with the detector efficiency, reduced by the second-mode
    rejection for a second-order photon. The two photons' fates are
    independent.
    """
    fraction = max(config_a.second_mode_fraction, config_b.second_mode_fraction)
    rejection = 10.0 ** (-detector.second_mode_rejection_db / 10.0)
    first, second = [], []
    for cfg in (config_a, config_b):
        arm = transmittance(cfg.alpha_quantum_db_per_km, cfg.length_km) * 10.0 ** (
            -cfg.splitter_quantum_loss_db * cfg.splitters_per_arm / 10.0
        )
        first.append(arm * detector.efficiency)
        second.append(arm * detector.efficiency * rejection)
    # (weight, click probability A, click probability B) per mode class.
    modes = (
        (1.0 - fraction, first[0], first[1]),
        (fraction / 2.0, second[0], first[1]),
        (fraction / 2.0, first[0], second[1]),
    )
    return LinkBudget(
        class_probs=np.array(
            [[w * pa * pb, w * pa * (1.0 - pb), w * (1.0 - pa) * pb] for w, pa, pb in modes]
        ),
        first_order_delay_ps=tuple(
            int(math.floor(cfg.length_km * PS_PER_KM + 0.5)) for cfg in (config_a, config_b)
        ),
        mode_delay_ps=(config_a.mode_delay_ps, config_b.mode_delay_ps),
    )


def sample_pair_tags(
    source: SourceParams,
    config_a: ChannelConfig,
    config_b: ChannelConfig,
    detector: DetectorParams,
    duration_s: float,
    seed,
    *,
    start_ps: int = 0,
    first_pair_id: int = 0,
) -> tuple[TagStream, TagStream, int]:
    """Draw both parties' clicks of the pairs emitted over [start, start +
    duration), sampling only pairs that click, and return them with the
    number of clicking pairs drawn.

    Pairs are emitted as a Poisson process at ``source.pair_rate`` and each
    falls independently into one class of ``link_budget``, so the pairs
    that click on at least one side form a Poisson process of rate
    pair_rate * class_probs.sum() whose events carry independent class
    marks (Poisson thinning). The sampler draws that count, the sorted
    emission ticks and one class per event, then for clicking photons only
    a 50/50 passive basis choice, an outcome bit and Gaussian timing
    jitter. A pair that clicks on both sides with both photons first-order
    and matching bases has outcomes correlated with contrast
    ``source.intrinsic_visibility``; every other outcome is uniform.

    A session calls this once per slice, with the slice's start tick
    ``start_ps`` and its first pair id, and numbers the next slice's pairs
    on from the returned count. The clicking pairs are numbered
    ``first_pair_id`` onward in emission order, and a tag's ``pair_ids``
    entry is its pair's number, shared by both sides;
    ``modes`` is 1 for a second-order photon. Each side's tags are sorted
    by one stable argsort of their arrival times, so pairs at equal times
    keep emission order. Every drawn array is as long as the drawn count,
    so memory follows the count. Deterministic under ``seed``; the draw
    order is count, ticks, classes, basis and outcome on A, basis and
    outcome on B, correlation flips, jitter on A, jitter on B. Raises
    ValueError, before any array is drawn, when the pair numbers would
    pass the 2**31 - 1 that the int32 ``pair_ids`` hold.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    budget = link_budget(config_a, config_b, detector)
    probs = budget.class_probs.ravel()
    p_click = float(probs.sum())
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(source.pair_rate * duration_s * p_click))
    if first_pair_id + n > MAX_TAGS:
        raise ValueError(
            f"{n} clicking pairs in {duration_s} s from pair {first_pair_id} on exceed "
            f"the {MAX_TAGS} int32 pair ids"
        )
    if n == 0:
        return TagStream.empty(), TagStream.empty(), 0
    emitted = rng.integers(
        start_ps, start_ps + int(round(duration_s * PS_PER_SECOND)), size=n, dtype=np.int64
    )
    emitted.sort()
    # Lists, so that each unsorted column goes once its sorted copy exists.
    idx, second, detectors = map(list, _draw_outcomes(rng, source, probs / p_click, n))
    # Both sides' times are gathered before the jitter draws, so that the
    # n emission ticks are freed before either side's jitter is drawn. Each
    # side gathers with its intp indices, which numpy takes uncast, and then
    # keeps them as the stored int32 pair ids; A's are cast before B
    # gathers and B's after the ticks are freed, which bounds the peak.
    times = [emitted[idx[0]]]
    idx[0] = idx[0].astype(np.int32)
    times.append(emitted[idx[1]])
    del emitted
    idx[1] = idx[1].astype(np.int32)

    streams = []
    for side in (0, 1):
        side_times = times[side]
        side_times += budget.first_order_delay_ps[side]
        # By index, not by mask: about 1% of the photons are second-order,
        # and a sparse mask costs a branch on every element.
        side_times[np.flatnonzero(second[side])] += budget.mode_delay_ps[side]
        if detector.jitter_sigma_ps > 0:
            jitter = rng.normal(0.0, detector.jitter_sigma_ps, size=side_times.size)
            # The rounded jitter is cast to int64 chunk by chunk inside the
            # ufunc, so the sum is exact and makes no int64 temporary.
            np.add(
                side_times,
                np.rint(jitter, out=jitter),
                out=side_times,
                dtype=np.int64,
                casting="unsafe",
            )
            # Free this side's jitter before the next side draws its own.
            del jitter
        order = np.argsort(side_times, kind="stable")
        side_times.sort(kind="stable")
        for column in (idx, detectors, second):
            column[side] = column[side][order]
        del order
        ids = idx[side]
        ids += first_pair_id
        streams.append(
            TagStream(
                times_ps=side_times,
                detectors=detectors[side],
                origins=np.full(side_times.size, TagOrigin.PAIR, dtype=np.int8),
                pair_ids=ids,
                modes=second[side].view(np.int8),
            )
        )
    return streams[0], streams[1], n


def _draw_outcomes(rng, source, p, n):
    """Per side (A, B): the indices of the clicking pairs among the n
    events, intp; the mask of second-order photons; and the detectors.

    Draws the classes, then basis and outcome on A, basis and outcome on
    B, then the correlation flips. The class arrays and the basis and bit
    rows are scratch and go when this returns.
    """
    classes = _draw_classes(rng, p, n)
    mode = classes // 3
    click = classes - 3 * mode
    del classes

    # intp, not int32: numpy casts an int32 index to intp on every gather.
    idx_a = np.flatnonzero(click != CLICK_B_ONLY)
    idx_b = np.flatnonzero(click != CLICK_A_ONLY)
    basis_a, bit_a = rng.integers(0, 2, size=(2, idx_a.size), dtype=np.int8)
    basis_b, bit_b = rng.integers(0, 2, size=(2, idx_b.size), dtype=np.int8)
    # Pairs seen on both sides come in the same order in idx_a and idx_b,
    # so these two position lists are aligned.
    both_a = np.flatnonzero(click[idx_a] == CLICK_BOTH)
    both_b = np.flatnonzero(click[idx_b] == CLICK_BOTH)
    del click
    correlated = (basis_a[both_a] == basis_b[both_b]) & (mode[idx_a[both_a]] == MODE_GOOD)
    second = (mode[idx_a] == MODE_DEGRADED_A, mode[idx_b] == MODE_DEGRADED_B)
    del mode
    # By index, not by mask: about half the pairs are correlated, where a
    # mask's per-element branch mispredicts most.
    hit = np.flatnonzero(correlated)
    at_a, at_b = both_a[hit], both_b[hit]
    error_p = matched_basis_error_probability(source.intrinsic_visibility)
    bit_b[at_b] = bit_a[at_a] ^ (rng.random(at_a.size) < error_p)
    return (idx_a, idx_b), second, (2 * basis_a + bit_a, 2 * basis_b + bit_b)


def _draw_classes(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """``rng.choice(p.size, size=n, p=p)`` as int8, drawing the same uniforms
    and leaving ``rng`` in the same state.

    ``choice`` draws u ~ U[0, 1) and returns the number of entries of the
    normalized cumulative ``p`` that are at most u; counting u against the
    inner edges gives the same index without a binary search.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    classes = np.zeros(n, dtype=np.int8)
    u = rng.random(n)
    for edge in cdf[:-1]:
        classes += u >= edge
    return classes


def add_noise_tags(
    stream: TagStream,
    noise: Sequence[tuple[float, TagOrigin, object]],
    duration_s: float,
    *,
    start_ps: int = 0,
) -> TagStream:
    """Merge independent Poisson click processes into the stream in one pass.

    ``noise`` lists the processes as ``(rate_cps_per_detector, origin,
    seed)``. For each, drawn from its own ``default_rng(seed)``, every one
    of the four detectors receives Poisson(rate * duration) extra tags
    uniform over [start, start + duration); a zero rate draws nothing. The
    result is sorted by time; tags with equal times come stream first,
    then each process in list order, each group in its own order, as a
    stable sort of the concatenated streams would give. Raises ValueError
    if the stream is not sorted by time.
    """
    if not stream.is_sorted():
        raise ValueError("stream must be sorted by time")
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    times, detectors, origins = [], [], []
    for rate, origin, seed in noise:
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError(f"rate_cps_per_detector must be finite and >= 0, got {rate}")
        if rate == 0:
            continue
        rng = np.random.default_rng(seed)
        counts = rng.poisson(rate * duration_s, size=NUM_DETECTORS)
        total = int(counts.sum())
        times.append(
            rng.integers(start_ps, start_ps + duration_ps, size=total, dtype=np.int64)
        )
        detectors.append(np.repeat(np.arange(NUM_DETECTORS, dtype=np.int8), counts))
        origins.append(np.full(total, origin, dtype=np.int8))
    if not times:
        return stream
    times, detectors, origins = map(np.concatenate, (times, detectors, origins))
    order = np.argsort(times)
    times = times[order]
    # Restore the drawn order among equal times, as a stable sort gives.
    tied = _chained_runs(times[1:] == times[:-1])
    ties = order[tied]
    order[tied] = ties[np.lexsort((ties, times[tied]))]
    return merge_streams(stream, TagStream.unpaired(times, detectors[order], origins[order]))


def merge_streams(first: TagStream, second: TagStream) -> TagStream:
    """Merge two streams sorted by time into one, as a stable sort of
    ``first`` followed by ``second`` would: at equal times the tags of
    ``first`` come first. An empty side gives the other stream back, and
    ``first`` wholly at or before ``second`` is concatenated ahead of it."""
    if len(first) == 0 or len(second) == 0:
        return second if len(first) == 0 else first
    if first.times_ps[-1] <= second.times_ps[0]:
        return TagStream.concat([first, second])
    # Each tag of ``second`` goes after the tags of ``first`` at or before
    # its time and after the tags of ``second`` ahead of it.
    at = np.searchsorted(first.times_ps, second.times_ps, side="right")
    at += np.arange(at.size)
    from_first = np.ones(len(first) + len(second), dtype=bool)
    from_first[at] = False

    def merged(ours: np.ndarray, theirs: np.ndarray) -> np.ndarray:
        out = np.empty(from_first.size, dtype=ours.dtype)
        out[from_first] = ours
        out[at] = theirs
        return out

    return TagStream._map_columns(merged, first, second)


def apply_dead_time(stream: TagStream, dead_time_ns: float) -> TagStream:
    """Drop tags arriving within the dead time of the previous kept tag.

    The rule is the usual non-paralyzable one, applied per detector: scan in
    time order, keep a tag only if it is at least ``dead_time_ns`` after the
    last kept tag on the same detector. Idempotent.
    """
    if not (math.isfinite(dead_time_ns) and dead_time_ns >= 0):
        raise ValueError(f"dead_time_ns must be finite and >= 0, got {dead_time_ns}")
    if not stream.is_sorted():
        raise ValueError("stream must be sorted by time")
    dead_ps = int(round(dead_time_ns * 1000.0))
    if dead_ps == 0 or len(stream) == 0:
        return stream
    # A tag at least the dead time after the tag before it, on any detector,
    # is always kept. So only runs of too-close tags, each with the tag
    # before it, need the scan, and each run needs only its own tags.
    run = _chained_runs(np.diff(stream.times_ps) < dead_ps)
    run_times, run_detectors = stream.times_ps[run], stream.detectors[run]
    keep = np.ones(len(stream), dtype=bool)
    for det in range(NUM_DETECTORS):
        on_det = np.flatnonzero(run_detectors == det)
        keep[run[on_det]] = _dead_time_keep(run_times[on_det], dead_ps)
    return stream.take(keep)


def _chained_runs(chained: np.ndarray) -> np.ndarray:
    """Indices of the elements in runs, where element i + 1 is chained to
    element i when ``chained[i]``: every chained element and the element
    before each, in order."""
    in_run = np.zeros(chained.size + 1, dtype=bool)
    in_run[1:] = chained
    in_run[:-1] |= chained
    return np.flatnonzero(in_run)


def _dead_time_keep(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Vectorized emulation of the sequential dead-time scan.

    Each pass removes, in every run of too-close tags, the first tag whose
    predecessor is already final; a tag's predecessor only ever moves
    earlier, so survivors of a pass stay valid and the result equals the
    left-to-right scan.
    """
    keep = np.ones(times.size, dtype=bool)
    while True:
        kept_idx = np.flatnonzero(keep)
        if kept_idx.size < 2:
            return keep
        gaps = np.diff(times[kept_idx])
        violating = gaps < dead_ps
        if not violating.any():
            return keep
        first_of_run = violating & np.concatenate(([True], ~violating[:-1]))
        keep[kept_idx[1:][first_of_run]] = False


# Rows per chunk of text output: large enough to amortize the per-chunk
# calls, small enough that the chunk's strings stay a few megabytes.
TEXT_CHUNK_ROWS = 1 << 16


def write_rows(fh, fmt: str, *columns: np.ndarray) -> None:
    """Write one ``fmt``-formatted line per row of the equal-length columns,
    building the text in chunks of ``TEXT_CHUNK_ROWS`` rows."""
    n = len(columns[0])
    for start in range(0, n, TEXT_CHUNK_ROWS):
        rows = slice(start, start + TEXT_CHUNK_ROWS)
        fh.write("".join(map(fmt.format, *(col[rows].tolist() for col in columns))))


def check_detectors(*columns: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``columns`` is a detector
    0..3, which is all the readers accept."""
    for column in columns:
        if column.size and (column.min() < 0 or column.max() >= NUM_DETECTORS):
            raise ValueError(
                f"detectors must be 0..{NUM_DETECTORS - 1}, got {column.min()}..{column.max()}"
            )


def write_tags(stream: TagStream, path) -> None:
    """Dump a tag stream as text, one ``<time_ps> <detector> <origin>`` line
    per tag (origin codes: p=pair, b=background, d=dark). A stream that
    ``read_tags`` would refuse raises ValueError before the file is made.
    """
    _check_tag_codes(stream)
    with open(path, "w", encoding="ascii") as fh:
        write_tag_rows(fh, stream)


def write_tag_rows(fh, stream: TagStream) -> None:
    """Write the lines of ``write_tags`` for ``stream`` to the open text
    file ``fh``, so that a stream can be written one part after another."""
    _check_tag_codes(stream)
    codes = np.array([_ORIGIN_CODES[origin] for origin in TagOrigin])
    write_rows(fh, "{} {} {}\n", stream.times_ps, stream.detectors, codes[stream.origins])


def _check_tag_codes(stream: TagStream) -> None:
    """Raise ValueError unless every detector and origin of ``stream`` has
    a code in the tag format."""
    check_detectors(stream.detectors)
    if len(stream) and (stream.origins.min() < 0 or stream.origins.max() >= len(TagOrigin)):
        raise ValueError("tag origins must be TagOrigin values")


def load_text_rows(path, **loadtxt_kwargs) -> np.ndarray:
    """Parse the ASCII file at ``path`` with ``np.loadtxt``, one row per
    non-blank line and no comment syntax. A file without data rows gives
    an empty array and no warning; a line numpy cannot parse raises
    ValueError naming ``path`` and numpy's account of the row.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, comments=None, encoding="ascii", **loadtxt_kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def reject_bad_rows(path, rows: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Raise ValueError naming ``path``, ``reason`` and the first row of
    ``rows`` flagged in ``bad``, counted from 1 without blank lines."""
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {index + 1} {rows[index].tolist()}: {reason}")


# One line of the tag format. The origin field is two bytes wide so that a
# code longer than one letter fails the code check instead of being cut.
_TAG_ROW = np.dtype([("time", np.int64), ("detector", np.int8), ("origin", "S2")])


def read_tags(path) -> TagStream:
    """Parse a tag stream from the text format written by ``write_tags``.

    Each non-blank line holds a time, a detector and an origin code
    separated by whitespace. A line with another field count, a
    non-integer time or detector, a detector outside 0..3, an unknown
    origin code or a trailing comment raises ValueError naming ``path``.
    The tags come back sorted by time; pair identities and mode flags are
    not part of the format and come back as -1.
    """
    rows = load_text_rows(path, dtype=_TAG_ROW, ndmin=1)
    detectors = rows["detector"]
    origins = np.full(rows.size, -1, dtype=np.int8)
    for origin, code in _ORIGIN_CODES.items():
        origins[rows["origin"] == code.encode()] = origin
    reject_bad_rows(
        path,
        rows,
        (detectors < 0) | (detectors >= NUM_DETECTORS) | (origins < 0),
        "detector must be 0..3 and origin p, b or d",
    )
    stream = TagStream.unpaired(
        np.ascontiguousarray(rows["time"]), np.ascontiguousarray(detectors), origins
    )
    if not stream.is_sorted():
        stream = stream.sorted_by_time()
    return stream
