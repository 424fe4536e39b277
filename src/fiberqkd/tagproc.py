"""Timetag post-processing: clock-offset recovery, coincidence matching,
arrival-time mode filtering, and coincidence CSV I/O.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .receiver import (
    MAX_TAGS,
    NUM_DETECTORS,
    TagStream,
    _chained_runs,
    check_detectors,
    load_text_rows,
    reject_bad_rows,
    write_rows,
)

DEFAULT_SEARCH_SPAN_PS = 50_000_000  # +-50 us
DEFAULT_BIN_WIDTH_PS = 200
DEFAULT_COINCIDENCE_WINDOW_PS = 2000  # full width
PEAK_SIGNIFICANCE = 5.0

# Offset recovery needs only enough source tags for a clear peak; capping
# them keeps the pairing histogram cheap on multi-megatag streams.
DEFAULT_MAX_SOURCE_TAGS = 1_000_000
# A tags per step of the offset search's pairing walk, which bounds its
# scratch to about eight arrays of this many entries beside the histogram,
# however many pairings each A tag has.
_PAIRING_CHUNK = 1 << 15
# The coarse offset search starts from this many A tags and doubles them,
# halving the start while it would expect more than _COARSE_PAIRINGS
# pairings, so that a bright B stream does not make the first step dear.
_COARSE_SOURCE_TAGS = 1 << 15
_COARSE_PAIRINGS = 1 << 21
# Largest chance, bounded over all searched bins, that accidentals alone
# make a histogram peak as full as the accepted one.
_FALSE_PEAK_BOUND = 1e-6
# The fine stage takes the pairings within a half coincidence window plus
# this margin of the coarse peak, from up to this many A tags.
_FINE_MARGIN_PS = 2000
_FINE_SOURCE_TAGS = 1 << 18
# A tags per chunk of the coincidence match, which bounds its scratch.
_MATCH_CHUNK = 1 << 16
# Keys per merge of ``_rank``, which bounds its scratch.
_RANK_CHUNK = 1 << 13


class NoCorrelationPeakError(RuntimeError):
    """The A-B pairing histogram has no bin above the accidental floor."""


class ModeFilterWarning(UserWarning):
    """The mode delay is inside the retained window; filtering cannot
    separate the delayed mode from the prompt one."""


@dataclass(eq=False)
class Coincidences:
    """Matched A/B detection pairs. ``delta`` is time_b - time_a - offset;
    ``idx_a``/``idx_b`` index into the source tag streams as int32, so a
    matched stream holds at most 2**31 - 1 tags (-1 when read from a
    file)."""

    times_a: np.ndarray
    times_b: np.ndarray
    det_a: np.ndarray
    det_b: np.ndarray
    delta: np.ndarray
    idx_a: np.ndarray
    idx_b: np.ndarray
    offset_ps: int

    def __len__(self) -> int:
        return int(self.delta.size)

    def take(self, index) -> "Coincidences":
        arrays = (f.name for f in fields(self) if f.name != "offset_ps")
        return replace(self, **{name: getattr(self, name)[index] for name in arrays})


def _bin_grid(tags_a, tags_b, search_span_ps, bin_width_ps) -> tuple[int, int]:
    """(origin, bin count) of the histogram grid: bins out to at least the
    span either side, centered on the multiples of the bin width."""
    if len(tags_a) == 0 or len(tags_b) == 0:
        raise ValueError("cannot correlate empty tag streams")
    if bin_width_ps <= 0 or search_span_ps <= 0:
        raise ValueError("search_span_ps and bin_width_ps must be > 0")
    w = int(bin_width_ps)
    n_half = -(-int(search_span_ps) // w)
    return -n_half * w - w // 2, 2 * n_half + 1


def _add_pairings(counts, ta, tb, origin, w) -> None:
    """Add to ``counts`` the pairings of A times ``ta`` with B times ``tb``,
    binned by width ``w`` from ``origin``."""
    for diffs in _pairing_differences(ta, tb, origin, origin + counts.size * w):
        diffs -= origin
        diffs //= w
        np.add.at(counts, diffs, 1)


def _pairing_differences(ta, tb, lo_edge, hi_edge):
    """Yield the B-minus-A difference d of every pairing with lo_edge <= d <
    hi_edge; ``tb`` holds at least one tag.

    As the matcher does, each A tag starts from its first candidate, the
    rank in ``tb`` of its time plus lo_edge, found for _PAIRING_CHUNK A tags
    at a time. Each round of the walk then yields the difference of every
    A tag whose pick is a B tag below hi_edge and moves that pick on by
    one; an A tag drops out at its first pick past the edge or past B.
    """
    for start in range(0, ta.size, _PAIRING_CHUNK):
        part = ta[start : start + _PAIRING_CHUNK]
        pick = _rank(tb, part + lo_edge)
        while True:
            diffs = tb.take(pick, mode="clip")
            diffs -= part
            live = np.flatnonzero((diffs < hi_edge) & (pick < tb.size))
            if not live.size:
                break
            yield diffs[live]
            part, pick = part[live], pick[live] + 1


def _rank(tb: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(tb, keys, side="left")`` for sorted ``keys``.

    Each block of _RANK_CHUNK keys is merged with the slice of ``tb``
    between the ranks of its first and last key, by a stable argsort of
    the keys followed by that slice: the sort finds the two sorted runs
    and merges them, and a key goes ahead of an equal B time. The k-th key
    of a block has as many B times ahead of it as its place in the merge
    minus k.
    """
    ranks = np.empty(keys.size, dtype=np.intp)
    for start in range(0, keys.size, _RANK_CHUNK):
        block = keys[start : start + _RANK_CHUNK]
        first = int(np.searchsorted(tb, block[0], side="left"))
        last = int(np.searchsorted(tb, block[-1], side="left"))
        merged = np.argsort(np.concatenate((block, tb[first:last])), kind="stable")
        at = np.flatnonzero(merged < block.size)
        del merged
        at -= np.arange(block.size)
        at += first
        ranks[start : start + block.size] = at
    return ranks


def find_offset(
    tags_a: TagStream,
    tags_b: TagStream,
    search_span_ps: int = DEFAULT_SEARCH_SPAN_PS,
    bin_width_ps: int = DEFAULT_BIN_WIDTH_PS,
) -> int:
    """Recover the B-minus-A clock offset, coarse to fine.

    Coarse: the histogram of B-minus-A pairing differences over
    +-search_span, on bins centered on multiples of the bin width, from
    the earliest 2**15 A tags (fewer when B is so dense that they would
    expect over 2**21 pairings), doubled up to DEFAULT_MAX_SOURCE_TAGS
    until its fullest bin clears the median floor by 5 sigma and a
    look-elsewhere bound over all bins; ties go to the smallest absolute
    offset, then the smallest offset. Fine: a flat-kernel mean shift over
    the pairings near that bin moves to where a coincidence window holds
    the most pairings. Returns the center of the half-open bin that holds
    this point. Raises NoCorrelationPeakError when no bin passes, and
    ValueError when a stream is not sorted by time.
    """
    origin, n_bins = _bin_grid(tags_a, tags_b, search_span_ps, bin_width_ps)
    if not tags_a.is_sorted() or not tags_b.is_sorted():
        raise ValueError("tag streams must be sorted by time")
    w = int(bin_width_ps)
    counts = np.zeros(n_bins, dtype=np.int64)
    ta, tb = tags_a.times_ps, tags_b.times_ps
    cap = min(DEFAULT_MAX_SOURCE_TAGS, ta.size)
    start = _coarse_start(tb, n_bins * w)
    used = 0
    while True:
        n = min(max(2 * used, start), cap)
        _add_pairings(counts, ta[used:n], tb, origin, w)
        used = n
        shortfall = _peak_shortfall(counts)
        if shortfall is None:
            break
        if used == cap:
            raise NoCorrelationPeakError(f"no correlation peak: {shortfall}")
    # Bin k covers [origin + k*w, origin + (k+1)*w).
    centers = origin + w // 2 + w * np.flatnonzero(counts == counts.max())
    coarse = int(centers[np.lexsort((centers, np.abs(centers)))[0]])
    return _mean_shift_offset(ta[: max(used, min(_FINE_SOURCE_TAGS, cap))], tb, coarse, w)


def _coarse_start(tb: np.ndarray, span_ps: int) -> int:
    """A tags of the first coarse step: _COARSE_SOURCE_TAGS, halved while
    they would expect more than _COARSE_PAIRINGS pairings with ``tb`` in a
    search window ``span_ps`` wide, the B tags taken as uniform over their
    time range."""
    per_a = tb.size * min(1.0, span_ps / max(int(tb[-1] - tb[0]), 1))
    start = _COARSE_SOURCE_TAGS
    while start > 1 and start * per_a > _COARSE_PAIRINGS:
        start //= 2
    return start


def _peak_shortfall(counts: np.ndarray) -> str | None:
    """Why the fullest bin of ``counts`` is no correlation peak, or None.

    The peak must pass a look-elsewhere test: the Chernoff bound on any of
    the bins of a flat Poisson floor reaching it by chance,
    n_bins * exp(-mu) * (e*mu/peak)**peak with mu the mean count per bin,
    may be at most _FALSE_PEAK_BOUND. It must also clear the median floor
    by PEAK_SIGNIFICANCE sigma. The bound goes first because it is the
    cheaper test, and the one that fails while the search doubles.
    """
    peak = int(counts.max())
    if peak == 0:
        return "no pairing within the search span"
    mu = float(counts.mean())
    log_chance = math.log(counts.size) - mu + peak * (1.0 + math.log(mu / peak))
    if log_chance > math.log(_FALSE_PEAK_BOUND):
        return (
            f"max bin {peak} vs mean {mu:.2f} per bin: chance bound "
            f"{math.exp(log_chance):.2g} over {counts.size} bins "
            f"(needs {_FALSE_PEAK_BOUND:g})"
        )
    floor = float(np.median(counts))
    if peak < floor + PEAK_SIGNIFICANCE * max(floor, 1.0) ** 0.5:
        return f"max bin {peak} vs floor {floor:.1f} (needs {PEAK_SIGNIFICANCE} sigma)"
    return None


def _mean_shift_offset(ta, tb, coarse_ps: int, w: int) -> int:
    """Mean-shift the coarse offset to a fixed point c, the mean of the
    pairing differences within a half coincidence window of c, where that
    window's count is stationary, and return the center of the half-open
    bin [k*w - w//2, k*w - w//2 + w) that holds c.
    """
    half = DEFAULT_COINCIDENCE_WINDOW_PS // 2
    reach = half + _FINE_MARGIN_PS
    chunks = _pairing_differences(ta, tb, coarse_ps - reach, coarse_ps + reach + 1)
    diffs = np.sort(np.concatenate(list(chunks)))
    sums = np.concatenate(([0], np.cumsum(diffs)))
    # c = total / n, kept as two integers so that every step is exact.
    total, n = coarse_ps, 1
    seen = set()
    while True:
        lo = int(np.searchsorted(diffs, -((half * n - total) // n), side="left"))
        hi = int(np.searchsorted(diffs, (total + half * n) // n, side="right"))
        # A window met before is the fixed point (or a cycle) reached.
        if lo == hi or (lo, hi) in seen:
            break
        seen.add((lo, hi))
        total, n = int(sums[hi] - sums[lo]), hi - lo
    return (total + (w // 2) * n) // (w * n) * w


def match_coincidences(
    tags_a: TagStream,
    tags_b: TagStream,
    offset_ps: int,
    window_ps: int = DEFAULT_COINCIDENCE_WINDOW_PS,
) -> Coincidences:
    """Greedily pair tags with |time_b - time_a - offset| <= window/2.

    Greedy earliest-first: A tags are taken in time order, and each is
    paired with the earliest B tag inside its window that no earlier A tag
    took, so every tag is used at most once. ``window_ps`` is the full
    window width. Each stream may hold at most 2**31 - 1 tags, since the
    returned indices are int32.

    An A tag's first candidate is the first B tag at or past its window's
    lower edge, found by merging the sorted A times with B. A tag is
    chained to its predecessor when its first candidate lies in the
    predecessor's window. A tag that is not chained shares no candidate
    with any earlier tag, so it is matched to its first candidate when that
    lies in its own window. Only runs of chained tags need the sequential
    rule pick = max(first candidate, last matched pick + 1), which
    ``_chained_picks`` applies in order. A is walked ``_MATCH_CHUNK`` tags
    at a time, so no array is as long as A; the last matched pick carries a
    run across a chunk boundary.
    """
    if window_ps < 0:
        raise ValueError(f"window_ps must be >= 0, got {window_ps}")
    for side, tags in (("A", tags_a), ("B", tags_b)):
        if len(tags) > MAX_TAGS:
            raise ValueError(
                f"stream {side} holds {len(tags)} tags, more than the {MAX_TAGS} "
                "that int32 indices reach"
            )
    if not tags_a.is_sorted() or not tags_b.is_sorted():
        raise ValueError("tag streams must be sorted by time")
    ta = tags_a.times_ps
    tb = tags_b.times_ps
    offset = int(offset_ps)
    half = int(window_ps) // 2
    # Integer times make 2*|tb - ta - offset| <= window equivalent to
    # ta + offset - window//2 <= tb <= ta + offset + window//2.
    lower, upper = offset - half, offset + half
    picks_a, picks_b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    last = -1
    # With no B tag, no A tag has a candidate and no chunk runs.
    for start in range(0, ta.size if tb.size else 0, _MATCH_CHUNK):
        ia, ib, last = _match_chunk(ta[start : start + _MATCH_CHUNK], tb, lower, upper, last)
        ia += start
        picks_a.append(ia)
        picks_b.append(ib)
    # Each side's picks gather its columns as intp, since numpy casts an
    # int32 index to intp on every gather, and are then cast to the stored
    # int32. A is done before B's picks are joined, so that only one side's
    # intp picks are held at a time.
    ia = np.concatenate(picks_a)
    del picks_a
    times_a, det_a, ia = ta[ia], tags_a.detectors[ia], ia.astype(np.int32)
    ib = np.concatenate(picks_b)
    del picks_b
    times_b, det_b, ib = tb[ib], tags_b.detectors[ib], ib.astype(np.int32)
    delta = times_b - times_a
    delta -= offset
    return Coincidences(
        times_a=times_a,
        times_b=times_b,
        det_a=det_a,
        det_b=det_b,
        delta=delta,
        idx_a=ia,
        idx_b=ib,
        offset_ps=offset,
    )


def _match_chunk(ta, tb, lower, upper, last: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The matched A tags of the chunk ``ta`` as intp indices into it, their
    B picks as intp, and the last matched pick, given the last one
    ``last`` before the chunk. ``tb`` holds at least one tag."""
    pick = _rank(tb, ta + lower)
    # The chunk's first tag may be chained to the previous chunk's last
    # one; if it is not, its first candidate is already past every earlier
    # pick.
    pick[0] = max(pick[0], last + 1)
    # Tag i + 1 is chained to tag i when its first candidate lies in tag
    # i's window; a run of chained tags starts at the tag before its first.
    run = _chained_runs(_in_window(tb, pick[1:], ta[:-1], upper))
    pick[run] = _chained_picks(pick[run], ta[run], tb, upper, last)
    matched = np.flatnonzero(_in_window(tb, pick, ta, upper))
    if matched.size:
        last = int(pick[matched[-1]])
    return matched, pick[matched], last


def _in_window(tb, pick, ta, upper) -> np.ndarray:
    """Whether each B index ``pick`` names a B tag at most ``upper`` after
    its A time ``ta``."""
    gap = tb.take(pick, mode="clip")
    gap -= ta
    inside = gap <= upper
    inside &= pick < tb.size
    return inside


def _chained_picks(first: np.ndarray, ta: np.ndarray, tb, upper, last: int) -> np.ndarray:
    """The B index each A tag of the given runs picks under the greedy rule
    pick = max(first candidate, last matched pick + 1), starting from the
    matched pick ``last`` of the tags before them; the tag is matched when
    its pick is a B tag at most ``upper`` after it. No tag of an earlier run
    can raise a pick, because its matched pick lies below the next run's
    first candidate.
    """
    picks = []
    for candidate, time in zip(first.tolist(), ta.tolist()):
        pick = candidate if candidate > last else last + 1
        picks.append(pick)
        if pick < tb.size and tb[pick] - time <= upper:
            last = pick
    return np.array(picks, dtype=first.dtype)


def temporal_mode_filter(
    records: Coincidences,
    mode_delay_ps: int,
    reject_half_width_ps: int = DEFAULT_COINCIDENCE_WINDOW_PS // 2,
) -> Coincidences:
    """Keep only records with |delta| <= reject_half_width_ps.

    Records involving a second-order-mode photon sit at +-mode_delay, so
    retaining the central window removes them whenever the delay exceeds
    the half width; otherwise, a zero delay included, the two populations
    overlap and a ModeFilterWarning is issued.
    """
    if mode_delay_ps < 0:
        raise ValueError(f"mode_delay_ps must be >= 0, got {mode_delay_ps}")
    if reject_half_width_ps < 0:
        raise ValueError(
            f"reject_half_width_ps must be >= 0, got {reject_half_width_ps}"
        )
    if mode_delay_ps <= reject_half_width_ps:
        warnings.warn(
            f"mode delay {mode_delay_ps} ps is within the retained window "
            f"(+-{reject_half_width_ps} ps); second-order-mode records "
            "cannot be separated",
            ModeFilterWarning,
            stacklevel=2,
        )
    # By index, not by mask: a mask that keeps most but not all records
    # costs a mispredicted branch per element in each column it compacts.
    return records.take(np.flatnonzero(np.abs(records.delta) <= reject_half_width_ps))


_COINCIDENCE_FIELDS = ("time_a_ps", "time_b_ps", "det_a", "det_b", "delta_ps")
# The first line of a coincidence CSV.
COINCIDENCE_HEADER = ",".join(_COINCIDENCE_FIELDS) + "\n"


def write_coincidences(records: Coincidences, path) -> None:
    """Write records as CSV: time_a_ps,time_b_ps,det_a,det_b,delta_ps. A
    detector outside 0..3 raises ValueError before the file is made."""
    check_detectors(records.det_a, records.det_b)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(COINCIDENCE_HEADER)
        write_coincidence_rows(fh, records)


def write_coincidence_rows(fh, records: Coincidences) -> None:
    """Write the data lines of ``write_coincidences`` for ``records`` to the
    open text file ``fh``, so that records can be written part by part
    after the header."""
    check_detectors(records.det_a, records.det_b)
    columns = records.times_a, records.times_b, records.det_a, records.det_b, records.delta
    write_rows(fh, "{},{},{},{},{}\n", *columns)


def read_coincidences(path, offset_ps: int = 0) -> Coincidences:
    """Parse a coincidence CSV written by ``write_coincidences``.

    After the header, each non-blank line holds five comma-separated
    integers. A wrong header, a row with another field count, a
    non-integer field or a detector outside 0..3 raises ValueError naming
    ``path``.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if tuple(header) != _COINCIDENCE_FIELDS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    data = load_text_rows(path, skiprows=1, delimiter=",", dtype=np.int64, ndmin=2)
    width = len(_COINCIDENCE_FIELDS)
    if data.size and data.shape[1] != width:
        raise ValueError(f"{path}: data row 1 has {data.shape[1]} fields, expected {width}")
    data = data.reshape(-1, width)
    detectors = data[:, 2:4]
    reject_bad_rows(
        path,
        data,
        ((detectors < 0) | (detectors >= NUM_DETECTORS)).any(axis=1),
        "detectors must be 0..3",
    )
    return Coincidences(
        times_a=data[:, 0],
        times_b=data[:, 1],
        det_a=data[:, 2].astype(np.int8),
        det_b=data[:, 3].astype(np.int8),
        delta=data[:, 4],
        idx_a=np.full(len(data), -1, dtype=np.int32),
        idx_b=np.full(len(data), -1, dtype=np.int32),
        offset_ps=offset_ps,
    )
