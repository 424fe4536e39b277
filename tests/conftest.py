import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from fiberqkd.channel import ChannelConfig
from fiberqkd.pairgen import PS_PER_SECOND, SourceParams
from fiberqkd.receiver import NUM_DETECTORS, TagStream
from fiberqkd.tagproc import Coincidences


def make_tag_stream(times_ps, detectors=None, origins=None) -> TagStream:
    """Build a sorted TagStream from raw arrays, defaulting annotations."""
    times = np.asarray(times_ps, dtype=np.int64)
    n = times.size
    if detectors is None:
        detectors = np.zeros(n, dtype=np.int8)
    if origins is None:
        origins = np.zeros(n, dtype=np.int8)
    stream = TagStream(
        times_ps=times,
        detectors=np.asarray(detectors, dtype=np.int8),
        origins=np.asarray(origins, dtype=np.int8),
        pair_ids=np.full(n, -1, dtype=np.int32),
        modes=np.full(n, -1, dtype=np.int8),
    )
    return stream.sorted_by_time()


TAG_COLUMNS = ("times_ps", "detectors", "origins", "pair_ids", "modes")


def assert_streams_equal(got: TagStream, want: TagStream) -> None:
    """Assert that the two streams have equal arrays and dtypes."""
    for name in TAG_COLUMNS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def noise_merge_reference(stream, noise, duration_s, start_ps=0) -> TagStream:
    """Concatenate the stream and then each ``(rate, origin, seed)``
    process's noise tags, drawn as ``add_noise_tags`` draws them from
    ``start_ps`` on, in list order, and stable-sort the whole by time."""
    parts = [stream]
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    for rate, origin, seed in noise:
        rng = np.random.default_rng(seed)
        counts = rng.poisson(rate * duration_s, size=NUM_DETECTORS)
        total = int(counts.sum())
        parts.append(
            TagStream(
                times_ps=rng.integers(
                    start_ps, start_ps + duration_ps, size=total, dtype=np.int64
                ),
                detectors=np.repeat(np.arange(NUM_DETECTORS, dtype=np.int8), counts),
                origins=np.full(total, int(origin), dtype=np.int8),
                pair_ids=np.full(total, -1, dtype=np.int32),
                modes=np.full(total, -1, dtype=np.int8),
            )
        )
    merged = TagStream(
        **{name: np.concatenate([getattr(part, name) for part in parts]) for name in TAG_COLUMNS}
    )
    return merged.take(np.argsort(merged.times_ps, kind="stable"))


RECORD_COLUMNS = ("times_a", "times_b", "det_a", "det_b", "delta", "idx_a", "idx_b")


def concat_records(parts, offset_ps=0) -> Coincidences:
    """The records of ``parts`` one after another."""
    return Coincidences(
        **{
            name: np.concatenate([getattr(part, name) for part in parts])
            if parts
            else np.empty(0, dtype=np.int32 if name.startswith("idx") else np.int64)
            for name in RECORD_COLUMNS
        },
        offset_ps=parts[0].offset_ps if parts else offset_ps,
    )


def assert_records_equal(got: Coincidences, want: Coincidences) -> None:
    """Assert that the two record sets have equal arrays and dtypes."""
    for name in RECORD_COLUMNS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.offset_ps == want.offset_ps


class SessionSink:
    """A ``run_session`` sink that keeps every part it is given, in order:
    each side's tags and the wide-window and filtered records."""

    def __init__(self):
        self.parts = ([], [], [], [])
        self.calls = 0

    def __call__(self, tags_a, tags_b, records, filtered):
        self.calls += 1
        for held, part in zip(self.parts, (tags_a, tags_b, records, filtered)):
            if part is not None:
                held.append(part)

    def streams(self) -> tuple[TagStream, TagStream]:
        return tuple(TagStream.concat(parts) for parts in self.parts[:2])

    def records(self) -> tuple[Coincidences, Coincidences]:
        return tuple(concat_records(parts) for parts in self.parts[2:])


def dead_time_reference(times, detectors, dead_ps):
    """Left-to-right scan oracle for the dead-time rule."""
    last = {}
    keep = []
    for i, (t, d) in enumerate(zip(times, detectors)):
        if d not in last or t - last[d] >= dead_ps:
            keep.append(i)
            last[d] = t
    return keep


def traced_peak(call, *args, **kwargs):
    """(result, peak bytes) of ``call(*args, **kwargs)`` under tracemalloc,
    the peak counted above what was traced when the call began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def column_bytes(record, fields) -> int:
    """Bytes held by the named array fields of ``record``."""
    return sum(getattr(record, name).nbytes for name in fields)


# The dense session's arms and rate (0.25 km default arms, 4e5 pairs/s),
# over 2 s: about 0.22 M pair tags per side.
DENSE_ARM = ChannelConfig(length_km=0.25)
DENSE_SOURCE = SourceParams(pair_rate=4e5)


# Timetags for text round trips: mostly up to 15 digits either side of
# zero, sometimes anywhere in the int64 range.
dump_times = st.one_of(
    st.integers(-(10**15), 10**15),
    st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
