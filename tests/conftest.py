import numpy as np
import pytest
from hypothesis import strategies as st

from fiberqkd.receiver import TagStream


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
        pair_ids=np.full(n, -1, dtype=np.int64),
        modes=np.full(n, -1, dtype=np.int8),
    )
    return stream.sorted_by_time()


# Timetags for text round trips: mostly up to 15 digits either side of
# zero, sometimes anywhere in the int64 range.
dump_times = st.one_of(
    st.integers(-(10**15), 10**15),
    st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
