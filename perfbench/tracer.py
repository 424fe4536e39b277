"""In-memory span recorder that wraps public functions of the fiberqkd layers.

A span is opened on each call of a wrapped function and closed when it
returns or raises. Spans are kept in a list and read out after the traced
operation; nothing is written while it runs. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
LAYER_FUNCTIONS = (
    ("pairgen", "generate_pair_stream"),
    ("channel", "assign_pair_modes"),
    ("channel", "propagate_arm"),
    ("receiver", "detect_pairs"),
    ("receiver", "add_noise_tags"),
    ("receiver", "apply_dead_time"),
    ("receiver", "write_tags"),
    ("receiver", "read_tags"),
    ("tagproc", "find_offset"),
    ("tagproc", "match_coincidences"),
    ("tagproc", "temporal_mode_filter"),
    ("tagproc", "write_coincidences"),
    ("tagproc", "read_coincidences"),
    ("distill", "sift"),
    ("distill", "asymptotic_rate"),
    ("distill", "finite_key_length"),
    ("distill", "required_raw_bits"),
    ("netsim", "run_session"),
    ("cli", "load_config"),
    ("cli", "run_experiment"),
    ("cli", "emit_csv"),
)

# Functions a module imports by name: (caller module, name, defining module).
# They are patched where the caller looks them up.
IMPORTED_BY_NAME = (
    ("netsim", "generate_pair_stream", "pairgen"),
    ("cli", "run_session", "netsim"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    n_in: int = 0       # summed len() of the positional arguments
    n_out: int = 0      # len() of the result (summed over a tuple result)


def _size(obj) -> int:
    if isinstance(obj, tuple):
        return sum(_size(item) for item in obj)
    if isinstance(obj, (str, bytes)):
        return 0
    try:
        return len(obj)
    except TypeError:
        return 0


class Tracer:
    """Records spans for wrapped functions; single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else None)
            span.n_in = sum(_size(arg) for arg in args)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            span.n_out = _size(result)
            return result

        return traced

    def patch(self, package) -> None:
        """Wrap every listed function that exists in ``package``; a function
        a later version removes is skipped and its work shows up as the
        self time of its caller's span."""
        targets = [(mod, fn, mod) for mod, fn in LAYER_FUNCTIONS]
        targets += list(IMPORTED_BY_NAME)
        for caller, attr, owner in targets:
            module = getattr(package, caller, None)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{owner}.{attr}", original))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Self seconds of each span: its duration minus the union of its
    children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result
