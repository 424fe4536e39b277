"""Benchmark of the fiberqkd simulator and analysis chain.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_4km --seed 1 --seconds 30 --trace 0

It imports ``fiberqkd`` from ``src/`` of the same checkout, sets up the
workload, then runs one operation after another in this one process
until ``--seconds`` have passed. Operation ``i`` uses seed ``--seed + i``,
and its output is checked after the clock stops. Workloads are defined in
``workloads.json``.

With ``--trace 0`` the operations run unwrapped and the end-to-end metrics
are reported. With ``--trace 1`` each operation runs twice at the same
seed, once plain and once with the layer functions wrapped by
``tracer.Tracer``; the two outputs must be byte-identical, and per-layer
metrics are reported as medians over the traced operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import configparser
import csv
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import replaygen
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
COVERAGE_TARGET = 0.95
# Spans whose own time is glue between stages, reported as ``.self_s``.
CONTAINER_SPANS = ("cli.run_experiment", "netsim.run_session")


def import_package():
    """Import fiberqkd afresh from this checkout's ``src``.

    Modules of an earlier import are dropped first, so that each call pays
    for executing the package's modules again; numpy stays loaded.
    """
    if not (SRC / "fiberqkd" / "__init__.py").is_file():
        raise SystemExit(f"fiberqkd sources not found under {SRC}")
    for name in [m for m in sys.modules if m == "fiberqkd" or m.startswith("fiberqkd.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("fiberqkd")
    for module in ("pairgen", "channel", "receiver", "tagproc", "distill", "netsim", "cli"):
        importlib.import_module(f"fiberqkd.{module}")
    return package


@dataclass
class Outcome:
    """One operation: its wall time and what the check made of its output."""

    wall_s: float
    ok: bool = False
    source_s: float = 0.0
    sifted_bits: int = 0
    output: bytes = b""  # compared between the traced and untraced run
    tag_bytes: int = 0  # size of the tag files the operation wrote


class SessionWorkload:
    """One ``single_run`` experiment per operation, driven through the CLI."""

    def __init__(self, spec: dict, workdir: Path):
        self.ini_sections = spec["ini"]
        self.ini = workdir / "workload.ini"

    def setup(self, fq, seed: int) -> None:
        parser = configparser.ConfigParser()
        parser.read_dict(self.ini_sections)
        with open(self.ini, "w", encoding="utf-8") as fh:
            parser.write(fh)
        config = fq.cli.load_config(self.ini)
        arm = fq.ChannelConfig(
            length_km=config.resolved_lengths_km()[0],
            traffic=config.traffic,
            **config.channel,
        )
        self.duration_s = config.duration_s
        self.prediction = fq.netsim.predict_key_rates(
            fq.SourceParams(
                pair_rate=config.pair_rate,
                intrinsic_visibility=config.intrinsic_visibility,
            ),
            arm,
            arm,
            detector=config.detector,
            duration_s=config.duration_s,
            coincidence_window_ps=config.coincidence_window_ps,
            ec_inefficiency=config.ec_inefficiency,
            epsilon=config.epsilon,
        )

    def prepare(self, fq, seed: int) -> None:
        pass

    def op(self, fq, seed: int, out_dir: Path) -> None:
        config = fq.cli.load_config(self.ini)
        config.seed = seed
        config.output_dir = str(out_dir)
        fq.cli.run_experiment(config)

    def check(self, result, out_dir: Path, outcome: Outcome) -> None:
        output = (out_dir / "reports.csv").read_bytes()
        row = next(csv.DictReader(output.decode("ascii").splitlines()))
        qber = float(row["qber"])
        rate = float(row["sifted_rate"])
        bits = round(rate * self.duration_s)
        predicted = self.prediction
        sigma = math.sqrt(predicted.qber * (1.0 - predicted.qber) / max(bits, 1))
        outcome.ok = (
            abs(predicted.qber - qber) < 4.0 * sigma + 0.002
            and abs(predicted.sifted_rate - rate) <= 0.05 * rate
        )
        outcome.source_s = self.duration_s
        outcome.sifted_bits = bits
        outcome.output = output


class ReplayWorkload:
    """Record-and-analyse pass over synthetic tag streams."""

    def __init__(self, spec: dict, workdir: Path):
        self.params = replaygen.ReplayParams(**spec["replay"])
        self.analysis = spec["analysis"]
        self.input_seed = None

    def setup(self, fq, seed: int) -> None:
        self.input_seed = None  # so that each set-up repeat draws the streams
        self.prepare(fq, seed)

    def prepare(self, fq, seed: int) -> None:
        if seed == self.input_seed:
            return
        made = replaygen.generate(self.params, seed)
        self.streams = [self._tag_stream(fq, side) for side in (made.a, made.b)]
        self.injected_offset_ps = made.offset_ps
        self.input_seed = seed

    @staticmethod
    def _tag_stream(fq, side):
        n = side.times_ps.size
        return fq.receiver.TagStream(
            times_ps=side.times_ps,
            detectors=side.detectors,
            origins=side.origins,
            pair_ids=np.full(n, -1, dtype=np.int64),
            modes=np.full(n, -1, dtype=np.int8),
        )

    def match_window_ps(self) -> int:
        # Same rule as the session pipeline: wide enough to keep the
        # delayed-mode populations, so the mode filter is what removes them.
        jitter_spread = math.hypot(self.params.jitter_sigma_ps, self.params.jitter_sigma_ps)
        return (
            self.analysis["coincidence_window_ps"]
            + 2 * self.params.mode_delay_ps
            + 8 * round(jitter_spread)
        )

    def op(self, fq, seed: int, out_dir: Path):
        receiver, tagproc, distill = fq.receiver, fq.tagproc, fq.distill
        paths = [out_dir / "tags_a.txt", out_dir / "tags_b.txt"]
        for stream, path in zip(self.streams, paths):
            receiver.write_tags(stream, path)
        tags_a, tags_b = (receiver.read_tags(path) for path in paths)
        offset = tagproc.find_offset(
            tags_a,
            tags_b,
            search_span_ps=self.analysis["search_span_ps"],
            bin_width_ps=self.analysis["bin_width_ps"],
        )
        records = tagproc.match_coincidences(tags_a, tags_b, offset, self.match_window_ps())
        filtered = tagproc.temporal_mode_filter(
            records,
            self.params.mode_delay_ps,
            self.analysis["coincidence_window_ps"] // 2,
        )
        duration = self.params.duration_s
        key = distill.sift(filtered, duration)
        distill.asymptotic_rate(len(key) / duration, key.qber)
        distill.finite_key_length(len(key), key.qber)
        try:
            distill.required_raw_bits(key.qber)
        except distill.KeyRateError:
            pass
        coincidence_path = out_dir / "coincidences.csv"
        tagproc.write_coincidences(filtered, coincidence_path)
        read_back = tagproc.read_coincidences(coincidence_path, offset)
        return offset, key, filtered, read_back

    def check(self, result, out_dir: Path, outcome: Outcome) -> None:
        offset, key, written, read_back = result
        e = self.params.error_rate
        sigma = math.sqrt(e * (1.0 - e) / len(key))
        same_records = all(
            np.array_equal(getattr(written, name), getattr(read_back, name))
            for name in ("times_a", "times_b", "det_a", "det_b", "delta")
        )
        outcome.ok = (
            abs(offset - self.injected_offset_ps) <= self.analysis["bin_width_ps"]
            and abs(key.qber - e) <= 4.0 * sigma
            and same_records
        )
        outcome.source_s = self.params.duration_s
        outcome.sifted_bits = len(key)
        outcome.output = (out_dir / "coincidences.csv").read_bytes()
        outcome.tag_bytes = sum(
            (out_dir / name).stat().st_size for name in ("tags_a.txt", "tags_b.txt")
        )


def make_workload(name: str, workdir: Path):
    spec = SPEC["workloads"][name]
    kind = ReplayWorkload if "replay" in spec else SessionWorkload
    return kind(spec, workdir)


def run_op(workload, fq, seed: int, out_dir: Path) -> Outcome:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    workload.prepare(fq, seed)
    start = time.perf_counter()
    try:
        result = workload.op(fq, seed, out_dir)
    except Exception:
        outcome = Outcome(wall_s=time.perf_counter() - start)
        traceback.print_exc(file=sys.stderr)
        print(f"seed {seed}: {outcome.wall_s:.4f} s FAILED", file=sys.stderr)
        return outcome
    outcome = Outcome(wall_s=time.perf_counter() - start)
    try:
        workload.check(result, out_dir, outcome)
    except Exception:
        outcome.ok = False
        traceback.print_exc(file=sys.stderr)
    print(f"seed {seed}: {outcome.wall_s:.4f} s {'ok' if outcome.ok else 'FAILED'}", file=sys.stderr)
    return outcome


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    own = self_times(spans)

    def self_s(*names):
        return sum(t for span, t in zip(spans, own) if span.name in names)

    def size(name, attr):
        return sum(getattr(span, attr) for span in spans if span.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = size("pairgen.generate_pair_stream", "n_out")
    dead_in = size("receiver.apply_dead_time", "n_in")
    attributed = sum(own) - self_s(*CONTAINER_SPANS)
    return {
        "pairgen.generate_pair_stream.s": self_s("pairgen.generate_pair_stream"),
        "pairgen.pairs": pairs,
        "channel.assign_pair_modes.s": self_s("channel.assign_pair_modes"),
        "channel.propagate_arm.s": self_s("channel.propagate_arm"),
        "receiver.detect_pairs.s": self_s("receiver.detect_pairs"),
        "receiver.click_yield": ratio(size("receiver.detect_pairs", "n_out"), 2 * pairs),
        "receiver.add_noise_tags.s": self_s("receiver.add_noise_tags"),
        "receiver.apply_dead_time.s": self_s("receiver.apply_dead_time"),
        "receiver.dead_time_loss_frac": (
            1.0 - ratio(size("receiver.apply_dead_time", "n_out"), dead_in) if dead_in else 0.0
        ),
        "receiver.tags": size("tagproc.find_offset", "n_in"),
        "receiver.write_tags.s": self_s("receiver.write_tags"),
        "receiver.read_tags.s": self_s("receiver.read_tags"),
        "tagproc.find_offset.s": self_s("tagproc.find_offset"),
        "tagproc.match_coincidences.s": self_s("tagproc.match_coincidences"),
        "tagproc.temporal_mode_filter.s": self_s("tagproc.temporal_mode_filter"),
        "tagproc.coincidences": size("tagproc.match_coincidences", "n_out"),
        "tagproc.retained_frac": ratio(
            size("tagproc.temporal_mode_filter", "n_out"),
            size("tagproc.temporal_mode_filter", "n_in"),
        ),
        "tagproc.write_coincidences.s": self_s("tagproc.write_coincidences"),
        "tagproc.read_coincidences.s": self_s("tagproc.read_coincidences"),
        "distill.sift.s": self_s("distill.sift"),
        "distill.key_bounds.s": self_s(
            "distill.asymptotic_rate", "distill.finite_key_length", "distill.required_raw_bits"
        ),
        "distill.sifted_bits": size("distill.sift", "n_out"),
        "netsim.run_session.self_s": self_s("netsim.run_session"),
        "cli.load_config.s": self_s("cli.load_config"),
        "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        "cli.emit_csv.s": self_s("cli.emit_csv"),
        "trace.coverage": attributed / wall_s,
    }


def end_to_end_metrics(outcomes: list[Outcome], setup_s: float) -> dict[str, tuple]:
    walls = [o.wall_s for o in outcomes]
    failed = sum(not o.ok for o in outcomes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(walls), "s"),
        "source_s_per_wall_s": (statistics.median(o.source_s / o.wall_s for o in outcomes), "s/s"),
        "sifted_bits_per_wall_s": (
            statistics.median(o.sifted_bits / o.wall_s for o in outcomes),
            "bit/s",
        ),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - failed / len(outcomes), "fraction"),
    }


def per_layer_report(plain: list[Outcome], traced: list[tuple[Outcome, list]]) -> dict[str, tuple]:
    per_op = []
    for outcome, spans in traced:
        metrics = layer_metrics(spans, outcome.wall_s)
        metrics["receiver.tag_bytes"] = outcome.tag_bytes
        per_op.append(metrics)
    report = {
        name: (statistics.median(m[name] for m in per_op), SPEC["layer_metrics"][name]["unit"])
        for name in per_op[0]
    }
    # Each traced op ran next to an untraced one at the same seed; comparing
    # within pairs keeps slow drifts of the host out of the estimate.
    overhead = statistics.median(t.wall_s / p.wall_s for (t, _), p in zip(traced, plain)) - 1.0
    report["trace.overhead_frac"] = (overhead, "fraction")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


def run(args, workdir: Path) -> dict:
    # Set-up is importing fiberqkd and preparing the workload's input (INI
    # file, synthetic streams); it is repeated and the median taken. numpy is
    # imported once before, and its import time (0.1-0.2 s, swinging twofold
    # with the host's memory state) is left out.
    workload = make_workload(args.workload, workdir)
    repeats = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fq = import_package()
        workload.setup(fq, args.seed)
        repeats.append(time.perf_counter() - start)
    setup_s = statistics.median(repeats)
    mode_warning = getattr(fq.tagproc, "ModeFilterWarning", None)
    if mode_warning is not None:
        warnings.simplefilter("ignore", mode_warning)

    plain: list[Outcome] = []
    traced: list[tuple[Outcome, list]] = []
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seed = args.seed + i
        if not args.trace:
            plain.append(run_op(workload, fq, seed, workdir / "op"))
        else:
            # Alternate which run goes first, so neither always finds warm caches.
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_run:
                    tracer.patch(fq)
                    try:
                        outcome = run_op(workload, fq, seed, workdir / "traced")
                    finally:
                        tracer.unpatch()
                    traced.append((outcome, tracer.take()))
                else:
                    plain.append(run_op(workload, fq, seed, workdir / "plain"))
            outcome, _ = traced[-1]
            if outcome.output != plain[-1].output:
                outcome.ok = False
                print(f"traced output differs from untraced at seed {seed}", file=sys.stderr)
        i += 1

    outcomes = plain + [o for o, _ in traced]
    failed = sum(not o.ok for o in outcomes)
    if args.trace:
        metrics = per_layer_report(plain, traced)
        coverage = metrics["trace.coverage"][0]
        if coverage < COVERAGE_TARGET:
            print(f"trace.coverage {coverage:.3f} is below {COVERAGE_TARGET}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(plain, setup_s)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    raise SystemExit(main())
