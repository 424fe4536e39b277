"""Config-driven experiment runner.

Reproduces the study sweeps at desk scale: QBER and secret-key rate versus
arm length for dark and traffic-carrying fibers, QBER versus traffic level,
and the closed-form reach extrapolation for a brighter source. Outputs are
CSV tables plus a plain-text run summary; plotting is out of scope.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distill, receiver, tagproc
from .channel import ChannelConfig, ClassicalTraffic, TrafficDirection
from .distill import KeyRateReport
from .netsim import Link, check_analysis, predict_key_rates, run_session
from .pairgen import SourceParams

# Each scenario's arm lengths when the config names none.
DEFAULT_LENGTHS_KM = {
    "single_run": (1.0,),
    "length_sweep": (0.25, 0.5, 1.0, 2.0, 3.0),
    "traffic_sweep": (4.0,),
    "extrapolation": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0),
}
SCENARIOS = tuple(DEFAULT_LENGTHS_KM)

TRAFFIC_SWEEP_MBPS = (0.0, 25.0, 50.0, 75.0, 100.0)
EXTRAPOLATION_PAIR_RATE = 15e6


def _default_traffic() -> ClassicalTraffic:
    return ClassicalTraffic(
        direction=TrafficDirection.COUNTER_PROPAGATING, data_rate_mbps=10.5
    )


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, file- and flag-overridable."""

    scenario: str = "single_run"
    lengths_km: list[float] | None = None
    traffics_mbps: list[float] = field(default_factory=lambda: list(TRAFFIC_SWEEP_MBPS))
    repetitions: int = 5
    duration_s: float = 30.0
    seed: int = 12345
    output_dir: str = "out"
    dump_tags: bool = False
    dump_coincidences: bool = False

    pair_rate: float = 0.4e6
    intrinsic_visibility: float = 0.95
    extrapolation_pair_rate: float = EXTRAPOLATION_PAIR_RATE

    channel: dict = field(default_factory=dict)  # ChannelConfig overrides
    traffic: ClassicalTraffic = field(default_factory=_default_traffic)
    detector: receiver.DetectorParams = field(default_factory=receiver.DetectorParams)

    coincidence_window_ps: int = tagproc.DEFAULT_COINCIDENCE_WINDOW_PS
    ec_inefficiency: float = distill.DEFAULT_EC_INEFFICIENCY
    epsilon: float = distill.DEFAULT_EPSILON

    def validate(self, path=None) -> None:
        """Range-check the values of every INI section, each configured
        length and traffic level included, and reject a ``channel`` key
        outside the schema, so that a bad value fails before any file is
        written. The error names ``path:section:``, or ``section:`` when
        path is None."""
        with _located(path, "experiment"):
            if self.scenario not in SCENARIOS:
                raise ValueError(
                    f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
                )
            if self.repetitions < 1:
                raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
            if not (math.isfinite(self.duration_s) and self.duration_s > 0):
                raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
            if not self.resolved_lengths_km():
                raise ValueError(f"empty length list for scenario {self.scenario!r}")
            if self.scenario == "traffic_sweep" and not self.traffics_mbps:
                raise ValueError("empty traffic list for scenario 'traffic_sweep'")
        with _located(path, "channel"):
            schema = CONFIG_SCHEMA["channel"]
            unknown = sorted(set(self.channel) - set(schema))
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            # A code-built dict is not parsed as the INI is, so each value's
            # type is checked before ChannelConfig compares it.
            for key, value in self.channel.items():
                number = numbers.Integral if schema[key] is int else numbers.Real
                if isinstance(value, bool) or not isinstance(value, number):
                    raise ValueError(f"{key} must be {schema[key].__name__}, got {value!r}")
            _channel_for(self, 0.0, self.traffic)
        with _located(path, "source"):
            SourceParams(self.pair_rate, self.intrinsic_visibility)
            SourceParams(self.extrapolation_pair_rate, self.intrinsic_visibility)
        with _located(path, "analysis"):
            check_analysis(self.coincidence_window_ps, self.ec_inefficiency, self.epsilon)
        # Every length and traffic level is checked, whichever ones the
        # scenario runs, so every point of its grid is valid.
        with _located(path, "experiment"):
            for km in self.resolved_lengths_km():
                _channel_for(self, km, self.traffic)
            for mbps in self.traffics_mbps:
                dataclasses.replace(self.traffic, data_rate_mbps=mbps)

    def resolved_lengths_km(self) -> list[float]:
        if self.lengths_km is not None:
            return list(self.lengths_km)
        return list(DEFAULT_LENGTHS_KM[self.scenario])


# The ExperimentConfig fields that each of these INI sections sets, by key.
# [channel], [traffic] and [detector] take the fields of their dataclasses.
_SECTION_KEYS = {
    "experiment": (
        "scenario", "lengths_km", "traffics_mbps", "repetitions", "duration_s", "seed",
        "output_dir", "dump_tags", "dump_coincidences",
    ),
    "source": ("pair_rate", "intrinsic_visibility", "extrapolation_pair_rate"),
    "analysis": ("coincidence_window_ps", "error_correction_inefficiency", "security_epsilon"),
}
# INI keys whose ExperimentConfig field has another name.
_ALIASES = {"error_correction_inefficiency": "ec_inefficiency", "security_epsilon": "epsilon"}


def _field_types(cls, skip=()) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in skip}


_EXPERIMENT_TYPES = _field_types(ExperimentConfig)
# INI section -> {key: type}: every key that load_config accepts.
CONFIG_SCHEMA = {
    section: {key: _EXPERIMENT_TYPES[_ALIASES.get(key, key)] for key in keys}
    for section, keys in _SECTION_KEYS.items()
} | {
    "channel": _field_types(ChannelConfig, skip=("length_km", "traffic")),
    "traffic": _field_types(ClassicalTraffic),
    "detector": _field_types(receiver.DetectorParams),
}


def _parse_value(kind, text: str):
    """An INI value as ``kind``: a bool, a comma- or space-separated float
    list for a generic type such as ``list[float] | None``, else ``kind(text)``."""
    if kind is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if typing.get_origin(kind) is not None:
        return [float(tok) for tok in text.replace(",", " ").split()]
    return kind(text)


def load_config(path=None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI-style key-value file.

    Missing keys keep their defaults; an absent path returns pure defaults.
    A section or key outside ``CONFIG_SCHEMA``, or a value that does not
    parse as its field's type, raises ValueError naming ``file:section:key``;
    a value that parses but is out of range raises one naming
    ``file:section:`` and the field.
    """
    config = ExperimentConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"{path}:{parser.default_section}: unknown section")
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ValueError(f"{path}:{section}: unknown section")
        parsed = values[section] = {}
        for key, text in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ValueError(f"{path}:{section}:{key}: unknown key")
            try:
                parsed[key] = _parse_value(CONFIG_SCHEMA[section][key], text)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{section}:{key}: cannot parse {text!r}") from exc
    for section in _SECTION_KEYS:
        for key, value in values.get(section, {}).items():
            setattr(config, _ALIASES.get(key, key), value)
    config.channel = values.get("channel", {})
    # A value out of range fails now and names its place in the file.
    with _located(path, "traffic"):
        config.traffic = dataclasses.replace(config.traffic, **values.get("traffic", {}))
    with _located(path, "detector"):
        config.detector = dataclasses.replace(config.detector, **values.get("detector", {}))
    config.validate(path)
    return config


@contextlib.contextmanager
def _located(path, section: str):
    """Prefix a ValueError raised in the block with ``file:section:``, or
    with ``section:`` when there is no file."""
    try:
        yield
    except ValueError as exc:
        place = section if path is None else f"{path}:{section}"
        raise ValueError(f"{place}: {exc}") from exc


def emit_csv(rows: list[dict], path, fieldnames: list[str]) -> Path:
    """Write dict rows as CSV under the header ``fieldnames``; plain decimal
    formatting, newline-terminated lines."""
    path = Path(path)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def _derive_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence([master, *key]).generate_state(1, np.uint64)[0])


def _sem(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _channel_for(config: ExperimentConfig, length_km: float, traffic: ClassicalTraffic) -> ChannelConfig:
    return ChannelConfig(length_km=length_km, traffic=traffic, **config.channel)


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Execute the configured scenario and write its output files.

    Deterministic: identical config and seed produce byte-identical files.
    Per-point seeds are derived from the master seed and the point's grid
    indices, so point results do not depend on execution order.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: list[str] = [
        f"scenario: {config.scenario}",
        f"seed: {config.seed}",
        f"duration_s: {config.duration_s}",
        f"repetitions: {config.repetitions}",
    ]
    if config.scenario == "extrapolation":
        rows, outputs = _run_extrapolation(config), {}
    else:
        rows, outputs = _run_sessions(config, out_dir)
    summary += [_SUMMARY_LINES[config.scenario].format(**row) for row in rows]
    for stem, columns in _TABLES[config.scenario].items():
        outputs[stem] = emit_csv(
            [{name: row[name] for name in columns} for row in rows],
            out_dir / f"{stem}.csv",
            list(columns),
        )
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs["summary"] = summary_path
    return outputs


def _grid(config: ExperimentConfig) -> list[tuple[tuple[int, ...], dict, ChannelConfig]]:
    """Every point of a scenario as (seed key, row labels, arm); the
    extrapolation's points draw no seed."""
    lengths = config.resolved_lengths_km()
    if config.scenario == "length_sweep":
        dark = ClassicalTraffic(direction=TrafficDirection.NONE)
        variants = (("dark", dark), ("active", config.traffic))
        return [
            ((li, vi), {"length_km": km, "variant": variant}, _channel_for(config, km, traffic))
            for li, km in enumerate(lengths)
            for vi, (variant, traffic) in enumerate(variants)
        ]
    if config.scenario == "traffic_sweep":
        return [
            (
                (ti,),
                {"traffic_mbps": mbps, "length_km": lengths[0]},
                _channel_for(
                    config, lengths[0], dataclasses.replace(config.traffic, data_rate_mbps=mbps)
                ),
            )
            for ti, mbps in enumerate(config.traffics_mbps)
        ]
    if config.scenario != "extrapolation":
        lengths = lengths[:1]
    return [((), {"length_km": km}, _channel_for(config, km, config.traffic)) for km in lengths]


# One summary line per point, formatted from the point's row; the row's
# ``report`` is the point's last report.
_SUMMARY_LINES = {
    "single_run": (
        "single_run length_km={length_km} qber={report.qber:.6f} "
        "sifted_rate={report.sifted_rate:.3f} asymptotic_rate={report.asymptotic_rate:.3f} "
        "finite_length={report.finite_length} retained_fraction={report.retained_fraction:.4f} "
        "offset_ps={report.offset_ps}"
    ),
    "length_sweep": (
        "length_km={length_km} variant={variant} qber_mean={qber_mean:.6f} "
        "asymptotic_rate_mean={asymptotic_rate_mean:.3f}"
    ),
    "traffic_sweep": "traffic_mbps={traffic_mbps} qber_mean={qber_mean:.6f}",
    "extrapolation": (
        "extrapolation length_km={length_km_per_arm} qber={report.qber:.6f} "
        "asymptotic_rate={report.asymptotic_rate:.3f}"
    ),
}
# The CSVs of each scenario, made from its rows: file stem -> columns.
_TABLES = {
    "single_run": {},
    "length_sweep": {
        "qber_vs_length": ("length_km", "variant", "repetitions", "qber_mean", "qber_sem"),
        "skr_vs_length": (
            "length_km", "variant", "repetitions", "sifted_rate_mean",
            "asymptotic_rate_mean", "asymptotic_rate_sem", "finite_length_mean",
        ),
    },
    "traffic_sweep": {
        "qber_vs_traffic": (
            "traffic_mbps", "length_km", "repetitions", "qber_mean", "qber_sem",
            "sifted_bits_mean",
        ),
    },
    "extrapolation": {
        "extrapolation": (
            "length_km_per_arm", "pair_rate", "sifted_rate", "qber", "asymptotic_rate",
            "finite_length", "n_required",
        ),
    },
}


def _aggregate(reports: list[KeyRateReport]) -> dict[str, float]:
    """Mean of each report figure over a point's repetitions, and the
    standard error of the QBER and of the asymptotic rate."""
    values = {
        name: [getattr(report, name) for report in reports]
        for name in ("qber", "sifted_rate", "sifted_bits", "asymptotic_rate", "finite_length")
    }
    row = {f"{name}_mean": float(np.mean(v)) for name, v in values.items()}
    row.update({f"{name}_sem": _sem(values[name]) for name in ("qber", "asymptotic_rate")})
    return row


def _run_sessions(config, out_dir: Path) -> tuple[list[dict], dict[str, Path]]:
    """Run each grid point ``repetitions`` times (once for single_run); repetition
    ``rep`` runs at the seed derived from the master seed, the point's key and ``rep``.
    Returns one row per point and the files written: ``reports.csv`` and any dumps."""
    points = _grid(config)
    source = SourceParams(config.pair_rate, config.intrinsic_visibility)
    repetitions = 1 if config.scenario == "single_run" else config.repetitions
    report_rows, rows = [], []
    outputs: dict[str, Path] = {}
    with contextlib.ExitStack() as files:
        sink = _dump_sink(config, out_dir, files, outputs)
        for key, labels, arm in points:
            link = Link(
                arm, arm, source,
                detector=config.detector,
                coincidence_window_ps=config.coincidence_window_ps,
                ec_inefficiency=config.ec_inefficiency,
                epsilon=config.epsilon,
            )
            reports = []
            for rep in range(repetitions):
                seed = _derive_seed(config.seed, *key, rep)
                try:
                    report = run_session(link, config.duration_s, seed, sink=sink)[0]
                except tagproc.NoCorrelationPeakError as exc:
                    point = " ".join(f"{name}={value}" for name, value in labels.items())
                    raise tagproc.NoCorrelationPeakError(
                        f"{point} repetition={rep} seed={seed}: {exc}"
                    ) from exc
                reports.append(report)
                report_rows.append(report.csv_row())
            rows.append(
                {**labels, "repetitions": repetitions, **_aggregate(reports), "report": report}
            )
    outputs["reports"] = emit_csv(
        report_rows, out_dir / "reports.csv", list(KeyRateReport.CSV_FIELDS)
    )
    return rows, outputs


def _dump_sink(config, out_dir: Path, files: contextlib.ExitStack, outputs: dict):
    """For a single_run that dumps its tags or coincidences, a session sink
    that writes them slice by slice to files opened on ``files`` and named
    in ``outputs``; otherwise None. A session that fails leaves no dump."""
    if config.scenario != "single_run" or not (config.dump_tags or config.dump_coincidences):
        return None
    dumps = []

    def remove_on_error(exc_type, exc, traceback) -> None:
        if exc_type is not None:
            for path in dumps:
                path.unlink(missing_ok=True)

    # Pushed first, so that it runs after the files are closed.
    files.push(remove_on_error)

    def open_output(name: str, filename: str, **kwargs):
        dumps.append(out_dir / filename)
        outputs[name] = out_dir / filename
        return files.enter_context(open(outputs[name], "w", encoding="ascii", **kwargs))

    tag_files = []
    if config.dump_tags:
        tag_files = [open_output(name, f"{name}.txt") for name in ("tags_alice", "tags_bob")]
    coincidence_file = None
    if config.dump_coincidences:
        coincidence_file = open_output("coincidences", "coincidences.csv", newline="")
        coincidence_file.write(tagproc.COINCIDENCE_HEADER)

    def sink(tags_a, tags_b, records, filtered) -> None:
        for fh, tags in zip(tag_files, (tags_a, tags_b)):
            receiver.write_tag_rows(fh, tags)
        if coincidence_file is not None and filtered is not None:
            tagproc.write_coincidence_rows(coincidence_file, filtered)

    return sink


def _run_extrapolation(config) -> list[dict]:
    """One row per length, from ``predict_key_rates``."""
    rows = []
    source = SourceParams(
        pair_rate=config.extrapolation_pair_rate,
        intrinsic_visibility=config.intrinsic_visibility,
    )
    for _, _, arm in _grid(config):
        report = predict_key_rates(
            source,
            arm,
            arm,
            detector=config.detector,
            duration_s=config.duration_s,
            coincidence_window_ps=config.coincidence_window_ps,
            ec_inefficiency=config.ec_inefficiency,
            epsilon=config.epsilon,
        )
        rows.append(
            {**report.csv_row(), "pair_rate": config.extrapolation_pair_rate, "report": report}
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fiberqkd",
        description=(
            "Run entanglement-based QKD experiments over simulated shared "
            "quantum/classical fiber links."
        ),
    )
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", type=Path, default=None, help="override output dir")
    parser.add_argument(
        "--scenario", choices=SCENARIOS, default=None, help="override scenario"
    )
    args = parser.parse_args(argv)

    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_dir = str(args.out)
    if args.scenario is not None:
        config.scenario = args.scenario

    outputs = run_experiment(config)
    for name in sorted(outputs):
        print(f"{name}: {outputs[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
