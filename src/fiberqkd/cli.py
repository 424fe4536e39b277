"""Config-driven experiment runner.

Reproduces the study sweeps at desk scale: QBER and secret-key rate versus
arm length for dark and traffic-carrying fibers, QBER versus traffic level,
and the closed-form reach extrapolation for a brighter source. Outputs are
CSV tables plus a plain-text run summary; plotting is out of scope.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distill, netsim, receiver, tagproc
from .channel import ChannelConfig, ClassicalTraffic, TrafficDirection
from .distill import KeyRateReport
from .netsim import Topology, predict_key_rates, run_session, schedule_session
from .pairgen import SourceParams

SCENARIOS = ("single_run", "length_sweep", "traffic_sweep", "extrapolation")

LENGTH_SWEEP_KM = (0.25, 0.5, 1.0, 2.0, 3.0)
TRAFFIC_SWEEP_MBPS = (0.0, 25.0, 50.0, 75.0, 100.0)
TRAFFIC_SWEEP_LENGTH_KM = 4.0
EXTRAPOLATION_LENGTHS_KM = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0)
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
    qber_drift_per_s: float = 0.0
    traffic_sweep_length_km: float = TRAFFIC_SWEEP_LENGTH_KM

    def validate(self) -> None:
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

    def resolved_lengths_km(self) -> list[float]:
        if self.lengths_km:
            return list(self.lengths_km)
        if self.scenario == "length_sweep":
            return list(LENGTH_SWEEP_KM)
        if self.scenario == "extrapolation":
            return list(EXTRAPOLATION_LENGTHS_KM)
        if self.scenario == "traffic_sweep":
            return [self.traffic_sweep_length_km]
        return [1.0]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def load_config(path=None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI-style key-value file.

    Missing keys keep their defaults; an absent path returns pure defaults.
    """
    config = ExperimentConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)

    if parser.has_section("experiment"):
        sec = parser["experiment"]
        config.scenario = sec.get("scenario", config.scenario)
        if "lengths_km" in sec:
            config.lengths_km = _parse_float_list(sec["lengths_km"])
        if "traffics_mbps" in sec:
            config.traffics_mbps = _parse_float_list(sec["traffics_mbps"])
        config.repetitions = sec.getint("repetitions", config.repetitions)
        config.duration_s = sec.getfloat("duration_s", config.duration_s)
        config.seed = sec.getint("seed", config.seed)
        config.output_dir = sec.get("output_dir", config.output_dir)
        config.dump_tags = sec.getboolean("dump_tags", config.dump_tags)
        config.dump_coincidences = sec.getboolean(
            "dump_coincidences", config.dump_coincidences
        )
        config.traffic_sweep_length_km = sec.getfloat(
            "traffic_sweep_length_km", config.traffic_sweep_length_km
        )
    if parser.has_section("source"):
        sec = parser["source"]
        config.pair_rate = sec.getfloat("pair_rate", config.pair_rate)
        config.intrinsic_visibility = sec.getfloat(
            "intrinsic_visibility", config.intrinsic_visibility
        )
        config.extrapolation_pair_rate = sec.getfloat(
            "extrapolation_pair_rate", config.extrapolation_pair_rate
        )
    if parser.has_section("channel"):
        sec = parser["channel"]
        for key in (
            "alpha_quantum_db_per_km",
            "alpha_classical_db_per_km",
            "splitter_quantum_loss_db",
            "second_mode_fraction",
            "mode_delay_ns_per_km",
        ):
            if key in sec:
                config.channel[key] = sec.getfloat(key)
        if "splitters_per_arm" in sec:
            config.channel["splitters_per_arm"] = sec.getint("splitters_per_arm")
    if parser.has_section("traffic"):
        sec = parser["traffic"]
        config.traffic = ClassicalTraffic(
            direction=TrafficDirection(
                sec.get("direction", config.traffic.direction.value)
            ),
            optical_power_mw=sec.getfloat(
                "optical_power_mw", config.traffic.optical_power_mw
            ),
            data_rate_mbps=sec.getfloat("data_rate_mbps", config.traffic.data_rate_mbps),
            background_counter_cps=sec.getfloat(
                "background_counter_cps", config.traffic.background_counter_cps
            ),
            background_co_cps_per_mw=sec.getfloat(
                "background_co_cps_per_mw", config.traffic.background_co_cps_per_mw
            ),
        )
    if parser.has_section("detector"):
        sec = parser["detector"]
        config.detector = receiver.DetectorParams(
            efficiency=sec.getfloat("efficiency", config.detector.efficiency),
            dark_cps=sec.getfloat("dark_cps", config.detector.dark_cps),
            jitter_sigma_ps=sec.getfloat(
                "jitter_sigma_ps", config.detector.jitter_sigma_ps
            ),
            dead_time_ns=sec.getfloat("dead_time_ns", config.detector.dead_time_ns),
            second_mode_rejection_db=sec.getfloat(
                "second_mode_rejection_db", config.detector.second_mode_rejection_db
            ),
        )
    if parser.has_section("analysis"):
        sec = parser["analysis"]
        config.coincidence_window_ps = sec.getint(
            "coincidence_window_ps", config.coincidence_window_ps
        )
        config.ec_inefficiency = sec.getfloat(
            "error_correction_inefficiency", config.ec_inefficiency
        )
        config.epsilon = sec.getfloat("security_epsilon", config.epsilon)
        config.qber_drift_per_s = sec.getfloat(
            "qber_drift_per_s", config.qber_drift_per_s
        )
    return config


def emit_csv(rows: list[dict], path, fieldnames: list[str] | None = None) -> Path:
    """Write dict rows as CSV with a header; plain decimal formatting,
    newline-terminated lines."""
    path = Path(path)
    if fieldnames is None:
        if not rows:
            raise ValueError("fieldnames required when rows are empty")
        fieldnames = list(rows[0].keys())
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def _derive_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence([master, *key]).generate_state(1, np.uint64)[0])


def _mean(values: list[float]) -> float:
    return float(np.mean(values))


def _sem(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _channel_for(config: ExperimentConfig, length_km: float, traffic: ClassicalTraffic) -> ChannelConfig:
    return ChannelConfig(length_km=length_km, traffic=traffic, **config.channel)


def _run_point(
    config: ExperimentConfig,
    length_km: float,
    traffic: ClassicalTraffic,
    seed: int,
) -> tuple[KeyRateReport, netsim.SessionArtifacts]:
    arm = _channel_for(config, length_km, traffic)
    topo = Topology(
        users=[("alice", arm), ("bob", arm)],
        source=SourceParams(
            pair_rate=config.pair_rate,
            intrinsic_visibility=config.intrinsic_visibility,
        ),
        detector=config.detector,
        qber_drift_per_s=config.qber_drift_per_s,
        coincidence_window_ps=config.coincidence_window_ps,
        ec_inefficiency=config.ec_inefficiency,
        epsilon=config.epsilon,
    )
    plan = schedule_session(topo, "alice", "bob", config.duration_s, seed)
    return run_session(plan)


def _dark_traffic() -> ClassicalTraffic:
    return ClassicalTraffic(direction=TrafficDirection.NONE)


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Execute the configured scenario and write its output files.

    Deterministic: identical config and seed produce byte-identical files.
    Per-point seeds are derived from the master seed and the point's grid
    indices, so point results do not depend on execution order.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}
    summary: list[str] = [
        f"scenario: {config.scenario}",
        f"seed: {config.seed}",
        f"duration_s: {config.duration_s}",
        f"repetitions: {config.repetitions}",
    ]

    if config.scenario == "single_run":
        outputs.update(_run_single(config, out_dir, summary))
    elif config.scenario == "length_sweep":
        outputs.update(_run_length_sweep(config, out_dir, summary))
    elif config.scenario == "traffic_sweep":
        outputs.update(_run_traffic_sweep(config, out_dir, summary))
    else:
        outputs.update(_run_extrapolation(config, out_dir, summary))

    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs["summary"] = summary_path
    return outputs


def _run_single(config, out_dir: Path, summary: list[str]) -> dict[str, Path]:
    length = config.resolved_lengths_km()[0]
    report, artifacts = _run_point(
        config, length, config.traffic, _derive_seed(config.seed, 0)
    )
    outputs = {
        "reports": emit_csv([report.csv_row()], out_dir / "reports.csv"),
    }
    if config.dump_tags:
        receiver.write_tags(artifacts.tags_a, out_dir / "tags_alice.txt")
        receiver.write_tags(artifacts.tags_b, out_dir / "tags_bob.txt")
        outputs["tags_alice"] = out_dir / "tags_alice.txt"
        outputs["tags_bob"] = out_dir / "tags_bob.txt"
    if config.dump_coincidences:
        tagproc.write_coincidences(
            artifacts.filtered_records, out_dir / "coincidences.csv"
        )
        outputs["coincidences"] = out_dir / "coincidences.csv"
    summary.append(
        f"single_run length_km={length} qber={report.qber:.6f} "
        f"sifted_rate={report.sifted_rate:.3f} "
        f"asymptotic_rate={report.asymptotic_rate:.3f} "
        f"finite_length={report.finite_length} "
        f"retained_fraction={report.retained_fraction:.4f} "
        f"offset_ps={report.offset_ps}"
    )
    return outputs


def _run_length_sweep(config, out_dir: Path, summary: list[str]) -> dict[str, Path]:
    lengths = config.resolved_lengths_km()
    variants = (("dark", _dark_traffic()), ("active", config.traffic))
    report_rows, qber_rows, skr_rows = [], [], []
    for li, length in enumerate(lengths):
        for vi, (variant, traffic) in enumerate(variants):
            reports = []
            for rep in range(config.repetitions):
                seed = _derive_seed(config.seed, li, vi, rep)
                report, _ = _run_point(config, length, traffic, seed)
                reports.append(report)
                report_rows.append(report.csv_row())
            qbers = [r.qber for r in reports]
            qber_rows.append(
                {
                    "length_km": length,
                    "variant": variant,
                    "repetitions": config.repetitions,
                    "qber_mean": _mean(qbers),
                    "qber_sem": _sem(qbers),
                }
            )
            rates = [r.asymptotic_rate for r in reports]
            skr_rows.append(
                {
                    "length_km": length,
                    "variant": variant,
                    "repetitions": config.repetitions,
                    "sifted_rate_mean": _mean([r.sifted_rate for r in reports]),
                    "asymptotic_rate_mean": _mean(rates),
                    "asymptotic_rate_sem": _sem(rates),
                    "finite_length_mean": _mean([r.finite_length for r in reports]),
                }
            )
            summary.append(
                f"length_km={length} variant={variant} "
                f"qber_mean={qber_rows[-1]['qber_mean']:.6f} "
                f"asymptotic_rate_mean={skr_rows[-1]['asymptotic_rate_mean']:.3f}"
            )
    return {
        "qber_vs_length": emit_csv(qber_rows, out_dir / "qber_vs_length.csv"),
        "skr_vs_length": emit_csv(skr_rows, out_dir / "skr_vs_length.csv"),
        "reports": emit_csv(
            report_rows, out_dir / "reports.csv", list(KeyRateReport.CSV_FIELDS)
        ),
    }


def _run_traffic_sweep(config, out_dir: Path, summary: list[str]) -> dict[str, Path]:
    length = config.resolved_lengths_km()[0]
    report_rows, traffic_rows = [], []
    for ti, mbps in enumerate(config.traffics_mbps):
        traffic = dataclasses.replace(
            config.traffic,
            direction=TrafficDirection.COUNTER_PROPAGATING,
            data_rate_mbps=mbps,
        )
        reports = []
        for rep in range(config.repetitions):
            seed = _derive_seed(config.seed, ti, rep)
            report, _ = _run_point(config, length, traffic, seed)
            reports.append(report)
            report_rows.append(report.csv_row())
        qbers = [r.qber for r in reports]
        traffic_rows.append(
            {
                "traffic_mbps": mbps,
                "length_km": length,
                "repetitions": config.repetitions,
                "qber_mean": _mean(qbers),
                "qber_sem": _sem(qbers),
                "sifted_bits_mean": _mean([r.sifted_bits for r in reports]),
            }
        )
        summary.append(
            f"traffic_mbps={mbps} qber_mean={traffic_rows[-1]['qber_mean']:.6f}"
        )
    return {
        "qber_vs_traffic": emit_csv(traffic_rows, out_dir / "qber_vs_traffic.csv"),
        "reports": emit_csv(
            report_rows, out_dir / "reports.csv", list(KeyRateReport.CSV_FIELDS)
        ),
    }


def _run_extrapolation(config, out_dir: Path, summary: list[str]) -> dict[str, Path]:
    rows = []
    source = SourceParams(
        pair_rate=config.extrapolation_pair_rate,
        intrinsic_visibility=config.intrinsic_visibility,
    )
    for length in config.resolved_lengths_km():
        arm = _channel_for(config, length, config.traffic)
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
            {
                "length_km_per_arm": length,
                "pair_rate": config.extrapolation_pair_rate,
                "sifted_rate": report.sifted_rate,
                "qber": report.qber,
                "asymptotic_rate": report.asymptotic_rate,
                "finite_length": report.finite_length,
                "n_required": report.n_required,
            }
        )
        summary.append(
            f"extrapolation length_km={length} qber={report.qber:.6f} "
            f"asymptotic_rate={report.asymptotic_rate:.3f}"
        )
    return {"extrapolation": emit_csv(rows, out_dir / "extrapolation.csv")}


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
