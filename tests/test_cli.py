import configparser
import csv
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import SessionSink
from fiberqkd import cli, netsim
from fiberqkd.channel import ClassicalTraffic, TrafficDirection
from fiberqkd.cli import (
    ExperimentConfig,
    emit_csv,
    load_config,
    main,
    run_experiment,
)
from fiberqkd.distill import KeyRateReport
from fiberqkd.receiver import DetectorParams, write_tags
from fiberqkd.tagproc import NoCorrelationPeakError, write_coincidences

EXAMPLE_INI = Path(__file__).resolve().parents[1] / "example_experiment.ini"


def _fast_config(**overrides) -> ExperimentConfig:
    config = ExperimentConfig(
        scenario="single_run",
        duration_s=0.5,
        repetitions=1,
        pair_rate=4e5,
        seed=2026,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = emit_csv([], tmp_path / "empty.csv", fieldnames=["a", "b"])
    assert path.read_text() == "a,b\n"


def test_emit_csv_report_row_schema(tmp_path):
    report = KeyRateReport(
        length_km_per_arm=1.0,
        traffic_mbps=10.5,
        sifted_bits=1000,
        sifted_rate=33.3,
        qber=0.025,
        asymptotic_rate=21.5,
        finite_length=0,
        n_required=12345.0,
        retained_fraction=0.55,
        offset_ps=0,
    )
    path = emit_csv(
        [report.csv_row()], tmp_path / "reports.csv", list(KeyRateReport.CSV_FIELDS)
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == (
        "length_km_per_arm,traffic_mbps,sifted_rate,qber,"
        "asymptotic_rate,finite_length,n_required"
    )


def test_emit_csv_roundtrip(tmp_path):
    rows = [
        {"x": 1.5, "y": -2, "label": "dark"},
        {"x": 0.25, "y": 7, "label": "active"},
    ]
    path = emit_csv(rows, tmp_path / "t.csv", ["x", "y", "label"])
    loaded = _read_csv(path)
    assert len(loaded) == 2
    for original, parsed in zip(rows, loaded):
        assert float(parsed["x"]) == original["x"]
        assert int(parsed["y"]) == original["y"]
        assert parsed["label"] == original["label"]


def test_load_config_defaults():
    config = load_config(None)
    assert config.scenario == "single_run"
    assert config.pair_rate == 0.4e6
    assert config.detector.efficiency == 0.5
    assert config.traffic.direction is TrafficDirection.COUNTER_PROPAGATING


def test_load_config_parses_sections(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        """
[experiment]
scenario = length_sweep
lengths_km = 0.5, 1.0
repetitions = 2
duration_s = 0.25
seed = 99
output_dir = results
dump_tags = yes

[source]
pair_rate = 2.5e5
intrinsic_visibility = 0.9

[channel]
second_mode_fraction = 0.2
splitters_per_arm = 1

[traffic]
direction = none

[detector]
efficiency = 0.4
second_mode_rejection_db = 0

[analysis]
coincidence_window_ps = 1500
error_correction_inefficiency = 1.2
security_epsilon = 1e-9
"""
    )
    config = load_config(ini)
    assert config.scenario == "length_sweep"
    assert config.lengths_km == [0.5, 1.0]
    assert config.repetitions == 2
    assert config.seed == 99
    assert config.pair_rate == 2.5e5
    assert config.intrinsic_visibility == 0.9
    assert config.channel == {"second_mode_fraction": 0.2, "splitters_per_arm": 1}
    assert config.traffic.direction is TrafficDirection.NONE
    assert config.detector.efficiency == 0.4
    assert config.detector.second_mode_rejection_db == 0.0
    assert config.coincidence_window_ps == 1500
    assert config.ec_inefficiency == 1.2
    assert config.epsilon == 1e-9
    assert config.dump_tags is True


def test_scenario_default_lengths():
    assert ExperimentConfig(scenario="length_sweep").resolved_lengths_km() == [
        0.25,
        0.5,
        1.0,
        2.0,
        3.0,
    ]
    assert ExperimentConfig(scenario="single_run").resolved_lengths_km() == [1.0]
    extrapolation = ExperimentConfig(scenario="extrapolation").resolved_lengths_km()
    assert 8.0 in extrapolation and 12.0 in extrapolation


def test_config_validation():
    with pytest.raises(ValueError):
        _fast_config(scenario="frequency_sweep").validate()
    with pytest.raises(ValueError):
        _fast_config(repetitions=0).validate()
    with pytest.raises(ValueError):
        _fast_config(scenario="traffic_sweep", traffics_mbps=[]).validate()
    # An empty list, as from an INI line "lengths_km =", is no request
    # for the defaults.
    with pytest.raises(ValueError, match="empty length list"):
        _fast_config(scenario="length_sweep", lengths_km=[]).validate()


def test_single_run_outputs_and_determinism(tmp_path):
    outputs = {}
    for label in ("one", "two"):
        config = _fast_config(
            output_dir=str(tmp_path / label),
            dump_tags=True,
            dump_coincidences=True,
        )
        outputs[label] = run_experiment(config)
    names = set(outputs["one"])
    assert {"reports", "summary", "tags_alice", "tags_bob", "coincidences"} <= names
    for name in sorted(names):
        first = outputs["one"][name].read_bytes()
        second = outputs["two"][name].read_bytes()
        assert first == second, f"{name} differs between identical runs"
    rows = _read_csv(outputs["one"]["reports"])
    assert len(rows) == 1
    assert float(rows[0]["length_km_per_arm"]) == 1.0


def test_length_sweep_row_counts(tmp_path):
    config = _fast_config(
        scenario="length_sweep",
        duration_s=0.4,
        output_dir=str(tmp_path / "sweep"),
    )
    outputs = run_experiment(config)
    qber_rows = _read_csv(outputs["qber_vs_length"])
    skr_rows = _read_csv(outputs["skr_vs_length"])
    # 5 default lengths x {dark, active}.
    assert len(qber_rows) == 10
    assert len(skr_rows) == 10
    assert [row["variant"] for row in qber_rows[:2]] == ["dark", "active"]
    report_rows = _read_csv(outputs["reports"])
    assert len(report_rows) == 10 * config.repetitions


def test_traffic_sweep_row_counts(tmp_path):
    config = _fast_config(
        scenario="traffic_sweep",
        traffics_mbps=[0.0, 50.0],
        duration_s=1.0,
        pair_rate=1e6,
        output_dir=str(tmp_path / "traffic"),
    )
    outputs = run_experiment(config)
    rows = _read_csv(outputs["qber_vs_traffic"])
    assert len(rows) == 2
    assert [float(r["traffic_mbps"]) for r in rows] == [0.0, 50.0]
    assert all(float(r["length_km"]) == 4.0 for r in rows)


def test_traffic_sweep_keeps_the_configured_direction(tmp_path, monkeypatch):
    # [traffic] direction reaches every traffic_sweep point's arms; only the
    # data rate is swept.
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nscenario = traffic_sweep\ntraffics_mbps = 0, 50\nrepetitions = 1\n"
        f"output_dir = {tmp_path / 'out'}\n[traffic]\ndirection = co_propagating\n"
    )
    links = []

    def run_session(link, duration_s, seed, sink=None):
        links.append(link)
        return netsim.predict_key_rates(link.source, link.arm_a, link.arm_b), None

    monkeypatch.setattr(cli, "run_session", run_session)
    run_experiment(load_config(ini))
    assert [link.arm_a.traffic.data_rate_mbps for link in links] == [0.0, 50.0]
    assert all(
        arm.traffic.direction is TrafficDirection.CO_PROPAGATING
        for link in links
        for arm in (link.arm_a, link.arm_b)
    )


def test_extrapolation_scenario_reach(tmp_path):
    config = _fast_config(
        scenario="extrapolation", output_dir=str(tmp_path / "extrap")
    )
    outputs = run_experiment(config)
    rows = {float(r["length_km_per_arm"]): r for r in _read_csv(outputs["extrapolation"])}
    assert float(rows[8.0]["asymptotic_rate"]) > 0.0
    assert float(rows[12.0]["asymptotic_rate"]) <= 0.0
    assert float(rows[8.0]["qber"]) < float(rows[12.0]["qber"])


def test_full_run_byte_determinism(tmp_path):
    # Same config and seed, two executions: every emitted file is identical.
    results = []
    for label in ("left", "right"):
        config = _fast_config(
            scenario="length_sweep",
            lengths_km=[0.5, 1.0],
            duration_s=0.4,
            output_dir=str(tmp_path / label),
        )
        results.append(run_experiment(config))
    for name in sorted(results[0]):
        assert results[0][name].read_bytes() == results[1][name].read_bytes()


def test_main_flag_overrides(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        """
[experiment]
scenario = single_run
duration_s = 0.5
seed = 1

[source]
pair_rate = 4.0e5
"""
    )
    out_dir = tmp_path / "cli_out"
    code = main(
        [
            "--config",
            str(ini),
            "--scenario",
            "extrapolation",
            "--seed",
            "77",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "extrapolation.csv").exists()
    summary = (out_dir / "summary.txt").read_text()
    assert "scenario: extrapolation" in summary
    assert "seed: 77" in summary


def test_module_entry_point_runs_without_runtime_warning():
    # ``python -m fiberqkd.cli`` must not find the module already imported
    # by the package, which runpy reports as a RuntimeWarning.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fiberqkd.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: fiberqkd" in result.stdout


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    config = _fast_config(
        scenario="extrapolation", output_dir=str(blocker / "nested")
    )
    with pytest.raises(OSError):
        run_experiment(config)


def test_example_config_in_repo_loads():
    config = load_config(EXAMPLE_INI)
    config.validate()
    assert config.scenario in ("single_run", "length_sweep", "traffic_sweep", "extrapolation")


def test_example_config_documents_exactly_the_schema():
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(EXAMPLE_INI, encoding="utf-8")
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    schema = {(section, key) for section, keys in cli.CONFIG_SCHEMA.items() for key in keys}
    assert documented == schema
    assert len(schema) == 30


BAD_INI = [
    ("[source]\npair_rte = 1e6\n", "source:pair_rte"),
    ("[detectr]\nefficiency = 0.4\n", "detectr"),
    ("[channel]\nalpha_classical_db_per_km = 0.2\n", "channel:alpha_classical_db_per_km"),
    ("[traffic]\ndirection = sideways\n", "traffic:direction"),
    ("[experiment]\nrepetitions = two\n", "experiment:repetitions"),
    ("[experiment]\ndump_tags = maybe\n", "experiment:dump_tags"),
    ("[DEFAULT]\nseed = 3\n", "DEFAULT"),
    ("[analysis]\nqber_drift_per_s = 0\n", "analysis:qber_drift_per_s"),
]


@pytest.mark.parametrize("text, location", BAD_INI, ids=[loc for _, loc in BAD_INI])
def test_load_config_rejects_unknown_or_unparseable(tmp_path, text, location):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{ini}:{location}:")):
        load_config(ini)


def test_sweep_grid_checked_before_any_session(tmp_path, monkeypatch):
    # Every point's arm is built when the config is checked: an INI with a
    # bad second length fails to load, and the same config built in code
    # fails in run_experiment before its first session.
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nscenario = length_sweep\nlengths_km = 1, -2\n")
    with pytest.raises(ValueError, match=re.escape(f"{ini}:experiment: length_km must")):
        load_config(ini)
    config = _fast_config(
        scenario="length_sweep", lengths_km=[1.0, -2.0], output_dir=str(tmp_path / "out")
    )
    sessions = []
    monkeypatch.setattr(cli, "run_session", sessions.append)
    with pytest.raises(ValueError, match="experiment: length_km must"):
        run_experiment(config)
    assert sessions == []


OUT_OF_RANGE_INI = [
    ("[experiment]\nscenario = foo\n", "experiment:", "scenario"),
    ("[experiment]\nrepetitions = 0\n", "experiment:", "repetitions"),
    ("[experiment]\nduration_s = -1\n", "experiment:", "duration_s"),
    ("[experiment]\nscenario = length_sweep\nlengths_km = 1, -2\n", "experiment:", "length_km"),
    ("[experiment]\nlengths_km = nan\n", "experiment:", "length_km"),
    (
        "[experiment]\nscenario = traffic_sweep\ntraffics_mbps = 0, -5\n",
        "experiment:",
        "data_rate_mbps",
    ),
    ("[detector]\nefficiency = 1.5\n", "detector:", "efficiency"),
    ("[channel]\nsecond_mode_fraction = 1.5\n", "channel:", "second_mode_fraction"),
    ("[source]\npair_rate = -1\n", "source:", "pair_rate"),
    ("[analysis]\ncoincidence_window_ps = -10\n", "analysis:", "coincidence_window_ps"),
    (
        "[analysis]\nerror_correction_inefficiency = 0.5\n",
        "analysis:",
        "error_correction_inefficiency",
    ),
    ("[analysis]\nsecurity_epsilon = 2\n", "analysis:", "security_epsilon"),
]


@pytest.mark.parametrize(
    "text, location, name", OUT_OF_RANGE_INI, ids=[name for _, _, name in OUT_OF_RANGE_INI]
)
def test_load_config_rejects_out_of_range(tmp_path, text, location, name):
    # A value that parses but is out of range fails in load_config, not in
    # the first session, and names its file and section.
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{ini}:{location} {name} must")):
        load_config(ini)


# Lengths and traffic levels that the scenario does not run are checked
# all the same.
UNRUN_ENTRY_INI = [
    pytest.param("[experiment]\nlengths_km = 1, -2\n", "length_km", id="single_run,lengths_km"),
    pytest.param(
        "[experiment]\nscenario = traffic_sweep\nlengths_km = 1, nan\n",
        "length_km",
        id="traffic_sweep,lengths_km",
    ),
    pytest.param(
        "[experiment]\nscenario = length_sweep\ntraffics_mbps = -5\n",
        "data_rate_mbps",
        id="length_sweep,traffics_mbps",
    ),
    pytest.param(
        "[experiment]\ntraffics_mbps = nan\n", "data_rate_mbps", id="single_run,traffics_mbps"
    ),
]


@pytest.mark.parametrize("text, name", UNRUN_ENTRY_INI)
def test_load_config_checks_entries_the_scenario_does_not_run(tmp_path, text, name):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{ini}:experiment: {name} must")):
        load_config(ini)


# (field overrides, section, name in the message) for configs built in code.
CODE_OUT_OF_RANGE = [
    ({"coincidence_window_ps": -10}, "analysis", "coincidence_window_ps"),
    ({"ec_inefficiency": 0.5}, "analysis", "error_correction_inefficiency"),
    ({"epsilon": 2.0}, "analysis", "security_epsilon"),
    ({"channel": {"second_mode_fraction": 1.5}}, "channel", "second_mode_fraction"),
    ({"pair_rate": -1}, "source", "pair_rate"),
    (
        {"scenario": "extrapolation", "extrapolation_pair_rate": -1},
        "source",
        "pair_rate",
    ),
]


@pytest.mark.parametrize(
    "overrides, section, name",
    CODE_OUT_OF_RANGE,
    ids=[",".join(o) for o, _, _ in CODE_OUT_OF_RANGE],
)
def test_run_experiment_rejects_out_of_range_values(
    tmp_path, monkeypatch, overrides, section, name
):
    # A config built in code reaches the same checks as an INI file,
    # through validate(), before any session runs or any file is written.
    sessions = []
    monkeypatch.setattr(cli, "run_session", lambda *args, **kwargs: sessions.append(args))
    config = _fast_config(output_dir=str(tmp_path / "out"), **overrides)
    with pytest.raises(ValueError, match=re.escape(f"{section}: {name} must")):
        run_experiment(config)
    assert sessions == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "channel",
    [{"alpha_quantum_db_per_km_typo": 1}, {"length_km": 2.0}, {"traffic": "x"}],
    ids=["typo", "length_km", "traffic"],
)
def test_run_experiment_rejects_unknown_channel_key(tmp_path, channel):
    # A key outside the [channel] schema fails as a ValueError that names
    # it, before the output directory is made.
    config = _fast_config(output_dir=str(tmp_path / "out"), channel=channel)
    (key,) = channel
    with pytest.raises(ValueError, match=re.escape(f"channel: unknown key {key!r}")):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "channel",
    [{"splitters_per_arm": "x"}, {"alpha_quantum_db_per_km": "x"}, {"splitters_per_arm": 2.5}],
    ids=["str_for_int", "str_for_float", "float_for_int"],
)
def test_run_experiment_rejects_wrongly_typed_channel_value(tmp_path, channel):
    # A code-built value of the wrong type fails as a ValueError that names
    # its key, as an INI value that does not parse does, before the output
    # directory is made.
    config = _fast_config(output_dir=str(tmp_path / "out"), channel=channel)
    (key,) = channel
    with pytest.raises(ValueError, match=re.escape(f"channel: {key} must be")):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [5, 6])
def test_dumps_written_slice_by_slice_equal_whole_writes(tmp_path, monkeypatch, seed):
    # Short slices give the 0.5 s session about 25 slices; the dumps, written
    # slice by slice, equal the whole-file writers on the parts joined.
    monkeypatch.setattr(netsim, "SLICE_PAIRS", 1 << 12)
    kept = SessionSink()
    session = cli.run_session

    def run_session(link, duration_s, seed, sink=None):
        def both(*parts):
            kept(*parts)
            sink(*parts)

        return session(link, duration_s, seed, sink=both)

    monkeypatch.setattr(cli, "run_session", run_session)
    config = _fast_config(
        seed=seed, output_dir=str(tmp_path / "out"), dump_tags=True, dump_coincidences=True
    )
    outputs = run_experiment(config)
    assert kept.calls > 10
    tags_a, tags_b = kept.streams()
    _, filtered = kept.records()
    assert len(filtered) > 1000
    write_tags(tags_a, tmp_path / "tags_alice.txt")
    write_tags(tags_b, tmp_path / "tags_bob.txt")
    write_coincidences(filtered, tmp_path / "coincidences.csv")
    for name, filename in (
        ("tags_alice", "tags_alice.txt"),
        ("tags_bob", "tags_bob.txt"),
        ("coincidences", "coincidences.csv"),
    ):
        assert outputs[name].read_bytes() == (tmp_path / filename).read_bytes(), name


def test_failed_single_run_leaves_no_dump(tmp_path):
    # Dead detectors leave only dark counts, so offset recovery fails after
    # the dump files were opened; none of them is left behind.
    config = _fast_config(
        output_dir=str(tmp_path / "out"), dump_tags=True, dump_coincidences=True
    )
    config.detector = DetectorParams(efficiency=0.0)
    with pytest.raises(NoCorrelationPeakError):
        run_experiment(config)
    assert list((tmp_path / "out").iterdir()) == []


def test_failed_sweep_point_names_its_point_and_seed(tmp_path):
    # At 8 km and 4e5 pairs/s, 5 s of source hold too few pairs for an
    # offset peak; the error says which point, repetition and seed failed.
    config = _fast_config(
        scenario="length_sweep",
        lengths_km=[8.0],
        duration_s=5.0,
        output_dir=str(tmp_path / "out"),
    )
    seed = cli._derive_seed(config.seed, 0, 0, 0)
    with pytest.raises(NoCorrelationPeakError) as caught:
        run_experiment(config)
    message = str(caught.value)
    assert f"length_km=8.0 variant=dark repetition=0 seed={seed}: no correlation peak" in message
    assert isinstance(caught.value.__cause__, NoCorrelationPeakError)


def test_sweep_point_with_no_tags_names_its_point_and_seed(tmp_path):
    # Dead, dark-free detectors on dark fiber click never: the session
    # names the empty side, and the sweep the point and seed.
    config = _fast_config(
        scenario="length_sweep",
        lengths_km=[1.0],
        output_dir=str(tmp_path / "out"),
    )
    config.detector = DetectorParams(efficiency=0.0, dark_cps=0.0)
    config.traffic = ClassicalTraffic(direction=TrafficDirection.NONE)
    seed = cli._derive_seed(config.seed, 0, 0, 0)
    with pytest.raises(NoCorrelationPeakError) as caught:
        run_experiment(config)
    assert str(caught.value) == (
        f"length_km=1.0 variant=dark repetition=0 seed={seed}: "
        "no correlation peak: stream A holds no tags"
    )


def test_sweep_frees_each_session_before_the_next(tmp_path, monkeypatch):
    # Only the report of a sweep session is kept: its tags and coincidences
    # are gone by the time the next session starts.
    report = KeyRateReport(
        length_km_per_arm=1.0,
        traffic_mbps=0.0,
        sifted_bits=100,
        sifted_rate=200.0,
        qber=0.03,
        asymptotic_rate=10.0,
        finite_length=0,
        n_required=12345.0,
        retained_fraction=0.5,
        offset_ps=0,
    )

    class Artifacts:
        pass

    earlier = []

    def run_session(link, duration_s, seed, sink=None):
        assert all(ref() is None for ref in earlier)
        artifacts = Artifacts()
        earlier.append(weakref.ref(artifacts))
        return report, artifacts

    monkeypatch.setattr(cli, "run_session", run_session)
    config = _fast_config(
        scenario="length_sweep", lengths_km=[1.0], repetitions=3, output_dir=str(tmp_path)
    )
    run_experiment(config)
    assert len(earlier) == 6
