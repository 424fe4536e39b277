"""The pure summary of ``tools/ab_bench.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

# Ten pairs: the parent's quartiles are 0.7625, 0.78, 0.805 (inclusive
# interpolation), so its interquartile range is 0.0425.
PARENT = [0.70, 0.74, 0.76, 0.77, 0.78, 0.78, 0.79, 0.81, 0.84, 0.90]


def test_summary_of_a_clear_gain_holds_the_claim():
    change = [p - 0.1 for p in PARENT]
    change[3] = 0.80  # one pair lost
    row = ab_bench.summarize("wall_s", "lower", PARENT, change)
    assert row["parent"] == pytest.approx({"q1": 0.7625, "median": 0.78, "q3": 0.805})
    assert row["change"]["median"] == pytest.approx(0.685)
    assert row["median_change_frac"] == pytest.approx(0.685 / 0.78 - 1)
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["runs"] == {"parent": PARENT, "change": change}
    assert row["claim_holds"]


def test_summary_needs_nine_wins_in_ten():
    change = [p - 0.1 for p in PARENT]
    change[3] = change[5] = 0.95
    row = ab_bench.summarize("wall_s", "lower", PARENT, change)
    assert row["wins"] == 8
    assert not row["claim_holds"]


def test_summary_needs_a_gap_beyond_the_parents_spread():
    # Ahead in every pair, by less than the parent's interquartile range.
    row = ab_bench.summarize("wall_s", "lower", PARENT, [p - 0.04 for p in PARENT])
    assert row["wins"] == 10
    assert not row["claim_holds"]


def test_summary_takes_the_direction_from_better():
    higher = [1 / p for p in PARENT]
    change = [h * 1.5 for h in higher]
    assert ab_bench.summarize("rate", "higher", higher, change)["wins"] == 10
    assert ab_bench.summarize("rate", "higher", higher, change)["claim_holds"]
    assert ab_bench.summarize("rate", "lower", higher, change)["wins"] == 0
    assert not ab_bench.summarize("rate", "lower", higher, change)["claim_holds"]


def test_summary_counts_ties_as_no_win():
    row = ab_bench.summarize("ok_frac", "higher", [1.0, 1.0], [1.0, 1.0])
    assert row["wins"] == 0 and not row["claim_holds"]


def test_summary_of_one_pair_claims_nothing():
    row = ab_bench.summarize("wall_s", "lower", [2.0], [1.0])
    assert row["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert row["wins"] == 1 and not row["claim_holds"]


def test_summary_needs_ten_pairs():
    # Nine pairs, every one a clear win: still too few to claim a gain.
    row = ab_bench.summarize("wall_s", "lower", PARENT[:9], [p - 0.1 for p in PARENT[:9]])
    assert row["wins"] == 9
    assert not row["claim_holds"]


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [1.0], "faster")],
)
def test_summary_rejects_bad_input(parent, change, better):
    with pytest.raises(ValueError):
        ab_bench.summarize("wall_s", better, parent, change)


def test_stage_copies_only_what_a_run_needs(tmp_path):
    # The staged directory holds the checkout's src/, perfbench/ and
    # BENCHMARK.json, without caches or benchmark work files, and nothing
    # left from the side staged before.
    checkout = tmp_path / "checkout"
    for name in (
        "src/pkg/mod.py",
        "src/pkg/__pycache__/mod.pyc",
        "perfbench/run.py",
        "perfbench/.perfbench_work/out.txt",
        "BENCHMARK.json",
        "README.md",
    ):
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(name)
    where = tmp_path / "where"
    where.mkdir()
    (where / "stale.txt").write_text("from the other side")
    ab_bench.stage(checkout, where)
    staged = sorted(str(p.relative_to(where)) for p in where.rglob("*") if p.is_file())
    assert staged == ["BENCHMARK.json", "perfbench/run.py", "src/pkg/mod.py"]
    assert (where / "src/pkg/mod.py").read_text() == "src/pkg/mod.py"
