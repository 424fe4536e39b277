"""Compare the end-to-end benchmark metrics of two checkouts, pair by pair.

Run from a checkout:

    python tools/ab_bench.py PARENT CHANGE --workload dense_025km --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in the PARENT checkout
and once in the CHANGE checkout, at the same seed (``FIRST_SEED`` for the
first pair, one more for each next pair) and for ``--seconds`` of wall
time (``BENCHMARK.json``'s ``run_seconds`` by default), with the two runs
of a pair taken in turns: the parent goes first in even pairs and second
in odd ones, so that neither side always meets a warm or a cold host.

For each end-to-end metric of ``BENCHMARK.json`` one JSON line is
printed: every run's value, each side's quartiles and median over the
pairs, how many pairs the change won (lower or higher is better as
``BENCHMARK.json`` says), and whether a gain could be claimed: there are
at least ten pairs, the change wins at least nine pairs in ten, and its
median beats the parent's by more than the parent's interquartile range.
The exit status is 1 when a run fails or reports a failed operation, 0
otherwise.

Both sides run from one path, so that the length of a checkout's
directory name cannot move their figures: before each run, the side's
``src/``, ``perfbench/`` and ``BENCHMARK.json`` (without ``__pycache__``
or ``.perfbench_work``) are copied into one temporary directory, the same
for every run, and ``perfbench/run.py`` runs there. Nothing is written
outside that directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# A claim needs at least this many pairs, with the change ahead in at
# least this share of them.
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# The seed of the first pair; pair i runs at FIRST_SEED + i.
FIRST_SEED = 1001
# What a run needs of a checkout, and what of that is left out of the copy.
RUN_FILES = ("src", "perfbench", "BENCHMARK.json")
SKIP = shutil.ignore_patterns("__pycache__", ".perfbench_work")


def quartiles(values: list[float]) -> dict[str, float]:
    """Q1, median and Q3 of ``values``, by linear interpolation; a single
    value is all three."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(name: str, better: str, parent: list[float], change: list[float]) -> dict:
    """The comparison of one metric over pairs of runs: ``parent[i]`` and
    ``change[i]`` are the values of pair i, and ``better`` is "lower" or
    "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and at least one pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ours, theirs = quartiles(change), quartiles(parent)
    gain = sign * (ours["median"] - theirs["median"])
    return {
        "metric": name,
        "better": better,
        "parent": theirs,
        "change": ours,
        "median_change_frac": (
            ours["median"] / theirs["median"] - 1.0 if theirs["median"] else math.nan
        ),
        "wins": wins,
        "pairs": len(parent),
        "runs": {"parent": list(parent), "change": list(change)},
        "claim_holds": (
            len(parent) >= CLAIM_MIN_PAIRS
            and wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
            and gain > theirs["q3"] - theirs["q1"]
        ),
    }


def stage(checkout: Path, where: Path) -> None:
    """Make ``where`` hold ``checkout``'s ``RUN_FILES`` and nothing else."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir()
    for name in RUN_FILES:
        if (checkout / name).is_dir():
            shutil.copytree(checkout / name, where / name, ignore=SKIP)
        else:
            shutil.copy2(checkout / name, where / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, where: Path) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run of
    ``checkout``, staged in ``where``."""
    stage(checkout, where)
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=where,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as scratch:
        where = Path(scratch) / "checkout"
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = getattr(args, side)
                result = run_once(checkout, args.workload, FIRST_SEED + i, seconds, where)
                runs[side].append(result)
                if result["failed"]:
                    print(f"{checkout}: {result['failed']} failed ops at seed {FIRST_SEED + i}",
                          file=sys.stderr)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        print(json.dumps(summarize(name, metric["better"], values["parent"], values["change"])))
    return int(any(r["failed"] for rs in runs.values() for r in rs))


if __name__ == "__main__":
    raise SystemExit(main())
