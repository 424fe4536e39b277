"""Print the SHA-256 of every output file of a fixed set of CLI runs, or
check them against the committed list.

Run from a checkout:

    python tools/output_digests.py           # print the digests
    python tools/output_digests.py --check   # compare with output_digests.txt

Each run goes through ``fiberqkd.cli.main`` in a temporary directory, and
one ``<sha256>  <run>/<file>`` line is printed per output file, in sorted
order, 28 lines in all. A refactor that keeps every output byte prints the
same lines before and after; any run that fails ends the script with an
error. With ``--check`` nothing is printed when every line equals
``tools/output_digests.txt``; otherwise each ``<run>/<file>`` that
differs, is missing or is extra is named, and the script exits 1. The
package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_suffix(".txt")
sys.path.insert(0, str(REPO / "src"))

from fiberqkd import cli  # noqa: E402

# Source seconds of each run of the example INI, in place of its 30 s.
EXAMPLE_DURATION_S = "2"

# (run name, INI sections, CLI flags). Every run writes to its own folder.
RUNS = [
    (
        f"single_run_{name}",
        {
            "experiment": {
                "scenario": "single_run",
                "lengths_km": km,
                "duration_s": "5",
                "dump_tags": "true",
                "dump_coincidences": "true",
            }
        },
        ["--seed", "7"],
    )
    for name, km in (("025km", "0.25"), ("4km", "4"))
] + [
    (
        scenario,
        {"experiment": {"scenario": scenario, "repetitions": "2", "duration_s": "5"}},
        [],
    )
    for scenario in ("length_sweep", "traffic_sweep")
] + [
    (f"example_{scenario}", None, ["--scenario", scenario])
    for scenario in cli.SCENARIOS
]


def _write_ini(path: Path, sections) -> None:
    parser = configparser.ConfigParser()
    if sections is None:
        parser.read(REPO / "example_experiment.ini", encoding="utf-8")
        parser["experiment"]["duration_s"] = EXAMPLE_DURATION_S
    else:
        parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def digest_lines() -> list[str]:
    """The ``<sha256>  <run>/<file>`` line of every output file of the runs."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, sections, flags in RUNS:
            ini = root / f"{name}.ini"
            _write_ini(ini, sections)
            with open(root / f"{name}.log", "w", encoding="utf-8") as log:
                stdout, sys.stdout = sys.stdout, log
                try:
                    cli.main(["--config", str(ini), "--out", str(root / name), *flags])
                finally:
                    sys.stdout = stdout
        lines = []
        for path in sorted(root.glob("*/*")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
        return lines


def compare(expected: list[str], got: list[str]) -> list[str]:
    """One message per ``<run>/<file>`` whose digest differs, that is
    missing from ``got`` or that ``expected`` does not list, in name
    order; none when the lists agree."""
    want, have = (dict(line.split("  ", 1)[::-1] for line in lines) for lines in (expected, got))
    messages = []
    for name in sorted(want.keys() | have.keys()):
        if name not in have:
            messages.append(f"missing: {name}")
        elif name not in want:
            messages.append(f"extra: {name}")
        elif want[name] != have[name]:
            messages.append(f"differs: {name}")
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SHA-256 of every output file of a fixed set of CLI runs."
    )
    parser.add_argument(
        "--check", action="store_true", help=f"compare with {EXPECTED.name}; exit 1 on a difference"
    )
    args = parser.parse_args(argv)
    lines = digest_lines()
    if not args.check:
        print("\n".join(lines))
        return 0
    messages = compare(EXPECTED.read_text(encoding="utf-8").splitlines(), lines)
    for message in messages:
        print(message, file=sys.stderr)
    return 1 if messages else 0


if __name__ == "__main__":
    raise SystemExit(main())
