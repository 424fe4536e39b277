"""The comparison of ``tools/output_digests.py --check`` on the committed
list, without running the CLI."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def _expected() -> list[str]:
    return output_digests.EXPECTED.read_text(encoding="utf-8").splitlines()


def test_committed_list_names_each_output_once():
    expected = _expected()
    names = [line.split("  ", 1)[1] for line in expected]
    assert len(expected) == 28
    assert names == sorted(set(names))
    assert all(len(line.split("  ", 1)[0]) == 64 for line in expected)
    assert output_digests.compare(expected, expected) == []


def test_tampered_list_names_each_difference():
    expected = _expected()
    got = list(expected)
    name = got[3].split("  ", 1)[1]
    got[3] = f"{'0' * 64}  {name}"
    missing = got.pop(10).split("  ", 1)[1]
    got.append(f"{'2' * 64}  zz_run/extra.csv")
    assert output_digests.compare(expected, got) == [
        f"differs: {name}",
        f"missing: {missing}",
        "extra: zz_run/extra.csv",
    ]
