import types

import fiberqkd


def test_package_root_exports_only_the_names_perfbench_reads():
    # The modules hold the API; the root keeps the two names that
    # perfbench/run.py reads off it, and no version string.
    names = {
        name
        for name, value in vars(fiberqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {"ChannelConfig", "SourceParams"}
    assert not hasattr(fiberqkd, "__version__")
