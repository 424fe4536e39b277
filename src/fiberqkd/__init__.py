"""Simulator and analysis toolkit for entanglement-based key distribution
over telecom fibers shared with classical gigabit traffic.

Import from the modules (``fiberqkd.cli``, ``fiberqkd.netsim``, ...). The
package root re-exports only ``ChannelConfig`` and ``SourceParams``, the two
names that ``perfbench/run.py`` reads off it.
"""

from .channel import ChannelConfig
from .pairgen import SourceParams
