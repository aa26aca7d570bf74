"""Both send arms of ``benchmarks/bench_multicast.py`` run and deliver.

The bench's hand-inlined arm reads the topology's tick clock and a
source link's sync state directly, so a change to either breaks it while
only the advisory perf job runs the file.  Here each arm runs once at a
small send count and must deliver every send.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(_DIR) not in sys.path:
    sys.path.append(str(_DIR))  # the bench imports its own conftest
_spec = importlib.util.spec_from_file_location(
    "bench_multicast", _DIR / "bench_multicast.py")
bench_multicast = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_multicast)

SENDS = 200


@pytest.mark.parametrize("arm", ["_send_inlined", "_send_via_plane"])
def test_arm_delivers_every_send(arm):
    topology = bench_multicast._make_star()
    getattr(bench_multicast, arm)(topology, SENDS)
    source, cache = topology.source_links[0], topology.cache_links[0]
    assert source.total_sent == cache.total_delivered == SENDS
    assert source._synced_tick == topology._tick_no == 1
