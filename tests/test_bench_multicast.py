"""Both send arms of ``benchmarks/bench_multicast.py`` run, deliver and
do the same work on the source side.

The bench's hand-inlined arm charges the source row through the
topology's tick clock and row columns directly, so a change to either
breaks it while only the advisory perf job runs the file.  Here each arm
runs once at a small send count and must deliver every send, and the two
arms must leave identical source rows: the overhead bound compares the
plane's routing, not different charging.
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


def row_state(topology):
    """Every source-row column of ``topology``."""
    return (topology._credit, topology._last_accrue, topology._tick_added,
            topology._synced)


@pytest.mark.parametrize("arm", ["_send_inlined", "_send_via_plane"])
def test_arm_delivers_every_send(arm):
    topology = bench_multicast._make_star()
    getattr(bench_multicast, arm)(topology, SENDS)
    cache = topology.cache_links[0]
    assert cache.total_sent == cache.total_delivered == SENDS
    assert topology._synced[0] == topology.tick_no == 1


def test_arms_leave_the_same_source_rows():
    inlined = bench_multicast._make_star()
    bench_multicast._send_inlined(inlined, SENDS)
    plane = bench_multicast._make_star()
    bench_multicast._send_via_plane(plane, SENDS)
    assert row_state(inlined) == row_state(plane)
    assert inlined._credit[0] == 1e9 - SENDS
