"""E14: the delivery plane's indirection overhead.

A plane-indirection overhead pair: the refactored
``Topology.send_upstream`` (charge block + bound ``fan_out`` call)
against a hand-inlined replica of the pre-refactor star send path on an
identical fresh topology.  The median wall-clock ratio over repeated
pairs (:func:`conftest.ab_ratio`) must stay within
``PLANE_OVERHEAD_LIMIT`` -- the acceptance number for routing every
unicast send through the plane interface.  The E14 matrix's verdicts
are asserted in ``bench_matrix``.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import time

from conftest import ab_ratio, run_once

from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import RefreshMessage
from repro.network.topology import Topology

#: Max refactored / hand-inlined wall-clock ratio for unicast sends.
PLANE_OVERHEAD_LIMIT = 1.1
_SENDS = 40_000
#: A run takes ~50 ms, so extra pairs are cheap and steady the median.
PAIRS = 21


def _make_star():
    """A star whose links never run dry over the benchmark window."""
    topology = Topology([ConstantBandwidth(1e9)],
                        [ConstantBandwidth(1e9)])
    topology.set_cache_receiver(lambda message: None)
    topology.on_network_tick(1.0)
    return topology


def _send_via_plane(topology, count):
    send = topology.send_upstream
    for i in range(count):
        send(RefreshMessage(source_id=0, sent_at=1.0))


def _send_inlined(topology, count):
    """The pre-refactor star fast path, verbatim minus the plane."""
    for i in range(count):
        message = RefreshMessage(source_id=0, sent_at=1.0)
        source_link = topology.source_links[message.source_id]
        if (source_link._lazy
                and source_link._synced_tick < topology._tick_no):
            source_link.sync_to_tick(
                topology._tick_no, topology._tick_time,
                topology._prev_tick_time, topology._tick_dt,
                topology._tick_boundaries)
        now = message.sent_at
        last = source_link._last_accrue
        if now > last:
            rate = source_link._const_rate
            added = (rate * (now - last) if rate is not None
                     else source_link.profile.capacity(last, now))
            source_link._last_accrue = now
            source_link.credit += added
            source_link._tick_added += added
        size = message.size
        if source_link.queue or source_link.credit < size:
            continue
        source_link.credit -= size
        source_link.tick_used += size
        source_link.total_sent += 1
        source_link.total_delivered += 1
        if topology._reliable is not None:
            topology._reliable.on_send(message)
        topology.cache_links[0].transmit_or_queue(message)


def _arm(send):
    def run():
        # A fresh topology per run: links accumulate credit and counters.
        topology = _make_star()
        start = time.perf_counter()
        send(topology, _SENDS)
        return (time.perf_counter() - start,
                topology.cache_links[0].total_sent)
    return run


def test_unicast_plane_overhead(benchmark):
    """Plane-routed unicast sends stay within 1.1x the inlined path."""
    ratio, inlined, plane = run_once(benchmark, ab_ratio,
                                     _arm(_send_inlined),
                                     _arm(_send_via_plane), pairs=PAIRS)
    assert all(sent == _SENDS for _, sent in inlined + plane), \
        "a benchmark arm dropped sends (link ran dry?)"
    print(f"\nplane / inlined: median ratio {ratio:.3f} over "
          f"{len(plane)} pairs (limit {PLANE_OVERHEAD_LIMIT})")
    assert ratio <= PLANE_OVERHEAD_LIMIT, (
        f"plane-routed unicast send ran {ratio:.2f}x the inlined path "
        f"(limit {PLANE_OVERHEAD_LIMIT}x) -- the delivery indirection "
        f"is leaking into the hot path")
