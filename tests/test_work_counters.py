"""Deterministic work counters for a fixed small campaign.

CPU time is noisy; the amount of simulated work is not.  This pins the
exact packet, transmit and event counts of a 2-page campaign — the
default configuration and the same pages at 1% loss — on every event
kernel.  A change that alters what the simulator *does* (not just how
fast) moves these numbers; a pure speed-up must leave the packet and
transmit counts alone.

The event count is the only one a scheduling change may move: the lazy
PTO deadline (``Timer``) dispatches one wake-up per deadline interval
instead of cancelling an event per ACK.  Counts before that change,
for the record: 8,981 events (default) and 9,448 (1% loss).
"""

import sys
from collections import Counter

import pytest

from repro.measurement import probe as probe_mod
from repro.measurement.campaign import CampaignConfig
from repro.measurement.executor import CampaignPlan, execute
from repro.netsim.link import Link
from repro.netsim.packet import PacketKind
from repro.transport.base import BaseConnection
from repro.web.topsites import GeneratorConfig, cached_universe
from tests.test_events import ALL_LOOPS

#: Exact counts per configuration (``loss_rate`` → counters).
EXPECTED = {
    0.0: {
        "data_packets_sent": 4888,
        "ack_packets_sent": 2938,
        "transmits": 8450,
        "retransmissions": 0,
        "pto_fired": 0,
        "events": 9043,
    },
    0.01: {
        "data_packets_sent": 4994,
        "ack_packets_sent": 3125,
        "transmits": 8760,
        "retransmissions": 106,
        "pto_fired": 2,
        "events": 9700,
    },
}


def count_campaign(monkeypatch, loop_cls, loss_rate):
    counts: Counter = Counter()
    loops = []

    def make_loop():
        loop = loop_cls()
        loops.append(loop)
        return loop

    real_transmit = Link.transmit

    def transmit(link, packet, on_deliver):
        counts["transmits"] += 1
        if packet.kind is PacketKind.ACK:
            counts["ack_packets_sent"] += 1
        return real_transmit(link, packet, on_deliver)

    real_close = BaseConnection.close

    def close(conn):
        if not conn.closed:
            counts["data_packets_sent"] += conn.stats.data_packets_sent
            counts["retransmissions"] += conn.stats.retransmissions
            counts["pto_fired"] += conn.stats.rto_events
        real_close(conn)

    monkeypatch.setattr(probe_mod, "EventLoop", make_loop)
    monkeypatch.setattr(Link, "transmit", transmit)
    monkeypatch.setattr(BaseConnection, "close", close)
    universe = cached_universe(GeneratorConfig(n_sites=6), seed=7)
    result = execute(
        CampaignPlan(
            universe=universe,
            sim=CampaignConfig(loss_rate=loss_rate),
            pages=tuple(universe.pages[:2]),
        )
    )
    assert len(result.paired_visits) == 2
    counts["events"] = sum(loop.processed_events for loop in loops)
    return dict(counts)


@pytest.mark.parametrize("loss_rate", sorted(EXPECTED))
@pytest.mark.parametrize("loop_cls", ALL_LOOPS)
def test_work_counts_are_pinned(monkeypatch, loop_cls, loss_rate):
    assert count_campaign(monkeypatch, loop_cls, loss_rate) == EXPECTED[loss_rate]


# ---------------------------------------------------------------------
# Python calls per data packet
# ---------------------------------------------------------------------

#: Ceiling on Python-function calls per data packet sent, per loss rate,
#: on the C kernel (the heap kernel adds its own ``ScheduledEvent``
#: comparison frames).  Measured: 24.06 and 26.68; before the packet
#: path was folded (direct receivers, one send loop, cached RTO):
#: 37.34 and 38.15.  A ceiling is only ever lowered: raising one needs
#: a CHANGES.md entry saying what the extra calls buy.
CALLS_PER_PACKET_CEILING = {
    0.0: 24.1,
    0.01: 26.7,
}


def count_python_calls(monkeypatch, loss_rate):
    """``(python_calls, data_packets_sent)`` of one warm pinned campaign.

    Counts ``"call"`` profile events, i.e. Python frames; C builtins
    report ``"c_call"`` and are not counted.  The hook that sums the
    connections' ``data_packets_sent`` is excluded from the count.
    """
    from repro.events.loop import CEventLoop

    universe = cached_universe(GeneratorConfig(n_sites=6), seed=7)
    plan = CampaignPlan(
        universe=universe,
        sim=CampaignConfig(loss_rate=loss_rate),
        pages=tuple(universe.pages[:2]),
    )
    monkeypatch.setattr(probe_mod, "EventLoop", CEventLoop)
    execute(plan)  # warm-up: imports, caches, lazily built indexes

    packets = [0]
    real_close = BaseConnection.close

    def close(conn):
        if not conn.closed:
            packets[0] += conn.stats.data_packets_sent
        real_close(conn)

    monkeypatch.setattr(BaseConnection, "close", close)
    calls = [0]
    hook_code = close.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is not hook_code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = execute(plan)
    finally:
        sys.setprofile(None)
    assert len(result.paired_visits) == 2
    return calls[0], packets[0]


@pytest.mark.parametrize("loss_rate", sorted(CALLS_PER_PACKET_CEILING))
def test_python_calls_per_data_packet(monkeypatch, loss_rate):
    from repro.events.loop import CEventLoop

    if CEventLoop is None:
        pytest.skip("C kernel not built on this host")
    calls, packets = count_python_calls(monkeypatch, loss_rate)
    assert packets == EXPECTED[loss_rate]["data_packets_sent"]
    per_packet = calls / packets
    assert per_packet <= CALLS_PER_PACKET_CEILING[loss_rate], (
        f"{per_packet:.2f} Python calls per data packet at loss "
        f"{loss_rate} (ceiling {CALLS_PER_PACKET_CEILING[loss_rate]})"
    )
