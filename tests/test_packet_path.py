"""The per-packet path: early-exit loss scan, lazy PTO, size-once packets.

Three contracts, each checked against an independent oracle rather
than against the implementation's own bookkeeping:

* **Loss scan** — packet-threshold detection scans ``_inflight`` from
  the oldest packet and stops at the first one that is not lost.  A
  brute-force oracle (the full in-flight comprehension, sorted) runs
  next to it under scripted ``Link.drop_filter`` patterns; the lost
  seqs and the ``ConnectionStats`` must match it exactly.
* **Lazy PTO** — the probe timeout stores an absolute deadline and
  keeps one wake-up.  Its fire times, ``rto_events`` and backoff
  sequence must equal the eager schedule computed from the
  ``RttEstimator``; a path migration must fire at the *earlier* reset
  deadline; a wake-up that arrives before the deadline is never a PTO.
  Every kernel must agree.
* **Packets are sized once** — ``payload_bytes``/``size_bytes`` are
  fixed at construction and an explicit ``size_bytes`` wins.
"""

import random

import pytest

from repro.check import CheckContext, InvariantViolation
from repro.events import Timer
from repro.events.loop import HeapEventLoop
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.netsim.packet import HEADER_BYTES, Packet, StreamChunk
from repro.obs.trace import ConnectionTracer
from repro.transport import QuicConnection, TcpConnection
from tests.test_events import ALL_LOOPS

BOTH = pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])


def make_conn(conn_cls, loop, drop=None, rate_mbps=None, check=None):
    path = NetworkPath(
        loop, NetemProfile(delay_ms=15.0, rate_mbps=rate_mbps), rng=random.Random(3)
    )
    path.downlink.drop_filter = drop
    tracer = ConnectionTracer("conn", conn_cls.protocol_name)
    conn = conn_cls(loop, path, tracer=tracer, check=check)
    return conn, tracer


def establish(conn, loop):
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))


def lost_seqs(tracer, trigger):
    return [
        e["data"]["seq"]
        for e in tracer.events
        if e["name"] == "transport:packet_lost" and e["data"]["trigger"] == trigger
    ]


def pto_fires(tracer):
    return [
        (e["time"], e["data"]["backoff"])
        for e in tracer.events
        if e["name"] == "recovery:pto_fired"
    ]


# ---------------------------------------------------------------------
# Loss scan vs the brute-force oracle
# ---------------------------------------------------------------------


def drop_seqs(*seqs):
    """Drop the first transmission of the given server data seqs."""
    wanted = set(seqs)

    def drop(pkt):
        return pkt.kind is PacketKind.DATA and pkt.seq in wanted

    return drop


def drop_seq_and_its_retransmission(seq):
    """Drop ``seq`` and the first retransmission of its chunk."""
    state = {"chunk": None, "retx_dropped": False}

    def drop(pkt):
        if pkt.kind is not PacketKind.DATA:
            return False
        if pkt.seq == seq and not pkt.retransmission:
            state["chunk"] = pkt.chunks[0]
            return True
        if (
            pkt.retransmission
            and pkt.chunks[0] == state["chunk"]
            and not state["retx_dropped"]
        ):
            state["retx_dropped"] = True
            return True
        return False

    return drop


def run_with_oracle(conn_cls, drop, response_bytes):
    """Run one scripted transfer; returns (conn, tracer, oracle_lost)."""
    loop = HeapEventLoop()
    check = CheckContext()  # raise mode: the in-code scan oracle is live
    conn, tracer = make_conn(conn_cls, loop, drop=drop, check=check)
    oracle: list[int] = []
    real_detect = conn._detect_losses

    def detect_with_oracle():
        # The pre-early-exit implementation: every in-flight seq at or
        # below the cutoff, whatever its position, in seq order.
        cutoff = conn._largest_acked - conn.config.packet_threshold
        oracle.extend(sorted(s for s in conn._inflight if s <= cutoff))
        real_detect()

    conn._detect_losses = detect_with_oracle
    establish(conn, loop)
    stream = conn.request(400, response_bytes)
    loop.run_until(lambda: stream.complete)
    assert stream.received == response_bytes
    assert check.ok and check.checks_run > 0
    return conn, tracer, oracle


def retransmitted_seqs(tracer):
    return [
        e["data"]["seq"]
        for e in tracer.events
        if e["name"] == "transport:packet_sent"
        and e["data"]["dir"] == "s2c"
        and e["data"]["retransmission"]
    ]


@BOTH
class TestLossScanOracle:
    def test_single_loss(self, conn_cls):
        conn, tracer, oracle = run_with_oracle(conn_cls, drop_seqs(4), 60_000)
        assert lost_seqs(tracer, "packet_threshold") == oracle == [4]
        assert lost_seqs(tracer, "pto") == []
        stats = conn.stats
        assert (stats.data_packets_lost, stats.retransmissions, stats.rto_events) == (1, 1, 0)

    def test_burst_loss(self, conn_cls):
        conn, tracer, oracle = run_with_oracle(conn_cls, drop_seqs(4, 5, 6, 7), 60_000)
        assert lost_seqs(tracer, "packet_threshold") == oracle == [4, 5, 6, 7]
        stats = conn.stats
        assert (stats.data_packets_lost, stats.retransmissions, stats.rto_events) == (4, 4, 0)

    def test_lost_retransmission(self, conn_cls):
        conn, tracer, oracle = run_with_oracle(
            conn_cls, drop_seq_and_its_retransmission(4), 60_000
        )
        retx = retransmitted_seqs(tracer)
        assert len(retx) == 2  # the original's retx, then the retx's retx
        lost = lost_seqs(tracer, "packet_threshold") + lost_seqs(tracer, "pto")
        assert sorted(lost) == [4, retx[0]]
        assert lost_seqs(tracer, "packet_threshold") == oracle
        stats = conn.stats
        assert stats.data_packets_lost == stats.retransmissions == 2
        assert stats.rto_events == len(lost_seqs(tracer, "pto"))

    def test_tail_loss_is_pto_driven(self, conn_cls):
        # 10 MSS fit the initial window; the last one has no successor
        # to trip the packet threshold, so only the PTO can declare it.
        conn, tracer, oracle = run_with_oracle(conn_cls, drop_seqs(10), 14_600)
        assert oracle == lost_seqs(tracer, "packet_threshold") == []
        assert lost_seqs(tracer, "pto") == [10]
        stats = conn.stats
        assert (stats.data_packets_lost, stats.retransmissions, stats.rto_events) == (1, 1, 1)
        assert stats.data_packets_sent == 11


def test_strict_mode_catches_out_of_order_inflight():
    """The in-code oracle fires if the seq-order invariant is broken."""
    loop = HeapEventLoop()
    conn, _ = make_conn(QuicConnection, loop, check=CheckContext())
    chunk = StreamChunk(1, 0, 100)
    for seq in (2, 9, 4):  # 4 is lost but sits behind a non-lost 9
        conn._inflight[seq] = Packet(PacketKind.DATA, seq=seq, chunks=(chunk,))
    conn._largest_acked = 10
    with pytest.raises(InvariantViolation) as info:
        conn._detect_losses()
    assert info.value.violation.invariant == "transport:loss_scan_prefix"


# ---------------------------------------------------------------------
# Lazy PTO deadline
# ---------------------------------------------------------------------


def black_hole_after(n_data):
    """Deliver the first ``n_data`` server data packets, drop the rest."""
    seen = {"n": 0}

    def drop(pkt):
        if pkt.kind is not PacketKind.DATA:
            return False
        seen["n"] += 1
        return seen["n"] > n_data

    return drop


def start_black_holed_transfer(loop, n_data=12):
    conn, tracer = make_conn(QuicConnection, loop, drop=black_hole_after(n_data))
    establish(conn, loop)
    conn.request(400, 400_000)
    return conn, tracer


def ack_times(tracer):
    """When the sender processed each newly-acknowledged packet (from
    the trace): the last one is the last ACK that re-armed the PTO."""
    return [
        e["time"] for e in tracer.events if e["name"] == "transport:packet_acked"
    ]


def eager_schedule(start, base_ms, backoffs):
    """Fire times of an eager stop+start PTO: ``now + base * backoff``."""
    times = []
    t = start
    for backoff in backoffs:
        t = t + base_ms * backoff
        times.append(t)
    return times


def count_pto_wakeups(monkeypatch, conn):
    """Record every PTO-timer dispatch as ``(now, deadline)``."""
    seen = []
    real_fire = Timer._fire

    def fire(timer):
        if timer is conn._pto_timer:
            seen.append((timer._loop.now, timer._deadline))
        real_fire(timer)

    monkeypatch.setattr(Timer, "_fire", fire)
    return seen


@pytest.mark.parametrize("loop_cls", ALL_LOOPS)
class TestLazyPto:
    def test_black_hole_matches_eager_schedule(self, loop_cls, monkeypatch):
        loop = loop_cls()
        conn, tracer = start_black_holed_transfer(loop)
        dispatches = count_pto_wakeups(monkeypatch, conn)
        loop.run(until_ms=20_000)
        fires = pto_fires(tracer)
        backoffs = [b for _, b in fires]
        assert backoffs[:9] == [1, 2, 4, 8, 16, 32, 64, 64, 64]
        base = conn.rtt.rto_ms + conn.config.max_ack_delay_ms
        acked = ack_times(tracer)
        assert len(acked) == 12  # every delivered data packet was acked
        assert [t for t, _ in fires] == eager_schedule(acked[-1], base, backoffs)
        assert conn.stats.rto_events == len(fires)
        # Every dispatch that ran the PTO was at its deadline; the rest
        # were wake-ups that only rescheduled.
        firing = [now for now, deadline in dispatches if now >= deadline]
        assert firing == [t for t, _ in fires]

    def test_migration_reset_fires_at_earlier_deadline(self, loop_cls):
        loop = loop_cls()
        conn, tracer = start_black_holed_transfer(loop)
        loop.run_until(lambda: len(pto_fires(tracer)) == 4)
        assert conn._pto_backoff == 16
        pending = conn._pto_timer._deadline
        loop.call_later(1.0, conn.on_path_migration)
        migrated_at = loop.now + 1.0
        loop.run_until(lambda: len(pto_fires(tracer)) == 6)
        base = conn.rtt.rto_ms + conn.config.max_ack_delay_ms
        (t5, b5), (t6, b6) = pto_fires(tracer)[4:]
        assert (t5, b5) == (migrated_at + base * 1, 1)
        assert t5 < pending
        assert (t6, b6) == (t5 + base * 2, 2)
        assert conn.stats.rto_events == 6

    def test_stale_wakeups_are_not_ptos(self, loop_cls, monkeypatch):
        # A clean 2 MB transfer at 10 Mbps outlasts many PTO intervals,
        # so the deadline keeps moving past its pending wake-up.
        loop = loop_cls()
        conn, tracer = make_conn(QuicConnection, loop, rate_mbps=10.0)
        dispatches = count_pto_wakeups(monkeypatch, conn)
        establish(conn, loop)
        stream = conn.request(400, 2_000_000)
        loop.run_until(lambda: stream.complete)
        assert len(dispatches) > 5
        assert all(now < deadline for now, deadline in dispatches)
        assert conn.stats.rto_events == 0
        assert pto_fires(tracer) == []
        assert conn.stats.data_packets_lost == 0


# ---------------------------------------------------------------------
# Size-once packets
# ---------------------------------------------------------------------


class TestPacketSizing:
    def test_sizes_fixed_at_construction(self):
        chunks = (StreamChunk(1, 0, 700), StreamChunk(3, 0, 300, fin=True))
        pkt = Packet(PacketKind.DATA, seq=1, chunks=chunks)
        assert pkt.payload_bytes == 1000
        assert pkt.size_bytes == 1000 + HEADER_BYTES

    def test_explicit_size_wins(self):
        pkt = Packet(PacketKind.DATA, chunks=(StreamChunk(1, 0, 500),), size_bytes=9000)
        assert pkt.size_bytes == 9000
        assert pkt.payload_bytes == 500

    def test_no_per_instance_dict(self):
        pkt = Packet(PacketKind.ACK, ack_seq=3)
        assert not hasattr(pkt, "__dict__")
        assert not hasattr(Packet, "__post_init__")

    def test_inflight_holds_the_sent_packet(self):
        loop = HeapEventLoop()
        conn, _ = make_conn(QuicConnection, loop)
        sent = []
        conn.path.downlink.drop_filter = lambda pkt: sent.append(pkt) and False
        establish(conn, loop)
        conn.request(400, 14_600)
        loop.run_until(lambda: bool(conn._inflight))
        data = [p for p in sent if p.kind is PacketKind.DATA]
        assert list(conn._inflight) == [p.seq for p in data]
        assert all(conn._inflight[p.seq] is p for p in data)
