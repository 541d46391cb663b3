"""Connection machinery shared by the TCP and QUIC models.

A :class:`BaseConnection` simulates *both* endpoints of one
client↔server connection, exchanging packets over a lossy
:class:`~repro.netsim.path.NetworkPath`:

* The **handshake** is a configurable number of sequential round trips
  (each flight is a real packet subject to loss, with timeout-based
  retransmission).  Subclasses define how many flights their protocol
  stack needs; zero flights models QUIC 0-RTT.
* The **client side** sends requests reliably (per-packet ack +
  retransmission timer) and reassembles response bytes.  How received
  packets are *released to the application* is the subclass hook where
  TCP's head-of-line blocking vs QUIC's stream independence lives.
* The **server side** queues response bytes per stream after a think
  time, round-robins MSS-sized chunks across active streams (emulating
  H2/H3 frame interleaving), and paces transmission with a pluggable
  congestion controller.  Loss detection uses QUIC-style packet numbers
  with a packet threshold, plus a probe timeout (PTO) fallback.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.check.context import NULL_CHECK
from repro.check.controller import CheckedController
from repro.events import EventLoop, Timer
from repro.netsim.packet import Packet, PacketKind, StreamChunk
from repro.netsim.path import NetworkPath
from repro.obs.metrics import NULL_SAMPLER
from repro.obs.trace import NULL_TRACER
from repro.transport.config import TransportConfig
from repro.transport.congestion import CongestionController, make_congestion_controller
from repro.transport.rtt import RttEstimator


class TransportError(RuntimeError):
    """Raised when a connection gives up (handshake/request retries exhausted)."""


@dataclass
class HandshakeResult:
    """Timing of a completed handshake.

    ``flight_times_ms`` holds the completion time of each round trip
    relative to ``connect()``; the HTTP layer uses the first entry to
    split HAR ``connect`` into TCP vs SSL portions.
    """

    connect_ms: float
    flight_times_ms: tuple[float, ...]
    zero_rtt: bool
    retries: int


@dataclass
class ConnectionStats:
    """Per-connection counters used by tests and the analysis layer."""

    data_packets_sent: int = 0
    data_packets_lost: int = 0
    retransmissions: int = 0
    acks_received: int = 0
    rto_events: int = 0
    handshake_retries: int = 0
    request_retransmissions: int = 0
    hol_blocked_chunks: int = 0
    #: Completed HoL-stall intervals (reorder buffer non-empty → empty).
    hol_stalls: int = 0
    hol_stall_ms: float = 0.0
    #: Always 0: kept only because the benchmark's tracer reads it.
    fast_path_epochs: int = 0


class ClientStream:
    """Client-side view of one request/response exchange."""

    __slots__ = (
        "stream_id",
        "request_bytes",
        "response_bytes",
        "on_first_byte",
        "on_complete",
        "opened_at",
        "received",
        "t_first_byte",
        "t_complete",
    )

    def __init__(
        self,
        stream_id: int,
        request_bytes: int,
        response_bytes: int,
        on_first_byte: Callable[[float], None] | None,
        on_complete: Callable[[float], None] | None,
        opened_at: float,
    ) -> None:
        self.stream_id = stream_id
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.on_first_byte = on_first_byte
        self.on_complete = on_complete
        self.opened_at = opened_at
        self.received = 0
        self.t_first_byte: float | None = None
        self.t_complete: float | None = None

    @property
    def complete(self) -> bool:
        return self.t_complete is not None


class _ServerStream:
    """Server-side state of one stream: request reassembly + send queue."""

    __slots__ = (
        "stream_id",
        "response_bytes",
        "think_ms",
        "weight",
        "request_received",
        "request_total",
        "request_offsets",
        "response_queued",
        "next_offset",
    )

    def __init__(
        self,
        stream_id: int,
        response_bytes: int,
        think_ms: float = 0.0,
        weight: int = 1,
    ) -> None:
        self.stream_id = stream_id
        self.response_bytes = response_bytes
        self.think_ms = think_ms
        #: H2/H3 priority weight: chunks sent per round-robin turn.
        self.weight = max(1, weight)
        self.request_received = 0
        self.request_total: int | None = None  # known once fin arrives
        self.request_offsets: set[int] = set()
        self.response_queued = False
        self.next_offset = 0  # next response byte to chunk for sending

    @property
    def request_complete(self) -> bool:
        return self.request_total is not None and self.request_received >= self.request_total


@dataclass(slots=True)
class _PendingRequestPacket:
    packet: Packet
    timer: Timer
    tries: int = 0


class BaseConnection:
    """One simulated connection; see module docstring.

    Subclasses must implement :meth:`_handshake_flights` (round trips
    before requests may be sent) and :meth:`_on_data_packet_received`
    (delivery-order semantics).
    """

    protocol_name = "base"

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        config: TransportConfig | None = None,
        cc: CongestionController | None = None,
        rng: random.Random | None = None,
        server_think_ms: float = 0.0,
        name: str = "",
        tracer=None,
        check=None,
        sampler=None,
    ) -> None:
        self.loop = loop
        self.path = path
        self.config = config or TransportConfig()
        #: qlog-style event tracer.  The null tracer is *falsy*; its
        #: truth value is read once into ``_tracing`` and every hot-path
        #: instrumentation point is guarded with ``if self._tracing:``,
        #: so disabled tracing costs one attribute load and results stay
        #: bit-identical.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Invariant checker (strict mode); same null-object pattern,
        #: guarded with ``if self._checking:``.
        self.check = check if check is not None else NULL_CHECK
        #: Sim-time metrics sampler (repro.obs.metrics); same falsy
        #: null-object pattern, guarded with ``if self._sampling:``.
        self.sampler = sampler if sampler is not None else NULL_SAMPLER
        # Fixed at construction: none of the three is reassigned on a
        # live connection, and a plain bool skips the per-guard
        # ``__bool__`` call on the null objects.
        self._tracing = bool(self.tracer)
        self._checking = bool(self.check)
        self._sampling = bool(self.sampler)
        self.cc = cc or make_congestion_controller(
            self.config.congestion_control,
            self.config.mss,
            self.config.initial_cwnd_packets,
        )
        if self._checking:
            # Observe-only proxy: every CC transition is sanity-checked
            # but the wrapped controller's decisions are untouched.
            self.cc = CheckedController(self.cc, self.check, self.config.mss)
        self.rng = rng or random.Random(0)
        self.server_think_ms = server_think_ms
        self.name = name
        self.stats = ConnectionStats()
        self.rtt = RttEstimator(self.config.initial_rto_ms, self.config.min_rto_ms)
        # Model-based controllers (BBR) take delivery-rate samples; the
        # controller is never swapped, so the hook is looked up once.
        self._on_rate_sample: Callable[[float, float], None] | None = getattr(
            self.cc, "on_rate_sample", None
        )

        # Handshake state.
        self.established = False
        self.zero_rtt = False
        self.closed = False
        self.handshake: HandshakeResult | None = None
        self._connect_started_at: float | None = None
        self._hs_flight = 0
        self._hs_total = 0
        self._hs_retries = 0
        self._hs_flight_times: list[float] = []
        self._hs_timer = Timer(loop, self._on_handshake_timeout)
        self._on_established: Callable[[HandshakeResult], None] | None = None
        self._on_failed: Callable[[TransportError], None] | None = None
        #: Optional sink for terminal client-side errors after the
        #: handshake (request retransmission budget exhausted).  When
        #: set — the pool installs one while fault injection is active —
        #: the connection closes itself and reports instead of raising
        #: out of the event loop.
        self.on_error: Callable[[TransportError], None] | None = None

        # Client request side.
        self._next_stream_id = itertools.count(1)
        self.streams: dict[int, ClientStream] = {}
        self._req_seq = itertools.count(1)
        self._pending_requests: dict[int, _PendingRequestPacket] = {}

        # Client delayed-ack state: data-packet numbers received but not
        # yet acknowledged.  Flushed every ``ack_frequency`` packets, on
        # any sequence anomaly (gap/reorder — RFC 9000 §13.2.1), or when
        # the ``max_ack_delay`` timer fires.
        self._ack_pending: list[int] = []
        self._ack_largest_received = 0
        self._ack_last_recv_at = 0.0
        self._ack_timer = Timer(loop, self._flush_acks)

        # Server send side.
        self._server_streams: dict[int, _ServerStream] = {}
        self._send_queue: deque[int] = deque()  # stream ids with data to send
        self._retx_queue: deque[tuple[StreamChunk, int]] = deque()  # (chunk, conn_start)
        self._next_pkt_seq = itertools.count(1)
        self._largest_sent = 0
        self._largest_acked = 0
        #: Data packets awaiting acknowledgement, keyed by packet number.
        #: Seqs are assigned monotonically and inserted once, so dict
        #: insertion order *is* seq order: the oldest packet is the first
        #: key, and the packet-threshold loss scan stops at the first
        #: packet that is not yet lost (see :meth:`_detect_losses`).
        self._inflight: dict[int, Packet] = {}
        self._bytes_in_flight = 0
        self._recovery_until_seq = 0
        self._pto_timer = Timer(loop, self._on_pto)
        self._pto_backoff = 1
        self._conn_send_offset = 0  # TCP byte-stream position (subclasses use it)
        # Delivery-rate accounting for model-based controllers (BBR).
        self._first_data_sent_at: float | None = None
        self._delivered_bytes = 0
        # Last cwnd the tracer logged (metrics events are emitted only
        # on ≥1-MSS changes so traces stay bounded).
        self._traced_cwnd = self.cc.cwnd_bytes

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def _handshake_flights(self) -> int:
        """Round trips needed before request data may be sent."""
        raise NotImplementedError

    def connect(
        self,
        on_established: Callable[[HandshakeResult], None],
        on_failed: Callable[[TransportError], None] | None = None,
    ) -> None:
        """Begin the handshake; ``on_established`` fires when done.

        With a zero-flight plan (QUIC 0-RTT) the connection is usable
        immediately and the callback fires synchronously.

        ``on_failed`` (optional) receives the terminal
        :class:`TransportError` if the handshake retry budget runs out;
        without it the error propagates out of the event loop as before.
        """
        if self.established or self._connect_started_at is not None:
            raise TransportError("connect() called twice")
        self._connect_started_at = self.loop.now
        self._on_established = on_established
        self._on_failed = on_failed
        self._hs_total = self._handshake_flights()
        if self._tracing:
            self.tracer.event(
                self.loop.now, "transport:handshake_started",
                flights=self._hs_total,
            )
        if self._hs_total == 0:
            self.zero_rtt = True
            self._finish_handshake()
            return
        self._send_handshake_flight()

    def _send_handshake_flight(self) -> None:
        pkt = Packet(PacketKind.HANDSHAKE, seq=self._hs_flight)
        self.path.send_to_server(pkt, self._server_on_handshake)
        timeout = self.rtt.rto_ms * self._hs_backoff()
        self._hs_timer.start(timeout)

    def _hs_backoff(self) -> float:
        return float(2 ** min(self._hs_retries, 6))

    def _on_handshake_timeout(self) -> None:
        self._hs_retries += 1
        self.stats.handshake_retries += 1
        if self._tracing:
            self.tracer.event(
                self.loop.now, "recovery:handshake_timeout",
                flight=self._hs_flight, retries=self._hs_retries,
            )
        if self._hs_retries > self.config.max_handshake_retries:
            error = TransportError(
                f"{self.name or self.protocol_name}: handshake failed after "
                f"{self._hs_retries - 1} retries"
            )
            if self._on_failed is not None:
                self.close()
                self._on_failed(error)
                return
            raise error
        self._send_handshake_flight()

    def _server_on_handshake(self, pkt: Packet) -> None:
        # The server is stateless here: it simply echoes the flight
        # number, which also covers retransmitted (duplicate) flights.
        reply = Packet(PacketKind.HANDSHAKE, seq=pkt.seq)
        self.path.send_to_client(reply, self._client_on_handshake_reply)

    def _client_on_handshake_reply(self, pkt: Packet) -> None:
        if self.established or pkt.seq != self._hs_flight:
            return  # stale or duplicate reply
        assert self._connect_started_at is not None
        elapsed = self.loop.now - self._connect_started_at
        self._hs_flight_times.append(elapsed)
        if self._tracing:
            self.tracer.event(
                self.loop.now, "transport:handshake_flight",
                flight=self._hs_flight, elapsed_ms=elapsed,
            )
        # A full flight is an RTT sample for the estimator (Karn: only
        # when this flight was never retransmitted; approximated by "no
        # retries so far", which is exact for flight 0).
        if self._hs_retries == 0:
            previous = self._hs_flight_times[-2] if len(self._hs_flight_times) > 1 else 0.0
            self.rtt.on_sample(elapsed - previous)
        self._hs_flight += 1
        if self._hs_flight >= self._hs_total:
            self._hs_timer.stop()
            self._finish_handshake()
        else:
            self._send_handshake_flight()

    def _finish_handshake(self) -> None:
        assert self._connect_started_at is not None
        self.established = True
        self.handshake = HandshakeResult(
            connect_ms=self.loop.now - self._connect_started_at,
            flight_times_ms=tuple(self._hs_flight_times),
            zero_rtt=self.zero_rtt,
            retries=self._hs_retries,
        )
        if self._tracing:
            self.tracer.event(
                self.loop.now, "transport:handshake_completed",
                connect_ms=self.handshake.connect_ms,
                zero_rtt=self.zero_rtt,
                retries=self._hs_retries,
            )
        if self._on_established is not None:
            self._on_established(self.handshake)

    # ------------------------------------------------------------------
    # Client: sending requests
    # ------------------------------------------------------------------

    @property
    def can_send_requests(self) -> bool:
        """Requests may flow once established (or immediately for 0-RTT)."""
        return not self.closed and (self.established or self.zero_rtt)

    def request(
        self,
        request_bytes: int,
        response_bytes: int,
        think_ms: float | None = None,
        on_first_byte: Callable[[float], None] | None = None,
        on_complete: Callable[[float], None] | None = None,
        weight: int = 1,
    ) -> ClientStream:
        """Issue one request; returns the client-side stream handle.

        ``think_ms`` overrides the connection-level server think time
        for this request (used to model cache hits vs origin fetches).
        ``weight`` is the stream's priority: the sender emits that many
        chunks per scheduling turn (H2 stream weights / H3 priorities).
        """
        if not self.can_send_requests:
            raise TransportError("connection not ready for requests")
        if request_bytes <= 0 or response_bytes <= 0:
            raise ValueError("request and response sizes must be positive")
        stream_id = next(self._next_stream_id)
        stream = ClientStream(
            stream_id,
            request_bytes,
            response_bytes,
            on_first_byte,
            on_complete,
            opened_at=self.loop.now,
        )
        if self._tracing:
            self.tracer.event(
                self.loop.now, "http:stream_opened",
                stream_id=stream_id,
                request_bytes=request_bytes,
                response_bytes=response_bytes,
            )
        self.streams[stream_id] = stream
        self._server_streams[stream_id] = _ServerStream(
            stream_id,
            response_bytes,
            think_ms=self.server_think_ms if think_ms is None else think_ms,
            weight=weight,
        )
        mss = self.config.mss
        offset = 0
        while offset < request_bytes:
            size = min(mss, request_bytes - offset)
            fin = offset + size >= request_bytes
            chunk = StreamChunk(stream_id, offset, size, fin)
            self._send_request_packet(chunk)
            offset += size
        return stream

    def _send_request_packet(self, chunk: StreamChunk, tries: int = 0) -> None:
        seq = next(self._req_seq)
        pkt = Packet(PacketKind.DATA, seq=seq, chunks=(chunk,), sent_at=self.loop.now)
        pkt.retransmission = tries > 0
        if self._tracing:
            self.tracer.packet_sent(
                self.loop.now, seq, pkt.size_bytes, "c2s", tries > 0
            )
        timer = Timer(self.loop, lambda: self._on_request_timeout(seq))
        self._pending_requests[seq] = _PendingRequestPacket(pkt, timer, tries)
        timer.start(self.rtt.rto_ms * (2 ** min(tries, 6)))
        self.path.send_to_server(pkt, self._server_on_request)

    def _on_request_timeout(self, seq: int) -> None:
        pending = self._pending_requests.pop(seq, None)
        if pending is None:
            return
        self.stats.request_retransmissions += 1
        if pending.tries + 1 > self.config.max_request_retries:
            error = TransportError(
                f"{self.name or self.protocol_name}: request packet lost "
                f"{pending.tries + 1} times"
            )
            if self.on_error is not None:
                self.close()
                self.on_error(error)
                return
            raise error
        self._send_request_packet(pending.packet.chunks[0], pending.tries + 1)

    def _client_on_request_ack(self, pkt: Packet) -> None:
        pending = self._pending_requests.pop(pkt.ack_seq, None)
        if pending is None:
            return
        pending.timer.stop()
        if not pending.packet.retransmission:
            self.rtt.on_sample(self.loop.now - pending.packet.sent_at)

    # ------------------------------------------------------------------
    # Server: receiving requests, queueing and sending responses
    #
    # Every packet kind is delivered straight to its own receiver, chosen
    # by the sender: requests to ``_server_on_request``, data ACKs to
    # ``_server_on_ack``, request ACKs to ``_client_on_request_ack`` and
    # response data to ``_client_on_data``.  No receiver dispatches on
    # ``Packet.kind``.
    # ------------------------------------------------------------------

    def _server_on_request(self, pkt: Packet) -> None:
        # Ack the request packet, then absorb its chunk (a request
        # packet carries exactly one).
        ack = Packet(PacketKind.ACK, ack_seq=pkt.seq)
        self.path.send_to_client(ack, self._client_on_request_ack)
        (chunk,) = pkt.chunks
        sstream = self._server_streams.get(chunk.stream_id)
        if sstream is None or chunk.offset in sstream.request_offsets:
            return  # unknown stream or duplicate delivery
        sstream.request_offsets.add(chunk.offset)
        sstream.request_received += chunk.size
        if chunk.fin:
            sstream.request_total = chunk.end
        if sstream.request_complete and not sstream.response_queued:
            sstream.response_queued = True
            think = sstream.think_ms
            if think > 0:
                self.loop.call_later(think, self._server_enqueue_response, sstream)
            else:
                self._server_enqueue_response(sstream)

    def _server_enqueue_response(self, sstream: _ServerStream) -> None:
        if sstream.stream_id not in self._send_queue:
            self._send_queue.append(sstream.stream_id)
        self._try_send()

    def _try_send(self) -> None:
        """Transmit as much as the congestion window allows.

        Retransmissions are sent first and are exempt from the window
        check (loss-recovery packets must not be starved by the very
        congestion event that caused them).  New data follows in
        weighted round-robin: the stream at the head of the send queue
        emits up to ``weight`` chunks per turn (H2 stream weights / H3
        priorities), then yields to the next stream.

        The whole burst is one loop with one packet-build step: its
        body runs once per data packet sent, so any helper frame here
        would be paid per packet.  Sending schedules deliveries but
        never runs a receiver synchronously, so nothing else reads or
        changes this connection's send state mid-burst.
        """
        retx_queue = self._retx_queue
        send_queue = self._send_queue
        if not retx_queue and not send_queue:
            return
        mss = self.config.mss
        server_streams = self._server_streams
        inflight = self._inflight
        stats = self.stats
        next_seq = self._next_pkt_seq
        send_to_client = self.path.send_to_client
        on_data = self._client_on_data
        now = self.loop.now
        in_flight = self._bytes_in_flight
        cwnd = -1  # read once the retransmissions are out
        sstream: _ServerStream | None = None  # stream whose turn is running
        turn_left = 0
        seq = 0
        while True:
            if retx_queue:
                chunk, conn_start = retx_queue.popleft()
                retransmission = True
            else:
                if cwnd < 0:
                    # Sending never moves the window (only ACK, loss
                    # and PTO handling do), so it is read once a burst.
                    cwnd = self.cc.cwnd_bytes
                window_full = in_flight + mss > cwnd
                if sstream is not None and (window_full or not turn_left):
                    send_queue.rotate(-1)  # end of the stream's turn
                    sstream = None
                if window_full or not send_queue:
                    break
                if sstream is None:
                    sstream = server_streams[send_queue[0]]
                    turn_left = sstream.weight
                # A queued stream always has bytes left: the chunk that
                # carries its fin also takes it off the queue.
                offset = sstream.next_offset
                remaining = sstream.response_bytes - offset
                fin = remaining <= mss
                size = remaining if fin else mss
                chunk = StreamChunk(sstream.stream_id, offset, size, fin)
                sstream.next_offset = offset + size
                conn_start = self._conn_send_offset
                self._conn_send_offset = conn_start + size
                retransmission = False
                if fin:
                    send_queue.popleft()  # a finished stream leaves the queue
                    sstream = None
                else:
                    turn_left -= 1
            seq = next(next_seq)
            pkt = Packet(
                PacketKind.DATA,
                seq=seq,
                chunks=(chunk,),
                sent_at=now,
                retransmission=retransmission,
                conn_start=conn_start,
            )
            # The packet itself is the in-flight record: it already
            # carries seq, chunk, conn_start, size, sent_at and the
            # retransmit flag.
            inflight[seq] = pkt
            in_flight += pkt.size_bytes
            stats.data_packets_sent += 1
            if retransmission:
                stats.retransmissions += 1
            if self._tracing:
                self.tracer.packet_sent(now, seq, pkt.size_bytes, "s2c", retransmission)
            send_to_client(pkt, on_data)
        self._bytes_in_flight = in_flight
        if seq:
            self._largest_sent = seq
            if self._first_data_sent_at is None:
                self._first_data_sent_at = now
            self._arm_pto()

    def _server_on_ack(self, pkt: Packet) -> None:
        # One ACK packet may cover several data packets (``sack`` lists
        # every newly-received packet number; ``ack_seq`` is the largest).
        acked = pkt.sack or (pkt.ack_seq,)
        now = self.loop.now
        inflight = self._inflight
        cc_on_ack = self.cc.on_ack
        largest: Packet | None = None
        self.stats.acks_received += len(acked)
        for seq in acked:
            sent = inflight.pop(seq, None)
            if sent is None:
                continue  # duplicate or already declared lost
            if self._tracing:
                self.tracer.packet_acked(now, seq)
            size = sent.size_bytes
            self._bytes_in_flight -= size
            cc_on_ack(size, now)
            self._delivered_bytes += size
            if largest is None or seq > largest.seq:
                largest = sent
        if largest is None:
            return
        # RTT from the largest newly-acked, never-retransmitted packet,
        # net of the receiver's deliberate ack delay (RFC 9002 §5.3).
        if not largest.retransmission:
            sample = now - largest.sent_at - pkt.ack_delay_ms
            if sample >= 0:
                self.rtt.on_sample(sample)
        rate_sampler = self._on_rate_sample
        if rate_sampler is not None and self.rtt.srtt_ms:
            assert self._first_data_sent_at is not None
            elapsed = now - self._first_data_sent_at
            if elapsed > 0:
                rate_sampler(self._delivered_bytes / elapsed, self.rtt.srtt_ms)
        if pkt.ack_seq > self._largest_acked:
            self._largest_acked = pkt.ack_seq
        self._pto_backoff = 1
        if self._tracing:
            self._trace_metrics()
        if self._sampling:
            self.sampler.on_ack(self)
        self._detect_losses()
        if inflight:
            self._arm_pto()
        else:
            self._pto_timer.stop()
        self._try_send()

    def _detect_losses(self) -> None:
        """Packet-threshold loss detection (RFC 9002 §6.1.1).

        ``_inflight`` iterates in seq order (see its definition), so
        the lost packets — every seq at or below the cutoff — are a
        prefix of it: the scan stops at the first packet that is not
        lost, costing O(lost) per ACK instead of O(in-flight).
        """
        cutoff = self._largest_acked - self.config.packet_threshold
        inflight = self._inflight
        lost = []
        for seq in inflight:
            if seq > cutoff:
                break
            lost.append(seq)
        if self._checking:
            self.check.require(
                lost == sorted(seq for seq in inflight if seq <= cutoff),
                "transport:loss_scan_prefix",
                "early-exit loss scan disagrees with the full in-flight "
                "scan (in-flight packets out of seq order)",
                time_ms=self.loop.now,
                cutoff=cutoff,
                lost=lost,
            )
        if not lost:
            return
        newly_entered_recovery = False
        for seq in lost:
            sent = inflight.pop(seq)
            self._bytes_in_flight -= sent.size_bytes
            self.stats.data_packets_lost += 1
            if self._tracing:
                self.tracer.packet_lost(self.loop.now, seq, "packet_threshold")
            self._retx_queue.append((sent.chunks[0], sent.conn_start))
            if seq > self._recovery_until_seq:
                newly_entered_recovery = True
        if newly_entered_recovery:
            # One congestion response per round trip worth of losses.
            self.cc.on_loss(self.loop.now)
            self._recovery_until_seq = self._largest_sent
            if self._tracing:
                self._trace_metrics(force=True)
            if self._sampling:
                self.sampler.on_loss(self)

    def _arm_pto(self) -> None:
        # RFC 9002 §6.2.1: the peer may legitimately sit on an ACK for
        # up to max_ack_delay, so the probe timeout budgets for it.
        # The timer is lazy (see Timer): pushing the deadline later on
        # every ACK only overwrites it; an earlier deadline reschedules.
        timeout = (self.rtt.rto_ms + self.config.max_ack_delay_ms) * self._pto_backoff
        self._pto_timer.start(timeout)

    def on_path_migration(self) -> None:
        """The client's address changed and this connection migrated.

        RFC 9002 §6.2.2 / RFC 9000 §9.4: the old path's backoff says
        nothing about the new path, so validating it resets the PTO
        backoff; re-arming from the fresh backoff probes the new path
        promptly instead of waiting out a timer that exponential
        backoff armed before the address change.
        """
        self._pto_backoff = 1
        if self._inflight:
            self._arm_pto()

    def _on_pto(self) -> None:
        if not self._inflight:
            return
        self.stats.rto_events += 1
        if self._tracing:
            self.tracer.event(
                self.loop.now, "recovery:pto_fired", backoff=self._pto_backoff
            )
        self._pto_backoff = min(self._pto_backoff * 2, 64)
        # RFC 9002 §7.4: a probe timeout does NOT collapse the window;
        # only *persistent* congestion (consecutive timeouts with no
        # intervening ack) does.  Modern TCP behaves similarly via tail
        # loss probes.
        if self._pto_backoff > 2:
            self.cc.on_rto(self.loop.now)
        oldest_seq = next(iter(self._inflight))  # seq order: first is oldest
        oldest = self._inflight.pop(oldest_seq)
        self._bytes_in_flight -= oldest.size_bytes
        self.stats.data_packets_lost += 1
        if self._tracing:
            self.tracer.packet_lost(self.loop.now, oldest_seq, "pto")
            self._trace_metrics(force=True)
        if self._sampling:
            self.sampler.on_loss(self)
        self._retx_queue.append((oldest.chunks[0], oldest.conn_start))
        if oldest_seq > self._recovery_until_seq:
            self._recovery_until_seq = self._largest_sent
        self._try_send()
        if self._inflight:
            self._arm_pto()

    # ------------------------------------------------------------------
    # Client: receiving response data
    # ------------------------------------------------------------------

    def _client_on_data(self, pkt: Packet) -> None:
        # Receipt, not delivery, drives acking — this is what lets the
        # sender learn about gaps while the receiver is HoL-blocked.
        # ACKs are batched: every ``ack_frequency`` packets in the smooth
        # case, immediately on any sequence anomaly (a gap means loss
        # detection is waiting on this ACK), with a max_ack_delay timer
        # backstop so tail packets are never acked late.
        seq = pkt.seq
        if self._tracing:
            self.tracer.packet_received(
                self.loop.now, seq, pkt.size_bytes, pkt.retransmission
            )
        out_of_order = seq != self._ack_largest_received + 1
        if seq > self._ack_largest_received:
            self._ack_largest_received = seq
        self._ack_pending.append(seq)
        self._ack_last_recv_at = self.loop.now
        if (
            out_of_order
            or pkt.retransmission
            or len(self._ack_pending) >= self.config.ack_frequency
        ):
            self._flush_acks()
        elif not self._ack_timer.armed:
            self._ack_timer.start(self.config.max_ack_delay_ms)
        self._on_data_packet_received(pkt)

    def _flush_acks(self) -> None:
        """Send one ACK covering every pending data-packet number."""
        if not self._ack_pending:
            return
        self._ack_timer.stop()
        pending = tuple(sorted(self._ack_pending))
        self._ack_pending.clear()
        ack = Packet(
            PacketKind.ACK,
            ack_seq=pending[-1],
            sack=pending,
            ack_delay_ms=self.loop.now - self._ack_last_recv_at,
        )
        self.path.send_to_server(ack, self._server_on_ack)

    def _on_data_packet_received(self, pkt: Packet) -> None:
        """Subclass hook: buffer/reorder and eventually deliver chunks."""
        raise NotImplementedError

    def _deliver_chunk(self, chunk: StreamChunk) -> None:
        """Hand in-order stream bytes to the application layer."""
        stream = self.streams.get(chunk.stream_id)
        if stream is None:
            return
        if self._checking:
            self.check.require(
                chunk.size > 0,
                "stream:chunk_positive",
                "delivered an empty stream chunk",
                time_ms=self.loop.now,
                stream_id=chunk.stream_id,
                offset=chunk.offset,
            )
            self.check.require(
                stream.received + chunk.size <= stream.response_bytes,
                "stream:byte_conservation",
                "delivered more bytes than the response holds "
                "(overlapping or duplicated chunks)",
                time_ms=self.loop.now,
                stream_id=chunk.stream_id,
                received=stream.received,
                chunk_size=chunk.size,
                response_bytes=stream.response_bytes,
            )
        if stream.t_first_byte is None:
            stream.t_first_byte = self.loop.now
            if stream.on_first_byte is not None:
                stream.on_first_byte(self.loop.now)
        stream.received += chunk.size
        if stream.received >= stream.response_bytes and stream.t_complete is None:
            if self._checking:
                self.check.require(
                    stream.received == stream.response_bytes,
                    "stream:byte_conservation",
                    "stream completed with delivered != requested bytes",
                    time_ms=self.loop.now,
                    stream_id=chunk.stream_id,
                    received=stream.received,
                    response_bytes=stream.response_bytes,
                )
            stream.t_complete = self.loop.now
            if self._tracing:
                self.tracer.event(
                    self.loop.now, "http:stream_closed",
                    stream_id=stream.stream_id,
                    first_byte_ms=(stream.t_first_byte or 0.0) - stream.opened_at,
                    duration_ms=self.loop.now - stream.opened_at,
                )
            if stream.on_complete is not None:
                stream.on_complete(self.loop.now)

    def _trace_metrics(self, force: bool = False) -> None:
        """Emit a qlog ``recovery:metrics_updated`` event.

        Unless forced (loss/PTO), events are rate-limited to ≥1-MSS cwnd
        changes so per-ack sampling keeps traces bounded.
        """
        cwnd = self.cc.cwnd_bytes
        if not force and abs(cwnd - self._traced_cwnd) < self.config.mss:
            return
        self._traced_cwnd = cwnd
        self.tracer.metrics_updated(
            self.loop.now,
            cwnd,
            getattr(self.cc, "ssthresh_bytes", None),
            self._bytes_in_flight,
        )

    def close(self) -> None:
        """Tear down timers; the connection cannot be used afterwards."""
        self.closed = True
        self._pto_timer.stop()
        self._hs_timer.stop()
        self._ack_timer.stop()
        self._ack_pending.clear()
        for pending in self._pending_requests.values():
            pending.timer.stop()
        self._pending_requests.clear()

    def __repr__(self) -> str:
        state = "established" if self.established else "connecting"
        return f"<{type(self).__name__} {self.name} {state} streams={len(self.streams)}>"
