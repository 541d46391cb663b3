"""QUIC connection model: the substrate for HTTP/3.

The two H3 strengths the paper analyses map to two properties here:

* **Fast connection.**  QUIC merges the transport and TLS 1.3 handshakes
  into a single round trip; with a cached session ticket the client
  sends 0-RTT application data immediately (``resumed=True`` yields a
  zero-flight handshake and ``connect`` time of 0).
* **Stream multiplexing.**  Each stream is reassembled independently:
  a lost packet delays only the stream whose bytes it carried, so
  unrelated resources keep flowing — no transport head-of-line blocking.
"""

from __future__ import annotations

from repro.netsim.packet import Packet, StreamChunk
from repro.transport.base import BaseConnection


class QuicConnection(BaseConnection):
    """A QUIC (RFC 9000) connection between one probe and one server."""

    protocol_name = "quic"

    def __init__(self, *args, resumed: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.resumed = resumed
        # Per-stream reassembly state: next expected offset and a buffer
        # of out-of-order chunks keyed by offset.
        self._stream_rcv_next: dict[int, int] = {}
        self._stream_buffers: dict[int, dict[int, StreamChunk]] = {}
        # Stream id → when its (stream-local) stall began.  QUIC stalls
        # never cross streams — that is the HoL-freedom being measured.
        self._stream_stall_started: dict[int, float] = {}

    def _handshake_flights(self) -> int:
        # Full handshake: QUIC-TLS completes in one round trip (the
        # transport handshake is folded into the TLS 1.3 exchange).
        # Resumed: 0-RTT — request data rides the first flight.
        return 0 if self.resumed else 1

    @property
    def ssl_ms(self) -> float | None:
        """QUIC-TLS is integral to the handshake: all of connect is 'ssl'."""
        if self.handshake is None:
            return None
        return self.handshake.connect_ms

    # ------------------------------------------------------------------
    # Per-stream (HoL-free) delivery
    # ------------------------------------------------------------------

    def _on_data_packet_received(self, pkt: Packet) -> None:
        (chunk,) = pkt.chunks  # a data packet carries one stream chunk
        stream_id = chunk.stream_id
        offset = chunk.offset
        expected = self._stream_rcv_next.get(stream_id, 0)
        if offset < expected:
            return  # duplicate
        if offset > expected:
            # Gap *within this stream only*: other streams unaffected.
            buffer = self._stream_buffers.setdefault(stream_id, {})
            if offset not in buffer:
                if not buffer:
                    # This one stream just became blocked on a gap.
                    self._stream_stall_started[stream_id] = self.loop.now
                    if self._tracing:
                        self.tracer.event(
                            self.loop.now, "transport:hol_stall_started",
                            stream_id=stream_id, blocked_from=expected,
                        )
                buffer[offset] = chunk
                self.stats.hol_blocked_chunks += 1
            return
        # In order: deliver it, then every buffered chunk the gap was
        # holding back, in stream order.
        buffer = self._stream_buffers.get(stream_id)
        while chunk is not None:
            self._deliver_chunk(chunk)
            expected = chunk.offset + chunk.size
            chunk = buffer.pop(expected, None) if buffer else None
        self._stream_rcv_next[stream_id] = expected
        if not buffer:
            started = self._stream_stall_started.pop(stream_id, None)
            if started is not None:
                duration = self.loop.now - started
                self.stats.hol_stalls += 1
                self.stats.hol_stall_ms += duration
                if self._tracing:
                    self.tracer.event(
                        self.loop.now, "transport:hol_stall_ended",
                        stream_id=stream_id, duration_ms=duration,
                    )

    @property
    def buffered_chunks(self) -> int:
        """Out-of-order chunks currently held (diagnostics)."""
        return sum(len(b) for b in self._stream_buffers.values())
