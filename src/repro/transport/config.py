"""Tunable constants shared by the TCP and QUIC models."""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.packet import DEFAULT_MSS


@dataclass(frozen=True)
class TransportConfig:
    """Knobs for connection behaviour.

    Defaults follow common stack behaviour (RFC 6928 initial window of
    10 segments, QUIC's packet-threshold loss detection of 3).
    """

    #: Maximum segment size in bytes (payload per packet).
    mss: int = DEFAULT_MSS
    #: Initial congestion window, in segments (RFC 6928).
    initial_cwnd_packets: int = 10
    #: Initial retransmission timeout before an RTT sample exists.
    initial_rto_ms: float = 200.0
    #: Lower bound for the probe/retransmission timeout.
    min_rto_ms: float = 25.0
    #: Packet-reordering threshold for loss declaration (RFC 9002 §6.1.1).
    packet_threshold: int = 3
    #: Give up on a handshake after this many retransmissions.
    max_handshake_retries: int = 10
    #: Give up on a request packet after this many retransmissions.
    max_request_retries: int = 10
    #: Congestion controller name: ``"newreno"`` or ``"cubic"``.
    congestion_control: str = "newreno"
    #: Whether resumed TCP+TLS1.3 connections send the request as 0-RTT
    #: early data.  Browsers ship with this OFF (replay concerns), which
    #: is why H2 resumption saves no round trip while H3's 0-RTT saves
    #: one — the asymmetry behind the paper's Fig. 8.  Enable for the
    #: ablation bench.
    tls13_early_data: bool = False
    #: Maximum connection handshakes a browser profile runs at once
    #: (socket-pool and TLS-CPU throttling, as in Chrome).  Additional
    #: connection setups queue; 0-RTT resumed QUIC connections need no
    #: handshake and bypass the queue entirely.
    max_concurrent_handshakes: int = 6
    #: Acknowledge every Nth data packet (QUIC ACK-frequency / TCP
    #: delayed acks).  A sequence gap flushes immediately so loss
    #: detection keeps its timing (RFC 9000 §13.2.1); 1 acks every
    #: packet.
    ack_frequency: int = 2
    #: Longest a receiver may sit on an unacknowledged data packet
    #: before flushing an ACK anyway (RFC 9000 max_ack_delay).
    max_ack_delay_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.initial_cwnd_packets <= 0:
            raise ValueError("initial_cwnd_packets must be positive")
        if self.packet_threshold < 1:
            raise ValueError("packet_threshold must be >= 1")
        if self.ack_frequency < 1:
            raise ValueError("ack_frequency must be >= 1")
        if self.max_ack_delay_ms < 0:
            raise ValueError("max_ack_delay_ms must be >= 0")
