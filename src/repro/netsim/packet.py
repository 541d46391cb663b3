"""Packet and stream-chunk datatypes shared by TCP and QUIC models.

A :class:`Packet` is what traverses a :class:`~repro.netsim.link.Link`.
Its payload is a list of :class:`StreamChunk` records describing which
application streams' bytes it carries.  TCP and QUIC differ in how the
*receiver* releases those chunks (in byte-stream order vs per stream) —
the packet format itself is shared.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

#: Conventional Ethernet-ish maximum segment size used by both transports.
DEFAULT_MSS = 1460

#: Size in bytes we charge for a packet with no payload (headers only).
HEADER_BYTES = 40

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Coarse classification of a packet's role."""

    HANDSHAKE = "handshake"
    DATA = "data"
    ACK = "ack"
    TICKET = "ticket"


@dataclass(frozen=True, slots=True, init=False)
class StreamChunk:
    """A contiguous run of one stream's bytes carried by a packet.

    ``offset`` is the stream-relative byte offset; ``fin`` marks the last
    chunk of the stream.

    Every data packet builds one, so construction is a single frame:
    validation and the frozen fields' ``object.__setattr__`` stores
    live in one hand-written ``__init__`` (a generated ``__init__``
    plus ``__post_init__`` costs two).
    """

    stream_id: int
    offset: int
    size: int
    fin: bool = False

    def __init__(
        self, stream_id: int, offset: int, size: int, fin: bool = False
    ) -> None:
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"chunk offset must be >= 0, got {offset}")
        setattr_ = object.__setattr__
        setattr_(self, "stream_id", stream_id)
        setattr_(self, "offset", offset)
        setattr_(self, "size", size)
        setattr_(self, "fin", fin)

    @property
    def end(self) -> int:
        """One past the last stream byte in this chunk."""
        return self.offset + self.size


class Packet:
    """A simulated packet.

    ``seq`` is a transport-assigned packet number (QUIC-style: unique,
    monotonically increasing, never reused even for retransmissions; the
    TCP model also tracks byte ranges via chunks).  ``ack_seq`` is used by
    ACK packets to carry cumulative/summary acknowledgement state:
    ``ack_seq`` is the largest packet number covered and ``sack`` lists
    every packet number the ACK acknowledges (QUIC-style ranges,
    flattened).  ``ack_delay_ms`` reports how long the receiver held the
    ACK back (RFC 9002 §5.3) so the sender can exclude delayed-ack time
    from its RTT samples.

    ``payload_bytes`` (total stream bytes carried) and ``size_bytes``
    (payload plus :data:`HEADER_BYTES`, unless given explicitly) are
    computed once here: every packet is sized on each link hop and in
    the sender's in-flight accounting, so re-summing the chunks per read
    would dominate the per-packet cost.  ``chunks`` is therefore treated
    as immutable after construction.
    """

    __slots__ = (
        "kind",
        "seq",
        "chunks",
        "ack_seq",
        "sack",
        "ack_delay_ms",
        "payload_bytes",
        "size_bytes",
        "uid",
        "sent_at",
        "retransmission",
        "conn_start",
    )

    def __init__(
        self,
        kind: PacketKind,
        seq: int = -1,
        chunks: tuple[StreamChunk, ...] = (),
        ack_seq: int = -1,
        sack: tuple[int, ...] = (),
        ack_delay_ms: float = 0.0,
        size_bytes: int = 0,
        uid: int | None = None,
        sent_at: float = -1.0,
        retransmission: bool = False,
        conn_start: int = -1,
    ) -> None:
        self.kind = kind
        self.seq = seq
        self.chunks = chunks
        self.ack_seq = ack_seq
        self.sack = sack
        self.ack_delay_ms = ack_delay_ms
        payload = 0
        for chunk in chunks:
            payload += chunk.size
        self.payload_bytes = payload
        self.size_bytes = size_bytes if size_bytes > 0 else HEADER_BYTES + payload
        self.uid = next(_packet_ids) if uid is None else uid
        self.sent_at = sent_at
        self.retransmission = retransmission
        #: TCP models use this: position of the packet's payload in the
        #: connection-wide byte stream (the receiver reassembles in this
        #: order, which is what produces head-of-line blocking).
        self.conn_start = conn_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chunks = ",".join(
            f"s{c.stream_id}[{c.offset}:{c.end}{'F' if c.fin else ''}]"
            for c in self.chunks
        )
        return f"<Packet {self.kind.value} seq={self.seq} {chunks}>"
