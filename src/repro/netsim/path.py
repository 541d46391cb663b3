"""A bidirectional probe↔server path built from two links.

Transports talk to a :class:`NetworkPath`, never to links directly:
``send_to_server`` / ``send_to_client`` push packets in each direction.
A path is created from a :class:`~repro.netsim.netem.NetemProfile`, the
declarative description of the conditions the paper imposes with
``tc netem``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.loss import make_loss_model
from repro.netsim.netem import NetemProfile
from repro.netsim.packet import Packet


class NetworkPath:
    """Two half-duplex links modelling one probe↔server round trip."""

    #: A direct path carries UDP end-to-end, so an H3 handshake can
    #: complete without downgrade (proxy topologies may override this).
    h3_passthrough = True

    def __init__(
        self,
        loop: EventLoop,
        profile: NetemProfile,
        rng: random.Random | None = None,
        name: str = "path",
    ) -> None:
        self.loop = loop
        self.profile = profile
        self.name = name
        rng = rng if rng is not None else random.Random(0)
        # Derive independent per-direction RNG streams from the caller's
        # seed so uplink loss does not perturb downlink jitter draws.
        up_rng = random.Random(rng.getrandbits(64))
        down_rng = random.Random(rng.getrandbits(64))
        self.uplink = Link(
            loop,
            delay_ms=profile.delay_ms,
            rate_mbps=profile.rate_mbps,
            loss=make_loss_model(profile.loss_rate, profile.bursty_loss),
            jitter_ms=profile.jitter_ms,
            rng=up_rng,
            name=f"{name}-up",
        )
        self.downlink = Link(
            loop,
            delay_ms=profile.delay_ms,
            rate_mbps=profile.rate_mbps,
            loss=make_loss_model(profile.loss_rate, profile.bursty_loss),
            jitter_ms=profile.jitter_ms,
            rng=down_rng,
            name=f"{name}-down",
        )

    @property
    def rtt_ms(self) -> float:
        """Base round-trip time of the path."""
        return self.profile.rtt_ms

    def send_to_server(
        self, packet: Packet, on_deliver: Callable[[Packet], None]
    ) -> bool:
        """Client → server direction; returns ``False`` on drop."""
        return self.uplink.transmit(packet, on_deliver)

    def send_to_client(
        self, packet: Packet, on_deliver: Callable[[Packet], None]
    ) -> bool:
        """Server → client direction; returns ``False`` on drop."""
        return self.downlink.transmit(packet, on_deliver)

    def total_bytes_transferred(self) -> int:
        """Bytes delivered in both directions (ethics accounting)."""
        return self.uplink.stats.delivered_bytes + self.downlink.stats.delivered_bytes

    def __repr__(self) -> str:
        return f"<NetworkPath {self.name} rtt={self.rtt_ms}ms {self.profile.loss_rate:.3%} loss>"
