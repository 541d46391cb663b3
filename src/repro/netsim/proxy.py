"""Multi-segment path topologies: client → proxy → edge.

The paper's comparison assumes a direct client↔edge path, but real
deployments often interpose a forward proxy — an enterprise CONNECT
tunnel, a privacy relay, a carrier gateway.  Proxies change which
protocol actually runs on each segment and therefore invert several of
the paper's H3-vs-H2 findings ("Performance Comparison of HTTP/3 and
HTTP/2 with Proxy Integration", PAPERS.md).  This module models two
proxy families:

``connect-tunnel``
    A CONNECT-style HTTP/2 tunnel.  The proxy terminates TCP per hop
    and only relays TCP byte streams, so a client's H3 (QUIC-over-UDP)
    attempt cannot traverse it: the pool downgrades the fetch to
    H2-over-the-tunnel and records a ``proxy:h3_downgrade`` trace.
``masque-relay``
    A MASQUE-style UDP relay (CONNECT-UDP).  QUIC datagrams are
    forwarded end-to-end, so H3 runs client↔edge through the relay and
    keeps its connection-ID semantics (including migration).

A :class:`SegmentedPath` chains one :class:`~repro.netsim.link.Link`
pair per segment with an independent
:class:`~repro.netsim.netem.NetemProfile` each — the access network to
the proxy and the proxy↔edge leg usually have very different loss and
latency.  Packets are forwarded store-and-forward at each hop (plus an
optional per-hop processing delay), so queueing builds up per segment
exactly as it would on a chain of real links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.loss import make_loss_model
from repro.netsim.netem import NetemProfile
from repro.netsim.packet import Packet

#: Canonical proxy model identifiers (CLI / scenario vocabulary).
PROXY_MODELS = ("connect-tunnel", "masque-relay")


def _default_client_profile() -> NetemProfile:
    # A short access leg to a nearby proxy: lower delay than the
    # default 15 ms edge profile, same bottleneck rate.
    return NetemProfile(delay_ms=8.0, rate_mbps=50.0)


@dataclass(frozen=True)
class ProxyConfig:
    """Declarative description of a proxy hop on the probe's path.

    Attributes
    ----------
    model:
        One of :data:`PROXY_MODELS` — ``connect-tunnel`` (TCP-only,
        H3 downgrades at the proxy) or ``masque-relay`` (UDP relay,
        QUIC end-to-end).
    client_profile:
        Netem conditions of the client→proxy access segment.  The
        campaign's vantage/loss/rate shaping applies to the proxy→edge
        segment, mirroring where ``tc netem`` impairment sits in the
        paper's testbed.
    forward_delay_ms:
        Per-hop proxy processing delay added when a packet is relayed
        onto the next segment.
    cache_mb:
        Size of a proxy-side response cache in MiB (0 disables it).
        Only meaningful for ``connect-tunnel`` proxies, which terminate
        the client's TCP stream and can therefore serve repeat fetches
        themselves — a MASQUE relay forwards opaque end-to-end QUIC and
        cannot cache.  Hits are counted in pool stats
        (``proxy_cache_hits``).
    """

    model: str = "connect-tunnel"
    client_profile: NetemProfile = field(default_factory=_default_client_profile)
    forward_delay_ms: float = 0.0
    cache_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in PROXY_MODELS:
            raise ValueError(
                f"model must be one of {PROXY_MODELS}, got {self.model!r}"
            )
        if self.forward_delay_ms < 0:
            raise ValueError(
                f"forward_delay_ms must be >= 0, got {self.forward_delay_ms}"
            )
        if self.cache_mb < 0:
            raise ValueError(f"cache_mb must be >= 0, got {self.cache_mb}")

    @property
    def h3_passthrough(self) -> bool:
        """Whether an end-to-end QUIC handshake can traverse the proxy."""
        return self.model == "masque-relay"


class SegmentedPath:
    """A probe↔server path relayed across two or more segments.

    Each segment gets its own uplink/downlink :class:`Link` pair built
    from its own :class:`NetemProfile`; a packet traverses segment 0's
    uplink, is forwarded (store-and-forward, plus ``forward_delay_ms``)
    onto segment 1's uplink, and so on — downstream runs the reverse
    chain.  A drop on *any* segment loses the packet; only the first
    hop's verdict is returned to the sender (later drops are silent,
    as they would be for a real sender that cannot observe a remote
    segment).

    ``uplink``/``downlink`` alias the **client segment's** links so
    existing single-path consumers — the link sampler attachment,
    ethics byte accounting, probe NIC throughput — observe the client's
    network interface, which is what they mean to measure.
    """

    def __init__(
        self,
        loop: EventLoop,
        segments: tuple[NetemProfile, ...],
        rng: random.Random | None = None,
        name: str = "segpath",
        forward_delay_ms: float = 0.0,
        proxy_model: str | None = None,
    ) -> None:
        if len(segments) < 2:
            raise ValueError(
                f"SegmentedPath needs >= 2 segments, got {len(segments)}"
            )
        self.loop = loop
        self.segments = tuple(segments)
        self.name = name
        self.forward_delay_ms = forward_delay_ms
        #: ``connect-tunnel`` / ``masque-relay`` / None (plain chain).
        self.proxy_model = proxy_model
        rng = rng if rng is not None else random.Random(0)
        self.uplinks: list[Link] = []
        self.downlinks: list[Link] = []
        # Per-segment RNG streams derive in a fixed order (seg-up then
        # seg-down, client outward) so adding a segment never perturbs
        # the draws of the ones before it.
        for index, profile in enumerate(self.segments):
            for direction, bucket in (("up", self.uplinks), ("down", self.downlinks)):
                bucket.append(
                    Link(
                        loop,
                        delay_ms=profile.delay_ms,
                        rate_mbps=profile.rate_mbps,
                        loss=make_loss_model(profile.loss_rate, profile.bursty_loss),
                        jitter_ms=profile.jitter_ms,
                        rng=random.Random(rng.getrandbits(64)),
                        name=f"{name}-seg{index}-{direction}",
                    )
                )
        # Single-path consumers (samplers, ethics accounting) see the
        # client NIC: segment 0 in both directions.
        self.uplink = self.uplinks[0]
        self.downlink = self.downlinks[0]
        # Downstream traverses the chain edge→client.
        self._down_chain = list(reversed(self.downlinks))

    @property
    def h3_passthrough(self) -> bool:
        """UDP traverses the chain only through a MASQUE-style relay."""
        return self.proxy_model != "connect-tunnel"

    @property
    def profile(self) -> NetemProfile:
        """The edge-facing segment's profile (campaign shaping leg)."""
        return self.segments[-1]

    @property
    def rtt_ms(self) -> float:
        """Base round trip: every segment's RTT plus per-hop relays."""
        hops = len(self.segments) - 1
        return (
            sum(profile.rtt_ms for profile in self.segments)
            + 2.0 * self.forward_delay_ms * hops
        )

    # -- forwarding chain ----------------------------------------------

    def _forward(
        self,
        chain: list[Link],
        hop: int,
        packet: Packet,
        on_deliver: Callable[[Packet], None],
    ) -> bool:
        link = chain[hop]
        if hop == len(chain) - 1:
            return link.transmit(packet, on_deliver)

        def relay(pkt: Packet) -> None:
            if self.forward_delay_ms > 0:
                self.loop.call_later(
                    self.forward_delay_ms,
                    self._forward, chain, hop + 1, pkt, on_deliver,
                )
            else:
                self._forward(chain, hop + 1, pkt, on_deliver)

        return link.transmit(packet, relay)

    def send_to_server(
        self, packet: Packet, on_deliver: Callable[[Packet], None]
    ) -> bool:
        """Client → proxy → … → server; ``False`` only on first-hop drop."""
        return self._forward(self.uplinks, 0, packet, on_deliver)

    def send_to_client(
        self, packet: Packet, on_deliver: Callable[[Packet], None]
    ) -> bool:
        """Server → … → proxy → client; ``False`` only on first-hop drop."""
        return self._forward(self._down_chain, 0, packet, on_deliver)

    def total_bytes_transferred(self) -> int:
        """Bytes delivered on the client segment (probe NIC accounting).

        Matching :meth:`NetworkPath.total_bytes_transferred`, this
        reports what crossed the *probe's* interface — relay traffic on
        interior segments is the proxy operator's bill, not the
        probe's.
        """
        return self.uplink.stats.delivered_bytes + self.downlink.stats.delivered_bytes

    def __repr__(self) -> str:
        model = self.proxy_model or "chain"
        return (
            f"<SegmentedPath {self.name} {model} "
            f"{len(self.segments)} segments rtt={self.rtt_ms}ms>"
        )
