"""Per-origin connection pooling with Chrome-like reuse rules.

Pooling is the mechanism behind two of the paper's findings:

* **Reused connections** (Fig. 7): all requests to a host after the
  connection-opening one ride the existing connection and report a
  connect time of 0 — exactly the paper's criterion for a "reused HTTP
  connection" in the Chrome-HAR data.  H1.1 opens up to six parallel
  connections per host and serializes requests on each; H2/H3 multiplex
  everything over a single connection per (host, protocol).
* **Resumed connections** (Fig. 8): when a session ticket is cached for
  the host, new connections are created in resumed mode (H3: 0-RTT;
  H2+TLS1.3: TCP round trip only), and fresh tickets are stored after
  every full handshake.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Protocol

from repro.check.context import EPSILON_MS, NULL_CHECK
from repro.events import EventLoop, ScheduledEvent, Timer
from repro.http.messages import EntryTiming, FetchRecord, HttpProtocol
from repro.netsim.path import NetworkPath
from repro.tls.session_cache import SessionTicketCache
from repro.transport.base import BaseConnection
from repro.transport.config import TransportConfig
from repro.transport.quic import QuicConnection
from repro.transport.tcp import TcpConnection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.inject import FaultInjector
    from repro.http.alt_svc import AltSvcCache


class Server(Protocol):
    """What the pool needs from an edge/origin server."""

    hostname: str
    tls_version: object
    issues_tickets: bool

    def serve(self, resource_key: str, size_bytes: int, protocol: str):
        ...  # pragma: no cover - protocol stub


@dataclass
class PoolStats:
    """Counters the analyses read after a page visit.

    The fault-era fields (``failed_requests`` onward) serialize only
    when nonzero, so visit payloads from fault-free runs stay
    byte-identical to the pre-fault format.
    """

    requests: int = 0
    connections_created: int = 0
    resumed_connections: int = 0
    reused_requests: int = 0
    zero_rtt_connections: int = 0
    failed_requests: int = 0
    retried_requests: int = 0
    h3_fallbacks: int = 0
    connect_timeouts: int = 0
    connection_resets: int = 0
    quic_migrations: int = 0
    migration_reconnects: int = 0
    proxy_h3_downgrades: int = 0
    proxy_cache_hits: int = 0

    def merged_with(self, other: "PoolStats") -> "PoolStats":
        # Derived from the dataclass fields so a future counter can
        # never be silently dropped from the merge (the drift that bit
        # to_dict/from_dict when the fault-era fields landed).
        return PoolStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def to_dict(self) -> dict[str, int]:
        payload = {
            "requests": self.requests,
            "connectionsCreated": self.connections_created,
            "resumedConnections": self.resumed_connections,
            "reusedRequests": self.reused_requests,
            "zeroRttConnections": self.zero_rtt_connections,
        }
        if self.failed_requests:
            payload["failedRequests"] = self.failed_requests
        if self.retried_requests:
            payload["retriedRequests"] = self.retried_requests
        if self.h3_fallbacks:
            payload["h3Fallbacks"] = self.h3_fallbacks
        if self.connect_timeouts:
            payload["connectTimeouts"] = self.connect_timeouts
        if self.connection_resets:
            payload["connectionResets"] = self.connection_resets
        if self.quic_migrations:
            payload["quicMigrations"] = self.quic_migrations
        if self.migration_reconnects:
            payload["migrationReconnects"] = self.migration_reconnects
        if self.proxy_h3_downgrades:
            payload["proxyH3Downgrades"] = self.proxy_h3_downgrades
        if self.proxy_cache_hits:
            payload["proxyCacheHits"] = self.proxy_cache_hits
        return payload

    @classmethod
    def from_dict(cls, raw: dict[str, int]) -> "PoolStats":
        return cls(
            requests=raw.get("requests", 0),
            connections_created=raw.get("connectionsCreated", 0),
            resumed_connections=raw.get("resumedConnections", 0),
            reused_requests=raw.get("reusedRequests", 0),
            zero_rtt_connections=raw.get("zeroRttConnections", 0),
            failed_requests=raw.get("failedRequests", 0),
            retried_requests=raw.get("retriedRequests", 0),
            h3_fallbacks=raw.get("h3Fallbacks", 0),
            connect_timeouts=raw.get("connectTimeouts", 0),
            connection_resets=raw.get("connectionResets", 0),
            quic_migrations=raw.get("quicMigrations", 0),
            migration_reconnects=raw.get("migrationReconnects", 0),
            proxy_h3_downgrades=raw.get("proxyH3Downgrades", 0),
            proxy_cache_hits=raw.get("proxyCacheHits", 0),
        )


@dataclass
class _PendingFetch:
    url: str
    resource_key: str
    request_bytes: int
    response_bytes: int
    server: Server
    protocol: HttpProtocol
    queued_at: float
    on_complete: Callable[[FetchRecord], None]
    reused: bool = True  # openers overwrite this
    weight: int = 1
    #: The network path the fetch was dispatched over; kept so fault
    #: recovery can re-dispatch the fetch on a fresh connection.
    path: NetworkPath | None = None
    #: Recovery retries consumed so far (fault injection only).
    attempts: int = 0
    #: Armed request-timeout timer while the fetch is in flight.
    timer: Timer | None = None
    #: Client Accept-Encoding preference (compression campaigns only;
    #: ``None`` keeps the legacy 3-argument ``serve`` call).
    accept_encoding: tuple[str, ...] | None = None
    #: Resource type ("html", "js", …) for encoding decisions.
    rtype: str | None = None


class _PooledConnection:
    """One live connection plus its pending-request queue."""

    def __init__(self, conn: BaseConnection, protocol: HttpProtocol, host: str) -> None:
        self.conn = conn
        self.protocol = protocol
        self.host = host
        self.established = False
        self.resumed = conn.resumed if hasattr(conn, "resumed") else False
        self.active_streams = 0
        self.pending: deque[_PendingFetch] = deque()
        #: Whether this connection holds a handshake-throttle slot.
        self.handshake_counted = False
        #: When the handshake actually started (post-queue).
        self.connect_started_at = 0.0
        # -- fault-recovery state (inert without an injector) ----------
        #: The fetch that opened this connection (until it is issued).
        self.opener: _PendingFetch | None = None
        #: Coalescing key the connection is registered under.
        self.coalesce_key = host
        #: Fetches currently issued on this connection.
        self.inflight: list[_PendingFetch] = []
        #: Connect-timeout timer (armed while handshaking under faults).
        self.connect_timer: Timer | None = None
        #: Scheduled mid-transfer reset, if the profile scripts one.
        self.reset_event: ScheduledEvent | None = None
        #: Scheduled mid-transfer client address change, if scripted.
        self.migration_event: ScheduledEvent | None = None
        #: Set once the connection is torn down by fault recovery;
        #: late callbacks from the dead connection check it and bail.
        self.failed = False
        #: Open ``phase:connect`` span id while handshaking (spans only).
        self.connect_span: int | None = None

    @property
    def busy(self) -> bool:
        """H1.1 connections serve one request at a time."""
        return not self.protocol.multiplexes and self.active_streams > 0


class ConnectionPool:
    """Connection pool for one browser profile.

    The pool is created fresh for every page visit ("all connections
    are terminated" between visits, Section III-B); the session-ticket
    cache passed in may outlive it (consecutive-visit mode).
    """

    H1_MAX_PER_HOST = 6

    def __init__(
        self,
        loop: EventLoop,
        session_cache: SessionTicketCache | None = None,
        transport_config: TransportConfig | None = None,
        rng: random.Random | None = None,
        use_session_tickets: bool = True,
        obs=None,
        faults: "FaultInjector | None" = None,
        alt_svc: "AltSvcCache | None" = None,
        check=None,
        proxy_cache=None,
    ) -> None:
        self.loop = loop
        #: Invariant checker (strict mode); the falsy null check keeps
        #: every ``if self.check:`` guard a single bool test.
        self.check = check if check is not None else NULL_CHECK
        self.session_cache = session_cache if session_cache is not None else SessionTicketCache()
        self.transport_config = transport_config or TransportConfig()
        self.rng = rng or random.Random(0)
        self.use_session_tickets = use_session_tickets
        #: Optional :class:`repro.obs.ObsContext`; supplies per-connection
        #: tracers/samplers and receives pool/transport counters at
        #: teardown.
        self.obs = obs
        #: Span recorder for the current visit (pools are per-visit, so
        #: caching the recorder here is safe), or None when spans are off.
        self._spans = obs.spans if obs is not None else None
        #: Optional :class:`repro.faults.FaultInjector`.  ``None`` keeps
        #: every recovery hook dormant — no timers, no path wrapping, no
        #: extra bookkeeping — so fault-free runs stay bit-identical.
        self.faults = faults
        #: The browser's Alt-Svc cache; H3 connect failures demote the
        #: opener's host here so later visits skip straight to TCP.
        self.alt_svc = alt_svc
        #: Coalesce keys whose H3 lane is dead for this pool's lifetime.
        self._h3_broken_keys: set[str] = set()
        #: Coalesce keys whose H3 attempt a TCP-only proxy already
        #: downgraded (count/trace once per would-be QUIC connection).
        self._proxy_downgraded_keys: set[str] = set()
        self.stats = PoolStats()
        self._multiplexed: dict[tuple[str, HttpProtocol], _PooledConnection] = {}
        self._h1_conns: dict[str, list[_PooledConnection]] = {}
        self._h1_queues: dict[str, deque[_PendingFetch]] = {}
        # Handshake throttling: browsers bound concurrent connection
        # setups; extra openers queue here (0-RTT bypasses the queue).
        self._active_handshakes = 0
        self._handshake_queue: deque[tuple[_PooledConnection, _PendingFetch]] = deque()
        #: Farm-owned proxy-side response cache (connect-tunnel proxies
        #: with ``cache_mb`` only); outlives this per-visit pool.
        self._proxy_cache = proxy_cache
        #: Lazy :class:`repro.cdn.economics.EconomicsLedger`; created on
        #: the first ServeDecision that carries an economics delta, so
        #: legacy campaigns never touch it.
        self._economics = None
        self._closed = False

    # ------------------------------------------------------------------

    def fetch(
        self,
        server: Server,
        path: NetworkPath,
        protocol: HttpProtocol,
        url: str,
        request_bytes: int,
        response_bytes: int,
        on_complete: Callable[[FetchRecord], None],
        resource_key: str | None = None,
        weight: int = 1,
        accept_encoding: tuple[str, ...] | None = None,
        rtype: str | None = None,
    ) -> None:
        """Fetch one resource; ``on_complete`` receives the record.

        ``weight`` is the stream priority on multiplexed connections.
        ``accept_encoding``/``rtype`` drive server-side compression
        negotiation; ``None`` (the default) keeps the legacy serve path.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.stats.requests += 1
        fetch = _PendingFetch(
            url=url,
            resource_key=resource_key if resource_key is not None else url,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            server=server,
            protocol=protocol,
            queued_at=self.loop.now,
            on_complete=on_complete,
            weight=weight,
            path=path,
            accept_encoding=accept_encoding,
            rtype=rtype,
        )
        if protocol.multiplexes:
            self._fetch_multiplexed(fetch, path)
        else:
            self._fetch_h1(fetch, path)

    def _dispatch(self, fetch: _PendingFetch) -> None:
        """(Re-)dispatch a fetch according to its current protocol.

        Fault recovery re-enters here after retries and H3→H2 fallback;
        the fetch keeps its original path, callback and queue time.
        """
        if self._closed:
            return
        assert fetch.path is not None
        if fetch.protocol.multiplexes:
            self._fetch_multiplexed(fetch, fetch.path)
        else:
            self._fetch_h1(fetch, fetch.path)

    @staticmethod
    def _coalesce_key(server: Server) -> str:
        """Coalescing group: providers' edges share one connection per
        protocol (certificate/IP coalescing); origins stay per-host."""
        return getattr(server, "coalesce_key", None) or server.hostname

    def _fetch_multiplexed(self, fetch: _PendingFetch, path: NetworkPath) -> None:
        if fetch.protocol is HttpProtocol.H3 and not getattr(
            path, "h3_passthrough", True
        ):
            # A CONNECT-style tunnel on the path only relays TCP byte
            # streams: the H3 (QUIC-over-UDP) attempt cannot traverse
            # the proxy and downgrades to H2 over the tunnel.
            self._proxy_downgrade_h3(fetch, path)
            if not fetch.protocol.multiplexes:
                self._fetch_h1(fetch, path)
                return
        if (
            fetch.protocol is HttpProtocol.H3
            and self.faults is not None
            and self._coalesce_key(fetch.server) in self._h3_broken_keys
        ):
            # This coalesce group's QUIC lane already failed: route the
            # fetch straight to TCP instead of re-proving the blackhole.
            fetch.protocol = (
                HttpProtocol.H2
                if getattr(fetch.server, "supports_h2", True)
                else HttpProtocol.H1
            )
            if not fetch.protocol.multiplexes:
                self._fetch_h1(fetch, path)
                return
        key = (self._coalesce_key(fetch.server), fetch.protocol)
        pooled = self._multiplexed.get(key)
        if pooled is None:
            pooled = self._open_connection(fetch, path)
            self._multiplexed[key] = pooled
            return
        if pooled.established:
            self.stats.reused_requests += 1
            self._issue(pooled, fetch, reused=True)
        else:
            # Arrived mid-handshake: waits, then reports connect = 0.
            self.stats.reused_requests += 1
            pooled.pending.append(fetch)

    def _proxy_downgrade_h3(self, fetch: _PendingFetch, path: NetworkPath) -> None:
        """Reroute one H3 fetch to TCP at a non-UDP-capable proxy."""
        fetch.protocol = (
            HttpProtocol.H2
            if getattr(fetch.server, "supports_h2", True)
            else HttpProtocol.H1
        )
        key = self._coalesce_key(fetch.server)
        if key in self._proxy_downgraded_keys:
            return
        # First H3 attempt for this coalesce group: account for the
        # one QUIC connection the proxy refused to carry.
        self._proxy_downgraded_keys.add(key)
        self.stats.proxy_h3_downgrades += 1
        if self.obs is not None:
            self.obs.counters.incr("proxy.h3_downgrades")
            tracer = self.obs.fault_tracer()
            if tracer:
                tracer.event(
                    self.loop.now,
                    "proxy:h3_downgrade",
                    host=fetch.server.hostname,
                    model=getattr(path, "proxy_model", None) or "connect-tunnel",
                )

    def _fetch_h1(self, fetch: _PendingFetch, path: NetworkPath) -> None:
        host = fetch.server.hostname
        conns = self._h1_conns.setdefault(host, [])
        for pooled in conns:
            if pooled.established and not pooled.busy:
                self.stats.reused_requests += 1
                self._issue(pooled, fetch, reused=True)
                return
        if len(conns) < self.H1_MAX_PER_HOST:
            conns.append(self._open_connection(fetch, path))
            return
        self._h1_queues.setdefault(host, deque()).append(fetch)

    # ------------------------------------------------------------------

    def _open_connection(self, opener: _PendingFetch, path: NetworkPath) -> _PooledConnection:
        host = opener.server.hostname
        conn_rng = random.Random(self.rng.getrandbits(64))
        conn_name = (
            f"h3-{host}" if opener.protocol is HttpProtocol.H3 else f"tcp-{host}"
        )
        tracer = (
            self.obs.connection_tracer(conn_name, opener.protocol.value)
            if self.obs is not None
            else None
        )
        has_ticket = False
        if self.use_session_tickets:
            ticket = self.session_cache.lookup(host, self.loop.now)
            if ticket is not None:
                # The server may reject the ticket (key rotation, a
                # different machine behind the load balancer): the
                # connection then falls back to a full handshake.
                accept_rate = getattr(opener.server, "resumption_rate", 1.0)
                has_ticket = conn_rng.random() < accept_rate
            if (
                has_ticket
                and self.faults is not None
                and self.faults.zero_rtt_rejected(host)
            ):
                # Scripted key rotation: the server refuses resumption;
                # the connection pays a full handshake instead.
                has_ticket = False
                self.faults.record_fault("zero_rtt_reject", host)
            if tracer:
                if has_ticket:
                    tracer.event(
                        self.loop.now, "security:session_ticket_hit", host=host
                    )
                elif ticket is not None:
                    tracer.event(
                        self.loop.now, "security:session_ticket_rejected", host=host
                    )
                else:
                    tracer.event(
                        self.loop.now, "security:session_ticket_miss", host=host
                    )
            if ticket is not None and not has_ticket and self.obs is not None:
                self.obs.counters.incr("tls.tickets.rejected")
        sampler = (
            self.obs.connection_sampler(conn_name, opener.protocol.value)
            if self.obs is not None
            else None
        )
        if sampler is not None:
            # Link samplers go on the *unwrapped* path: a fault wrapper
            # proxies the same underlying links, and attachment must
            # survive re-wrapping across retries.
            self.obs.attach_link_sampler(path.downlink)
            self.obs.attach_link_sampler(path.uplink)
        if self.faults is not None:
            # Per-connection fault view: blackouts drop everything, UDP
            # blackholes drop only QUIC packets.
            path = self.faults.wrap_path(
                path, host, quic=opener.protocol is HttpProtocol.H3
            )
        if opener.protocol is HttpProtocol.H3:
            if tracer and has_ticket:
                tracer.event(self.loop.now, "security:zero_rtt_accepted", host=host)
            conn: BaseConnection = QuicConnection(
                self.loop, path, config=self.transport_config,
                rng=conn_rng, resumed=has_ticket, name=conn_name,
                tracer=tracer, check=self.check or None, sampler=sampler,
            )
        else:
            conn = TcpConnection(
                self.loop, path, config=self.transport_config,
                rng=conn_rng, resumed=has_ticket,
                tls_version=opener.server.tls_version, name=conn_name,
                tracer=tracer, check=self.check or None, sampler=sampler,
            )
        pooled = _PooledConnection(conn, opener.protocol, host)
        pooled.resumed = has_ticket
        pooled.coalesce_key = self._coalesce_key(opener.server)
        if self.faults is not None:
            pooled.opener = opener
            conn.on_error = lambda error: self._on_transport_error(pooled)
        self.stats.connections_created += 1
        if has_ticket:
            self.stats.resumed_connections += 1
        opener.reused = False
        # 0-RTT resumed QUIC needs no handshake round trip: it bypasses
        # the browser's handshake throttle.  Everything else competes
        # for a bounded number of concurrent setups.
        zero_rtt = has_ticket and opener.protocol is HttpProtocol.H3
        max_handshakes = self.transport_config.max_concurrent_handshakes
        if zero_rtt or self._active_handshakes < max_handshakes:
            self._start_handshake(pooled, opener, counted=not zero_rtt)
        else:
            self._handshake_queue.append((pooled, opener))
        return pooled

    def _start_handshake(
        self, pooled: _PooledConnection, opener: _PendingFetch, counted: bool = True
    ) -> None:
        pooled.handshake_counted = counted
        pooled.connect_started_at = self.loop.now
        spans = self._spans
        if spans is not None:
            pooled.connect_span = spans.begin(
                "phase", f"connect:{pooled.host}", self.loop.now,
                parent=spans.current_visit,
            )
        if counted:
            self._active_handshakes += 1
        if self.faults is None:
            pooled.conn.connect(
                lambda result: self._on_established(pooled, opener, result)
            )
            return
        # Under fault injection a handshake gets a hard deadline: a
        # blackholed QUIC handshake would otherwise crawl its retry
        # ladder for tens of simulated seconds before giving up.
        pooled.connect_timer = Timer(
            self.loop, lambda: self._on_connect_timeout(pooled)
        )
        pooled.connect_timer.start(self.faults.retry.connect_timeout_ms)
        pooled.conn.connect(
            lambda result: self._on_established(pooled, opener, result),
            on_failed=lambda error: self._on_connect_timeout(pooled),
        )

    def _on_established(self, pooled: _PooledConnection, opener: _PendingFetch, result) -> None:
        if pooled.failed or self._closed:
            return  # fault recovery already tore this connection down
        pooled.established = True
        if self.faults is not None:
            pooled.opener = None
            if pooled.connect_timer is not None:
                pooled.connect_timer.stop()
                pooled.connect_timer = None
            reset_at = self.faults.connection_reset_at(pooled.host)
            if reset_at is not None:
                pooled.reset_event = self.loop.call_at(
                    reset_at, self._on_connection_reset, pooled
                )
            migration = self.faults.migration_at(pooled.host)
            if migration is not None:
                migrate_at, kind = migration
                pooled.migration_event = self.loop.call_at(
                    migrate_at, self._on_migration, pooled, kind
                )
        spans = self._spans
        if spans is not None and pooled.connect_span is not None:
            now = self.loop.now
            spans.end(pooled.connect_span, now)
            ssl_ms = getattr(pooled.conn, "ssl_ms", None)
            if ssl_ms:
                # The TLS share of the handshake, reconstructed from the
                # flight timings (the handshake just completed at `now`).
                spans.add(
                    "phase", f"tls:{pooled.host}", now - ssl_ms, now,
                    parent=pooled.connect_span,
                )
            pooled.connect_span = None
        self._release_handshake_slot(pooled)
        if result.zero_rtt:
            self.stats.zero_rtt_connections += 1
        if self.obs is not None:
            counters = self.obs.counters
            counters.incr("transport.handshakes.completed")
            counters.incr("transport.handshakes.retries", result.retries)
            counters.observe("transport.handshake_ms", result.connect_ms)
            if result.zero_rtt:
                counters.incr("transport.handshakes.zero_rtt")
        if self.use_session_tickets and getattr(opener.server, "issues_tickets", True):
            self.session_cache.store(pooled.host, self.loop.now)
        self._issue(pooled, opener, reused=False, handshake=result)
        while pooled.pending and not pooled.busy:
            self._issue(pooled, pooled.pending.popleft(), reused=True)

    def _release_handshake_slot(self, pooled: _PooledConnection) -> None:
        """Free the handshake-throttle slot and drain the queue."""
        if not pooled.handshake_counted:
            return
        pooled.handshake_counted = False
        self._active_handshakes -= 1
        if self.check:
            self.check.require(
                self._active_handshakes >= 0,
                "pool:handshake_slots_balanced",
                "released more handshake slots than were taken",
                time_ms=self.loop.now,
                active=self._active_handshakes,
            )
        max_handshakes = self.transport_config.max_concurrent_handshakes
        while self._handshake_queue and self._active_handshakes < max_handshakes:
            queued_pooled, queued_opener = self._handshake_queue.popleft()
            self._start_handshake(queued_pooled, queued_opener)

    # -- fault recovery ------------------------------------------------

    def _on_connect_timeout(self, pooled: _PooledConnection) -> None:
        """The handshake deadline expired (or the transport gave up)."""
        if self._closed or pooled.failed or pooled.established:
            return
        self.stats.connect_timeouts += 1
        # Attribute the timeout to its scripted cause so the fault:
        # event family reflects what actually ate the packets.
        if self.faults.blackout(pooled.host):
            self.faults.record_fault("blackout", pooled.host)
        elif pooled.protocol is HttpProtocol.H3 and self.faults.udp_blackholed(
            pooled.host
        ):
            self.faults.record_fault("udp_blackhole", pooled.host)
        self.faults.record_recovery(
            "connect_timeout", pooled.host, protocol=pooled.protocol.value
        )
        pooled.failed = True
        if pooled.connect_timer is not None:
            pooled.connect_timer.stop()
            pooled.connect_timer = None
        pooled.conn.close()
        self._release_handshake_slot(pooled)
        self._remove_pooled(pooled)
        orphans = list(pooled.pending)
        pooled.pending.clear()
        if pooled.opener is not None:
            orphans.insert(0, pooled.opener)
            pooled.opener = None
        if pooled.protocol is HttpProtocol.H3:
            self._demote_h3(pooled, orphans)
        else:
            self._retry_or_fail(orphans, "connect_timeout", kind="connect_retry")

    def _on_connection_reset(self, pooled: _PooledConnection) -> None:
        """A scripted ``connection_reset`` window opened on a live conn."""
        if self._closed or pooled.failed or not pooled.established:
            return
        self.stats.connection_resets += 1
        self.faults.record_fault(
            "connection_reset", pooled.host, streams=len(pooled.inflight)
        )
        self._teardown_established(pooled, "connection_reset")

    def _on_migration(self, pooled: _PooledConnection, kind: str) -> None:
        """The vantage's address changed under a live connection.

        QUIC is identified by connection ID, not by 4-tuple: the
        connection survives the change (packets lost in the rebind gap
        recover by PTO once the new path carries traffic).  TCP *is*
        its 4-tuple — the old connection is dead on arrival of the new
        address, and every stream it carried reconnects from scratch.
        """
        if self._closed or pooled.failed or not pooled.established:
            return
        pooled.migration_event = None
        streams = len(pooled.inflight)
        self.faults.record_fault(kind, pooled.host, streams=streams)
        if pooled.protocol is HttpProtocol.H3:
            self.stats.quic_migrations += 1
            self.faults.record_migration(
                pooled.host, migrated=True,
                protocol=pooled.protocol.value, streams=streams,
            )
            pooled.conn.on_path_migration()
            return
        self.stats.migration_reconnects += 1
        self.faults.record_migration(
            pooled.host, migrated=False,
            protocol=pooled.protocol.value, streams=streams,
        )
        self._teardown_established(pooled, "migration")

    def _on_transport_error(self, pooled: _PooledConnection) -> None:
        """The transport exhausted its own retry budget mid-request."""
        if self._closed or pooled.failed:
            return
        self.faults.record_recovery("request_timeout", pooled.host,
                                    reason="transport_error")
        self._teardown_established(pooled, "transport_error")

    def _on_fetch_timeout(self, pooled: _PooledConnection, fetch: _PendingFetch) -> None:
        """A single request sat in flight past the request deadline.

        The whole connection is treated as dead (a stuck stream means
        the path or peer is gone); every sibling stream re-dispatches.
        """
        if self._closed or pooled.failed:
            return
        self.faults.record_recovery("request_timeout", fetch.server.hostname)
        self._teardown_established(pooled, "request_timeout")

    def _teardown_established(self, pooled: _PooledConnection, reason: str) -> None:
        """Kill a live connection and re-dispatch everything it carried."""
        pooled.failed = True
        if pooled.reset_event is not None:
            pooled.reset_event.cancel()
            pooled.reset_event = None
        if pooled.migration_event is not None:
            pooled.migration_event.cancel()
            pooled.migration_event = None
        pooled.conn.close()
        self._remove_pooled(pooled)
        victims = list(pooled.inflight)
        pooled.inflight.clear()
        victims.extend(pooled.pending)
        pooled.pending.clear()
        for fetch in victims:
            if fetch.timer is not None:
                fetch.timer.stop()
                fetch.timer = None
        if pooled.protocol is HttpProtocol.H3 and reason != "connection_reset":
            # A QUIC connection that died of timeouts points at a
            # UDP-hostile path: demote the whole coalesce group.  Resets
            # hit TCP just as hard, so they retry on the same protocol.
            self._demote_h3(pooled, victims)
        else:
            self._retry_or_fail(victims, reason)

    def _demote_h3(self, pooled: _PooledConnection, orphans: list[_PendingFetch]) -> None:
        """H3→H2 fallback: reroute this coalesce group's fetches to TCP."""
        self._h3_broken_keys.add(pooled.coalesce_key)
        if self.alt_svc is not None:
            self.alt_svc.mark_h3_broken(pooled.host, self.loop.now)
        self.stats.h3_fallbacks += 1
        self.faults.record_recovery(
            "h3_fallback", pooled.host, orphaned=len(orphans)
        )
        for fetch in orphans:
            fetch.protocol = (
                HttpProtocol.H2
                if getattr(fetch.server, "supports_h2", True)
                else HttpProtocol.H1
            )
            self._dispatch(fetch)

    def _retry_or_fail(
        self,
        fetches: list[_PendingFetch],
        reason: str,
        kind: str = "request_retry",
    ) -> None:
        """Back off and re-dispatch, or give up once retries run out."""
        policy = self.faults.retry
        for fetch in fetches:
            host = fetch.server.hostname
            if fetch.attempts < policy.max_retries:
                delay = policy.backoff_ms(fetch.attempts)
                fetch.attempts += 1
                self.stats.retried_requests += 1
                self.faults.record_recovery(
                    kind, host, attempt=fetch.attempts, delay_ms=delay
                )
                self.loop.call_later(delay, self._dispatch, fetch)
            else:
                self._fail_fetch(fetch, reason)

    def _fail_fetch(self, fetch: _PendingFetch, reason: str) -> None:
        """Out of retries: complete the fetch with a structured failure.

        The browser still receives a record (``failed=True``), so the
        page visit terminates normally instead of hanging the loop —
        campaign-level graceful degradation builds on this.
        """
        self.stats.failed_requests += 1
        self.faults.record_recovery(
            "request_failed", fetch.server.hostname, reason=reason
        )
        now = self.loop.now
        timing = EntryTiming()
        timing.blocked = now - fetch.queued_at
        record = FetchRecord(
            url=fetch.url,
            host=fetch.server.hostname,
            protocol=fetch.protocol,
            started_at_ms=fetch.queued_at,
            timing=timing,
            response_bytes=0,
            request_bytes=fetch.request_bytes,
            reused=False,
            resumed=False,
            cache_hit=False,
            completed_at_ms=now,
            failed=True,
            error=reason,
        )
        fetch.on_complete(record)

    def _remove_pooled(self, pooled: _PooledConnection) -> None:
        """Drop a dead connection from the reuse tables."""
        if pooled.protocol.multiplexes:
            key = (pooled.coalesce_key, pooled.protocol)
            if self._multiplexed.get(key) is pooled:
                del self._multiplexed[key]
        else:
            conns = self._h1_conns.get(pooled.host)
            if conns is not None and pooled in conns:
                conns.remove(pooled)

    def _serve(self, fetch: _PendingFetch):
        """Answer one fetch: proxy cache first, then the server.

        A TCP-terminating CONNECT tunnel sees plaintext-sized responses
        it already forwarded and can replay them without touching the
        edge; a MASQUE relay never can (end-to-end QUIC is opaque), so
        caching is gated on the path's proxy model, not just on having
        a cache.  Economics deltas and cache-tier traces are folded in
        here so `_issue` stays shape-identical for legacy campaigns.
        """
        cacheable = (
            self._proxy_cache is not None
            and getattr(fetch.path, "proxy_model", None) == "connect-tunnel"
        )
        if cacheable and self._proxy_cache.lookup(fetch.resource_key):
            from repro.cdn.edge import ServeDecision

            self.stats.proxy_cache_hits += 1
            return ServeDecision(
                cache_hit=True,
                think_ms=0.0,
                protocol=fetch.protocol.value,
                headers={"x-cache": "HIT", "via": "1.1 proxy-cache"},
            )
        if fetch.accept_encoding is not None:
            decision = fetch.server.serve(
                fetch.resource_key,
                fetch.response_bytes,
                fetch.protocol.value,
                accept_encoding=fetch.accept_encoding,
                rtype=fetch.rtype,
            )
        else:
            decision = fetch.server.serve(
                fetch.resource_key, fetch.response_bytes, fetch.protocol.value
            )
        if cacheable:
            body = (
                decision.body_bytes
                if getattr(decision, "body_bytes", None) is not None
                else fetch.response_bytes
            )
            self._proxy_cache.insert(fetch.resource_key, body)
        economics = getattr(decision, "economics", None)
        if economics is not None:
            if self._economics is None:
                from repro.cdn.economics import EconomicsLedger

                self._economics = EconomicsLedger()
            self._economics.add(economics, decision.hit_tier)
            if self.obs is not None and decision.hit_tier is not None:
                tracer = self.obs.cdn_tracer()
                if tracer:
                    now = self.loop.now
                    host = fetch.server.hostname
                    if decision.hit_tier == "origin":
                        tracer.event(now, "cache:miss", host=host)
                    else:
                        tracer.event(
                            now, "cache:hit", host=host, tier=decision.hit_tier
                        )
                    tracer.event(
                        now,
                        "economics:egress",
                        host=host,
                        bytes=economics.egress_bytes,
                        encoding=decision.headers.get(
                            "content-encoding", "identity"
                        ),
                        source="cache" if economics.cache_served_bytes else "fetch",
                    )
                    if economics.origin_bytes:
                        tracer.event(
                            now,
                            "economics:origin_fetch",
                            host=host,
                            bytes=economics.origin_bytes,
                        )
        return decision

    def _issue(
        self,
        pooled: _PooledConnection,
        fetch: _PendingFetch,
        reused: bool,
        handshake=None,
    ) -> None:
        now = self.loop.now
        if self.check:
            self.check.require(
                not pooled.failed and not pooled.conn.closed,
                "pool:issue_on_dead_connection",
                "fetch issued on a torn-down connection",
                time_ms=now,
                url=fetch.url,
                host=pooled.host,
            )
            self.check.require(
                pooled.established or handshake is not None or pooled.conn.zero_rtt,
                "pool:issue_before_established",
                "fetch issued before the connection was usable",
                time_ms=now,
                url=fetch.url,
                host=pooled.host,
            )
        if self.faults is not None and self.faults.edge_outage(
            fetch.server.hostname
        ):
            # The edge refuses the request; the refusal arrives one RTT
            # later and the fetch retries with backoff (the outage
            # window may have lifted by then).
            self.faults.record_fault("edge_outage", fetch.server.hostname)
            self.loop.call_later(
                pooled.conn.path.rtt_ms,
                self._retry_or_fail,
                [fetch],
                "edge_outage",
            )
            return
        decision = self._serve(fetch)
        #: Bytes actually on the wire: compression campaigns egress the
        #: negotiated encoding's size, everything else the nominal size.
        body_bytes = (
            decision.body_bytes
            if getattr(decision, "body_bytes", None) is not None
            else fetch.response_bytes
        )
        think_ms = decision.think_ms
        if handshake is not None:
            # Connection-opening request: the server pays the TLS setup
            # CPU (certificate crypto on full handshakes, much less on
            # resumed ones) before processing the request.
            if pooled.resumed:
                think_ms += getattr(fetch.server, "resumed_setup_cpu_ms", 0.0)
            else:
                think_ms += getattr(fetch.server, "tls_setup_cpu_ms", 0.0)
        timing = EntryTiming()
        if reused or handshake is None:
            timing.blocked = now - fetch.queued_at
        else:
            # Opener: time spent waiting for a handshake slot is
            # "blocked"; the handshake itself is "connect".
            timing.blocked = pooled.connect_started_at - fetch.queued_at
            timing.connect = handshake.connect_ms
            timing.ssl = getattr(pooled.conn, "ssl_ms", None) or 0.0
        record = FetchRecord(
            url=fetch.url,
            # The request's own hostname (a coalesced connection serves
            # several hosts; HAR entries keep the per-request host).
            host=fetch.server.hostname,
            protocol=fetch.protocol,
            started_at_ms=fetch.queued_at,
            timing=timing,
            response_bytes=body_bytes,
            request_bytes=fetch.request_bytes,
            headers=dict(decision.headers),
            reused=reused,
            resumed=pooled.resumed,
            cache_hit=decision.cache_hit,
        )
        pooled.active_streams += 1
        issued_at = now
        spans = self._spans
        if spans is not None:
            request_span = spans.begin(
                "phase", f"request:{fetch.url}", now, parent=spans.current_visit
            )
        else:
            request_span = None
        transfer_span: list[int | None] = [None]
        if self.faults is not None:
            pooled.inflight.append(fetch)
            fetch.timer = Timer(
                self.loop, lambda: self._on_fetch_timeout(pooled, fetch)
            )
            fetch.timer.start(self.faults.retry.request_timeout_ms)

        def on_first_byte(t: float) -> None:
            if pooled.failed:
                # Stale delivery from a torn-down connection.  Without
                # this guard a late first byte lands *after* the fetch
                # re-dispatched, stamping the old issue time into the
                # retried entry and driving its ``wait`` negative.
                return
            record.timing.wait = t - issued_at
            if request_span is not None:
                transfer_span[0] = spans.begin(
                    "transfer", fetch.url, t, parent=request_span
                )
            if self.check:
                self.check.require(
                    record.timing.wait >= 0.0,
                    "pool:wait_nonnegative",
                    "first byte arrived before the request was issued",
                    time_ms=t,
                    url=fetch.url,
                    wait_ms=record.timing.wait,
                )

        def on_stream_complete(t: float) -> None:
            if pooled.failed:
                return  # stale delivery from a torn-down connection
            first_byte_at = issued_at + record.timing.wait
            receive = t - first_byte_at
            if -EPSILON_MS < receive < 0.0:
                # ``issued_at + wait`` re-derives the first-byte instant
                # through a float round trip, so a stream that completes
                # at that same instant can land ~1e-13 below zero; clamp
                # so the HAR never carries a negative phase.
                receive = 0.0
            record.timing.receive = receive
            if self.check:
                self.check.require(
                    record.timing.receive >= -EPSILON_MS,
                    "pool:receive_nonnegative",
                    "stream completed before its first byte",
                    time_ms=t,
                    url=fetch.url,
                    receive_ms=record.timing.receive,
                )
            record.completed_at_ms = t
            if request_span is not None:
                if transfer_span[0] is not None:
                    spans.end(transfer_span[0], t)
                spans.end(request_span, t)
            pooled.active_streams -= 1
            if fetch.timer is not None:
                fetch.timer.stop()
                fetch.timer = None
            if self.faults is not None and fetch in pooled.inflight:
                pooled.inflight.remove(fetch)
            fetch.on_complete(record)
            self._drain_h1(pooled)

        pooled.conn.request(
            fetch.request_bytes,
            body_bytes,
            think_ms=think_ms,
            on_first_byte=on_first_byte,
            on_complete=on_stream_complete,
            weight=fetch.weight,
        )

    def _drain_h1(self, pooled: _PooledConnection) -> None:
        if pooled.protocol.multiplexes or pooled.busy:
            return
        queue = self._h1_queues.get(pooled.host)
        if queue:
            fetch = queue.popleft()
            self.stats.reused_requests += 1
            self._issue(pooled, fetch, reused=True)

    # ------------------------------------------------------------------

    def connection_count(self) -> int:
        """Live connections (diagnostics)."""
        return len(self._multiplexed) + sum(len(v) for v in self._h1_conns.values())

    def close(self) -> None:
        """Terminate every connection (between page visits).

        With observability attached, this is also where per-connection
        transport stats and the pool's own counters are folded into the
        registry — a cold path, so packet accounting never slows down.
        """
        self._closed = True
        all_conns = list(self._multiplexed.values())
        for conns in self._h1_conns.values():
            all_conns.extend(conns)
        if self.check:
            counted = sum(1 for pooled in all_conns if pooled.handshake_counted)
            self.check.require(
                self._active_handshakes == counted,
                "pool:handshake_slots_balanced",
                "handshake slot count drifted from slot-holding connections",
                time_ms=self.loop.now,
                active=self._active_handshakes,
                holders=counted,
            )
            if self.faults is None:
                # Fault-free visits end only when every fetch completed:
                # nothing may still be queued, in flight, or handshaking.
                self.check.require(
                    self._active_handshakes == 0
                    and not self._handshake_queue
                    and all(
                        pooled.active_streams == 0 and not pooled.pending
                        for pooled in all_conns
                    )
                    and not any(self._h1_queues.values()),
                    "pool:drained_at_close",
                    "pool closed with work still outstanding "
                    "in a fault-free visit",
                    time_ms=self.loop.now,
                )
                self.check.require(
                    self.stats.requests
                    == self.stats.connections_created + self.stats.reused_requests,
                    "pool:request_accounting",
                    "requests != connections_created + reused_requests "
                    "in a fault-free visit",
                    time_ms=self.loop.now,
                    requests=self.stats.requests,
                    connections_created=self.stats.connections_created,
                    reused_requests=self.stats.reused_requests,
                )
            if self._economics is not None:
                # Byte conservation: every egressed byte was either
                # served from a cache tier or fetched through the
                # hierarchy — exact by construction, so any drift is a
                # bookkeeping bug.
                self.check.require(
                    self._economics.conserved,
                    "pool:economics_conserved",
                    "egress bytes != cache-served + inter-tier transfer",
                    time_ms=self.loop.now,
                    egress=self._economics.egress_bytes,
                    cache_served=self._economics.cache_served_bytes,
                    transfer=self._economics.transfer_bytes,
                )
        for pooled in all_conns:
            if self.faults is not None:
                # Disarm recovery timers: the loop outlives this pool
                # (one loop per probe, one pool per visit), so anything
                # left armed would fire into the next visit.
                if pooled.connect_timer is not None:
                    pooled.connect_timer.stop()
                    pooled.connect_timer = None
                if pooled.reset_event is not None:
                    pooled.reset_event.cancel()
                    pooled.reset_event = None
                if pooled.migration_event is not None:
                    pooled.migration_event.cancel()
                    pooled.migration_event = None
                for fetch in pooled.inflight:
                    if fetch.timer is not None:
                        fetch.timer.stop()
                        fetch.timer = None
            pooled.conn.close()
        if self.obs is not None:
            for pooled in all_conns:
                self.obs.absorb_connection(pooled.conn)
            counters = self.obs.counters
            counters.incr("pool.requests", self.stats.requests)
            counters.incr("pool.connections_created", self.stats.connections_created)
            counters.incr("pool.resumed_connections", self.stats.resumed_connections)
            counters.incr("pool.reused_requests", self.stats.reused_requests)
            counters.incr("pool.zero_rtt_connections", self.stats.zero_rtt_connections)
            # Fault-era counters only appear once nonzero, keeping
            # fault-free counter snapshots byte-identical.
            for key, value in (
                ("pool.failed_requests", self.stats.failed_requests),
                ("pool.retried_requests", self.stats.retried_requests),
                ("pool.h3_fallbacks", self.stats.h3_fallbacks),
                ("pool.connect_timeouts", self.stats.connect_timeouts),
                ("pool.connection_resets", self.stats.connection_resets),
                ("pool.quic_migrations", self.stats.quic_migrations),
                ("pool.migration_reconnects", self.stats.migration_reconnects),
                ("pool.proxy_h3_downgrades", self.stats.proxy_h3_downgrades),
                ("pool.proxy_cache_hits", self.stats.proxy_cache_hits),
            ):
                if value:
                    counters.incr(key, value)
            if self._economics is not None:
                # Hierarchy/compression campaigns only; nonzero-only so
                # legacy counter snapshots stay byte-identical.
                for key, value in self._economics.counter_items():
                    counters.incr(key, value)
        self._multiplexed.clear()
        self._h1_conns.clear()
        self._h1_queues.clear()
