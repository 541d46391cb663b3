"""Runtime fault injection: the bridge between a profile and the DES.

One :class:`FaultInjector` lives per probe (it shares the probe's event
loop) and is consulted by the browser, the connection pool and the DNS
resolver.  It answers "is fault X active for host H *right now*?" by
translating the loop's absolute clock into visit-relative time — the
browser calls :meth:`begin_visit` at the top of every page load.

Every injected fault and every recovery action is reported through
:meth:`record_fault` / :meth:`record_recovery`, which feed the PR 2
observability layer: counters under ``faults.*`` / ``recovery.*`` and
trace events in the ``fault:`` / ``recovery:`` families (all names are
registered in :data:`repro.obs.trace.EVENT_NAMES` and validated by
``repro.obs.schema``).

:class:`FaultedPath` wraps a :class:`~repro.netsim.path.NetworkPath`
per-connection, dropping packets while a ``blackout`` (any transport) or
``udp_blackhole`` (QUIC only) window is open.  It is a pure pass-through
otherwise — it consumes no randomness and schedules no events, so
wrapping paths under an empty profile cannot change results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.profile import MIGRATION_KINDS, FaultProfile, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.loop import EventLoop
    from repro.netsim.path import NetworkPath
    from repro.obs.context import ObsContext


class FaultInjector:
    """Per-probe oracle for scripted faults.

    Parameters
    ----------
    profile:
        The fault script.  An empty profile makes every query return
        falsy, turning the injector into inert plumbing.
    loop:
        The probe's event loop; supplies the clock for window checks
        and timestamps for emitted trace events.
    obs:
        Optional observability context for counters/trace events.
    """

    __slots__ = ("profile", "loop", "obs", "_visit_started_at")

    def __init__(
        self,
        profile: FaultProfile,
        loop: "EventLoop",
        obs: "ObsContext | None" = None,
    ) -> None:
        self.profile = profile
        self.loop = loop
        self.obs = obs
        self._visit_started_at = 0.0

    # -- visit lifecycle ----------------------------------------------

    def begin_visit(self) -> None:
        """Re-anchor fault windows to the current loop time.

        Called by the browser at the top of every page visit so that
        profile windows (visit-relative) line up with the shared loop
        clock (absolute, monotone across visits).
        """
        self._visit_started_at = self.loop.now

    @property
    def retry(self) -> RetryPolicy:
        return self.profile.retry

    def _rel_now(self) -> float:
        return self.loop.now - self._visit_started_at

    # -- fault queries ------------------------------------------------

    def _active(self, kind: str, host: str) -> bool:
        rel_now = self._rel_now()
        for event in self.profile.events:
            if (
                event.kind == kind
                and event.active_at(rel_now)
                and event.targets(host)
            ):
                return True
        return False

    def blackout(self, host: str) -> bool:
        """All packets to/from ``host`` are being dropped."""
        return self._active("blackout", host)

    def udp_blackholed(self, host: str) -> bool:
        """UDP (QUIC) packets to/from ``host`` are being dropped."""
        return self._active("udp_blackhole", host)

    def edge_outage(self, host: str) -> bool:
        """The edge/origin serving ``host`` is refusing requests."""
        return self._active("edge_outage", host)

    def dns_failure(self, host: str) -> bool:
        """Resolution for ``host`` currently SERVFAILs."""
        return self._active("dns_failure", host)

    def zero_rtt_rejected(self, host: str) -> bool:
        """Session-ticket resumption for ``host`` is being refused."""
        return self._active("zero_rtt_reject", host)

    def migration_blackout(self, host: str) -> bool:
        """A client address change is in progress: the rebind/handover
        gap drops every packet regardless of transport."""
        for kind in MIGRATION_KINDS:
            if self._active(kind, host):
                return True
        return False

    def migration_at(self, host: str) -> "tuple[float, str] | None":
        """Absolute loop time at which the client's address changes.

        Returns the earliest instant ``>= now`` covered by a pending
        migration window for ``host`` together with the fault kind, or
        ``None`` when no such window lies ahead.  Mirrors
        :meth:`connection_reset_at`, which established connections use
        to arm a one-shot timer.
        """
        rel_now = self._rel_now()
        best: "tuple[float, str] | None" = None
        for event in self.profile.events:
            if event.kind not in MIGRATION_KINDS or not event.targets(host):
                continue
            if rel_now >= event.end_ms:
                continue
            fire_rel = max(event.start_ms, rel_now)
            if best is None or fire_rel < best[0]:
                best = (fire_rel, event.kind)
        if best is None:
            return None
        return self._visit_started_at + best[0], best[1]

    def connection_reset_at(self, host: str) -> float | None:
        """Absolute loop time at which a live connection gets reset.

        Returns the earliest instant ``>= now`` covered by a pending
        ``connection_reset`` window for ``host`` (``now`` itself when a
        window is already open), or ``None`` if no window lies ahead.
        """
        rel_now = self._rel_now()
        best: float | None = None
        for event in self.profile.events:
            if event.kind != "connection_reset" or not event.targets(host):
                continue
            if rel_now >= event.end_ms:
                continue
            fire_rel = max(event.start_ms, rel_now)
            if best is None or fire_rel < best:
                best = fire_rel
        if best is None:
            return None
        return self._visit_started_at + best

    # -- packet-level hooks -------------------------------------------

    def packet_dropped(self, host: str, quic: bool) -> bool:
        """Whether a packet to/from ``host`` is eaten by an open window."""
        if self.blackout(host):
            return True
        if self.migration_blackout(host):
            # The rebind/handover gap loses packets for both transports;
            # what differs is what happens *after* — QUIC resumes on the
            # migrated connection, TCP has already torn down to reconnect.
            return True
        return quic and self.udp_blackholed(host)

    def wrap_path(self, path: "NetworkPath", host: str, quic: bool) -> "FaultedPath":
        """A per-connection view of ``path`` subject to this injector."""
        return FaultedPath(path, self, host, quic)

    # -- observability ------------------------------------------------

    def record_fault(self, kind: str, host: str, **data) -> None:
        """Count an injected fault and (when tracing) emit ``fault:<kind>``."""
        obs = self.obs
        if obs is None:
            return
        obs.counters.incr(f"faults.{kind}")
        tracer = obs.fault_tracer()
        if tracer:
            tracer.event(self.loop.now, f"fault:{kind}", host=host, **data)

    def record_migration(
        self, host: str, migrated: bool, protocol: str, streams: int
    ) -> None:
        """Report the outcome of a client address change for one
        established connection: ``migrated`` (QUIC carried the
        connection across by connection ID) or a forced reconnect
        (TCP's 4-tuple binding died with the old address)."""
        obs = self.obs
        if obs is None:
            return
        outcome = "migrated" if migrated else "reconnect"
        obs.counters.incr(f"migration.{outcome}")
        tracer = obs.fault_tracer()
        if tracer:
            tracer.event(
                self.loop.now,
                f"migration:{outcome}",
                host=host,
                protocol=protocol,
                streams=streams,
            )

    def record_recovery(self, kind: str, host: str, **data) -> None:
        """Count a recovery action and (when tracing) emit ``recovery:<kind>``."""
        obs = self.obs
        if obs is None:
            return
        obs.counters.incr(f"recovery.{kind}")
        tracer = obs.fault_tracer()
        if tracer:
            tracer.event(self.loop.now, f"recovery:{kind}", host=host, **data)


class FaultedPath:
    """A :class:`NetworkPath` proxy that drops packets in fault windows.

    Wraps one connection's view of the path: the pool knows whether the
    connection is QUIC, so ``udp_blackhole`` windows drop only QUIC
    traffic while ``blackout`` windows drop everything.  All other
    attribute access delegates to the underlying path.
    """

    __slots__ = ("_path", "_injector", "_host", "_quic")

    def __init__(
        self,
        path: "NetworkPath",
        injector: FaultInjector,
        host: str,
        quic: bool,
    ) -> None:
        self._path = path
        self._injector = injector
        self._host = host
        self._quic = quic

    def send_to_server(self, packet, on_deliver) -> bool:
        if self._injector.packet_dropped(self._host, self._quic):
            return False
        return self._path.send_to_server(packet, on_deliver)

    def send_to_client(self, packet, on_deliver) -> bool:
        if self._injector.packet_dropped(self._host, self._quic):
            return False
        return self._path.send_to_client(packet, on_deliver)

    def __getattr__(self, name: str):
        return getattr(self._path, name)
