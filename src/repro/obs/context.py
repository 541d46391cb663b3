"""The observability context threaded through a simulation.

One :class:`ObsContext` lives for the duration of a probe's work and is
shared by its browsers, connection pools and transports.  It owns:

* the :class:`~repro.obs.counters.CounterRegistry` every layer
  increments into,
* the list of :class:`~repro.obs.trace.ConnectionTracer` instances
  handed to connections while tracing is enabled,
* the :mod:`~repro.obs.metrics` samplers attached to connections and
  links while sim-time metrics sampling is enabled, and
* the :class:`~repro.obs.spans.SpanRecorder` while span recording is
  enabled.

All four are **drained per page visit**: :meth:`drain_visit` snapshots
the accumulated telemetry into plain (picklable) payloads and resets
the context, so each :class:`~repro.browser.browser.PageVisit` carries
exactly its own telemetry across the parallel-campaign process
boundary.
"""

from __future__ import annotations

from repro.obs.counters import CounterRegistry
from repro.obs.metrics import ConnectionSampler, LinkSampler
from repro.obs.spans import SpanRecorder
from repro.obs.trace import ConnectionTracer, TraceLog


class ObsContext:
    """Observability switchboard for one probe/browser stack."""

    def __init__(
        self,
        trace: bool = False,
        profile_loop: bool = False,
        counters: bool = True,
        metrics_interval_ms: float | None = None,
        metrics_max_samples: int = 512,
        spans: bool = False,
    ) -> None:
        #: Whether connections receive a real tracer (vs NULL_TRACER).
        self.trace_enabled = trace
        #: Whether probes should enable event-loop callback profiling.
        self.profile_loop = profile_loop
        #: Whether drain_visit reports counters (the registry always
        #: exists so unguarded cold-path increments stay safe; when this
        #: is off the accumulated values are discarded at drain).
        self.counters_enabled = counters
        #: Sim-time sampling interval (ms); None disables samplers.
        self.metrics_interval_ms = metrics_interval_ms
        #: Ring-buffer capacity per sampler.
        self.metrics_max_samples = metrics_max_samples
        self.counters = CounterRegistry()
        self._tracers: list[ConnectionTracer] = []
        self._fault_tracer: ConnectionTracer | None = None
        self._cdn_tracer: ConnectionTracer | None = None
        self._samplers: list[ConnectionSampler] = []
        #: Links carrying an attached LinkSampler this drain cycle,
        #: keyed by id() — links outlive visits (the server farm keeps
        #: them per host), so drain must detach what it attached.
        self._sampled_links: dict[int, tuple[object, LinkSampler]] = {}
        #: Span recorder, or None when span recording is off.
        self.spans: SpanRecorder | None = SpanRecorder() if spans else None
        self._spans_enabled = spans
        # Batched transport totals: absorb_connection sums plain ints
        # here and drain_visit flushes them as one increment per key,
        # instead of eight registry calls per torn-down connection.
        self._absorbed = [0, 0, 0, 0, 0, 0, 0, 0.0]

    # ------------------------------------------------------------------

    def connection_tracer(self, name: str, protocol: str) -> ConnectionTracer | None:
        """A registered tracer for a new connection, or ``None``.

        Returns ``None`` when tracing is disabled so the transport falls
        back to the zero-cost null tracer.
        """
        if not self.trace_enabled:
            return None
        tracer = ConnectionTracer(name, protocol)
        self._tracers.append(tracer)
        return tracer

    def fault_tracer(self) -> ConnectionTracer | None:
        """The shared tracer for ``fault:``/``recovery:`` events.

        Fault events are not tied to one connection (DNS failures and
        H3→H2 fallback span several), so the injector funnels them into
        a single per-drain-cycle tracer named ``fault-injector``.  Lazily
        re-created after every :meth:`drain_visit`.
        """
        if not self.trace_enabled:
            return None
        tracer = self._fault_tracer
        if tracer is None:
            tracer = self.connection_tracer("fault-injector", "fault")
            self._fault_tracer = tracer
        return tracer

    def cdn_tracer(self) -> ConnectionTracer | None:
        """The shared tracer for ``cache:``/``economics:`` events.

        Cache-hierarchy and byte-accounting events describe the edge
        fleet rather than one connection, so — like fault events — they
        funnel into a single per-drain-cycle tracer.  Lazily re-created
        after every :meth:`drain_visit`.
        """
        if not self.trace_enabled:
            return None
        tracer = self._cdn_tracer
        if tracer is None:
            tracer = self.connection_tracer("cdn-edge", "cache")
            self._cdn_tracer = tracer
        return tracer

    def connection_sampler(self, name: str, protocol: str) -> ConnectionSampler | None:
        """A registered metrics sampler for a new connection, or ``None``.

        ``None`` when sampling is disabled so the transport falls back
        to the zero-cost :data:`~repro.obs.metrics.NULL_SAMPLER`.
        """
        if self.metrics_interval_ms is None:
            return None
        sampler = ConnectionSampler(
            name, protocol, self.metrics_interval_ms, self.metrics_max_samples
        )
        self._samplers.append(sampler)
        return sampler

    def attach_link_sampler(self, link) -> None:
        """Attach (once per drain cycle) a metrics sampler to ``link``.

        Idempotent per link per visit; :meth:`drain_visit` detaches.
        Links belong to the long-lived server farm, so attachment is
        scoped strictly to the current visit.
        """
        if self.metrics_interval_ms is None:
            return
        key = id(link)
        if key in self._sampled_links:
            return
        if getattr(link, "sampler", None) is not None:
            return  # someone else's sampler; never steal
        sampler = LinkSampler(
            getattr(link, "name", "link") or "link",
            self.metrics_interval_ms,
            self.metrics_max_samples,
        )
        link.sampler = sampler
        self._sampled_links[key] = (link, sampler)

    def absorb_connection(self, conn) -> None:
        """Fold one finished connection's stats into the counters.

        Called by the pool at teardown (cold path), so per-packet
        accounting stays on the existing ``ConnectionStats`` hot path
        and only aggregates here; the sums are flushed to the registry
        once per visit by :meth:`drain_visit`.
        """
        stats = conn.stats
        absorbed = self._absorbed
        absorbed[0] += stats.data_packets_sent
        absorbed[1] += stats.data_packets_lost
        absorbed[2] += stats.retransmissions
        absorbed[3] += stats.acks_received
        absorbed[4] += stats.rto_events
        absorbed[5] += stats.hol_blocked_chunks
        absorbed[6] += stats.hol_stalls
        absorbed[7] += stats.hol_stall_ms

    #: Registry keys matching the ``_absorbed`` slots, in order.
    _ABSORBED_KEYS = (
        "transport.packets.sent",
        "transport.packets.lost",
        "transport.packets.retransmitted",
        "transport.acks.received",
        "transport.pto.fired",
        "transport.hol.blocked_chunks",
        "transport.hol.stalls",
        "transport.hol.stall_ms",
    )

    def _flush_absorbed(self) -> None:
        absorbed = self._absorbed
        incr = self.counters.incr
        for key, value in zip(self._ABSORBED_KEYS, absorbed):
            if value:
                incr(key, value)
        self._absorbed = [0, 0, 0, 0, 0, 0, 0, 0.0]

    # ------------------------------------------------------------------

    def trace_events(self) -> list[dict]:
        """All recorded events, connection-tagged, in creation order."""
        events: list[dict] = []
        for tracer in self._tracers:
            events.extend(tracer.tagged_events())
        return events

    def metrics_records(self) -> list[dict]:
        """All recorded metrics samples, source-tagged, in attach order."""
        records: list[dict] = []
        for sampler in self._samplers:
            records.extend(sampler.records())
        for _link, sampler in self._sampled_links.values():
            records.extend(sampler.records())
        return records

    def drain_visit(
        self,
    ) -> tuple[dict | None, "TraceLog | None", list[dict] | None, list[dict] | None]:
        """Snapshot and reset: ``(counters, trace, metrics, spans)``.

        Each element is ``None`` when the corresponding layer is
        disabled.  The trace comes back as a lazy
        :class:`~repro.obs.trace.TraceLog` over the raw record tuples —
        drain itself does zero per-event work; export dicts materialize
        only if someone reads the trace.  Metrics and spans are small
        (ring-bounded / per-phase) so they materialize eagerly into
        plain picklable lists.
        """
        self._flush_absorbed()
        if self.counters_enabled:
            counters: dict | None = self.counters.to_dict()
        else:
            counters = None
        self.counters.clear()
        trace: TraceLog | None = None
        if self.trace_enabled:
            trace = TraceLog(self._tracers)
        self._tracers.clear()
        self._fault_tracer = None
        self._cdn_tracer = None
        metrics: list[dict] | None = None
        if self.metrics_interval_ms is not None:
            metrics = self.metrics_records()
        self._samplers.clear()
        for link, _sampler in self._sampled_links.values():
            link.sampler = None
        self._sampled_links.clear()
        spans: list[dict] | None = None
        if self.spans is not None:
            spans = self.spans.drain()
            self.spans = SpanRecorder()
        return counters, trace, metrics, spans
