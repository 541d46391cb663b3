"""The traced run: spans and counts at layer boundaries, plus a profile.

Nothing under ``src/`` is instrumented for this.  :class:`LayerProbe`
wraps the layers' public functions at run time and restores them
afterwards:

* **Spans** (name, start, end, parent, visit id; host wall seconds)
  around ``measure_visit_outcome``, ``Probe.measure_page``,
  ``Browser.visit``, ``CampaignSummary.add_outcome``,
  ``ResultStore.get``/``put_batch`` and universe generation.  They are
  kept in memory and written out as JSON lines when the run ends.
* **Counts** of calls into ``Timer.start``/``stop``, ``Link.transmit``,
  ``BaseConnection.connect``/``close`` (its ``ConnectionStats``),
  ``SessionTicketCache.lookup``, ``DnsResolver.resolve``,
  ``ConnectionPool.close`` (its ``PoolStats``) and the CDN servers'
  ``serve``.  Counting at the call boundary measures work this process
  did: replayed visits carry stats from the run that simulated them,
  and those are not counted.

Self time per ``repro.<package>`` comes from a separate pass under
:mod:`cProfile` (deterministic, no wrappers installed), aggregated by
:func:`self_time_by_package`.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

#: Spans that start a new visit once the previous one has been folded.
_VISIT_OPENERS = frozenset({"measure_visit_outcome", "store.get"})


class SpanRecorder:
    """In-memory spans with parent links and visit ids."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent, visit]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.visit = 0
        self._folded = True

    def begin(self, name: str) -> int:
        if not self._stack and name in _VISIT_OPENERS and self._folded:
            self.visit += 1
            self._folded = False
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.visit])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()
        if self.spans[index][0] == "add_outcome":
            self._folded = True

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.visit = 0
        self._folded = True

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, visit in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "visit": visit}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` holds ``(name, start, end, parent, ...)`` rows; a child's
    interval is clipped to its parent's and overlapping children are
    merged, so covered time is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class LayerProbe:
    """Installs span and count wrappers on the layers' public functions."""

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        spans = self.spans

        def make(original):
            def wrapper(*args, **kwargs):
                index = spans.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.end(index)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def _count(self, owner, attr: str, key: str, after=None) -> None:
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        from repro.browser.browser import Browser
        from repro.cdn.edge import EdgeServer
        from repro.cdn.origin import OriginServer
        from repro.dns.resolver import DnsResolver
        from repro.events.loop import Timer
        from repro.http.pool import ConnectionPool
        from repro.measurement import parallel
        from repro.measurement.probe import Probe
        from repro.measurement.summary import CampaignSummary
        from repro.netsim.link import Link
        from repro.store.store import ResultStore
        from repro.tls.session_cache import SessionTicketCache
        from repro.transport.base import BaseConnection
        from repro.web.topsites import TopSitesGenerator

        counts = self.counts
        spans = self.spans

        def on_store_get(args, document):
            if document is not None:
                counts["store.hits"] += 1

        self._span(parallel, "measure_visit_outcome", "measure_visit_outcome")
        self._span(Probe, "measure_page", "measure_page")
        self._span(CampaignSummary, "add_outcome", "add_outcome")
        self._span(ResultStore, "get", "store.get", after=on_store_get)
        self._span(ResultStore, "put_batch", "store.put_batch")
        self._span(TopSitesGenerator, "generate", "web.universe")

        def make_visit(original):
            def visit(browser, page):
                before = browser.loop.processed_events
                index = spans.begin("browser.visit")
                try:
                    return original(browser, page)
                finally:
                    spans.end(index)
                    counts["events.dispatched"] += (
                        browser.loop.processed_events - before
                    )

            return visit

        self._patch(Browser, "visit", make_visit)

        self._count(Timer, "start", "events.timer_arms")
        self._count(Timer, "stop", "events.timer_cancels")

        def on_transmit(args, delivered):
            if delivered:
                counts["netsim.delivered"] += 1

        self._count(Link, "transmit", "netsim.transmits", after=on_transmit)
        self._count(BaseConnection, "connect", "tls.handshakes")

        def make_close(original):
            def close(conn):
                if not conn.closed:
                    stats = conn.stats
                    counts["transport.packets_sent"] += stats.data_packets_sent
                    counts["transport.acks"] += stats.acks_received
                    counts["transport.retransmissions"] += stats.retransmissions
                    counts["transport.pto_fired"] += stats.rto_events
                    counts["transport.hol_stall_ms"] += stats.hol_stall_ms
                    counts["transport.fast_path_epochs"] += stats.fast_path_epochs
                return original(conn)

            return close

        self._patch(BaseConnection, "close", make_close)

        def on_ticket(args, ticket):
            if ticket is not None:
                counts["tls.ticket_hits"] += 1

        self._count(SessionTicketCache, "lookup", "tls.ticket_lookups", after=on_ticket)

        def make_resolve(original):
            def resolve(resolver, *args, **kwargs):
                hits = resolver.hits
                counts["dns.resolves"] += 1
                result = original(resolver, *args, **kwargs)
                counts["dns.hits"] += resolver.hits - hits
                return result

            return resolve

        self._patch(DnsResolver, "resolve", make_resolve)

        def make_pool_close(original):
            def close(pool):
                result = original(pool)
                stats = pool.stats
                counts["http.requests"] += stats.requests
                counts["http.connections"] += stats.connections_created
                counts["http.reused"] += stats.reused_requests
                counts["http.failed_requests"] += stats.failed_requests
                return result

            return close

        self._patch(ConnectionPool, "close", make_pool_close)

        def on_edge(args, decision):
            if decision.cache_hit:
                counts["cdn.edge_hits"] += 1

        self._count(EdgeServer, "serve", "cdn.edge_serves", after=on_edge)
        self._count(OriginServer, "serve", "cdn.origin_serves")

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


# -- profile aggregation --------------------------------------------------

#: Packages reported as ``<name>.self_pct``; other ``repro`` packages
#: and the benchmark's own code share what is left.
PROFILED = ("events", "netsim", "transport", "http", "browser", "cdn",
            "measurement", "store")


def package_of(filename: str, src_root: str) -> str:
    """``repro.<package>`` short name for a profiled code location.

    C functions (``~``), the standard library, ``json`` and ``sqlite3``
    all count as ``builtins``: time outside ``repro`` Python code.
    """
    prefix = os.path.join(src_root, "repro") + os.sep
    if filename.startswith(prefix):
        rest = filename[len(prefix):]
        head, sep, _ = rest.partition(os.sep)
        return head if sep else "repro"
    here = os.path.dirname(os.path.abspath(__file__)) + os.sep
    if filename.startswith(here):
        return "perfbench"
    return "builtins"


def self_time_by_package(stats, src_root: str) -> dict[str, float]:
    """Share (percent) of profiled self time per package.

    ``stats`` is a :class:`pstats.Stats`; its raw table maps
    ``(filename, line, function)`` to ``(calls, primitive calls,
    self seconds, cumulative seconds, callers)``.
    """
    totals: Counter = Counter()
    for (filename, _line, _func), row in stats.stats.items():
        totals[package_of(filename, src_root)] += row[2]
    grand = sum(totals.values())
    if not grand:
        return {}
    return {name: 100.0 * seconds / grand for name, seconds in totals.items()}
