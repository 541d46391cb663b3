"""Consecutive-visit measurement (paper Section VI-D).

Pages are visited in a fixed order.  Between pages, connections are
terminated and the HTTP cache is cleared — but the browser's TLS
session-ticket store survives, so a connection to a CDN hostname
already seen on an *earlier page* can resume (H3: 0-RTT; H2: TCP round
trip + TLS early data).  This is the mechanism behind the paper's
Fig. 8 and the Table III case study.

``execute(ConsecutivePlan)`` runs one :func:`walk` per mode and owns
the walks' store reads and writes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.browser.browser import PageVisit
from repro.measurement.probe import Probe

#: Serialization format of a stored consecutive walk.
WALK_FORMAT = "repro-h3cdn-walk/1"


@dataclass
class ConsecutiveRun:
    """Per-page visits of one ordered walk under one protocol mode."""

    mode: str
    visits: list[PageVisit]
    #: ``"fresh"`` or ``"replay"`` (served from a result store).
    source: str = "fresh"

    def resumed_connections(self) -> list[int]:
        """Per page: entries served on ticket-resumed connections."""
        return [v.har.resumed_connection_count() for v in self.visits]

    def to_dict(self) -> dict:
        """Store payload (``source`` is provenance, never serialized)."""
        return {
            "format": WALK_FORMAT,
            "mode": self.mode,
            "visits": [visit.to_dict() for visit in self.visits],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ConsecutiveRun":
        if document.get("format") != WALK_FORMAT:
            raise ValueError(
                f"unrecognized walk format: {document.get('format')!r}"
            )
        return cls(
            mode=document["mode"],
            visits=[PageVisit.from_dict(doc) for doc in document["visits"]],
        )


def walk_material(plan) -> dict:
    """Everything but the mode and pages that shapes one walk.

    It is the config part of every walk key
    (:func:`~repro.store.keys.consecutive_key`), and its hash is the
    ``config_hash`` of a named walk run.
    """
    from repro.store.keys import transport_part

    return {
        "net_profile": (
            dataclasses.asdict(plan.net_profile)
            if plan.net_profile is not None
            else None
        ),
        "seed": plan.seed,
        "transport": (
            transport_part(plan.transport_config)
            if plan.transport_config is not None
            else None
        ),
        "use_session_tickets": plan.use_session_tickets,
        "warm_edges_first": plan.warm_edges_first,
        "strict": plan.strict,
    }


def walk(plan, mode: str) -> ConsecutiveRun:
    """Visit ``plan.pages`` in order under ``mode``; tickets persist.

    A fresh probe (fresh clock, caches and ticket store) is built per
    walk so that H2 and H3 walks are independent, mirroring the
    paper's separate browser instances.
    """
    check = None
    if plan.strict:
        from repro.check import CheckContext

        check = CheckContext()
    probe = Probe(
        name=f"consecutive-{mode}",
        universe=plan.universe,
        net_profile=plan.net_profile,
        seed=plan.seed,
        transport_config=plan.transport_config,
        use_session_tickets=plan.use_session_tickets,
        check=check,
    )
    if plan.warm_edges_first:
        probe.warm_edges(plan.pages)
    probe.clear_session_state()
    return ConsecutiveRun(
        mode=mode, visits=[probe.visit_once(page, mode) for page in plan.pages]
    )
