"""Live campaign progress: wall-clock heartbeats and a run summary.

Long campaigns are opaque while they run — the simulator is silent
until the result object comes back.  :class:`ProgressReporter` fixes
that with heartbeat lines on stderr (never stdout, which belongs to
``--json`` output) driven by a *wall-clock* ticker, plus a final
summary dict the run manifest records.

Everything here reads host time and host memory only.  The reporter
observes finished outcomes — it never touches a live simulation — so
enabling progress cannot change a single result.  None of its fields
enter store content keys.
"""

from __future__ import annotations

import sys
import time

#: Counter names the reporter understands (absent counters read as 0).
_EVENTS_COUNTER = "loop.events_processed"


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process tree, in KiB.

    Uses ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux); returns
    ``None`` on platforms without the module.  Children are included so
    pooled campaigns report the real footprint.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, children))


class ProgressReporter:
    """Counts finished visits and emits periodic heartbeat lines.

    The campaign runner calls :meth:`add_outcome` for every fresh
    outcome (and :meth:`add_replayed` for store hits); at most one
    heartbeat per ``interval_s`` of wall-clock time is written to
    ``stream``.  :meth:`finish` returns the summary dict.
    """

    def __init__(
        self,
        total: int,
        workers: int = 1,
        interval_s: float = 1.0,
        stream=None,
    ) -> None:
        self.total = total
        self.workers = workers
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.replayed = 0
        self.failed = 0
        self.events = 0
        self.heartbeats = 0
        self._started = time.monotonic()
        self._last_beat = self._started

    # -- feeding -------------------------------------------------------

    def add_replayed(self, n: int = 1) -> None:
        """Count ``n`` visits served from the result store."""
        self.done += n
        self.replayed += n
        self._maybe_heartbeat()

    def add_outcome(self, outcome) -> None:
        """Count one freshly measured :class:`VisitOutcome`."""
        self.done += 1
        if getattr(outcome, "status", "ok") == "failed":
            self.failed += 1
        for visit in (getattr(outcome, "h2", None), getattr(outcome, "h3", None)):
            payload = getattr(visit, "counters", None)
            if not payload:
                continue
            counters = payload.get("counters", {})
            self.events += _as_int(counters.get(_EVENTS_COUNTER))
        self._maybe_heartbeat()

    # -- reporting -----------------------------------------------------

    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._last_beat < self.interval_s and self.done < self.total:
            return
        self._last_beat = now
        self.heartbeats += 1
        self.stream.write(self.heartbeat_line(now) + "\n")
        self.stream.flush()

    def heartbeat_line(self, now: float | None = None) -> str:
        """One human-readable status line (also what lands on stderr)."""
        now = time.monotonic() if now is None else now
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        parts = [
            f"[progress] {self.done}/{self.total} visits"
            f" ({100.0 * self.done / self.total:.0f}%)" if self.total else
            f"[progress] {self.done} visits",
            f"{rate:.1f} visits/s",
        ]
        if self.events:
            parts.append(f"{self.events / elapsed / 1e3:.0f}k ev/s")
        if self.replayed:
            parts.append(f"{self.replayed} replayed")
        if self.failed:
            parts.append(f"{self.failed} failed")
        parts.append(f"workers={self.workers}")
        rss = peak_rss_kb()
        if rss is not None:
            parts.append(f"rss={rss / 1024.0:.0f}MiB")
        if remaining > 0 and rate > 0:
            parts.append(f"eta {eta:.0f}s")
        return "  ".join(parts)

    def finish(self) -> dict:
        """Final summary for the run manifest (wall-clock, diagnostic)."""
        elapsed = max(time.monotonic() - self._started, 1e-9)
        summary = {
            "visits": self.done,
            "total": self.total,
            "replayed": self.replayed,
            "failed": self.failed,
            "wall_s": round(elapsed, 3),
            "visits_per_s": round(self.done / elapsed, 3),
            "events": self.events,
            "events_per_s": round(self.events / elapsed, 1),
            "workers": self.workers,
            "heartbeats": self.heartbeats,
        }
        rss = peak_rss_kb()
        if rss is not None:
            summary["peak_rss_kb"] = rss
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgressReporter {self.done}/{self.total}>"


def _as_int(value) -> int:
    """Counter value as an int (registry values are floats; dicts → 0)."""
    return int(value) if isinstance(value, (int, float)) else 0
