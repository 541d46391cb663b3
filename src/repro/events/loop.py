"""The event loop at the heart of the simulator.

Design notes
------------

* Time is a ``float`` in milliseconds.  All higher layers (links,
  transports, the browser) express delays in the same unit so there is
  never a conversion step.
* Events scheduled for the same instant fire in the order they were
  scheduled (FIFO).  This is achieved with a monotonically increasing
  sequence number used as a tie-breaker.
* Events can be cancelled.  Cancellation is O(1): the entry is marked
  dead and skipped (or purged in bulk) when its bucket drains.  This is
  the standard "lazy deletion" approach and is what retransmission
  timers rely on.

Two scheduler implementations share one API:

:class:`CalendarEventLoop` (the default ``EventLoop``)
    A calendar queue (Brown 1988) crossed with a timer wheel: a ring of
    fixed-width buckets covers the near future, a small binary heap of
    plain tuples absorbs far-future deadlines (handshake backoff, PTO
    towers), and the bucket under the cursor is drained through a
    sorted run.  Push is O(1), pop is amortized O(1), and — crucially
    for the delayed-ack/PTO churn the transports generate — an event
    that is cancelled before its bucket drains is dropped during the
    bulk purge-and-sort, never sifted through a heap.  Bucket geometry
    (1 ms × 1024) is sized to the observed timer distribution: ack
    timers (5 ms), RTTs (tens of ms) and PTOs (hundreds of ms) all land
    inside the wheel horizon; only exponential-backoff tails spill to
    the overflow heap.
:class:`HeapEventLoop`
    The original binary-heap loop, kept as the differential baseline:
    the edge-case suite runs against both, and benches record both so
    the calendar queue's advantage stays measured, not assumed.

Set ``REPRO_EVENT_LOOP=heap`` in the environment to make ``EventLoop``
an alias for the heap implementation (an A/B lever for benches and
bisection; results are bit-identical either way because both schedulers
implement the same (time, seq) total order).
"""

from __future__ import annotations

import heapq
import os
from bisect import insort
from time import perf_counter
from typing import Any, Callable

#: Calendar-queue geometry: bucket width in ms and ring size (a power
#: of two).  The wheel horizon is ``_BUCKET_WIDTH_MS * _NUM_BUCKETS``
#: (1024 ms): wide enough that delayed acks, RTT-scale deliveries and
#: first-shot PTOs stay on the O(1) ring, narrow enough that one
#: bucket rarely holds more than a handful of co-scheduled events.
_BUCKET_WIDTH_MS = 1.0
_NUM_BUCKETS = 1024
_BUCKET_MASK = _NUM_BUCKETS - 1
_INV_WIDTH = 1.0 / _BUCKET_WIDTH_MS


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class ScheduledEvent:
    """A single entry in the event queue.

    Instances are ordered by ``(time, seq)`` so that simultaneous events
    preserve scheduling order.  ``callback`` and ``args`` are excluded
    from comparisons.  ``_loop`` doubles as the "still pending" marker:
    it is cleared when the event is popped (executed or discarded) so
    the loop's live-event counter stays exact under double-cancels and
    cancels of already-fired events.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        loop: "EventLoop | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True
        loop = self._loop
        if loop is not None:
            self._loop = None
            loop._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time} seq={self.seq} {state}>"


class Timer:
    """A restartable one-shot timer bound to an :class:`EventLoop`.

    Transports use timers for retransmission timeouts: ``start`` arms the
    timer, ``stop`` disarms it, and re-arming replaces the previous
    deadline.

    Re-arming is lazy.  The timer stores its true *absolute* deadline
    and keeps at most one scheduled wake-up.  ``start`` touches the
    event queue only when the new deadline is *earlier* than the
    pending wake-up (or nothing is pending); a later deadline just
    overwrites the stored one.  A wake-up that arrives before the
    stored deadline is not a firing: it reschedules itself with
    ``call_at(deadline)`` and the callback does not run.  The callback
    therefore runs at exactly the time an eager stop+start would have
    fired, computed by the same ``now + delay_ms`` expression, while a
    timer pushed back on every ACK costs one queue entry per deadline
    interval instead of one per push.
    """

    __slots__ = ("_loop", "_callback", "_event", "_deadline")

    def __init__(self, loop: "EventLoop", callback: Callable[[], None]) -> None:
        self._loop = loop
        self._callback = callback
        self._event: ScheduledEvent | None = None
        self._deadline = 0.0

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending deadline."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay_ms: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay_ms`` from now."""
        loop = self._loop
        deadline = loop.now + delay_ms
        self._deadline = deadline
        event = self._event
        if event is not None:
            if event.time <= deadline:
                return  # the pending wake-up re-checks the deadline
            event.cancel()
        self._event = loop.call_at(deadline, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        loop = self._loop
        if loop.now < self._deadline:
            # Early wake-up: the deadline moved later since this event
            # was scheduled.  Sleep until the stored absolute deadline.
            self._event = loop.call_at(self._deadline, self._fire)
            return
        self._event = None
        self._callback()


class _LoopBase:
    """State and API shared by both scheduler implementations."""

    def __init__(self) -> None:
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        # Live (scheduled, not cancelled) events; maintained on push,
        # cancel and pop so __len__ is O(1).
        self._live = 0
        # Callback profiling: None (off, the default — the dispatch
        # loops stay branch-only) or a dict mapping callback qualname
        # to [count, total_seconds].
        self._profile: dict[str, list] | None = None
        # Invariant checking (strict mode): None keeps the dispatch
        # loops branch-only; set_check() installs a CheckContext and
        # every pop verifies time monotonicity before advancing.
        self._check = None

    def set_check(self, check) -> None:
        """Install (or clear) a :class:`repro.check.CheckContext`.

        ``call_later``/``call_at`` already refuse to schedule in the
        past; the per-pop check additionally catches queue corruption or
        events pushed behind the clock's back.
        """
        self._check = check if check else None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics/benchmarks)."""
        return self._processed

    def __len__(self) -> int:
        return self._live

    # -- callback profiling --------------------------------------------

    def enable_profiling(self) -> None:
        """Start attributing wall-clock time and counts per callback.

        Profiling reads only the host clock — it never touches simulated
        time or scheduling order, so enabling it cannot change results.
        """
        if self._profile is None:
            self._profile = {}

    def disable_profiling(self) -> None:
        """Stop profiling and drop collected data."""
        self._profile = None

    @property
    def profiling_enabled(self) -> bool:
        return self._profile is not None

    def profile_stats(self) -> dict[str, dict]:
        """Per-callback-name ``{"count", "total_ms"}``, sorted by time.

        Callback names are ``__qualname__`` (bound methods keep their
        class, lambdas show their defining scope).
        """
        if self._profile is None:
            return {}
        return {
            name: {"count": entry[0], "total_ms": entry[1] * 1000.0}
            for name, entry in sorted(
                self._profile.items(), key=lambda item: -item[1][1]
            )
        }

    def _profiled_call(self, event: ScheduledEvent) -> None:
        profile = self._profile
        assert profile is not None
        callback = event.callback
        start = perf_counter()
        callback(*event.args)
        elapsed = perf_counter() - start
        key = getattr(callback, "__qualname__", None) or repr(callback)
        entry = profile.get(key)
        if entry is None:
            profile[key] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def _execute(self, event: ScheduledEvent) -> None:
        """Advance the clock to ``event`` and run its callback."""
        if self._check is not None:
            self._check.require(
                event.time >= self._now,
                "loop:time_monotonic",
                "popped an event scheduled in the past",
                time_ms=self._now,
                event_time_ms=event.time,
            )
        self._now = event.time
        self._processed += 1
        if self._profile is None:
            event.callback(*event.args)
        else:
            self._profiled_call(event)

    # -- implementation hooks ------------------------------------------

    def call_later(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay_ms`` from now."""
        raise NotImplementedError

    def call_at(
        self, time_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        raise NotImplementedError

    def _peek(self) -> ScheduledEvent | None:
        """The next live event without executing it (purges dead ones)."""
        raise NotImplementedError

    def next_event_time(self) -> float | None:
        """Time of the earliest pending live event, or ``None`` if empty.

        The transport fast path uses this to decide how far it may walk
        analytically before yielding back to the scheduler: it never
        advances its virtual clock past a pending real event.
        """
        event = self._peek()
        return None if event is None else event.time

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (dead entries are skipped silently).
        """
        event = self._peek()
        if event is None:
            return False
        self._take(event)
        self._execute(event)
        return True

    def _take(self, event: ScheduledEvent) -> None:
        """Remove the event returned by :meth:`_peek` from the queue."""
        raise NotImplementedError

    def run(self, until_ms: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains.

        Parameters
        ----------
        until_ms:
            Stop once simulated time would pass this point.  Events at
            exactly ``until_ms`` still run.
        max_events:
            Safety valve against runaway simulations; raises
            :class:`SimulationError` as soon as a pending event would
            exceed the bound, so exactly ``max_events`` events execute
            before the error.
        """
        executed = 0
        while True:
            event = self._peek()
            if event is None:
                return
            if until_ms is not None and event.time > until_ms:
                self._now = until_ms
                return
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            self._take(event)
            executed += 1
            self._execute(event)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 50_000_000) -> None:
        """Run until ``predicate()`` becomes true or the queue drains.

        Raises :class:`SimulationError` if the predicate is still false
        after exactly ``max_events`` events have executed.
        """
        executed = 0
        step = self.step
        while not predicate():
            if executed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            if not step():
                return
            executed += 1


class CalendarEventLoop(_LoopBase):
    """Calendar-queue scheduler: O(1) push/pop on the wheel.

    Example
    -------
    >>> loop = CalendarEventLoop()
    >>> fired = []
    >>> _ = loop.call_later(5.0, fired.append, "a")
    >>> _ = loop.call_later(2.0, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    5.0

    Internals
    ---------
    ``_wheel``
        Ring of ``_NUM_BUCKETS`` unsorted lists; bucket ``i`` holds
        events whose absolute bucket index ``int(t / width)`` equals the
        cursor plus the ring offset.  Because pushes beyond the horizon
        go to the overflow heap, each slot only ever holds one bucket
        index's events — no per-rotation filtering.
    ``_drain`` / ``_drain_pos``
        The cursor bucket's events, purged of cancellations and sorted
        by ``(time, seq)`` once per bucket; popping is an index bump.
        Same-bucket pushes during the drain (the common ``call_later``
        of a chained callback) are insorted behind the read position,
        preserving the global order.
    ``_far``
        Binary heap of ``(time, seq, event)`` tuples for deadlines past
        the wheel horizon.  Tuple comparison stays in C and the heap is
        tiny (exponential-backoff tails only).
    """

    def __init__(self) -> None:
        super().__init__()
        self._wheel: list[list] = [[] for _ in range(_NUM_BUCKETS)]
        #: Events resident in wheel buckets (excluding the drain run).
        self._wheel_count = 0
        #: Absolute bucket index the drain run corresponds to; buckets
        #: behind the cursor are empty and reachable only via clamped
        #: insorts into the drain.
        self._cursor = 0
        self._drain: list[tuple] = []
        self._drain_pos = 0
        self._far: list[tuple] = []

    # -- scheduling ----------------------------------------------------

    def _push(self, event: ScheduledEvent) -> None:
        time = event.time
        index = int(time * _INV_WIDTH)
        cursor = self._cursor
        if index <= cursor:
            # Due in (or before) the bucket being drained: insort into
            # the drain run.  Entries at/behind the read position have
            # times <= now <= time, so order is preserved.  The common
            # case — a chained callback scheduling the next step — lands
            # past the current tail, so try a plain append first.
            drain = self._drain
            entry = (time, event.seq, event)
            if not drain or entry >= drain[-1]:
                drain.append(entry)
            else:
                insort(drain, entry)
        elif index - cursor < _NUM_BUCKETS:
            self._wheel[index & _BUCKET_MASK].append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._far, (time, event.seq, event))
        self._live += 1

    def call_later(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule {delay_ms}ms in the past")
        self._seq += 1
        event = ScheduledEvent(self._now + delay_ms, self._seq, callback, args, self)
        self._push(event)
        return event

    def call_at(
        self, time_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms}ms, already at {self._now}ms"
            )
        self._seq += 1
        event = ScheduledEvent(time_ms, self._seq, callback, args, self)
        self._push(event)
        return event

    # -- dequeueing ----------------------------------------------------

    def _prepare_drain(self) -> bool:
        """Advance the cursor to the next non-empty bucket.

        Returns ``True`` when the drain run holds at least one live
        event.  Cancelled entries are purged in bulk here — the batched
        timer-wheel discard that makes delayed-ack/PTO churn cheap.
        """
        while True:
            drain = self._drain
            pos = self._drain_pos
            # Fast path: live entries remain in the current run.
            while pos < len(drain):
                if not drain[pos][2].cancelled:
                    self._drain_pos = pos
                    return True
                pos += 1
            drain.clear()
            self._drain_pos = 0
            # Current bucket exhausted: find the next bucket holding
            # work, jumping straight to the overflow heap's head when
            # the wheel is empty.
            far = self._far
            if self._wheel_count == 0:
                if not far:
                    return False
                self._cursor = max(self._cursor + 1, int(far[0][0] * _INV_WIDTH))
            else:
                cursor = self._cursor
                far_index = int(far[0][0] * _INV_WIDTH) if far else None
                wheel = self._wheel
                cursor += 1
                while not wheel[cursor & _BUCKET_MASK]:
                    if far_index is not None and far_index <= cursor:
                        break
                    cursor += 1
                self._cursor = cursor
            # Collect the bucket's entries plus any overflow deadlines
            # that now fall inside it, purge cancellations, sort once.
            bucket_end = (self._cursor + 1) * _BUCKET_WIDTH_MS
            bucket = self._wheel[self._cursor & _BUCKET_MASK]
            if bucket:
                self._wheel_count -= len(bucket)
                for event in bucket:
                    if event.cancelled:
                        continue
                    drain.append((event.time, event.seq, event))
                bucket.clear()
            while far and far[0][0] < bucket_end:
                entry = heapq.heappop(far)
                if not entry[2].cancelled:
                    drain.append(entry)
            if drain:
                drain.sort()
                # Loop back to the fast path (entries may still have
                # been cancelled between append and sort — they were
                # not, but the scan is the same code either way).

    def _peek(self) -> ScheduledEvent | None:
        if not self._prepare_drain():
            return None
        return self._drain[self._drain_pos][2]

    def _take(self, event: ScheduledEvent) -> None:
        self._drain_pos += 1
        event._loop = None
        self._live -= 1

    # Hand-specialized dispatch: run() and step() below duplicate the
    # base-class logic with the drain access inlined, because this is
    # the innermost loop of every simulation (tens of millions of
    # events per campaign) and the _peek/_take indirection costs ~15%.

    def step(self) -> bool:
        drain = self._drain
        pos = self._drain_pos
        if pos < len(drain):
            event = drain[pos][2]
            if not event.cancelled:
                self._drain_pos = pos + 1
                event._loop = None
                self._live -= 1
                self._execute(event)
                return True
        if not self._prepare_drain():
            return False
        event = self._drain[self._drain_pos][2]
        self._drain_pos += 1
        event._loop = None
        self._live -= 1
        self._execute(event)
        return True

    def run(self, until_ms: float | None = None, max_events: int | None = None) -> None:
        if until_ms is not None or max_events is not None or self._check is not None:
            _LoopBase.run(self, until_ms, max_events)
            return
        # Unbounded, unchecked run: the campaign hot loop.
        prepare = self._prepare_drain
        profiled = self._profiled_call
        while True:
            drain = self._drain
            pos = self._drain_pos
            if pos >= len(drain):
                if not prepare():
                    return
                drain = self._drain
                pos = self._drain_pos
            entry = drain[pos]
            self._drain_pos = pos + 1
            event = entry[2]
            if event.cancelled:
                continue
            event._loop = None
            self._live -= 1
            self._now = entry[0]
            self._processed += 1
            if self._profile is None:
                event.callback(*event.args)
            else:
                profiled(event)

    run.__doc__ = _LoopBase.run.__doc__


class HeapEventLoop(_LoopBase):
    """The original binary-heap scheduler (differential baseline).

    Example
    -------
    >>> loop = HeapEventLoop()
    >>> fired = []
    >>> _ = loop.call_later(5.0, fired.append, "a")
    >>> _ = loop.call_later(2.0, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    5.0
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: list[ScheduledEvent] = []

    def call_later(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule {delay_ms}ms in the past")
        self._seq += 1
        event = ScheduledEvent(self._now + delay_ms, self._seq, callback, args, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def call_at(
        self, time_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms}ms, already at {self._now}ms"
            )
        self._seq += 1
        event = ScheduledEvent(time_ms, self._seq, callback, args, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def _peek(self) -> ScheduledEvent | None:
        queue = self._queue
        while queue:
            head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                continue
            return head
        return None

    def _take(self, event: ScheduledEvent) -> None:
        heapq.heappop(self._queue)
        event._loop = None
        self._live -= 1


# -- optional C-accelerated scheduler ----------------------------------

from repro.events import _accel

_ckernel = _accel.load()

if _ckernel is not None:
    _ckernel._install(SimulationError)

    class CEventLoop(_ckernel.LoopCore):
        """C-accelerated scheduler (compiled from ``_ckernel.c``).

        Same API and same (time, seq) total order as the Python
        schedulers — results are bit-identical — but push, pop and
        dispatch run outside the interpreter.  Only available when the
        host toolchain could build the extension; ``EventLoop`` falls
        back to :class:`CalendarEventLoop` otherwise.

        Example
        -------
        >>> loop = CEventLoop()
        >>> fired = []
        >>> _ = loop.call_later(5.0, fired.append, "a")
        >>> _ = loop.call_later(2.0, fired.append, "b")
        >>> loop.run()
        >>> fired
        ['b', 'a']
        >>> loop.now
        5.0
        """

        __slots__ = ()

        def profile_stats(self) -> dict[str, dict]:
            """Per-callback-name ``{"count", "total_ms"}``, sorted by time."""
            raw = self._profile_raw()
            if raw is None:
                return {}
            return {
                name: {"count": entry[0], "total_ms": entry[1] * 1000.0}
                for name, entry in sorted(
                    raw.items(), key=lambda item: -item[1][1]
                )
            }

else:  # pragma: no cover - exercised on hosts without a C toolchain
    CEventLoop = None  # type: ignore[assignment,misc]


def _select_event_loop():
    """Honour ``REPRO_EVENT_LOOP`` (``c`` | ``calendar`` | ``heap``).

    The default is the fastest available implementation: the C kernel
    when the toolchain could build it, the pure-Python calendar queue
    otherwise.  Results are bit-identical across all three; the knob
    exists for benches, bisection and differential tests.
    """
    choice = os.environ.get("REPRO_EVENT_LOOP", "").lower()
    if choice == "heap":
        return HeapEventLoop
    if choice in ("calendar", "python"):
        return CalendarEventLoop
    if CEventLoop is not None:
        return CEventLoop
    return CalendarEventLoop


#: The default scheduler; see :func:`_select_event_loop`.
EventLoop = _select_event_loop()
