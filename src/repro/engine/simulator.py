"""The simulator: a clock plus an event queue.

Components interact with the simulator exclusively through
:meth:`Simulator.schedule` (relative delay) and :meth:`Simulator.at`
(absolute time).  The simulator itself knows nothing about caches or
networks; it only fires callbacks in timestamp order.

The queue is keyed by *cycle*: a heap of the cycles that hold events,
and per cycle a plain list of ``(callback, args)`` pairs in schedule
order.  Most simulated cycles hold several events (every message hop
lands with its completion, drain and delivery neighbours), so this
touches the heap once per cycle rather than once per event.  Append
order within a cycle is schedule order, which makes the firing order
exactly that of a flat heap keyed by ``(time, schedule sequence)`` —
deterministic and bit-for-bit reproducible.
"""

from heapq import heappop, heappush

from repro.errors import DeadlockError, SimulationError


class Simulator:
    """Owns the simulated clock and drives the event loop.

    Parameters
    ----------
    max_events:
        Safety valve: abort if more than this many events fire in one call
        to :meth:`run` (guards against protocol livelock in tests).
    """

    __slots__ = (
        "now", "max_events", "events_fired", "_buckets", "_times", "_running",
        "_deadlock_hooks",
    )

    def __init__(self, max_events=None):
        self.now = 0
        self.max_events = max_events
        self.events_fired = 0
        self._buckets = {}  # cycle -> [(callback, args), ...] in schedule order
        self._times = []  # heap of the cycles that currently hold a bucket
        self._running = False
        self._deadlock_hooks = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Fire ``callback(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # ``at`` inlined: this is the hottest call in the simulator.
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, args)]
            heappush(self._times, time)
        else:
            bucket.append((callback, args))

    def at(self, time, callback, *args):
        """Fire ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, args)]
            heappush(self._times, time)
        else:
            bucket.append((callback, args))

    def add_deadlock_hook(self, hook):
        """Register ``hook() -> str | None`` consulted when the queue drains.

        If any hook returns a non-empty string, the simulation is considered
        deadlocked and :class:`~repro.errors.DeadlockError` is raised with
        the concatenated diagnostics.
        """
        self._deadlock_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire the single earliest event.  Returns False if none remain."""
        if not self._times:
            return False
        time = self._times[0]
        bucket = self._buckets[time]
        callback, args = bucket.pop(0)
        if not bucket:
            del self._buckets[time]
            heappop(self._times)
        self.now = time
        self.events_fired += 1
        callback(*args)
        return True

    def run(self, until=None):
        """Run until the queue drains (or past ``until`` cycles).

        Returns the final simulated time.  Raises
        :class:`~repro.errors.DeadlockError` if the queue drains while a
        registered deadlock hook reports outstanding work.

        A cycle's bucket stays registered during its sweep, so an event
        scheduled for the current cycle mid-sweep appends to it and the
        plain ``for`` fires it in this very sweep (a list iterator is
        index-based and visits elements appended during iteration): same
        time, later sequence, fires last.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired_at_entry = self.events_fired
        times = self._times
        buckets = self._buckets
        max_events = self.max_events
        try:
            if until is None and max_events is None:
                # The common (benchmark) shape: no bound checks, and the
                # event count is settled once per bucket.
                while times:
                    time = heappop(times)
                    self.now = time
                    bucket = buckets[time]
                    for callback, args in bucket:
                        callback(*args)
                    self.events_fired += len(bucket)
                    del buckets[time]
                self._check_deadlock()
            else:
                while times:
                    time = times[0]
                    if until is not None and time > until:
                        self.now = until
                        break
                    heappop(times)
                    self.now = time
                    bucket = buckets[time]
                    # The bound is checked after every event: a callback
                    # that reschedules itself with delay 0 never leaves
                    # its bucket.
                    for fired, (callback, args) in enumerate(bucket, 1):
                        callback(*args)
                        self.events_fired += 1
                        if (
                            max_events is not None
                            and self.events_fired - fired_at_entry > max_events
                        ):
                            # Keep the unfired rest of the cycle queued.
                            del bucket[:fired]
                            if bucket:
                                heappush(times, time)
                            else:
                                del buckets[time]
                            raise SimulationError(
                                f"exceeded max_events={max_events}; likely livelock"
                            )
                    del buckets[time]
                else:
                    self._check_deadlock()
        finally:
            self._running = False
        return self.now

    def _check_deadlock(self):
        diagnostics = [msg for hook in self._deadlock_hooks for msg in [hook()] if msg]
        if diagnostics:
            raise DeadlockError(
                "event queue drained with outstanding work:\n  " + "\n  ".join(diagnostics)
            )
