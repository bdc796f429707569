"""FIFO occupancy resources.

A :class:`Resource` models a unit of hardware that can do one thing at a
time for a fixed number of cycles — the cache controller (3 cycles per
miss), the directory controller (10 cycles per request) and the network
interface (3 cycles per injection, +8 with a data block).  Work submitted
while the resource is busy queues in FIFO order; this is exactly the
"contention is accurately modeled at the directory, cache and network
interface" behaviour of the paper's methodology (§5.1).
"""

from collections import deque


class Resource:
    """A single-server FIFO queue with per-job service times.

    Jobs are ``(duration, callback, args)``; the callback fires when the
    job *completes* (after queueing delay + service time).  Statistics are
    kept so benchmarks can report utilisation and queueing delay.

    ``depth_probe``, when given, is called with the queue length every
    time a job enters or leaves the wait queue — the instrumentation
    layer's contention time series (``None``, the default, costs one
    ``is not None`` test per transition).
    """

    __slots__ = (
        "sim", "name", "busy", "_queue", "busy_cycles", "jobs", "wait_cycles",
        "depth_probe", "_schedule", "_on_finish",
    )

    def __init__(self, sim, name="", depth_probe=None):
        self.sim = sim
        self.name = name
        self.busy = False
        self._queue = deque()
        self.busy_cycles = 0
        self.jobs = 0
        self.wait_cycles = 0
        self.depth_probe = depth_probe
        # Prebound: every job schedules one completion.
        self._schedule = sim.schedule
        self._on_finish = self._finish

    def submit(self, duration, callback, *args):
        """Run a job of ``duration`` cycles; fire ``callback(*args)`` on completion."""
        if self.busy:
            self._queue.append((self.sim.now, duration, callback, args))
            if self.depth_probe is not None:
                self.depth_probe(len(self._queue))
        else:
            self.busy = True
            self.jobs += 1
            self.busy_cycles += duration
            self._schedule(duration, self._on_finish, callback, args)

    def _finish(self, callback, args):
        """Complete the job in service, start the next queued one, then
        fire the completed job's callback."""
        queue = self._queue
        if queue:
            submitted, duration, next_callback, next_args = queue.popleft()
            if self.depth_probe is not None:
                self.depth_probe(len(queue))
            self.jobs += 1
            self.busy_cycles += duration
            self.wait_cycles += self.sim.now - submitted
            self._schedule(duration, self._on_finish, next_callback, next_args)
        else:
            self.busy = False
        callback(*args)

    @property
    def queue_length(self):
        """Number of jobs waiting (not counting the one in service)."""
        return len(self._queue)

    def utilisation(self):
        """Fraction of elapsed simulated time this resource was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_cycles / self.sim.now
