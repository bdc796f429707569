"""Run records.

A :class:`RunRecord` is everything measured in one simulation run —
execution time, per-processor stall breakdowns, message counts, cache
statistics.  :meth:`~repro.system.Machine.run` builds it from the
machine's own counters, which are plain data, so a record holds nothing
of the machine's component web: it is pickle-safe for process pools and
JSON round-trippable (:meth:`RunRecord.to_dict` /
:meth:`RunRecord.from_dict`) for the on-disk result cache.
"""

import math

from repro.stats.breakdown import CATEGORIES, Breakdown
from repro.stats.counters import MessageCounters, MissCounters


class RunRecord:
    """Everything measured in one simulation run.

    Beyond the simulated quantities a record carries *run telemetry* —
    ``wall_time_s`` (host seconds the simulation took) and
    ``sim_cycles_per_s`` (simulated cycles per host second) — populated
    by whoever executed the run (:func:`repro.harness.runpool.execute_spec`
    in pool workers, the CLI for one-off runs).  Telemetry is volatile
    (two identical simulations have different wall times), so it is
    excluded from record equality.
    """

    __slots__ = (
        "label",
        "workload",
        "exec_time",
        "per_proc_time",
        "breakdowns",
        "messages",
        "misses",
        "events_fired",
        "dir_busy_cycles",
        "ni_busy_cycles",
        "wall_time_s",
        "sim_cycles_per_s",
    )

    def __init__(
        self,
        label,
        workload,
        exec_time,
        per_proc_time,
        breakdowns,
        messages,
        misses,
        events_fired,
        dir_busy_cycles=0,
        ni_busy_cycles=0,
        wall_time_s=None,
        sim_cycles_per_s=None,
    ):
        self.label = label
        self.workload = workload
        self.exec_time = exec_time
        self.per_proc_time = per_proc_time
        self.breakdowns = breakdowns
        self.messages = messages
        self.misses = misses
        self.events_fired = events_fired
        self.dir_busy_cycles = dir_busy_cycles
        self.ni_busy_cycles = ni_busy_cycles
        self.wall_time_s = wall_time_s
        self.sim_cycles_per_s = sim_cycles_per_s

    def dir_occupancy(self):
        """Mean directory-controller utilisation across the machine.

        Table 3's discussion: eliminating messages reduces directory
        occupancy "by the same amount" to first order — this lets the
        harness check that claim directly.
        """
        if self.exec_time == 0 or not self.per_proc_time:
            return 0.0
        return self.dir_busy_cycles / (self.exec_time * len(self.per_proc_time))

    def aggregate_breakdown(self):
        total = Breakdown()
        for breakdown in self.breakdowns:
            total.merge(breakdown)
        return total

    def normalized_to(self, base):
        """Execution time normalized to a baseline run."""
        if base.exec_time == 0:
            return 0.0
        return self.exec_time / base.exec_time

    def set_timing(self, wall_time_s):
        """Record how long the simulation took on the host.

        ``sim_cycles_per_s`` is left ``None`` — never raised on, never
        ``inf``/``nan`` — when the wall time is missing, non-finite, or
        zero/sub-resolution (a sufficiently fast run can land inside one
        clock tick), so BENCH JSON stays schema-valid and downstream
        ratio math can simply skip the entry."""
        self.wall_time_s = wall_time_s
        rate = None
        if wall_time_s is not None and math.isfinite(wall_time_s) and wall_time_s > 0:
            rate = self.exec_time / wall_time_s
            if not math.isfinite(rate):
                rate = None
        self.sim_cycles_per_s = rate

    def to_dict(self):
        """JSON-serializable dict; inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "workload": self.workload,
            "exec_time": self.exec_time,
            "per_proc_time": list(self.per_proc_time),
            "breakdowns": [b.as_dict() for b in self.breakdowns],
            "messages": {
                "network": dict(self.messages.network),
                "local": dict(self.messages.local),
                "data_blocks_sent": self.messages.data_blocks_sent,
            },
            "misses": self.misses.as_dict(),
            "events_fired": self.events_fired,
            "dir_busy_cycles": self.dir_busy_cycles,
            "ni_busy_cycles": self.ni_busy_cycles,
            "wall_time_s": self.wall_time_s,
            "sim_cycles_per_s": self.sim_cycles_per_s,
        }

    @classmethod
    def from_dict(cls, payload):
        breakdowns = []
        for entry in payload["breakdowns"]:
            breakdown = Breakdown()
            for category in CATEGORIES:
                breakdown.add(category, entry.get(category, 0))
            breakdowns.append(breakdown)
        messages = MessageCounters()
        messages.network.update(payload["messages"]["network"])
        messages.local.update(payload["messages"]["local"])
        messages.data_blocks_sent = payload["messages"]["data_blocks_sent"]
        misses = MissCounters()
        for name, value in payload["misses"].items():
            setattr(misses, name, value)
        return cls(
            label=payload["label"],
            workload=payload["workload"],
            exec_time=payload["exec_time"],
            per_proc_time=list(payload["per_proc_time"]),
            breakdowns=breakdowns,
            messages=messages,
            misses=misses,
            events_fired=payload["events_fired"],
            dir_busy_cycles=payload["dir_busy_cycles"],
            ni_busy_cycles=payload["ni_busy_cycles"],
            wall_time_s=payload.get("wall_time_s"),
            sim_cycles_per_s=payload.get("sim_cycles_per_s"),
        )

    def _measured_dict(self):
        """to_dict minus the volatile run telemetry (equality basis)."""
        payload = self.to_dict()
        payload.pop("wall_time_s", None)
        payload.pop("sim_cycles_per_s", None)
        return payload

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        return self._measured_dict() == other._measured_dict()

    __hash__ = None

    def __repr__(self):
        return (
            f"RunRecord({self.workload!r}, {self.label!r}, "
            f"exec_time={self.exec_time})"
        )
