"""The bucketed event queue: firing order and run bounds.

:class:`repro.engine.simulator.Simulator` keys its queue by cycle — a
heap of cycles, and per cycle a list in schedule order — and claims the
firing order of a flat heap keyed by ``(time, schedule sequence)``.
These cases pin that order with the expected sequences written out,
including same-cycle events scheduled *during* a sweep, and check that
the ``until``/``max_events`` bounds and the negative-time guards hold on
the bucketed loop.  (The module name is historical: the bucketed queue
first ran only under the relaxed engine, which is gone.)
"""

import pytest

from repro.engine.simulator import Simulator
from repro.errors import SimulationError


class TestBucketSimulator:
    def test_interleaved_delays_fire_in_heap_order(self):
        sim = Simulator()
        log = []
        for delay, tag in [(5, "a"), (0, "b"), (5, "c"), (2, "d"), (0, "e")]:
            sim.schedule(delay, log.append, (delay, tag))
        sim.run()
        assert log == [(0, "b"), (0, "e"), (2, "d"), (5, "a"), (5, "c")]

    def test_same_cycle_event_scheduled_mid_sweep_fires_in_sweep(self):
        # An event scheduled with delay 0 during its own cycle's sweep
        # fires in that sweep, after everything already queued there.
        sim = Simulator()
        log = []
        sim.schedule(3, lambda: (log.append("first"), sim.schedule(0, log.append, "chained")))
        sim.schedule(3, log.append, "second")
        sim.run()
        assert log == ["first", "second", "chained"]
        assert sim.now == 3
        assert sim.events_fired == 3

    def test_at_and_step_match_flat_heap(self):
        sim = Simulator()
        log = []
        sim.at(7, log.append, "late")
        sim.at(2, log.append, "early")
        assert sim.step()
        assert log == ["early"] and sim.now == 2
        assert sim.step()
        assert log == ["early", "late"] and sim.now == 7
        assert not sim.step()

    def test_until_pauses_without_draining(self):
        # ``until`` falls between two cycles: the clock stops there and
        # the later cycle stays queued for the next run.
        sim = Simulator()
        log = []
        sim.schedule(1, log.append, "x")
        sim.schedule(10, log.append, "y")
        sim.run(until=5)
        assert log == ["x"] and sim.now == 5
        sim.run()
        assert log == ["x", "y"] and sim.now == 10

    def test_max_events_guard_still_trips(self):
        sim = Simulator(max_events=10)

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        with pytest.raises(SimulationError):
            sim.at(-1, lambda: None)
