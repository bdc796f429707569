"""Unit tests for the discrete-event kernel."""

import pytest

from repro.engine.resource import Resource
from repro.engine.simulator import Simulator
from repro.errors import DeadlockError, SimulationError


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.schedule(25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10, 25]
        assert sim.now == 25

    def test_schedule_relative(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if sim.now < 30:
                sim.schedule(10, chain)

        sim.schedule(10, chain)
        sim.run()
        assert seen == [10, 20, 30]

    def test_at_absolute(self):
        sim = Simulator()
        sim.schedule(5, lambda: sim.at(50, lambda: None))
        sim.run()
        assert sim.now == 50

    def test_at_in_past_rejected(self):
        sim = Simulator()

        def bad():
            sim.at(1, lambda: None)

        sim.schedule(10, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-5, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule(t, fired.append, t)
        sim.run(until=20)
        assert fired == [10, 20]
        assert sim.now == 20
        sim.run()
        assert fired == [10, 20, 30]

    def test_run_until_in_the_past_is_refused(self):
        sim = Simulator()
        fired = []
        for t in (10, 20):
            sim.schedule(t, fired.append, t)
        sim.run(until=15)
        assert sim.now == 15
        with pytest.raises(SimulationError):
            sim.run(until=5)
        assert sim.now == 15  # the clock is left alone
        sim.schedule(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 16, 20]

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(3, fired.append, "a")
        assert sim.step()
        assert fired == ["a"]
        assert not sim.step()

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run()

    def test_max_events_trips_on_same_cycle_livelock(self):
        # A callback that reschedules itself with delay 0 never leaves its
        # cycle, so the bound must be checked per event, not per cycle.
        sim = Simulator(max_events=1000)

        def spin():
            sim.schedule(0, spin)

        sim.schedule(0, spin)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run()
        assert sim.events_fired == 1001

    def test_max_events_trip_leaves_rest_of_cycle_queued(self):
        sim = Simulator(max_events=3)
        log = []

        def chain(n):
            log.append(n)
            if n < 5:
                sim.schedule(0, chain, n + 1)

        sim.schedule(2, chain, 0)
        with pytest.raises(SimulationError):
            sim.run()
        assert log == [0, 1, 2, 3]
        sim.max_events = None
        sim.run()
        assert log == [0, 1, 2, 3, 4, 5]
        assert sim.events_fired == 6 and sim.now == 2

    def test_deadlock_hook_fires(self):
        sim = Simulator()
        sim.add_deadlock_hook(lambda: "stuck widget")
        sim.schedule(1, lambda: None)
        with pytest.raises(DeadlockError, match="stuck widget"):
            sim.run()

    def test_deadlock_hook_quiet_when_done(self):
        sim = Simulator()
        sim.add_deadlock_hook(lambda: None)
        sim.schedule(1, lambda: None)
        sim.run()  # no exception

    def test_run_not_reentrant(self):
        sim = Simulator()
        caught = []

        def inner():
            try:
                sim.run()
            except SimulationError as err:
                caught.append(err)

        sim.schedule(1, inner)
        sim.run()
        assert caught


class TestResource:
    def test_serialises_jobs(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        done = []
        resource.submit(10, lambda: done.append(sim.now))
        resource.submit(10, lambda: done.append(sim.now))
        resource.submit(5, lambda: done.append(sim.now))
        sim.run()
        assert done == [10, 20, 25]

    def test_fifo_order(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        order = []
        for name in "abc":
            resource.submit(1, order.append, name)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_idle_then_busy_again(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        done = []
        resource.submit(5, lambda: done.append(sim.now))
        sim.run()
        resource.submit(5, lambda: done.append(sim.now))
        sim.run()
        assert done == [5, 10]

    def test_queue_length(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        for _ in range(3):
            resource.submit(10, lambda: None)
        assert resource.queue_length == 2

    def test_wait_cycles_accumulate(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        resource.submit(10, lambda: None)
        resource.submit(10, lambda: None)  # waits 10
        sim.run()
        assert resource.wait_cycles == 10
        assert resource.busy_cycles == 20
        assert resource.jobs == 2

    def test_utilisation(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        resource.submit(10, lambda: None)
        sim.schedule(40, lambda: None)
        sim.run()
        assert resource.utilisation() == pytest.approx(0.25)

    def test_zero_duration_job(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        done = []
        resource.submit(0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0]
