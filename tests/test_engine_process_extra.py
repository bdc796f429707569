"""Additional engine coverage: resource chains and simulator edge
cases."""

import pytest

from repro.engine.resource import Resource
from repro.engine.simulator import Simulator


class TestResourceChains:
    def test_resource_feeding_resource(self):
        """Two stages in series: completion of stage 1 submits stage 2."""
        sim = Simulator()
        stage1 = Resource(sim, "s1")
        stage2 = Resource(sim, "s2")
        finished = []

        def into_stage2(tag):
            stage2.submit(5, lambda: finished.append((tag, sim.now)))

        for tag in range(3):
            stage1.submit(10, into_stage2, tag)
        sim.run()
        # stage1 completes at 10/20/30; stage2 5 cycles later each (no
        # overlap conflicts since stage2 jobs are shorter).
        assert [t for (_tag, t) in sorted(finished, key=lambda x: x[1])] == [15, 25, 35]

    def test_resource_stats_after_chain(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        for _ in range(4):
            resource.submit(5, lambda: None)
        sim.run()
        assert resource.busy_cycles == 20
        assert not resource.busy

    def test_submit_during_service(self):
        sim = Simulator()
        resource = Resource(sim, "r")
        done = []

        def first():
            resource.submit(5, lambda: done.append(("second", sim.now)))
            done.append(("first", sim.now))

        resource.submit(10, first)
        sim.run()
        assert done == [("first", 10), ("second", 15)]


class TestSimulatorEdges:
    def test_callback_exception_propagates(self):
        sim = Simulator()

        def boom():
            raise ValueError("bang")

        sim.schedule(1, boom)
        with pytest.raises(ValueError, match="bang"):
            sim.run()

    def test_run_after_exception_possible(self):
        sim = Simulator()
        sim.schedule(1, lambda: (_ for _ in ()).throw(ValueError()))
        with pytest.raises(ValueError):
            sim.run()
        fired = []
        sim.schedule(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired  # the simulator is reusable after a callback error

    def test_until_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 10)
        sim.run(until=10)
        assert fired == [10]

    def test_until_does_not_drop_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 10)
        sim.schedule(20, fired.append, 20)
        sim.run(until=15)
        assert fired == [10]
        sim.run(until=25)
        assert fired == [10, 20]
