"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`~repro.engine.simulator.Simulator`
that owns the clock and a per-cycle bucketed event queue, and FIFO
occupancy :class:`resources <repro.engine.resource.Resource>` used to model
contention at the cache controller, directory controller and network
interfaces.  Components are callback state machines: each schedules its
next step with :meth:`Simulator.schedule`.
"""

from repro.engine.resource import Resource
from repro.engine.simulator import Simulator

__all__ = ["Resource", "Simulator"]
