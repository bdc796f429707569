"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`~repro.engine.simulator.Simulator`
that owns the clock and a per-cycle bucketed event queue, generator-based
processes for sequential behaviours (:mod:`repro.engine.process`), and FIFO
occupancy :class:`resources <repro.engine.resource.Resource>` used to model
contention at the cache controller, directory controller and network
interfaces.
"""

from repro.engine.process import Process, Timeout, Waiter
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator

__all__ = ["Process", "Resource", "Simulator", "Timeout", "Waiter"]
