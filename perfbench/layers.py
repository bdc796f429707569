"""Host-time split of a simulation across the simulator's own layers.

The traced run wraps the public entry points of each layer *on the
classes*, before any ``Machine`` is built: ``Resource`` prebinds
``sim.schedule`` and ``Simulator`` has ``__slots__``, so per-instance
patching would miss calls.  Every wrapper opens a span on a stack; a
layer's self time is each of its spans' duration minus the part its
child spans cover.  The stack charges every interval of host time to the
innermost open span, so self times are exact and add up to the traced
time with no double counting.  Totals are kept in memory and written
out once, at the end (pool workers write theirs after each spec, see
:meth:`LayerTracer.install`).

Callbacks fired by the event loop are attributed to the module of their
owner: a bound method to its class's module, a closure to the module
that defined it.  A ``Resource`` completion is attributed to the
callback it completes, because the resource models that controller's
occupancy.
"""

import json
import os
from time import perf_counter

from repro.directory.controller import DirectoryController
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator
from repro.harness import runpool
from repro.harness.runpool import RunPool
from repro.harness.runspec import RunSpec
from repro.memory.cache import Cache
from repro.memory.write_buffer import CoalescingWriteBuffer
from repro.network.network import Network
from repro.processor.fastpath import FastPath
from repro.protocol.controller import CacheController
from repro.system import Machine

#: Span layers.  ``system.run`` is ``Machine.run``'s own body and
#: ``other`` a callback from a module outside every layer: both count as
#: unattributed time.
LAYERS = (
    "engine", "processor", "protocol", "memory", "directory", "network",
    "workloads", "system.build", "system.run", "harness", "other",
)

#: Module prefix -> layer for event-loop callbacks.  The compiled
#: transition tables and the DSI mechanisms run on behalf of the cache
#: controller, so they count as protocol.
MODULE_LAYERS = (
    ("repro.engine", "engine"),
    ("repro.processor", "processor"),
    ("repro.protocol", "protocol"),
    ("repro.coherence", "protocol"),
    ("repro.core", "protocol"),
    ("repro.directory", "directory"),
    ("repro.network", "network"),
    ("repro.memory", "memory"),
)

#: (class, methods, layer) for every wrapped entry point.
ENTRY_POINTS = (
    (Simulator, ("run",), "engine"),
    (CacheController, ("read", "write", "try_read", "try_write", "receive"), "protocol"),
    (DirectoryController, ("receive",), "directory"),
    (Network, ("send",), "network"),
    (Cache, ("lookup", "fill", "invalidate"), "memory"),
    (
        CoalescingWriteBuffer,
        ("get", "allocate", "merge", "mark_data_arrived", "retire", "when_space", "when_empty"),
        "memory",
    ),
    (FastPath, ("advance",), "processor"),
    (Machine, ("__init__",), "system.build"),
    (RunSpec, ("build_program",), "workloads"),
    (RunPool, ("run_batch",), "harness"),
)


def _module_layer(module):
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class LayerTracer:
    """Per-layer self time, call counts and fired callbacks of one
    process.  :meth:`install` patches the classes; :meth:`uninstall`
    restores them."""

    def __init__(self, dump_dir=None):
        self.dump_dir = dump_dir
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}
        self.fired = dict.fromkeys(LAYERS, 0)
        self.counts = {"run_s": 0.0, "runs": 0, "direct_ops": 0}
        self._stack = []
        self._mark = [0.0]
        self._fastpaths = []
        self._module_layers = {}
        self._saved = []
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    def reset(self):
        """Zero every total in place (the wrappers hold references)."""
        self.pid = os.getpid()
        for table in (self.self_s, self.fired, self.calls, self.counts):
            for key in table:
                table[key] = 0
        self._stack.clear()
        self._fastpaths.clear()

    def totals(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "fired": dict(self.fired),
            "counts": dict(self.counts),
        }

    @staticmethod
    def merge(parts):
        """Sum several :meth:`totals` dicts (the parent and its workers)."""
        out = {"self_s": {}, "calls": {}, "fired": {}, "counts": {}}
        for part in parts:
            for section, table in part.items():
                for key, value in table.items():
                    out[section][key] = out[section].get(key, 0) + value
        return out

    # ------------------------------------------------------------------
    def layer_of(self, callback, args):
        owner = getattr(callback, "__self__", None)
        if type(owner) is Resource:
            callback = args[0]
            owner = getattr(callback, "__self__", None)
        module = type(owner).__module__ if owner is not None else getattr(
            callback, "__module__", None
        ) or ""
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = _module_layer(module)
        return layer

    def _span(self, fn, layer, label):
        stack, self_s, calls, mark = self._stack, self.self_s, self.calls, self._mark
        clock = perf_counter
        calls.setdefault(label, 0)

        def traced(*args, **kwargs):
            now = clock()
            if stack:
                self_s[stack[-1]] += now - mark[0]
            stack.append(layer)
            mark[0] = now
            calls[label] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _fire(self, layer, callback, args):
        """Trampoline scheduled in place of every event callback."""
        stack, self_s, mark = self._stack, self.self_s, self._mark
        now = perf_counter()
        self_s[stack[-1]] += now - mark[0]
        stack.append(layer)
        mark[0] = now
        self.fired[layer] += 1
        try:
            callback(*args)
        finally:
            now = perf_counter()
            self_s[stack.pop()] += now - mark[0]
            mark[0] = now

    # ------------------------------------------------------------------
    def install(self):
        """Wrap every entry point; returns self (use as a context manager)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, names, layer in ENTRY_POINTS:
            for name in names:
                fn = cls.__dict__[name]
                self._patch(cls, name, self._span(fn, layer, f"{cls.__name__}.{name}"))
        fire = self._fire
        layer_of = self.layer_of
        for name in ("schedule", "at"):
            inner = self._span(Simulator.__dict__[name], "engine", f"Simulator.{name}")

            def scheduler(sim, when, callback, *args, _inner=inner):
                _inner(sim, when, fire, layer_of(callback, args), callback, args)

            self._patch(Simulator, name, scheduler)
        self._patch(Machine, "run", self._traced_run(Machine.__dict__["run"]))
        fastpaths = self._fastpaths
        fastpath_init = FastPath.__dict__["__init__"]

        def track_fastpath(fast, proc):
            fastpath_init(fast, proc)
            fastpaths.append(fast)

        self._patch(FastPath, "__init__", track_fastpath)
        if self.dump_dir is not None:
            self._patch(runpool, "execute_spec", self._traced_execute_spec(runpool.execute_spec))
        return self

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _traced_run(self, run):
        """``Machine.run`` span, plus its inclusive time and the ops the
        direct-execution batcher retired (a batcher that unplugged itself
        is no longer reachable from its processor, hence the list)."""
        traced = self._span(run, "system.run", "Machine.run")
        counts, fastpaths = self.counts, self._fastpaths

        def machine_run(machine):
            started = perf_counter()
            try:
                return traced(machine)
            finally:
                counts["run_s"] += perf_counter() - started
                counts["runs"] += 1
                counts["direct_ops"] += sum(fast.retired_ops for fast in fastpaths)
                fastpaths.clear()

        return machine_run

    def _traced_execute_spec(self, execute_spec):
        """Pool-worker side: a forked worker inherits the patched classes
        but not a clean stack, so it resets on its first spec and writes
        its running totals after every spec (the parent merges them once
        the pool has shut down)."""
        traced = self._span(execute_spec, "harness", "execute_spec")
        parent = os.getpid()

        def worker_execute(spec, observer=None):
            if os.getpid() != self.pid:
                self.reset()
            try:
                return traced(spec, observer)
            finally:
                if os.getpid() != parent:
                    self.dump(os.path.join(self.dump_dir, f"worker-{os.getpid()}.json"))

        return worker_execute

    def dump(self, path):
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)
        os.replace(tmp, path)

    def worker_totals(self):
        """Totals written by pool workers under ``dump_dir``."""
        parts = []
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.dump_dir, name), encoding="utf-8") as handle:
                    parts.append(json.load(handle))
        return parts
