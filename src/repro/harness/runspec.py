"""Declarative run specifications.

A :class:`RunSpec` names one simulation — a registered workload, its
generator arguments, and a full :class:`~repro.config.SystemConfig` — as
a frozen, hashable value.  Specs are the planning currency of the
harness: experiments declare every run up front, a
:class:`~repro.harness.runpool.RunPool` executes the batch (fanning out
across processes and consulting the persistent result cache), and the
experiments then collect the resulting
:class:`~repro.stats.record.RunRecord` values.

Because a spec carries only names and plain values, it pickles cheaply
into worker processes and digests into a stable content address
(:meth:`RunSpec.key`) for the on-disk cache.
"""

import enum
import hashlib
import json
from dataclasses import dataclass, fields

from repro.config import SystemConfig
from repro.system import Machine
from repro.workloads import by_name


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully described by value."""

    workload: str
    workload_args: tuple  # sorted (name, value) pairs for the generator
    config: SystemConfig

    @classmethod
    def create(cls, workload, config, **workload_args):
        """Normalize keyword generator arguments into a frozen spec."""
        return cls(workload, tuple(sorted(workload_args.items())), config)

    # ------------------------------------------------------------------
    def args_dict(self):
        return dict(self.workload_args)

    def build_program(self):
        """Regenerate the workload program (deterministic by seed)."""
        return by_name(self.workload, **self.args_dict())

    def execute(self, program=None, observer=None):
        """Run the simulation this spec describes; returns a
        :class:`~repro.stats.record.RunRecord`.

        ``observer`` is an optional hook with ``attach(machine)`` and
        ``detach()``: ``attach`` is called on the built machine before
        the run, ``detach`` after it, also when the run raises.  It may
        only *read* the machine (the benchmark's run clock times
        ``Machine.run`` and checks :meth:`Machine.progress` this way);
        unlike an ``instrument`` it alters neither engine selection nor
        results.  ``None`` costs one ``is not None`` check.  The machine
        is closed (:meth:`Machine.close`) after ``detach``, so a sweep
        frees each finished machine at once.
        """
        if program is None:
            program = self.build_program()
        with Machine(self.config, program) as machine:
            if observer is None:
                return machine.run()
            observer.attach(machine)
            try:
                return machine.run()
            finally:
                observer.detach()

    # ------------------------------------------------------------------
    def to_dict(self):
        """Canonical plain-value form (enums flattened) used for hashing
        and cache metadata."""
        return {
            "workload": self.workload,
            "workload_args": self.args_dict(),
            "config": _config_dict(self.config),
        }

    def key(self):
        """Stable content address of this spec (sha256 hex digest)."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def describe(self):
        """Short human-readable label, e.g. ``em3d/SC+DSI(V)``."""
        return f"{self.workload}/{self.config.describe()}"

    def __repr__(self):
        return f"RunSpec({self.describe()}, key={self.key()[:12]})"


def _config_dict(config):
    out = {}
    for field in fields(config):
        value = getattr(config, field.name)
        out[field.name] = value.value if isinstance(value, enum.Enum) else value
    return out
