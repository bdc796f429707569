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
from repro.errors import ReproError
from repro.stats.record import RunRecord
from repro.system import Machine
from repro.workloads import CATALOG, EXTRAS, by_name


class SpecValidationError(ReproError):
    """A JSON RunSpec payload failed strict validation.

    Raised by :meth:`RunSpec.from_dict` with *every* problem collected
    (not just the first), so one error names everything wrong with a
    spec.  ``errors`` is a JSON-safe list of
    ``{"field", "value", "reason"}`` dicts.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        summary = "; ".join(
            f"{entry['field']}: {entry['reason']}" for entry in self.errors
        )
        super().__init__(f"invalid RunSpec payload — {summary}")


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

        ``observer`` is the zero-overhead-when-disabled telemetry hook
        (``observer is not None``, mirroring the probe bus guard): an
        object with ``attach(machine)``/``detach()`` — e.g. the harness
        :class:`~repro.harness.telemetry.HeartbeatSampler` — that only
        *reads* live machine counters.  Unlike an ``instrument`` it does
        not alter engine selection or results.
        """
        if program is None:
            program = self.build_program()
        machine = Machine(self.config, program)
        if observer is not None:
            observer.attach(machine)
            try:
                result = machine.run()
            finally:
                observer.detach()
        else:
            result = machine.run()
        return RunRecord.from_result(result)

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

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a spec from its :meth:`to_dict` form — strictly.

        A JSON spec comes from outside the process, so this rejects
        rather than guesses: unknown top-level or config fields, an
        unregistered workload, non-scalar generator arguments, bad enum
        values and type mismatches all fail with a
        :class:`SpecValidationError` carrying *every* problem found.
        Semantic constraints (``SystemConfig.__post_init__``) are checked
        last and reported the same way.  Round trip:
        ``RunSpec.from_dict(spec.to_dict()) == spec`` (same cache key).
        """
        errors = []

        def bad(field, value, reason):
            errors.append({"field": field, "value": _safe(value), "reason": reason})

        if not isinstance(payload, dict):
            raise SpecValidationError(
                [{"field": "", "value": _safe(payload),
                  "reason": f"spec must be a JSON object, not {type(payload).__name__}"}]
            )
        for name in sorted(set(payload) - {"workload", "workload_args", "config"}):
            bad(name, payload[name], "unknown field (have: workload, workload_args, config)")

        workload = payload.get("workload")
        if workload is None:
            bad("workload", None, "required field is missing")
        elif not isinstance(workload, str):
            bad("workload", workload, "must be a workload name (string)")
        elif workload not in CATALOG and workload not in EXTRAS:
            known = ", ".join(sorted(CATALOG) + sorted(EXTRAS))
            bad("workload", workload, f"unknown workload (have: {known})")

        args = payload.get("workload_args", {})
        if not isinstance(args, dict):
            bad("workload_args", args, "must be an object of generator arguments")
            args = {}
        else:
            for name in sorted(args):
                value = args[name]
                if not isinstance(name, str):
                    bad(f"workload_args.{name}", value, "argument names must be strings")
                elif not isinstance(value, (bool, int, float, str)):
                    bad(
                        f"workload_args.{name}", value,
                        "generator arguments must be JSON scalars "
                        f"(got {type(value).__name__})",
                    )

        config_payload = payload.get("config", {})
        config_fields = {}
        if not isinstance(config_payload, dict):
            bad("config", config_payload, "must be an object of SystemConfig fields")
        else:
            known = {field.name: field for field in fields(SystemConfig)}
            for name in sorted(config_payload):
                value = config_payload[name]
                field = known.get(name)
                where = f"config.{name}"
                if field is None:
                    bad(where, value, "unknown SystemConfig field")
                    continue
                default = field.default
                if isinstance(default, enum.Enum):
                    enum_type = type(default)
                    try:
                        config_fields[name] = (
                            value if isinstance(value, enum_type) else enum_type(value)
                        )
                    except ValueError:
                        have = ", ".join(repr(member.value) for member in enum_type)
                        bad(where, value, f"bad {enum_type.__name__} value (have: {have})")
                elif isinstance(default, bool):
                    if not isinstance(value, bool):
                        bad(where, value, "must be a boolean")
                    else:
                        config_fields[name] = value
                elif isinstance(default, int):
                    if isinstance(value, bool) or not isinstance(value, int):
                        bad(where, value, "must be an integer")
                    else:
                        config_fields[name] = value
                else:  # pragma: no cover - no such fields today
                    config_fields[name] = value
        if errors:
            raise SpecValidationError(errors)
        try:
            config = SystemConfig(**config_fields)
        except ReproError as exc:
            raise SpecValidationError(
                [{"field": "config", "value": None, "reason": str(exc)}]
            ) from exc
        return cls.create(workload, config, **args)

    def describe(self):
        """Short human-readable label, e.g. ``em3d/SC+DSI(V)``."""
        return f"{self.workload}/{self.config.describe()}"

    def __repr__(self):
        return f"RunSpec({self.describe()}, key={self.key()[:12]})"


def _safe(value):
    """A JSON-representable echo of a rejected value (error payloads must
    always serialize, whatever garbage arrived)."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def _config_dict(config):
    out = {}
    for field in fields(config):
        value = getattr(config, field.name)
        out[field.name] = value.value if isinstance(value, enum.Enum) else value
    return out
