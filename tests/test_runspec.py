"""RunSpec and RunRecord: value semantics, hashing, serialization."""

import pickle

import pytest

from repro.config import IdentifyScheme, SystemConfig
from repro.harness.runspec import RunSpec, SpecValidationError
from repro.stats.record import RunRecord


def _config(**overrides):
    defaults = dict(n_processors=2, cache_size=8192, quantum=1)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def _spec(**config_overrides):
    return RunSpec.create(
        "write_conflict", _config(n_processors=3, **config_overrides),
        n_procs=3, conflict=True, rounds=1,
    )


class TestRunSpec:
    def test_create_normalizes_kwarg_order(self):
        config = _config()
        a = RunSpec.create("ocean", config, n=8, n_procs=2, seed=3)
        b = RunSpec.create("ocean", config, seed=3, n_procs=2, n=8)
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_hashable_and_usable_as_dict_key(self):
        spec = _spec()
        assert {spec: "x"}[_spec()] == "x"

    def test_distinct_configs_distinct_keys(self):
        base = _spec()
        dsi = _spec(identify=IdentifyScheme.VERSION)
        assert base != dsi
        assert base.key() != dsi.key()

    def test_distinct_workload_args_distinct_keys(self):
        a = RunSpec.create("write_conflict", _config(n_processors=3), n_procs=3, rounds=1)
        b = RunSpec.create("write_conflict", _config(n_processors=3), n_procs=3, rounds=2)
        assert a.key() != b.key()

    def test_key_is_stable_across_calls(self):
        spec = _spec()
        assert spec.key() == spec.key()
        assert len(spec.key()) == 64  # sha256 hex

    def test_to_dict_flattens_enums(self):
        payload = _spec(identify=IdentifyScheme.VERSION).to_dict()
        assert payload["config"]["identify"] == IdentifyScheme.VERSION.value
        assert payload["workload"] == "write_conflict"
        assert payload["workload_args"]["rounds"] == 1

    def test_pickle_round_trip(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_build_program_is_deterministic(self):
        spec = _spec()
        one, two = spec.build_program(), spec.build_program()
        assert one.n_procs == two.n_procs == 3
        assert [len(t) for t in one.traces] == [len(t) for t in two.traces]

    def test_unknown_workload_raises(self):
        spec = RunSpec.create("no_such_workload", _config())
        with pytest.raises(KeyError):
            spec.build_program()

    def test_execute_returns_record(self):
        record = _spec().execute()
        assert isinstance(record, RunRecord)
        assert record.exec_time > 0
        assert record.workload.startswith("write_conflict")


class TestRunSpecFromDict:
    """Strict JSON round-trip (the sweep service's validation path)."""

    def test_round_trip_preserves_identity_and_key(self):
        spec = _spec(identify=IdentifyScheme.VERSION)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key() == spec.key()

    def test_round_trip_through_json_text(self):
        import json

        spec = _spec()
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.key() == spec.key()

    def test_non_object_payload_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(["not", "a", "spec"])
        assert "JSON object" in excinfo.value.errors[0]["reason"]

    def test_unknown_top_level_field_rejected(self):
        payload = _spec().to_dict()
        payload["priority"] = "high"
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert [e["field"] for e in excinfo.value.errors] == ["priority"]
        assert "unknown field" in excinfo.value.errors[0]["reason"]

    def test_missing_workload_rejected(self):
        payload = _spec().to_dict()
        del payload["workload"]
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert excinfo.value.errors[0]["field"] == "workload"
        assert "missing" in excinfo.value.errors[0]["reason"]

    def test_unregistered_workload_rejected(self):
        payload = _spec().to_dict()
        payload["workload"] = "barnes_hut"
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert "unknown workload" in excinfo.value.errors[0]["reason"]
        # the message names the registered catalog so a client can self-fix
        assert "producer_consumer" in excinfo.value.errors[0]["reason"]

    def test_non_scalar_workload_arg_rejected(self):
        payload = _spec().to_dict()
        payload["workload_args"]["rounds"] = [1, 2]
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert excinfo.value.errors[0]["field"] == "workload_args.rounds"
        assert "JSON scalars" in excinfo.value.errors[0]["reason"]

    def test_unknown_config_field_rejected(self):
        payload = _spec().to_dict()
        payload["config"]["mystery_knob"] = 7
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert excinfo.value.errors[0]["field"] == "config.mystery_knob"
        assert "unknown SystemConfig field" in excinfo.value.errors[0]["reason"]

    def test_bad_enum_value_rejected_with_choices(self):
        payload = _spec().to_dict()
        payload["config"]["identify"] = "psychic"
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        reason = excinfo.value.errors[0]["reason"]
        assert "bad IdentifyScheme value" in reason
        assert "'version'" in reason  # valid choices are listed

    def test_bool_and_int_type_confusion_rejected(self):
        payload = _spec().to_dict()
        payload["config"]["tearoff"] = 1          # int where bool expected
        payload["config"]["cache_size"] = True    # bool where int expected
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        reasons = {e["field"]: e["reason"] for e in excinfo.value.errors}
        assert reasons["config.tearoff"] == "must be a boolean"
        assert reasons["config.cache_size"] == "must be an integer"

    def test_all_errors_collected_not_just_first(self):
        payload = _spec().to_dict()
        payload["workload"] = "nope"
        payload["config"]["identify"] = "psychic"
        payload["extra"] = True
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert len(excinfo.value.errors) == 3

    def test_semantic_config_violation_reported_structurally(self):
        payload = _spec().to_dict()
        # version identification requires the version-number mechanism's
        # bits; zero is semantically invalid (SystemConfig.__post_init__)
        payload["config"]["identify"] = "version"
        payload["config"]["version_bits"] = 0
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        assert excinfo.value.errors[0]["field"] == "config"

    def test_error_payload_is_json_serializable(self):
        import json

        payload = _spec().to_dict()
        payload["workload_args"]["rounds"] = {1, 2}  # a set: not JSON
        with pytest.raises(SpecValidationError) as excinfo:
            RunSpec.from_dict(payload)
        json.dumps(excinfo.value.errors)  # must never raise, whatever garbage arrived


class TestRunRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return _spec(identify=IdentifyScheme.VERSION).execute()

    def test_dict_round_trip(self, record):
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.exec_time == record.exec_time
        assert clone.misses.as_dict() == record.misses.as_dict()
        assert dict(clone.messages.network) == dict(record.messages.network)

    def test_pickle_round_trip(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record

    def test_round_trip_preserves_derived_stats(self, record):
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.normalized_to(record) == 1.0
        assert (
            clone.aggregate_breakdown().fractions()
            == record.aggregate_breakdown().fractions()
        )
        assert clone.messages.invalidations() == record.messages.invalidations()

    def test_json_compatible(self, record):
        import json

        payload = json.loads(json.dumps(record.to_dict()))
        assert RunRecord.from_dict(payload) == record

    def test_inequality_on_different_runs(self, record):
        other = _spec().execute()  # no DSI -> different timing
        assert record != other
