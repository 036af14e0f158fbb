"""JobSpec validation, identity, and JSON round-trips."""

import pytest

from repro.errors import ServiceError
from repro.registry import EXPERIMENTS
from repro.service import JobSpec


class TestValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ServiceError, match="unknown experiment"):
            JobSpec(experiment="frequency")

    def test_unknown_platform_rejected(self):
        with pytest.raises(ServiceError, match="unknown platform"):
            JobSpec(experiment="capacity", platform="alder-lake")

    def test_unknown_param_rejected_with_allowed_list(self):
        with pytest.raises(ServiceError, match="allowed: channel, intervals"):
            JobSpec(experiment="capacity", params={"trials": 4})

    def test_params_must_be_a_dict(self):
        with pytest.raises(ServiceError, match="params must be a JSON object"):
            JobSpec(experiment="capacity", params=[1, 2])

    def test_unknown_engine_rejected(self):
        with pytest.raises(Exception):
            JobSpec(experiment="capacity", engine="quantum")

    def test_malformed_fault_plan_rejected(self):
        with pytest.raises(Exception):
            JobSpec(experiment="capacity", faults={"explode_probability": 1.0})

    def test_negative_jobs_and_retries_rejected(self):
        with pytest.raises(ServiceError, match="jobs"):
            JobSpec(experiment="capacity", jobs=-1)
        with pytest.raises(ServiceError, match="retries"):
            JobSpec(experiment="capacity", retries=-2)

    def test_every_experiment_validates_empty_params(self):
        for name in EXPERIMENTS:
            assert JobSpec(experiment=name).experiment == name

    @pytest.mark.parametrize("experiment, params, message", [
        ("capacity", {"n_bits": "x"}, "'n_bits' must be int"),
        ("capacity", {"n_bits": True}, "'n_bits' must be int"),
        ("capacity", {"channel": "bogus"}, "'bogus' is not one of ntp\\+ntp"),
        ("capacity", {"intervals": []}, "non-empty list"),
        ("capacity", {"intervals": [2100, "1800"]}, "must be int"),
        ("search", {"objective": "nope"}, "'nope' is not one of toy-cliff"),
        ("search", {"budget": 0}, "'budget' must be >= 1"),
        ("insertion", {"trials": -3}, "'trials' must be >= 1, got -3"),
    ])
    def test_bad_param_values_rejected_at_submission(self, experiment, params,
                                                     message):
        with pytest.raises(ServiceError, match=message):
            JobSpec(experiment=experiment, params=params)

    @pytest.mark.parametrize("fields, message", [
        ({"engine": "quantum"}, "unknown engine backend"),
        ({"faults": {"crash_probability": 2.0}}, "crash_probability"),
        ({"faults": "x"}, "fault plan must be a JSON object"),
        ({"jobs": "x"}, "jobs must be an integer"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"warm_start": 1}, "warm_start must be a boolean"),
        ({"platform": ["skylake"]}, "unknown platform"),
        ({"experiment": ["capacity"]}, "unknown experiment"),
    ])
    def test_bad_runner_fields_are_service_errors(self, fields, message):
        data = {"experiment": "capacity", **fields}
        with pytest.raises(ServiceError, match=message):
            JobSpec.from_dict(data)

    def test_validation_never_fills_in_defaults(self):
        spec = JobSpec(experiment="capacity", params={"n_bits": 32})
        assert spec.params == {"n_bits": 32}


class TestFingerprint:
    def test_priority_excluded(self):
        low = JobSpec(experiment="capacity", params={"n_bits": 32}, priority=0)
        hot = JobSpec(experiment="capacity", params={"n_bits": 32}, priority=9)
        assert low.fingerprint() == hot.fingerprint()

    def test_params_and_seed_included(self):
        base = JobSpec(experiment="capacity", params={"n_bits": 32})
        other_bits = JobSpec(experiment="capacity", params={"n_bits": 64})
        other_seed = JobSpec(experiment="capacity", params={"n_bits": 32}, seed=1)
        assert base.fingerprint() != other_bits.fingerprint()
        assert base.fingerprint() != other_seed.fingerprint()

    def test_jobs_count_included_but_harmless(self):
        # jobs changes the fingerprint (it is part of the spec), which is
        # fine: dedupe of the *computation* happens at the result cache and
        # store fingerprint level, which jobs provably cannot move.
        a = JobSpec(experiment="capacity", jobs=1)
        b = JobSpec(experiment="capacity", jobs=4)
        assert a.fingerprint() != b.fingerprint()


class TestSerialization:
    def test_json_round_trip(self):
        spec = JobSpec(
            experiment="search",
            params={"objective": "toy-cliff", "strategy": "mutate", "budget": 8},
            seed=7,
            jobs=2,
            priority=3,
            warm_start=False,
            faults={"seed": 1, "crash_probability": 0.25},
            retries=2,
        )
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown job spec field"):
            JobSpec.from_dict({"experiment": "capacity", "priroity": 1})

    def test_from_dict_requires_experiment(self):
        with pytest.raises(ServiceError, match="missing the 'experiment'"):
            JobSpec.from_dict({"params": {}})

    def test_from_json_rejects_non_json(self):
        with pytest.raises(ServiceError, match="not valid JSON"):
            JobSpec.from_json("{nope")

    def test_fault_plan_round_trip(self):
        spec = JobSpec(
            experiment="capacity",
            faults={"seed": 3, "crash_probability": 0.5},
            retries=3,
        )
        plan = spec.fault_plan()
        assert plan is not None
        assert plan.crash_probability == 0.5
        assert JobSpec(experiment="capacity").fault_plan() is None
