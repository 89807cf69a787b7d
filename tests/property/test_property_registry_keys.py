"""Property tests of the runner's content-addressed job keys.

Every registry entry must round-trip through the JSON job payload with a
stable key — insertion order of override dictionaries, serialization, and
re-parsing must never change what the cache considers "the same job" — and
the scenario experiments must be cache-hit-identical on re-run (same key,
byte-identical report).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.runner import JobSpec, ParallelRunner, ResultCache, build_suite, scales_for_preset
from repro.runner.jobs import scale_from_dict, scale_to_dict

SCENARIO_EXPERIMENTS = [name for name in EXPERIMENTS if name.startswith("scen-")]


def micro_suite_jobs():
    return build_suite(scales_for_preset("tiny"))


@pytest.mark.parametrize("name", list(EXPERIMENTS))
class TestKeyRoundTrip:
    def test_payload_round_trips_through_json(self, name, micro_scale):
        job = JobSpec(experiment=name, scale=micro_scale,
                      overrides={"alpha": 1, "beta": [1, 2]})
        parsed = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        # to_dict() normalizes output=None to the derived stem, so compare
        # the fields that define the job's identity, not dataclass equality.
        assert parsed.key() == job.key()
        assert parsed.output_stem == job.output_stem
        assert parsed.scale == job.scale
        assert dict(parsed.overrides) == dict(job.overrides)

    def test_key_stable_under_override_dict_ordering(self, name, micro_scale):
        forward = JobSpec(experiment=name, scale=micro_scale,
                          overrides={"a": 1, "b": 2, "c": [3, 4]})
        backward = JobSpec(experiment=name, scale=micro_scale,
                           overrides={"c": [3, 4], "b": 2, "a": 1})
        assert forward.key() == backward.key()

    def test_key_stable_under_scale_dict_round_trip(self, name, micro_scale):
        rebuilt = scale_from_dict(scale_to_dict(micro_scale))
        assert JobSpec(experiment=name, scale=rebuilt).key() == \
            JobSpec(experiment=name, scale=micro_scale).key()

    def test_key_changes_with_seed_and_overrides(self, name, micro_scale):
        base = JobSpec(experiment=name, scale=micro_scale)
        reseeded = JobSpec(experiment=name, scale=micro_scale.replace(seed=base.seed + 1))
        assert reseeded.key() != base.key()
        assert JobSpec(experiment=name, scale=micro_scale,
                       overrides={"x": 1}).key() != base.key()


def test_full_suite_keys_survive_manifest_serialization():
    jobs = micro_suite_jobs()
    for job in jobs:
        parsed = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert parsed.key() == job.key()


def test_suite_includes_the_scenario_experiments():
    experiments = [job.experiment for job in micro_suite_jobs()]
    assert SCENARIO_EXPERIMENTS
    for name in SCENARIO_EXPERIMENTS:
        assert name in experiments


@pytest.mark.integration
@pytest.mark.parametrize("name", SCENARIO_EXPERIMENTS)
def test_scenario_experiments_are_cache_hit_identical(name, micro_scale, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = JobSpec(experiment=name, scale=micro_scale)

    first = ParallelRunner(0, cache=cache).run([job])[0]
    assert first.status == "completed"
    assert first.source == "run"

    second = ParallelRunner(0, cache=cache).run([job])[0]
    assert second.status == "completed"
    assert second.source == "cache"
    assert second.key == first.key
    assert second.report == first.report
