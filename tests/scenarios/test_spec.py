"""Unit tests for ScenarioSpec and the scenario catalogue."""

from __future__ import annotations

import json

import pytest

from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.experiments.common import ExperimentScale
from repro.scenarios import SCENARIOS, ScenarioSpec, get_scenario, scenario_names


@pytest.fixture
def source():
    return SyntheticDigits(image_size=8, seed=0)


@pytest.fixture
def scale():
    return ExperimentScale.tiny()


class TestScenarioSpec:
    def test_class_incremental_phases(self):
        spec = ScenarioSpec(
            name="x",
            schedule={"kind": "class_incremental", "tasks": [[0, 1], [2]],
                      "samples_per_task": 4},
        )
        phases = spec.phases()
        assert [(p.index, p.task_id, p.classes) for p in phases] == [
            (0, 0, (0, 1)), (1, 1, (2,)),
        ]
        assert spec.tasks() == {0: (0, 1), 1: (2,)}
        assert spec.classes() == (0, 1, 2)

    def test_recurring_phases_revisit_task_ids(self):
        spec = ScenarioSpec(
            name="x",
            schedule={"kind": "recurring", "tasks": [[0], [1]],
                      "samples_per_task": 2, "repeats": 3},
        )
        assert [p.task_id for p in spec.phases()] == [0, 1, 0, 1, 0, 1]
        assert spec.tasks() == {0: (0,), 1: (1,)}

    def test_iid_is_a_single_phase(self):
        spec = ScenarioSpec(
            name="x",
            schedule={"kind": "iid", "classes": [3, 4], "n_samples": 10},
        )
        assert [p.task_id for p in spec.phases()] == [0]
        assert spec.classes() == (3, 4)

    def test_build_respects_the_schedule(self, source):
        spec = ScenarioSpec(
            name="x",
            schedule={"kind": "class_incremental", "tasks": [[0], [1]],
                      "samples_per_task": 3},
        )
        stream = spec.build(source, rng=0)
        assert [s.label for s in stream] == [0, 0, 0, 1, 1, 1]
        assert [s.task_index for s in stream] == [0, 0, 0, 1, 1, 1]

    def test_transform_chain_is_applied(self, source):
        plain = ScenarioSpec(
            name="plain",
            schedule={"kind": "class_incremental", "tasks": [[0]],
                      "samples_per_task": 3},
        )
        noisy = ScenarioSpec(
            name="noisy",
            schedule=plain.schedule,
            transforms=({"kind": "gaussian_noise", "sigma": 0.3},),
        )
        a = plain.build(source, rng=0)
        b = noisy.build(source, rng=0)
        assert any((x.image != y.image).any() for x, y in zip(a, b))

    def test_serialization_round_trip(self):
        spec = ScenarioSpec(
            name="x",
            schedule={"kind": "recurring", "tasks": [[0, 1]],
                      "samples_per_task": 2, "repeats": 2},
            transforms=({"kind": "occlusion", "fraction": 0.2},),
            description="demo",
        )
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            spec.to_dict(), sort_keys=True)
        assert clone.phases() == spec.phases()

    def test_spec_is_isolated_from_caller_and_to_dict_aliases(self, source):
        tasks = [[0], [1]]
        schedule = {"kind": "class_incremental", "tasks": tasks,
                    "samples_per_task": 2}
        spec = ScenarioSpec(name="x", schedule=schedule)
        before = [s.label for s in spec.build(source, rng=0)]

        # Neither the caller's dict nor a to_dict() result aliases the spec.
        tasks.append([9])
        exported = spec.to_dict()
        exported["schedule"]["tasks"].append([8])

        assert spec.tasks() == {0: (0,), 1: (1,)}
        assert [s.label for s in spec.build(source, rng=0)] == before

    def test_unknown_schedule_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            ScenarioSpec(name="x", schedule={"kind": "spiral"})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            ScenarioSpec(name="", schedule={"kind": "iid", "classes": [0],
                                            "n_samples": 1})

    def test_empty_task_schedule_rejected(self):
        with pytest.raises(ValueError, match="task schedule is empty"):
            ScenarioSpec(name="x", schedule={"kind": "class_incremental",
                                             "tasks": [],
                                             "samples_per_task": 2})

    def test_iid_without_classes_rejected(self):
        with pytest.raises(ValueError, match="non-empty class list"):
            ScenarioSpec(name="x", schedule={"kind": "iid", "classes": [],
                                             "n_samples": 4})

    def test_bad_transform_rejected_at_declaration_time(self):
        with pytest.raises(ValueError, match="unknown transform kind"):
            ScenarioSpec(
                name="x",
                schedule={"kind": "iid", "classes": [0], "n_samples": 1},
                transforms=({"kind": "wormhole"},),
            )


class TestCatalogue:
    def test_names_are_stable(self):
        assert scenario_names() == [
            "class-incremental",
            "recurring",
            "label-drift",
            "abrupt-drift",
            "corrupted",
            "imbalanced",
            "mixture",
        ]

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_every_entry_builds_and_materializes(self, name, scale, source):
        spec = get_scenario(name, scale)
        assert spec.name == name
        assert spec.description
        stream = spec.build(SyntheticDigits(image_size=8, seed=0), rng=0)
        assert stream
        assert {s.task_index for s in stream} <= {p.index for p in spec.phases()}

    def test_scenarios_scale_with_the_class_sequence(self):
        wide = ExperimentScale.tiny(class_sequence=tuple(range(10)))
        spec = get_scenario("class-incremental", wide)
        assert len(spec.phases()) == 5  # ten classes in two-class tasks

    def test_unknown_name_rejected(self, scale):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("cosmic-rays", scale)
