"""Tests for the experiment registry and the worker's driver resolution."""

from __future__ import annotations

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    SCALE_FAMILIES,
    ExperimentSpec,
    get_experiment,
)
from repro.runner.worker import execute_payload, render_report, resolve_runner
from repro.runner import JobSpec


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert list(EXPERIMENTS) == [
            "table1",
            "table2",
            "fig1",
            "fig4",
            "fig5",
            "fig6",
            "fig9-dynamic",
            "fig9-nondynamic",
            "fig10",
            "fig11",
            "alg1",
            "ablation",
            "eventstream",
            "scen-classinc",
            "scen-recurring",
            "scen-drift",
            "scen-corrupt",
        ]

    def test_specs_are_well_formed(self):
        for name, spec in EXPERIMENTS.items():
            assert spec.name == name
            assert spec.artifact
            assert spec.output
            assert spec.family in SCALE_FAMILIES
            assert callable(spec.runner)

    def test_output_stems_are_unique(self):
        outputs = [spec.output for spec in EXPERIMENTS.values()]
        assert len(outputs) == len(set(outputs))

    def test_get_experiment_unknown_name(self):
        with pytest.raises(KeyError, match="fig99"):
            get_experiment("fig99")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scale family"):
            ExperimentSpec(
                name="x",
                artifact="x",
                output="x",
                family="bogus",
                runner=lambda scale: "x",
            )

    def test_static_driver_report(self, micro_scale):
        text = get_experiment("table1").report(micro_scale)
        assert "GTX 1080 Ti" in text

    def test_schema_matches_result_fields(self, micro_scale):
        spec = get_experiment("fig9-dynamic")
        result = spec.run(micro_scale)
        for field_name in spec.schema:
            assert hasattr(result, field_name)

    def test_job_units_default_to_one_per_driver(self, micro_scale):
        for spec in EXPERIMENTS.values():
            units = spec.job_units(micro_scale)
            assert units == [{"experiment": spec.name}]


class TestDriverResolution:
    def test_registry_name_resolves(self):
        assert resolve_runner("fig5") is EXPERIMENTS["fig5"].runner

    def test_module_reference_resolves(self, micro_scale):
        runner = resolve_runner("repro.runner.testing:echo_driver")
        assert "seed=0" in runner(micro_scale)

    def test_non_callable_reference_rejected(self):
        with pytest.raises(TypeError):
            resolve_runner("repro.runner.testing:__doc__")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="known experiments"):
            resolve_runner("not-an-experiment")

    def test_render_report_rejects_non_text(self):
        with pytest.raises(TypeError):
            render_report(12345)


class TestExecutePayload:
    def test_completed_record(self, micro_scale):
        job = JobSpec(experiment="table1", scale=micro_scale)
        record = execute_payload(job.to_dict())
        assert record["status"] == "completed"
        assert record["key"] == job.key()
        assert "GTX 1080 Ti" in record["report"]

    def test_failed_record_contains_traceback(self, micro_scale):
        job = JobSpec(experiment="repro.runner.testing:crashing_driver", scale=micro_scale)
        record = execute_payload(job.to_dict())
        assert record["status"] == "failed"
        assert "RuntimeError" in record["error"]
