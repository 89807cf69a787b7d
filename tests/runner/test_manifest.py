"""Tests for the run manifest and its resume semantics."""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    JobRecord,
    JobSpec,
    RunManifest,
)


def record_for(job: JobSpec, status: str = STATUS_COMPLETED) -> JobRecord:
    return JobRecord(
        key=job.key(),
        experiment=job.experiment,
        output=job.output_stem,
        seed=job.seed,
        status=status,
        report="text" if status == STATUS_COMPLETED else None,
    )


class TestPersistence:
    def test_update_persists_immediately(self, manifest, echo_job):
        manifest.update(record_for(echo_job))
        reloaded = RunManifest.load(manifest.path)
        assert reloaded.is_complete(echo_job.key())

    def test_report_text_is_not_stored(self, manifest, echo_job):
        manifest.update(record_for(echo_job))
        data = json.loads(manifest.path.read_text(encoding="utf-8"))
        (job_data,) = data["jobs"].values()
        assert "report" not in job_data
        assert job_data["status"] == STATUS_COMPLETED

    def test_metadata_round_trip(self, tmp_path, echo_job):
        manifest = RunManifest(tmp_path / "m.json", metadata={"scale": "tiny"})
        manifest.update(record_for(echo_job))
        reloaded = RunManifest.load(manifest.path)
        assert reloaded.metadata["scale"] == "tiny"
        assert "version" in reloaded.metadata

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunManifest.load(tmp_path / "absent.json")

    def test_load_or_create_refreshes_metadata(self, tmp_path, echo_job):
        manifest = RunManifest(tmp_path / "m.json", metadata={"seed": 0, "workers": 4})
        manifest.update(record_for(echo_job))
        resumed = RunManifest.load_or_create(tmp_path / "m.json", metadata={"seed": 1})
        assert resumed.metadata["seed"] == 1
        assert resumed.metadata["workers"] == 4
        assert resumed.is_complete(echo_job.key())

    def test_load_or_create_tolerates_corruption(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        manifest = RunManifest.load_or_create(path)
        assert manifest.records == {}

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"something": "else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            RunManifest.load(path)


class TestResumeSemantics:
    def test_is_complete_holds_only_for_completed_jobs(self, manifest, micro_scale):
        done = JobSpec(experiment="repro.runner.testing:echo_driver", scale=micro_scale)
        failed = JobSpec(
            experiment="repro.runner.testing:echo_driver",
            scale=micro_scale,
            overrides={"tag": "failed"},
        )
        timed_out = JobSpec(
            experiment="repro.runner.testing:echo_driver",
            scale=micro_scale,
            overrides={"tag": "hung"},
        )
        fresh = JobSpec(
            experiment="repro.runner.testing:echo_driver",
            scale=micro_scale,
            overrides={"tag": "fresh"},
        )
        manifest.update(record_for(done), save=False)
        manifest.update(record_for(failed, STATUS_FAILED), save=False)
        manifest.update(record_for(timed_out, STATUS_TIMEOUT), save=False)

        jobs = [done, failed, timed_out, fresh]
        pending = [job for job in jobs if not manifest.is_complete(job.key())]
        assert [job.overrides.get("tag") for job in pending] == ["failed", "hung", "fresh"]

    def test_counts(self, manifest, micro_scale):
        jobs = [
            JobSpec(
                experiment="repro.runner.testing:echo_driver",
                scale=micro_scale,
                overrides={"tag": str(index)},
            )
            for index in range(3)
        ]
        manifest.update(record_for(jobs[0]), save=False)
        manifest.update(record_for(jobs[1]), save=False)
        manifest.update(record_for(jobs[2], STATUS_FAILED), save=False)
        assert manifest.counts() == {STATUS_COMPLETED: 2, STATUS_FAILED: 1}
