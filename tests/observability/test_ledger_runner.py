"""Ledger <-> runner integration: every job leaves exactly one entry per run.

The round-trip property behind ``repro run-all``: each scheduled job appears
in the persistent ledger exactly once per invocation, keyed by the JobSpec
content key, with the outcome telling executed (``completed``/``failed``)
apart from cache hits (``cached``) and manifest resumes (``resumed``).
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.experiments.common import ExperimentScale
from repro.observability.ledger import KIND_JOB, RunLedger
from repro.runner import JobSpec, ParallelRunner, ResultCache, RunManifest

ECHO = "repro.runner.testing:echo_driver"
CRASH = "repro.runner.testing:crashing_driver"


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "ledger", strict=True)


def echo_jobs(scale: ExperimentScale, count: int) -> list:
    return [
        JobSpec(experiment=ECHO, scale=scale, overrides={"tag": f"job-{index}"})
        for index in range(count)
    ]


class TestRoundTripProperty:
    def test_every_job_appears_exactly_once_with_its_key(self, micro_scale, ledger):
        jobs = echo_jobs(micro_scale, 6)
        records = ParallelRunner(0, ledger=ledger).run(jobs)
        assert all(record.ok for record in records)

        entries = list(ledger.entries(kind=KIND_JOB))
        assert len(entries) == len(jobs)
        counts = Counter(entry["key"] for entry in entries)
        assert counts == Counter(job.key() for job in jobs)
        assert all(count == 1 for count in counts.values())
        for entry in entries:
            assert entry["outcome"] == "completed"
            assert entry["source"] == "run"
            assert entry["experiment"] == ECHO
            assert "backend" not in entry
            assert entry["version"] == repro.__version__
            assert entry["elapsed_s"] >= 0.0
            assert len(entry["config_hash"]) == 16

    def test_cache_hits_are_recorded_as_cached(self, micro_scale, ledger, tmp_path):
        jobs = echo_jobs(micro_scale, 3)
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(0, cache=cache, ledger=ledger).run(jobs)
        ParallelRunner(0, cache=cache, ledger=ledger).run(jobs)

        entries = list(ledger.entries(kind=KIND_JOB))
        assert len(entries) == 2 * len(jobs)
        outcomes = Counter(entry["outcome"] for entry in entries)
        assert outcomes == {"completed": 3, "cached": 3}
        # Both invocations recorded the same content keys.
        first, second = entries[: len(jobs)], entries[len(jobs) :]
        assert {entry["key"] for entry in first} == {entry["key"] for entry in second}
        for entry in second:
            assert entry["source"] == "cache"
            assert entry["status"] == "completed"

    def test_manifest_resume_is_recorded_as_resumed(self, micro_scale, ledger, tmp_path):
        jobs = echo_jobs(micro_scale, 2)
        manifest_path = tmp_path / "manifest.json"
        manifest = RunManifest.load_or_create(manifest_path)
        ParallelRunner(0, manifest=manifest, ledger=ledger).run(jobs)
        resumed = RunManifest.load_or_create(manifest_path)
        ParallelRunner(0, manifest=resumed, ledger=ledger).run(jobs)

        outcomes = [entry["outcome"] for entry in ledger.entries(kind=KIND_JOB)]
        assert outcomes == ["completed", "completed", "resumed", "resumed"]

    def test_failures_are_recorded_not_skipped(self, micro_scale, ledger):
        jobs = [
            JobSpec(experiment=CRASH, scale=micro_scale),
            JobSpec(experiment=ECHO, scale=micro_scale),
        ]
        records = ParallelRunner(0, ledger=ledger).run(jobs)
        assert [record.status for record in records] == ["failed", "completed"]
        outcomes = {entry["key"]: entry["outcome"] for entry in ledger.entries(kind=KIND_JOB)}
        assert outcomes == {jobs[0].key(): "failed", jobs[1].key(): "completed"}

    def test_no_ledger_means_no_recording(self, micro_scale, tmp_path):
        ParallelRunner(0, ledger=None).run(echo_jobs(micro_scale, 2))
        assert RunLedger(tmp_path / "ledger").count() == 0

    def test_duplicate_jobs_record_one_entry_per_requested_job(self, micro_scale, ledger):
        job = JobSpec(experiment=ECHO, scale=micro_scale)
        records = ParallelRunner(0, ledger=ledger).run([job, job])
        assert len(records) == 2
        # The scheduler collapses duplicates to one execution; the ledger
        # answers "what ran", so it records the execution once.
        assert len(list(ledger.entries(kind=KIND_JOB))) == 1


@pytest.mark.integration
class TestParallelLedger:
    def test_spawned_workers_record_through_the_parent_ledger(self, micro_scale, ledger):
        jobs = echo_jobs(micro_scale, 4)
        records = ParallelRunner(2, ledger=ledger).run(jobs)
        assert all(record.ok for record in records)
        entries = list(ledger.entries(kind=KIND_JOB))
        assert Counter(entry["key"] for entry in entries) == Counter(job.key() for job in jobs)
