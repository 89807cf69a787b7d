"""Tests for the process-pool scheduler: crash isolation, timeouts, caching,
resume, and the parallel == sequential determinism guarantee."""

from __future__ import annotations

import time
from multiprocessing import forkserver

import pytest

from repro.runner import (
    SOURCE_CACHE,
    SOURCE_MANIFEST,
    SOURCE_RUN,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    JobSpec,
    ParallelRunner,
    RunManifest,
    scheduler,
)

ECHO = "repro.runner.testing:echo_driver"
CRASH = "repro.runner.testing:crashing_driver"
DIE = "repro.runner.testing:dying_driver"
HANG = "repro.runner.testing:hanging_driver"
ENVIRONMENT = "repro.runner.testing:environment_driver"


def echo_jobs(scale, count: int) -> list:
    return [
        JobSpec(experiment=ECHO, scale=scale, overrides={"tag": f"job-{index}"})
        for index in range(count)
    ]


class TestInlineExecution:
    def test_workers_zero_runs_in_process(self, micro_scale):
        (record,) = ParallelRunner(0).run(echo_jobs(micro_scale, 1))
        assert record.status == STATUS_COMPLETED
        assert record.source == SOURCE_RUN
        assert "seed=0" in record.report

    def test_inline_crash_is_isolated_too(self, micro_scale):
        crash = JobSpec(experiment=CRASH, scale=micro_scale)
        ok = JobSpec(experiment=ECHO, scale=micro_scale)
        crashed, completed = ParallelRunner(0).run([crash, ok])
        assert crashed.status == STATUS_FAILED
        assert "intentional crash" in crashed.error
        assert completed.status == STATUS_COMPLETED

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(-1)

    def test_records_returned_in_job_order(self, micro_scale):
        jobs = echo_jobs(micro_scale, 4)
        records = ParallelRunner(0).run(jobs)
        assert [record.key for record in records] == [job.key() for job in jobs]

    def test_duplicate_jobs_collapse_to_one_execution(self, micro_scale):
        events = []
        job = JobSpec(experiment=ECHO, scale=micro_scale)
        runner = ParallelRunner(0, on_event=lambda event, record: events.append(event))
        records = runner.run([job, job])
        assert len(records) == 2
        assert records[0].key == records[1].key
        assert events.count("start") == 1  # executed once, not twice


@pytest.mark.integration
class TestParallelExecution:
    def test_parallel_reports_match_inline(self, micro_scale):
        jobs = echo_jobs(micro_scale, 3)
        inline = ParallelRunner(0).run(jobs)
        parallel = ParallelRunner(3).run(jobs)
        assert [r.report for r in parallel] == [r.report for r in inline]
        assert all(record.status == STATUS_COMPLETED for record in parallel)

    def test_crash_does_not_take_down_the_pool(self, micro_scale, manifest):
        jobs = [
            JobSpec(experiment=CRASH, scale=micro_scale),
            JobSpec(experiment=DIE, scale=micro_scale),
            JobSpec(experiment=ECHO, scale=micro_scale),
        ]
        crashed, died, completed = ParallelRunner(2, manifest=manifest).run(jobs)
        assert crashed.status == STATUS_FAILED
        assert "intentional crash" in crashed.error
        assert died.status == STATUS_FAILED
        assert "exitcode" in died.error
        assert completed.status == STATUS_COMPLETED
        assert manifest.counts() == {STATUS_FAILED: 2, STATUS_COMPLETED: 1}

    def test_hanging_job_is_timed_out_and_killed(self, micro_scale, manifest):
        jobs = [
            JobSpec(experiment=HANG, scale=micro_scale, timeout=1.0),
            JobSpec(experiment=ECHO, scale=micro_scale),
        ]
        hung, completed = ParallelRunner(2, manifest=manifest).run(jobs)
        assert hung.status == STATUS_TIMEOUT
        assert "timeout" in hung.error
        assert completed.status == STATUS_COMPLETED
        reloaded = RunManifest.load(manifest.path)
        assert reloaded.counts() == {STATUS_TIMEOUT: 1, STATUS_COMPLETED: 1}

    def test_a_finished_worker_is_collected_without_waiting_out_the_poll(
        self, micro_scale, monkeypatch
    ):
        """The scheduler wakes when a worker exits, so a long poll interval
        (it bounds only how late a deadline fires) never delays a job."""
        monkeypatch.setattr(scheduler, "POLL_INTERVAL", 20.0)
        started = time.monotonic()
        records = ParallelRunner(1).run(echo_jobs(micro_scale, 2))
        assert all(record.status == STATUS_COMPLETED for record in records)
        assert time.monotonic() - started < 10.0

    def test_worker_sees_a_variable_set_after_the_forkserver_started(
        self, micro_scale, monkeypatch
    ):
        """Workers fork from a server started earlier, with the environment
        of that moment; each start must hand over the scheduler's current one."""
        forkserver.ensure_running()
        monkeypatch.setenv("REPRO_PROBE", "set-after-the-server")
        job = JobSpec(experiment=ENVIRONMENT, scale=micro_scale)
        (record,) = ParallelRunner(1).run([job])
        assert record.status == STATUS_COMPLETED
        assert record.report == "REPRO_PROBE=set-after-the-server"


@pytest.mark.integration
class TestCaching:
    def test_second_run_is_served_from_cache(self, micro_scale, cache):
        jobs = echo_jobs(micro_scale, 2)
        first = ParallelRunner(2, cache=cache).run(jobs)
        second = ParallelRunner(2, cache=cache).run(jobs)
        assert [record.source for record in first] == [SOURCE_RUN, SOURCE_RUN]
        assert [record.source for record in second] == [SOURCE_CACHE, SOURCE_CACHE]
        assert [r.report for r in second] == [r.report for r in first]

    def test_failed_jobs_are_never_cached(self, micro_scale, cache):
        job = JobSpec(experiment=CRASH, scale=micro_scale)
        ParallelRunner(0, cache=cache).run([job])
        assert cache.get(job.key()) is None
        (retried,) = ParallelRunner(0, cache=cache).run([job])
        assert retried.source == SOURCE_RUN

    def test_force_ignores_the_cache(self, micro_scale, cache):
        jobs = echo_jobs(micro_scale, 1)
        ParallelRunner(0, cache=cache).run(jobs)
        (forced,) = ParallelRunner(0, cache=cache, force=True).run(jobs)
        assert forced.source == SOURCE_RUN

    def test_different_seeds_miss_each_other(self, micro_scale, cache):
        base = JobSpec(experiment=ECHO, scale=micro_scale)
        ParallelRunner(0, cache=cache).run([base])
        reseeded = JobSpec(experiment=ECHO, scale=micro_scale.replace(seed=7))
        (other,) = ParallelRunner(0, cache=cache).run([reseeded])
        assert other.source == SOURCE_RUN
        assert "seed=7" in other.report


@pytest.mark.integration
class TestResume:
    def test_resume_retries_only_failed_and_missing(self, micro_scale, tmp_path):
        ok = JobSpec(experiment=ECHO, scale=micro_scale)
        bad = JobSpec(experiment=CRASH, scale=micro_scale)
        manifest = RunManifest(tmp_path / "manifest.json")
        ParallelRunner(0, manifest=manifest).run([ok, bad])

        # Resume with the crash replaced by a working job of the same key set,
        # plus a new job: only the failed and the new one execute.
        resumed_manifest = RunManifest.load(tmp_path / "manifest.json")
        fresh = JobSpec(experiment=ECHO, scale=micro_scale, overrides={"tag": "fresh"})
        records = ParallelRunner(0, manifest=resumed_manifest).run([ok, bad, fresh])
        assert records[0].source == SOURCE_MANIFEST
        assert records[1].source == SOURCE_RUN
        assert records[1].status == STATUS_FAILED
        assert records[2].source == SOURCE_RUN
        assert records[2].status == STATUS_COMPLETED

    def test_resume_disabled_reruns_everything(self, micro_scale, tmp_path):
        job = JobSpec(experiment=ECHO, scale=micro_scale)
        manifest = RunManifest(tmp_path / "manifest.json")
        ParallelRunner(0, manifest=manifest).run([job])
        reloaded = RunManifest.load(tmp_path / "manifest.json")
        (record,) = ParallelRunner(0, manifest=reloaded, resume=False).run([job])
        assert record.source == SOURCE_RUN


class TestEvents:
    def test_event_sequence_for_run_and_cache_hit(self, micro_scale, cache):
        events = []

        def on_event(event, record):
            events.append((event, record.experiment))

        jobs = echo_jobs(micro_scale, 1)
        ParallelRunner(0, cache=cache, on_event=on_event).run(jobs)
        ParallelRunner(0, cache=cache, on_event=on_event).run(jobs)
        assert events == [("start", ECHO), ("done", ECHO), ("cached", ECHO)]


@pytest.mark.integration
class TestRealDriverDeterminism:
    def test_parallel_report_identical_to_sequential(self, micro_scale):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("fig9-dynamic")
        sequential = spec.report(micro_scale)
        job = JobSpec(experiment="fig9-dynamic", scale=micro_scale)
        (parallel,) = ParallelRunner(2).run([job])
        assert parallel.status == STATUS_COMPLETED
        assert parallel.report == sequential
