"""Parallel experiment orchestration with content-addressed result caching.

The runner shards a reproduction run into independent jobs (driver x scale x
seed), executes them across worker processes with crash isolation and
per-job timeouts, and records every outcome in a resumable run manifest.
Completed results are stored in a content-addressed on-disk cache keyed by
the job's full content (driver, scale, seed, overrides, package version), so
re-runs skip finished work.

========================  ===================================================
Module                    Responsibility
========================  ===================================================
``jobs``                  :class:`JobSpec` and the content-addressed job key
``cache``                 :class:`ResultCache` (on-disk, atomic writes)
``manifest``              :class:`RunManifest` / :class:`JobRecord`
``worker``                worker-process entry point and driver resolution
``scheduler``             :class:`ParallelRunner` process-pool scheduling
``suite``                 full-suite job construction from the registry
``testing``               crash/hang fixtures for the scheduler tests
========================  ===================================================
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_root
from repro.runner.jobs import JobSpec, scale_from_dict, scale_to_dict
from repro.runner.manifest import (
    SOURCE_CACHE,
    SOURCE_MANIFEST,
    SOURCE_RUN,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    JobRecord,
    RunManifest,
)
from repro.runner.scheduler import ParallelRunner
from repro.runner.suite import (
    SUITE_OVERRIDES,
    build_suite,
    default_scale_overrides,
    scales_for_preset,
)
from repro.runner.worker import execute_payload, resolve_runner

__all__ = [
    "CACHE_DIR_ENV",
    "JobRecord",
    "JobSpec",
    "ParallelRunner",
    "ResultCache",
    "RunManifest",
    "SOURCE_CACHE",
    "SOURCE_MANIFEST",
    "SOURCE_RUN",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "SUITE_OVERRIDES",
    "build_suite",
    "default_cache_root",
    "default_scale_overrides",
    "execute_payload",
    "resolve_runner",
    "scale_from_dict",
    "scale_to_dict",
    "scales_for_preset",
]
