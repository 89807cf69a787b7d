"""Deterministic worker fixtures for scheduler tests.

These module-level callables are addressed from job specs as
``"repro.runner.testing:<name>"`` references, so worker processes can import
them without any registry mutation in the parent.  They exist to
exercise the scheduler's failure paths (crash isolation, timeouts) and its
determinism guarantees without paying for a real experiment driver.
"""

from __future__ import annotations

import os
import time

from repro.experiments.common import ExperimentScale


def echo_driver(scale: ExperimentScale, tag: str = "echo") -> str:
    """Deterministic report derived from the scale — the determinism probe."""
    return (
        f"{tag}: seed={scale.seed} image_size={scale.image_size} "
        f"networks={list(scale.network_sizes)} t_sim={scale.t_sim}"
    )


def crashing_driver(scale: ExperimentScale, message: str = "intentional crash") -> str:
    """Raise inside the worker — exercises the failed-job path."""
    raise RuntimeError(f"{message} (seed={scale.seed})")


def dying_driver(scale: ExperimentScale, exitcode: int = 42) -> str:
    """Kill the worker process outright — exercises the crashed-worker path."""
    del scale
    os._exit(exitcode)


def hanging_driver(scale: ExperimentScale, seconds: float = 3600.0) -> str:
    """Hang far beyond any sane timeout — exercises the timeout path."""
    time.sleep(seconds)
    return f"hung for {seconds} (seed={scale.seed})"


def environment_driver(scale: ExperimentScale, name: str = "REPRO_PROBE") -> str:
    """Report one environment variable as the worker sees it — the probe of
    the environment a worker inherits from the scheduler."""
    del scale
    return f"{name}={os.environ.get(name)}"
