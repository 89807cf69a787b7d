"""Shared fixtures for the benchmark harness.

Every benchmark module reproduces one table or figure of the SpikeDyn paper
(:data:`repro.experiments.registry.EXPERIMENTS` is the experiment index).
The benchmarks run the experiment drivers from :mod:`repro.experiments` at
two scales:

* ``bench_scale`` — a seconds-per-experiment scale used for the timed
  benchmark body, so the whole harness completes in a few minutes;
* ``energy_scale`` — a slightly larger scale used by the energy/memory
  benchmarks, where the relative savings of eliminating the inhibitory layer
  only become visible once the excitatory layer is not dwarfed by the input
  projection.

Run with ``pytest benchmarks/ --benchmark-only``.  Add ``-s`` to also see the
reproduced paper tables that each benchmark prints.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentScale


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Seconds-scale experiment settings shared by the accuracy benchmarks."""
    return ExperimentScale.tiny()


@pytest.fixture(scope="session")
def energy_scale() -> ExperimentScale:
    """Larger networks (paper image size) for the energy/memory benchmarks.

    Only a couple of sample presentations are needed per model, so the larger
    sizes stay cheap while making the inhibitory-layer overhead visible.
    """
    return ExperimentScale.tiny(
        image_size=28,
        network_sizes=(100, 200),
        t_sim=100.0,
    )
