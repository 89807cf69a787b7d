"""Full-suite job construction.

Maps every registered experiment driver to one :class:`JobSpec`, picking the
scale appropriate to the driver's family (accuracy protocols, energy
estimation, hyperparameter sweeps) — the same mapping
``scripts/run_all_experiments.py`` has always used, now in library form so
the CLI, the script, and the tests build identical suites.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.backends import DEFAULT_BACKEND
from repro.experiments.common import ExperimentScale
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.runner.jobs import JobSpec

#: Driver overrides applied by the full-suite run (cheap-but-representative
#: settings inherited from the historical ``run_all_experiments.py``).
SUITE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig5": {"actual_run_samples": 2},
    "fig4": {"include_accuracy_profile": False},
    "alg1": {"n_add": 50},
}


def scales_for_preset(
    preset: str, seed: int = 0, paper_networks: bool = False, backend: str = DEFAULT_BACKEND
) -> Dict[str, ExperimentScale]:
    """The per-family scales of one named preset (``tiny``/``small``/``paper``).

    ``tiny`` uses CI-sized settings for every family.  ``small`` pairs the
    minutes-scale accuracy settings with 28x28 energy estimation (N200/N400
    when ``paper_networks`` is set, N100/N200 otherwise), matching the scales
    the EXPERIMENTS.md record was produced at.  ``paper`` uses the paper's
    own sizes throughout.  ``backend`` selects the compute backend of every
    scale (and therefore enters every job's cache key).
    """
    if preset == "tiny":
        accuracy = ExperimentScale.tiny(seed=seed, backend=backend)
        energy = ExperimentScale.tiny(
            image_size=28, network_sizes=(50, 100), t_sim=50.0, seed=seed, backend=backend
        )
    elif preset == "small":
        accuracy = ExperimentScale.small(seed=seed, backend=backend)
        sizes = (200, 400) if paper_networks else (100, 200)
        energy = ExperimentScale.tiny(
            image_size=28, network_sizes=sizes, t_sim=100.0, seed=seed, backend=backend
        )
    elif preset == "paper":
        accuracy = ExperimentScale.paper(seed=seed, backend=backend)
        energy = ExperimentScale.paper(seed=seed, backend=backend)
    else:
        raise ValueError(f"unknown scale preset {preset!r}; known: tiny, small, paper")

    # The sweep drivers (fig6, ablation) have always run on the full digit
    # set with the largest accuracy network, at every preset.
    sweep = accuracy.replace(
        network_sizes=(max(accuracy.network_sizes),),
        class_sequence=tuple(range(10)),
    )
    return {"accuracy": accuracy, "energy": energy, "sweep": sweep, "static": accuracy}


def scale_for(spec: ExperimentSpec, scales: Mapping[str, ExperimentScale]) -> ExperimentScale:
    """The scale one driver runs at within a full-suite run."""
    return scales[spec.family]


def default_scale_overrides(
    preset: str, scales: Mapping[str, ExperimentScale]
) -> Dict[str, ExperimentScale]:
    """Per-driver scale exceptions every full-suite entry point applies.

    At the ``small`` and ``paper`` presets the motivation study (fig1) has
    always run the accuracy protocol on the energy experiments' image size
    and network sizes; at ``tiny`` it uses the plain accuracy scale.
    """
    if preset == "tiny":
        return {}
    accuracy, energy = scales["accuracy"], scales["energy"]
    return {
        "fig1": accuracy.replace(
            network_sizes=energy.network_sizes,
            image_size=energy.image_size,
            t_sim=energy.t_sim,
        )
    }


def build_suite(
    scales: Mapping[str, ExperimentScale],
    *,
    experiments: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    scale_overrides: Optional[Mapping[str, ExperimentScale]] = None,
    timeout: Optional[float] = None,
) -> List[JobSpec]:
    """One :class:`JobSpec` per selected driver, in registry order.

    Parameters
    ----------
    scales:
        ``{family: scale}`` mapping (see :func:`scales_for_preset`).
    experiments:
        Driver names to include; defaults to the full registry.
    overrides:
        ``{driver: {kwarg: value}}`` merged over :data:`SUITE_OVERRIDES`.
    scale_overrides:
        ``{driver: scale}`` exceptions to the family mapping (e.g. the
        motivation study's hybrid accuracy-protocol-at-energy-sizes scale).
    timeout:
        Per-job wall-clock budget in seconds applied to every job.
    """
    selected = list(experiments) if experiments is not None else list(EXPERIMENTS)
    merged: Dict[str, Dict[str, Any]] = {
        name: dict(value) for name, value in SUITE_OVERRIDES.items()
    }
    for name, value in (overrides or {}).items():
        merged.setdefault(name, {}).update(value)

    jobs: List[JobSpec] = []
    for name in selected:
        spec = EXPERIMENTS.get(name)
        if spec is None:
            known = ", ".join(EXPERIMENTS)
            raise KeyError(f"unknown experiment {name!r}; known experiments: {known}")
        if scale_overrides and name in scale_overrides:
            scale = scale_overrides[name]
        else:
            scale = scale_for(spec, scales)
        for unit in spec.job_units(scale):
            jobs.append(
                JobSpec(
                    experiment=unit["experiment"],
                    scale=scale,
                    overrides=merged.get(name, {}),
                    output=spec.output,
                    timeout=timeout,
                )
            )
    return jobs
