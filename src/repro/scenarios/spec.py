"""Declarative, seed-deterministic scenario specifications.

A :class:`ScenarioSpec` is a small JSON-safe description of one
continual-learning workload: a *schedule* (which tasks arrive, in which
order, with how many samples) plus a chain of *transforms* (corruptions,
drift, imbalance — see :mod:`repro.scenarios.transforms`).  Building the
spec against a digit source materializes the stream:

>>> spec = ScenarioSpec(
...     name="demo",
...     schedule={"kind": "class_incremental", "tasks": [[0, 1], [2, 3]],
...               "samples_per_task": 8},
...     transforms=({"kind": "gaussian_noise", "sigma": 0.05},),
... )
>>> stream = spec.build(source, rng=0)   # doctest: +SKIP

Everything is derived from the seed handed to :meth:`ScenarioSpec.build`, so
the same spec and seed always produce a bit-identical stream — the property
the result cache and the regression tests rely on.

:data:`SCENARIOS` is the catalogue of named scenario families; each entry is
a builder ``(scale) -> ScenarioSpec`` that sizes the scenario from an
:class:`~repro.experiments.common.ExperimentScale`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.datasets.streams import (
    StreamSample,
    nondynamic_stream,
    normalize_task_schedule,
    task_schedule_stream,
)
from repro.scenarios.transforms import StreamTransform, build_transform
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: Schedule kinds a spec may declare.
SCHEDULE_KINDS: Tuple[str, ...] = ("class_incremental", "recurring", "iid")


@dataclass(frozen=True)
class Phase:
    """One training phase of a built scenario.

    Attributes
    ----------
    index:
        Position of the phase in the stream (equals the samples'
        ``task_index``).
    task_id:
        Identity of the task this phase trains; recurring schedules visit
        the same ``task_id`` in several phases.
    classes:
        Classes the schedule declares for this task (drift transforms may
        replace some of them in the materialized stream).
    """

    index: int
    task_id: int
    classes: Tuple[int, ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one continual-learning workload.

    Attributes
    ----------
    name:
        Catalogue name of the scenario (used in reports and cache keys).
    schedule:
        ``{"kind": ..., ...}`` declaration — one of

        * ``class_incremental``: ``tasks`` (list of class lists) presented
          once each, ``samples_per_task`` samples per task;
        * ``recurring``: like ``class_incremental`` plus ``repeats`` — the
          whole task list is cycled that many times, so earlier tasks recur
          after later ones (interleaved task arrival);
        * ``iid``: a single phase of ``n_samples`` samples with labels drawn
          uniformly from ``classes``.
    transforms:
        Chain of transform declarations applied to the scheduled stream in
        order (see :data:`repro.scenarios.transforms.TRANSFORMS`).
    description:
        One-line human-readable summary for ``repro scenarios list``.
    """

    name: str
    schedule: Mapping[str, Any]
    transforms: Tuple[Mapping[str, Any], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        # Deep copies: the declarations hold nested lists, and a frozen spec
        # must not be mutable through aliases the caller (or to_dict) holds.
        schedule = copy.deepcopy(dict(self.schedule))
        kind = schedule.get("kind")
        if kind not in SCHEDULE_KINDS:
            known = ", ".join(SCHEDULE_KINDS)
            raise ValueError(f"unknown schedule kind {kind!r}; known kinds: {known}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(
            self, "transforms", tuple(copy.deepcopy(dict(t)) for t in self.transforms)
        )
        # Validate eagerly so a bad spec fails at declaration time, not in a
        # worker process halfway through a suite run.
        self.phases()
        self.built_transforms()

    # -- declaration-derived structure ------------------------------------------

    def phases(self) -> List[Phase]:
        """The training phases this scenario's stream will contain."""
        kind = self.schedule["kind"]
        if kind == "iid":
            classes = tuple(int(c) for c in self.schedule.get("classes", ()))
            if not classes:
                raise ValueError("an iid schedule needs a non-empty class list")
            check_positive_int(int(self.schedule.get("n_samples", 0)), "n_samples")
            return [Phase(index=0, task_id=0, classes=classes)]

        tasks = normalize_task_schedule(self.schedule.get("tasks", ()))
        check_positive_int(
            int(self.schedule.get("samples_per_task", 0)), "samples_per_task"
        )
        repeats = 1
        if kind == "recurring":
            repeats = int(self.schedule.get("repeats", 2))
            check_positive_int(repeats, "repeats")
        phases: List[Phase] = []
        for cycle in range(repeats):
            del cycle
            for task_id, classes in enumerate(tasks):
                phases.append(
                    Phase(index=len(phases), task_id=task_id, classes=classes)
                )
        return phases

    def tasks(self) -> Dict[int, Tuple[int, ...]]:
        """Distinct ``{task_id: classes}`` in first-appearance order."""
        tasks: Dict[int, Tuple[int, ...]] = {}
        for phase in self.phases():
            tasks.setdefault(phase.task_id, phase.classes)
        return tasks

    def classes(self) -> Tuple[int, ...]:
        """Every class the schedule declares, in first-appearance order."""
        seen: List[int] = []
        for phase in self.phases():
            for cls in phase.classes:
                if cls not in seen:
                    seen.append(cls)
        return tuple(seen)

    def built_transforms(self) -> List[StreamTransform]:
        """Instantiated transform chain (validates the declarations)."""
        return [build_transform(declaration) for declaration in self.transforms]

    # -- materialization ---------------------------------------------------------

    def build(self, source, rng: SeedLike = None) -> List[StreamSample]:
        """Materialize the stream against ``source``; fully seed-determined.

        The schedule and every transform draw from one generator in stream
        order, so equal ``(spec, source state, rng seed)`` triples produce
        bit-identical streams.
        """
        generator = ensure_rng(rng)
        kind = self.schedule["kind"]
        if kind == "iid":
            stream = nondynamic_stream(
                source,
                n_samples=int(self.schedule["n_samples"]),
                classes=list(self.schedule["classes"]),
                rng=generator,
            )
        else:
            schedule = [phase.classes for phase in self.phases()]
            stream = task_schedule_stream(
                source,
                schedule,
                samples_per_task=int(self.schedule["samples_per_task"]),
                rng=generator,
            )
        for transform in self.built_transforms():
            stream = transform.apply(stream, source, generator)
        return stream

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe declaration (round-trips through :meth:`from_dict`).

        The result is a deep copy: mutating it never changes this spec.
        """
        return {
            "name": self.name,
            "schedule": copy.deepcopy(dict(self.schedule)),
            "transforms": [copy.deepcopy(dict(t)) for t in self.transforms],
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        return cls(
            name=data["name"],
            schedule=dict(data["schedule"]),
            transforms=tuple(dict(t) for t in data.get("transforms", ())),
            description=data.get("description", ""),
        )


# -- catalogue -------------------------------------------------------------------


def _pair_tasks(classes: Sequence[int]) -> List[List[int]]:
    """Group a class sequence into two-class tasks (last task may be one)."""
    classes = [int(c) for c in classes]
    return [classes[i:i + 2] for i in range(0, len(classes), 2)]


def _single_tasks(classes: Sequence[int]) -> List[List[int]]:
    return [[int(c)] for c in classes]


def class_incremental_scenario(scale) -> ScenarioSpec:
    """Class-incremental arrival with two-class tasks (CIL-style)."""
    return ScenarioSpec(
        name="class-incremental",
        schedule={
            "kind": "class_incremental",
            "tasks": _pair_tasks(scale.class_sequence),
            "samples_per_task": 2 * scale.samples_per_task,
        },
        description="two-class tasks arriving once each, never revisited",
    )


def recurring_scenario(scale) -> ScenarioSpec:
    """Recurring/interleaved tasks: the task cycle is visited twice."""
    return ScenarioSpec(
        name="recurring",
        schedule={
            "kind": "recurring",
            "tasks": _single_tasks(scale.class_sequence),
            "samples_per_task": scale.samples_per_task,
            "repeats": 2,
        },
        description="single-class tasks recurring over two interleaved cycles",
    )


def label_drift_scenario(scale) -> ScenarioSpec:
    """Gradual concept drift: the first class drifts into the last one."""
    classes = [int(c) for c in scale.class_sequence]
    return ScenarioSpec(
        name="label-drift",
        schedule={
            "kind": "recurring",
            "tasks": _single_tasks(classes),
            "samples_per_task": scale.samples_per_task,
            "repeats": 2,
        },
        transforms=(
            {
                "kind": "label_drift",
                "mapping": {str(classes[0]): classes[-1]},
                "start": 0.25,
                "end": 1.0,
            },
        ),
        description="recurring tasks whose first class gradually drifts into "
                    "the last one",
    )


def abrupt_drift_scenario(scale) -> ScenarioSpec:
    """Abrupt concept drift at the middle of the stream."""
    classes = [int(c) for c in scale.class_sequence]
    return ScenarioSpec(
        name="abrupt-drift",
        schedule={
            "kind": "recurring",
            "tasks": _single_tasks(classes),
            "samples_per_task": scale.samples_per_task,
            "repeats": 2,
        },
        transforms=(
            {
                "kind": "label_drift",
                "mapping": {str(classes[0]): classes[-1]},
                "start": 0.5,
                "end": 0.5,
            },
        ),
        description="recurring tasks whose first class switches abruptly to "
                    "the last one at mid-stream",
    )


def corrupted_scenario(scale) -> ScenarioSpec:
    """Class-incremental arrival under input corruption (noise + occlusion)."""
    return ScenarioSpec(
        name="corrupted",
        schedule={
            "kind": "class_incremental",
            "tasks": _pair_tasks(scale.class_sequence),
            "samples_per_task": 2 * scale.samples_per_task,
        },
        transforms=(
            {"kind": "gaussian_noise", "sigma": 0.08},
            {"kind": "occlusion", "fraction": 0.25},
        ),
        description="two-class incremental tasks with Gaussian noise and "
                    "random occlusion patches",
    )


def imbalanced_scenario(scale) -> ScenarioSpec:
    """I.i.d. stream with a heavily under-represented first class."""
    classes = [int(c) for c in scale.class_sequence]
    return ScenarioSpec(
        name="imbalanced",
        schedule={
            "kind": "iid",
            "classes": classes,
            "n_samples": max(2, scale.samples_per_task) * len(classes),
        },
        transforms=(
            {"kind": "class_imbalance", "keep": {str(classes[0]): 0.25}},
        ),
        description="i.i.d. stream where the first class is subsampled to "
                    "one quarter of its share",
    )


def mixture_scenario(scale) -> ScenarioSpec:
    """Recurring tasks under mild mixed corruption (contrast + noise)."""
    return ScenarioSpec(
        name="mixture",
        schedule={
            "kind": "recurring",
            "tasks": _single_tasks(scale.class_sequence),
            "samples_per_task": scale.samples_per_task,
            "repeats": 2,
        },
        transforms=(
            {"kind": "contrast", "factor": 0.7},
            {"kind": "gaussian_noise", "sigma": 0.05},
        ),
        description="recurring tasks with washed-out contrast and mild "
                    "Gaussian noise",
    )


#: Catalogue of named scenario families: ``{name: builder(scale) -> spec}``.
SCENARIOS: Dict[str, Callable[..., ScenarioSpec]] = {
    "class-incremental": class_incremental_scenario,
    "recurring": recurring_scenario,
    "label-drift": label_drift_scenario,
    "abrupt-drift": abrupt_drift_scenario,
    "corrupted": corrupted_scenario,
    "imbalanced": imbalanced_scenario,
    "mixture": mixture_scenario,
}


def scenario_names() -> List[str]:
    """Catalogue names in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str, scale) -> ScenarioSpec:
    """Build the named scenario sized to ``scale``.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is not in the catalogue.
    """
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return builder(scale)
