"""Shared infrastructure for the paper-experiment drivers.

The paper's evaluation runs full-MNIST workloads on physical GPUs; the
drivers in this package run the same protocols at a configurable scale.
:class:`ExperimentScale` bundles every scale knob (image size, network sizes,
samples per task, presentation window, ...) and ships three presets:

``ExperimentScale.tiny()``
    Seconds-per-experiment settings used by the benchmark harness and the
    integration tests.
``ExperimentScale.small()``
    Minutes-per-experiment settings used to produce the numbers recorded in
    ``EXPERIMENTS.md``.
``ExperimentScale.paper()``
    The paper's own sizes (28x28 MNIST, N200/N400, 350 ms presentations,
    full dataset sample counts).  Provided for completeness; running it with
    this pure-Python engine takes many hours, as the paper's Table II would
    predict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.asp_model import ASPModel
from repro.models.base import UnsupervisedDigitClassifier
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel
from repro.snn.simulation import OperationCounter
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: The three comparison partners of the paper, in the order they are plotted.
MODEL_BUILDERS: Dict[str, Callable[..., UnsupervisedDigitClassifier]] = {
    "baseline": DiehlCookModel,
    "asp": ASPModel,
    "spikedyn": SpikeDynModel,
}

#: Canonical plotting/reporting order of the comparison partners.
MODEL_ORDER: Tuple[str, ...] = ("baseline", "asp", "spikedyn")


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by every experiment driver.

    Parameters
    ----------
    image_size:
        Side length of the (synthetic) digit images; the SNN input size is
        ``image_size ** 2``.
    network_sizes:
        Excitatory-layer sizes evaluated side by side; the paper uses
        ``(200, 400)`` (N200 / N400).
    class_sequence:
        Task order of the dynamic-environment protocol.
    samples_per_task:
        Training samples presented per task in the dynamic protocol.
    eval_samples_per_class:
        Samples per class in the assignment and evaluation sets.
    nondynamic_checkpoints:
        Cumulative sample counts at which the non-dynamic protocol measures
        accuracy (the x-axis of Fig. 9c).
    t_sim:
        Presentation window of one sample in milliseconds.
    update_interval:
        SpikeDyn's update window ``t_step`` in milliseconds.
    n_training_samples, n_inference_samples:
        Phase sample counts ``N`` used by the analytical energy model
        (``E = E1 * N``) and the Table II processing-time model.
    seed:
        Base seed for every stochastic component.
    eval_batch_size:
        Samples advanced per vectorized engine step during protocol
        evaluation (1 = sequential per-sample inference).
    """

    image_size: int = 14
    network_sizes: Tuple[int, ...] = (20, 40)
    class_sequence: Tuple[int, ...] = (0, 1, 2, 3)
    samples_per_task: int = 4
    eval_samples_per_class: int = 3
    nondynamic_checkpoints: Tuple[int, ...] = (8, 16, 32)
    t_sim: float = 50.0
    update_interval: float = 10.0
    n_training_samples: int = 60_000
    n_inference_samples: int = 10_000
    seed: int = 0
    eval_batch_size: int = 32

    def __post_init__(self) -> None:
        check_positive_int(self.image_size, "image_size")
        if not self.network_sizes:
            raise ValueError("network_sizes must not be empty")
        for size in self.network_sizes:
            check_positive_int(int(size), "network size")
        if not self.class_sequence:
            raise ValueError("class_sequence must not be empty")
        check_positive_int(self.samples_per_task, "samples_per_task")
        check_positive_int(self.eval_samples_per_class, "eval_samples_per_class")
        check_positive_int(self.eval_batch_size, "eval_batch_size")

    # -- presets ---------------------------------------------------------------

    @classmethod
    def tiny(cls, **overrides) -> "ExperimentScale":
        """Seconds-scale preset used by benchmarks and integration tests."""
        defaults = dict(
            image_size=14,
            network_sizes=(10, 20),
            class_sequence=(0, 1, 2),
            samples_per_task=3,
            eval_samples_per_class=2,
            nondynamic_checkpoints=(4, 8),
            t_sim=40.0,
            update_interval=10.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def small(cls, **overrides) -> "ExperimentScale":
        """Minutes-scale preset used to fill EXPERIMENTS.md."""
        defaults = dict(
            image_size=14,
            network_sizes=(20, 40),
            class_sequence=tuple(range(10)),
            samples_per_task=10,
            eval_samples_per_class=4,
            nondynamic_checkpoints=(10, 20, 40, 80),
            t_sim=60.0,
            update_interval=10.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper(cls, **overrides) -> "ExperimentScale":
        """The paper's own experimental scale (28x28 MNIST, N200/N400)."""
        defaults = dict(
            image_size=28,
            network_sizes=(200, 400),
            class_sequence=tuple(range(10)),
            samples_per_task=6_000,
            eval_samples_per_class=100,
            nondynamic_checkpoints=(1_000, 5_000, 10_000, 30_000, 60_000),
            t_sim=350.0,
            update_interval=10.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    # -- derived quantities -------------------------------------------------------

    @property
    def n_input(self) -> int:
        """Number of input neurons (pixels per image)."""
        return self.image_size * self.image_size

    @property
    def network_labels(self) -> Tuple[str, ...]:
        """Human-readable labels of the evaluated network sizes (e.g. ``N200``)."""
        return tuple(f"N{size}" for size in self.network_sizes)

    def config(self, n_exc: int, **overrides) -> SpikeDynConfig:
        """A :class:`SpikeDynConfig` for one network size at this scale."""
        check_positive_int(n_exc, "n_exc")
        parameters = dict(
            n_input=self.n_input,
            n_exc=n_exc,
            t_sim=self.t_sim,
            t_rest=0.0,
            update_interval=self.update_interval,
            seed=self.seed,
        )
        parameters.update(overrides)
        return SpikeDynConfig(**parameters)

    def replace(self, **changes) -> "ExperimentScale":
        """Copy of the scale with selected fields overridden."""
        return replace(self, **changes)


def default_digit_source(scale: ExperimentScale,
                         seed: SeedLike = None) -> SyntheticDigits:
    """The synthetic digit source used by every experiment at ``scale``."""
    return SyntheticDigits(
        image_size=scale.image_size,
        seed=scale.seed if seed is None else seed,
    )


def build_model(name: str, config: SpikeDynConfig, *,
                rng: SeedLike = None, **kwargs) -> UnsupervisedDigitClassifier:
    """Build one of the three comparison partners by name.

    Parameters
    ----------
    name:
        ``"baseline"``, ``"asp"``, or ``"spikedyn"``.
    config:
        Shared hyperparameter bundle.
    rng:
        Seed or generator for the weight initialization; defaults to the
        configuration's seed.
    **kwargs:
        Extra keyword arguments forwarded to the model constructor (e.g. a
        pre-built learning rule for ablations).
    """
    key = name.strip().lower()
    if key not in MODEL_BUILDERS:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    rng = ensure_rng(rng if rng is not None else config.seed)
    return MODEL_BUILDERS[key](config, rng=rng, **kwargs)


@dataclass
class SampleCounters:
    """Per-sample operation counters of one model (training and inference)."""

    model_name: str
    n_exc: int
    training: OperationCounter = field(default_factory=OperationCounter)
    inference: OperationCounter = field(default_factory=OperationCounter)


def measure_sample_counters(
    model: UnsupervisedDigitClassifier,
    images: Sequence[np.ndarray],
) -> SampleCounters:
    """Average per-sample operation counters of ``model`` over ``images``.

    One training presentation and one inference presentation are measured per
    image; the averages play the role of the paper's single-sample
    measurements (``E1t`` / ``E1i`` in Alg. 1).
    """
    if len(images) == 0:
        raise ValueError("at least one image is required")
    train_total = OperationCounter()
    infer_total = OperationCounter()
    for image in images:
        before = model.counter.copy()
        model.train_sample(image)
        train_total = train_total + (model.counter - before)

        before = model.counter.copy()
        model.respond(image)
        infer_total = infer_total + (model.counter - before)

    n = len(images)
    averaged_train = OperationCounter(
        **{key: value // n for key, value in train_total.as_dict().items()}
    )
    averaged_infer = OperationCounter(
        **{key: value // n for key, value in infer_total.as_dict().items()}
    )
    return SampleCounters(
        model_name=model.name,
        n_exc=model.n_exc,
        training=averaged_train,
        inference=averaged_infer,
    )


def sample_images(scale: ExperimentScale, n: int,
                  classes: Optional[Sequence[int]] = None,
                  seed: SeedLike = None) -> np.ndarray:
    """Draw ``n`` labelled-class images used for single-sample measurements."""
    check_positive_int(n, "n")
    source = default_digit_source(scale, seed=seed)
    rng = ensure_rng(scale.seed if seed is None else seed)
    images, _ = source.sample(n, classes=classes, rng=rng)
    return images
