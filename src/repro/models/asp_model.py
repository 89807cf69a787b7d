"""The state-of-the-art comparator: ASP (Adaptive Synaptic Plasticity).

Same excitatory + inhibitory architecture as the baseline, but the learning
rule adds recency-modulated learning rates and an activity-dependent weight
leak ("learning to forget", Panda et al. 2018).  The extra spike traces and
per-timestep weight-leak operations are the energy overhead the paper's
motivational study measures (Fig. 1b); the forgetting mechanism is what lets
ASP keep learning new tasks in dynamic scenarios (Fig. 1c).
"""

from __future__ import annotations

from typing import Optional

from repro.core.architecture import build_baseline_network
from repro.core.config import SpikeDynConfig
from repro.estimation.memory import ARCH_BASELINE
from repro.learning.asp import ASPLearningRule
from repro.models.base import UnsupervisedDigitClassifier
from repro.utils.rng import SeedLike


class ASPModel(UnsupervisedDigitClassifier):
    """State-of-the-art unsupervised SNN classifier trained with ASP.

    Parameters
    ----------
    config:
        Shared hyperparameter bundle (sizes, timing, encoding constants).
    learning_rule:
        Optional pre-built ASP rule; constructed from the configuration when
        omitted.
    tau_leak:
        Weight-leak time constant used when the rule is built here (ms).
    rng:
        Seed or generator for weight initialization (defaults to the
        configuration's seed).
    backend:
        Compute backend (name or instance) executing the network's kernels;
        defaults to the one shared kernel set.
    """

    def __init__(self, config: SpikeDynConfig, *,
                 learning_rule: Optional[ASPLearningRule] = None,
                 tau_leak: float = 2.0e4,
                 rng: SeedLike = None,
                 backend=None) -> None:
        rule = learning_rule if learning_rule is not None else ASPLearningRule(
            nu_pre=config.nu_pre,
            nu_post=config.nu_post,
            tau_pre=config.tau_pre,
            tau_post=config.tau_post,
            soft_bounds=config.soft_bounds,
            tau_leak=tau_leak,
        )
        network = build_baseline_network(
            config, learning_rule=rule, rng=rng, name="asp",
            backend=backend,
        )
        super().__init__(config, network, name="asp")
        self.learning_rule = rule

    def architecture_name(self) -> str:
        return ARCH_BASELINE
