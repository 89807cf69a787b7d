"""The baseline model: Diehl & Cook (2015) unsupervised STDP network.

Architecture of Fig. 1(a): a learned input→excitatory projection, a
one-to-one excitatory→inhibitory projection, and a dense
inhibitory→excitatory projection implementing winner-take-all competition.
Learning is per-spike-event pairwise STDP; the threshold adaptation is the
classic additive ``theta`` with a very slow decay.  The baseline has no
mechanism for forgetting, which is why it mixes new information into already
occupied synapses in dynamic scenarios (paper Section I-A, observation 1).
"""

from __future__ import annotations

from typing import Optional

from repro.core.architecture import build_baseline_network
from repro.core.config import SpikeDynConfig
from repro.estimation.memory import ARCH_BASELINE
from repro.learning.stdp import PairwiseSTDP
from repro.models.base import DEFAULT_EVAL_BATCH_SIZE, UnsupervisedDigitClassifier
from repro.utils.rng import SeedLike


class DiehlCookModel(UnsupervisedDigitClassifier):
    """Baseline unsupervised SNN classifier (excitatory + inhibitory layers).

    Parameters
    ----------
    config:
        Shared hyperparameter bundle (sizes, timing, encoding constants).
    learning_rule:
        Optional pre-built STDP rule; constructed from the configuration's
        ``nu_pre``/``nu_post`` when omitted.
    rng:
        Seed or generator for weight initialization (defaults to the
        configuration's seed).
    eval_batch_size:
        Samples advanced per vectorized engine step during evaluation
        (see :class:`~repro.models.base.UnsupervisedDigitClassifier`).
    backend:
        Compute backend (name or instance) executing the network's kernels;
        defaults to the one shared kernel set.
    """

    def __init__(self, config: SpikeDynConfig, *,
                 learning_rule: Optional[PairwiseSTDP] = None,
                 rng: SeedLike = None,
                 eval_batch_size: Optional[int] = DEFAULT_EVAL_BATCH_SIZE,
                 backend=None) -> None:
        rule = learning_rule if learning_rule is not None else PairwiseSTDP(
            nu_pre=config.nu_pre,
            nu_post=config.nu_post,
            tau_pre=config.tau_pre,
            tau_post=config.tau_post,
            soft_bounds=config.soft_bounds,
        )
        network = build_baseline_network(
            config, learning_rule=rule, rng=rng, name="baseline",
            backend=backend,
        )
        super().__init__(config, network, name="baseline",
                         eval_batch_size=eval_batch_size)
        self.learning_rule = rule

    def architecture_name(self) -> str:
        return ARCH_BASELINE
