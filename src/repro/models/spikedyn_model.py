"""The SpikeDyn model: direct lateral inhibition + the Alg. 2 learning rule.

This is the paper's contribution assembled into one classifier:

* the optimized architecture of Section III-B (no inhibitory layer);
* the adaptive membrane threshold potential of Section III-D, configured by
  the architecture builder from ``c_theta``/``theta_decay``/``t_sim``;
* the continual and unsupervised learning rule of Alg. 2 — adaptive learning
  rates, synaptic weight decay with ``w_decay ∝ 1/n_exc``, and
  spurious-update reduction via timestep-gated updates.
"""

from __future__ import annotations

from typing import Optional

from repro.core.architecture import build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.estimation.memory import ARCH_SPIKEDYN
from repro.models.base import DEFAULT_EVAL_BATCH_SIZE, UnsupervisedDigitClassifier
from repro.utils.rng import SeedLike


class SpikeDynModel(UnsupervisedDigitClassifier):
    """SpikeDyn unsupervised SNN classifier.

    Parameters
    ----------
    config:
        Hyperparameter bundle; the weight-decay rate defaults to
        ``decay_scale / n_exc`` and the adaptation potential to
        ``c_theta * theta_decay * t_sim`` as in the paper.
    learning_rule:
        Optional pre-built :class:`SpikeDynLearningRule` (used by the
        ablation benchmarks to toggle individual mechanisms).
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
                 learning_rule: Optional[SpikeDynLearningRule] = None,
                 rng: SeedLike = None,
                 eval_batch_size: Optional[int] = DEFAULT_EVAL_BATCH_SIZE,
                 backend=None) -> None:
        rule = learning_rule if learning_rule is not None else SpikeDynLearningRule(
            nu_pre=config.nu_pre,
            nu_post=config.nu_post,
            spike_threshold=config.spike_threshold,
            update_interval=config.update_interval,
            weight_decay=SynapticWeightDecay(
                config.effective_w_decay, config.tau_decay
            ),
            soft_bounds=config.soft_bounds,
            tau_pre=config.tau_pre,
            tau_post=config.tau_post,
        )
        network = build_spikedyn_network(
            config, learning_rule=rule, rng=rng, name="spikedyn",
            backend=backend,
        )
        super().__init__(config, network, name="spikedyn",
                         eval_batch_size=eval_batch_size)
        self.learning_rule = rule

    def architecture_name(self) -> str:
        return ARCH_SPIKEDYN
