"""SpikeDyn core: the paper's primary contribution.

The three mechanisms of the SpikeDyn framework (DAC 2021) live here:

1. **Reduced neuronal operations** — :mod:`repro.core.architecture` builds
   the optimized network in which the inhibitory layer is replaced by direct
   lateral inhibition (Section III-B).
2. **Memory- and energy-constrained model search** — Algorithm 1 in
   :mod:`repro.core.model_search`, driven by the analytical estimators of
   :mod:`repro.estimation` (Section III-C).
3. **Continual and unsupervised learning** — Algorithm 2 in
   :mod:`repro.core.learning`, combining adaptive learning rates, synaptic
   weight decay, an adaptive membrane threshold potential, and
   spurious-update reduction (Section III-D).

Callers compose them directly, as in the paper's tool flow (Fig. 3):
:func:`~repro.core.model_search.search_snn_model` picks the largest model
that fits the constraints, :class:`~repro.models.spikedyn_model.SpikeDynModel`
builds and trains it, and :mod:`repro.evaluation.protocols` evaluates it.
"""

from repro.core.adaptive_rates import (
    AdaptiveLearningRates,
    depression_factor,
    potentiation_factor,
)
from repro.core.adaptive_threshold import (
    AdaptiveThresholdPolicy,
    adaptation_potential,
)
from repro.core.architecture import (
    build_baseline_network,
    build_spikedyn_network,
)
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.core.model_search import ModelCandidate, ModelSearchResult, search_snn_model
from repro.core.weight_decay import SynapticWeightDecay, decay_rate_for_network_size

__all__ = [
    "AdaptiveLearningRates",
    "AdaptiveThresholdPolicy",
    "ModelCandidate",
    "ModelSearchResult",
    "SpikeDynConfig",
    "SpikeDynLearningRule",
    "SynapticWeightDecay",
    "adaptation_potential",
    "build_baseline_network",
    "build_spikedyn_network",
    "decay_rate_for_network_size",
    "depression_factor",
    "potentiation_factor",
    "search_snn_model",
]
