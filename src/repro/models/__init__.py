"""Reference network models used in the paper's evaluation.

Three models share the same public interface
(:class:`~repro.models.base.UnsupervisedDigitClassifier`):

* :class:`~repro.models.diehl_cook.DiehlCookModel` — the **baseline** [2]:
  excitatory + inhibitory layers trained with per-spike-event pairwise STDP;
* :class:`~repro.models.asp_model.ASPModel` — the **state-of-the-art** [7]:
  the same architecture trained with Adaptive Synaptic Plasticity;
* :class:`~repro.models.spikedyn_model.SpikeDynModel` — the paper's
  contribution: direct lateral inhibition plus the SpikeDyn continual and
  unsupervised learning rule.

:data:`MODEL_CLASSES` maps the model names used by the experiment drivers,
the CLI and saved artifacts to these classes.
"""

from typing import Dict, Type

from repro.models.asp_model import ASPModel
from repro.models.base import UnsupervisedDigitClassifier
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel

#: The three comparison partners of the paper, keyed by model name.
MODEL_CLASSES: Dict[str, Type[UnsupervisedDigitClassifier]] = {
    "baseline": DiehlCookModel,
    "asp": ASPModel,
    "spikedyn": SpikeDynModel,
}

__all__ = [
    "ASPModel",
    "DiehlCookModel",
    "MODEL_CLASSES",
    "SpikeDynModel",
    "UnsupervisedDigitClassifier",
]
