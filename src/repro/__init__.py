"""SpikeDyn reproduction library.

A from-scratch Python implementation of *SpikeDyn: A Framework for
Energy-Efficient Spiking Neural Networks with Continual and Unsupervised
Learning Capabilities in Dynamic Environments* (Putra & Shafique, DAC 2021),
together with every substrate the paper depends on: a clock-driven SNN
simulation engine, spike encoders, the Diehl & Cook and ASP comparison
partners, analytical memory/energy/latency models for the paper's three GPU
targets, a synthetic MNIST-like digit source, and the dynamic /
non-dynamic evaluation protocols.

Quickstart
----------
>>> from repro import SpikeDynConfig, SpikeDynModel, SyntheticDigits
>>> from repro.evaluation import run_dynamic_protocol
>>> config = SpikeDynConfig.scaled_down(n_exc=20, seed=0)
>>> source = SyntheticDigits(image_size=14, seed=0)
>>> model = SpikeDynModel(config)
>>> result = run_dynamic_protocol(model, source, class_sequence=[0, 1],
...                               samples_per_task=3, eval_samples_per_class=2,
...                               rng=0)
"""

from repro.core.config import SpikeDynConfig
from repro.backends import get_backend
from repro.core.learning import SpikeDynLearningRule
from repro.core.model_search import search_snn_model
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.asp_model import ASPModel
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel

# Part of every content-addressed job key: bumping the version invalidates
# the on-disk result cache by design.
__version__ = "1.15.0"

__all__ = [
    "ASPModel",
    "DiehlCookModel",
    "SpikeDynConfig",
    "SpikeDynLearningRule",
    "SpikeDynModel",
    "SyntheticDigits",
    "get_backend",
    "search_snn_model",
    "__version__",
]
