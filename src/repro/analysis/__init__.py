"""Analysis utilities on top of trained models.

The paper's figures are built from three kinds of post-processing, all
provided here so downstream users can inspect their own runs:

* :mod:`repro.analysis.receptive_fields` — the learned input→excitatory
  weights viewed as per-neuron receptive fields (the standard way to inspect
  Diehl & Cook style unsupervised SNNs);
* :mod:`repro.analysis.spike_stats` — activity statistics of the excitatory
  layer (firing rates, selectivity, winner-take-all sharpness);
* :mod:`repro.analysis.ascii_art` — dependency-free terminal rendering (bar
  charts and heat maps) used by the examples and reports.
"""

from repro.analysis.ascii_art import ascii_bar_chart, ascii_heatmap
from repro.analysis.receptive_fields import (
    neuron_class_map,
    receptive_field,
    receptive_field_similarity,
)
from repro.analysis.spike_stats import (
    ResponseStatistics,
    class_selectivity,
    response_statistics,
    winner_share,
)

__all__ = [
    "ResponseStatistics",
    "ascii_bar_chart",
    "ascii_heatmap",
    "class_selectivity",
    "neuron_class_map",
    "receptive_field",
    "receptive_field_similarity",
    "response_statistics",
    "winner_share",
]
