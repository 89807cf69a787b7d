"""Evaluation: neuron labelling, metrics, confusion matrices, and protocols.

Unsupervised SNNs are evaluated the way Diehl & Cook (and the SpikeDyn paper)
evaluate them: after training, each excitatory neuron is assigned the class
it responds to most strongly on a labelled assignment set, and a sample's
prediction is the class whose assigned neurons respond most strongly.

:mod:`repro.evaluation.protocols` implements the paper's two evaluation
protocols — the dynamic environment (consecutive task changes, measuring both
the accuracy on the most recently learned task and the accuracy retained on
previously learned tasks) and the non-dynamic environment (accuracy as a
function of the number of randomly-ordered training samples).
"""

from repro.evaluation.confusion import confusion_matrix
from repro.evaluation.continual import ContinualResult, run_scenario_protocol
from repro.evaluation.labeling import (
    assign_neuron_labels,
    class_scores,
    predict_from_responses,
)
from repro.evaluation.metrics import accuracy
from repro.evaluation.protocols import (
    DynamicProtocolResult,
    NonDynamicProtocolResult,
    run_dynamic_protocol,
    run_nondynamic_protocol,
)
from repro.evaluation.reporting import format_table, normalize_to

__all__ = [
    "ContinualResult",
    "DynamicProtocolResult",
    "NonDynamicProtocolResult",
    "accuracy",
    "assign_neuron_labels",
    "confusion_matrix",
    "format_table",
    "normalize_to",
    "class_scores",
    "predict_from_responses",
    "run_dynamic_protocol",
    "run_nondynamic_protocol",
    "run_scenario_protocol",
]
