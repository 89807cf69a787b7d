"""Adaptive learning rates (paper Eq. 1).

SpikeDyn modulates the magnitude of STDP potentiation and depression with
two activity-derived factors:

* the **potentiation factor** ``kp = ceil(maxSp_post / Sp_th)`` grows when the
  postsynaptic side is highly active, i.e. when the corresponding synapses
  need to learn the currently presented input features;
* the **depression factor** ``kd = maxSp_post / maxSp_pre`` scales depression
  by how responsive the postsynaptic layer has been relative to the input
  drive, weakening connections when the network stays silent.

Both factors are computed from the accumulated pre- and postsynaptic spike
counts of the run's spike record (:class:`repro.core.spurious.SpikeRecord`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive


def potentiation_factor(max_post_spikes: float, spike_threshold: float) -> float:
    """Potentiation factor ``kp`` of Eq. 1(a).

    Parameters
    ----------
    max_post_spikes:
        Maximum accumulated postsynaptic spike count (``maxSp_post``).
    spike_threshold:
        Normalizing spike threshold ``Sp_th``.

    Returns
    -------
    float
        ``ceil(max_post_spikes / spike_threshold)``; zero when the
        postsynaptic layer has not spiked at all.
    """
    check_non_negative(max_post_spikes, "max_post_spikes")
    check_positive(spike_threshold, "spike_threshold")
    if max_post_spikes == 0:
        return 0.0
    return float(math.ceil(max_post_spikes / spike_threshold))


def depression_factor(max_post_spikes: float, max_pre_spikes: float) -> float:
    """Depression factor ``kd`` of Eq. 1(b).

    Parameters
    ----------
    max_post_spikes:
        Maximum accumulated postsynaptic spike count (``maxSp_post``).
    max_pre_spikes:
        Maximum accumulated presynaptic spike count (``maxSp_pre``).

    Returns
    -------
    float
        ``max_post_spikes / max_pre_spikes``; zero when the input has not
        spiked yet (no evidence on which to base depression).
    """
    check_non_negative(max_post_spikes, "max_post_spikes")
    check_non_negative(max_pre_spikes, "max_pre_spikes")
    if max_pre_spikes == 0:
        return 0.0
    return float(max_post_spikes) / float(max_pre_spikes)


@dataclass
class AdaptiveLearningRates:
    """Convenience container computing both factors of Eq. 1.

    Parameters
    ----------
    spike_threshold:
        The normalizing threshold ``Sp_th`` used by the potentiation factor.
    """

    spike_threshold: float = 4.0

    def __post_init__(self) -> None:
        check_positive(self.spike_threshold, "spike_threshold")

    def kp(self, max_post_spikes: float) -> float:
        """Potentiation factor for the given accumulated postsynaptic count."""
        return potentiation_factor(max_post_spikes, self.spike_threshold)

    def kd(self, max_post_spikes: float, max_pre_spikes: float) -> float:
        """Depression factor for the given accumulated spike counts."""
        return depression_factor(max_post_spikes, max_pre_spikes)
