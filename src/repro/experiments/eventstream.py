"""Event-driven execution study: long-horizon streams, O(events) cost.

The clock-driven engine pays for every timestep of a presentation whether
or not anything happens in it; on the long-horizon, low-rate workloads the
event-stream encoders produce (DVS-style bursts separated by hundreds of
silent milliseconds), almost all of that cost is spent proving that nothing
happened.  This driver runs the same labelled event streams through both
engines of the *same* network and reports

* **equivalence** — per-stream excitatory spike counts and the derived
  predictions must match the stepped reference exactly (the event engine
  only ever skips provably silent spans);
* **event accounting** — the :class:`~repro.snn.simulation.OperationCounter`
  tallies ``events_processed`` / ``steps_skipped`` introduced for the event
  engine, plus the fraction of timesteps actually executed;
* **energy proxy** — the operation-weighted energy estimate of both paths
  on a reference device, i.e. what the skipped timesteps are worth.

Two identically seeded models are built so both engines start from
bit-identical weights and adaptation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends import DEFAULT_BACKEND
from repro.datasets.event_streams import EventStreamDigitSource
from repro.encoding.events import DVSEventStreamEncoder
from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import default_devices
from repro.evaluation.labeling import assign_neuron_labels, predict_from_responses
from repro.evaluation.reporting import format_table
from repro.experiments.common import (
    ExperimentScale,
    build_model,
    default_digit_source,
)
from repro.models.base import N_CLASSES
from repro.utils.rng import ensure_rng


@dataclass
class EventStreamStudyResult:
    """Structured output of the event-driven execution study.

    Attributes
    ----------
    scale:
        The experiment scale the study was run at.
    backend:
        Compute backend both engines ran on.
    horizon_steps:
        Timesteps per presentation (the long horizon).
    streams:
        Per-stream records: label, event count, density, steps skipped,
        executed-step fraction, and whether counts matched the stepped path.
    equivalence:
        ``{"counts_match": ..., "predictions_match": ...}`` over all streams.
    event_ops:
        Aggregate tallies — ``events_processed``, ``steps_skipped``,
        ``executed_step_fraction`` — plus the operation totals and
        energy-proxy estimates of both paths.
    """

    scale: ExperimentScale
    backend: str = DEFAULT_BACKEND
    horizon_steps: int = 0
    streams: List[Dict[str, object]] = field(default_factory=list)
    equivalence: Dict[str, bool] = field(default_factory=dict)
    event_ops: Dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines: List[str] = [
            "Event-driven execution study "
            f"(backend={self.backend}, horizon={self.horizon_steps} steps)",
        ]
        rows = [
            [
                record["label"],
                record["n_events"],
                f"{record['density']:.4f}",
                record["steps_skipped"],
                f"{record['executed_fraction']:.3f}",
                "yes" if record["counts_match"] else "NO",
            ]
            for record in self.streams
        ]
        lines.append(format_table(
            ["label", "events", "density", "skipped", "executed", "counts=="],
            rows,
        ))
        lines.append("")
        lines.append(
            f"equivalence: counts_match={self.equivalence['counts_match']} "
            f"predictions_match={self.equivalence['predictions_match']}"
        )
        lines.append(
            "event engine tallies: "
            f"events_processed={int(self.event_ops['events_processed'])} "
            f"steps_skipped={int(self.event_ops['steps_skipped'])} "
            f"executed_step_fraction="
            f"{self.event_ops['executed_step_fraction']:.3f}"
        )
        lines.append(
            "energy proxy "
            f"({self.event_ops['device']}): "
            f"stepped={self.event_ops['stepped_joules']:.3e} J "
            f"events={self.event_ops['event_joules']:.3e} J "
            f"(x{self.event_ops['energy_ratio']:.2f} less)"
        )
        return "\n".join(lines)


def run_eventstream_study(
    scale: Optional[ExperimentScale] = None,
    *,
    model: str = "spikedyn",
    backend: str = DEFAULT_BACKEND,
    classes: Sequence[int] = (0, 1, 2),
    streams_per_class: int = 1,
    duration: float = 600.0,
    n_bursts: int = 5,
    burst_steps: int = 6,
    max_probability: float = 0.08,
) -> EventStreamStudyResult:
    """Run the event-driven execution study.

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    model:
        Which comparison partner's network to run (``"spikedyn"`` default).
    backend:
        Compute backend for both engines (default the reference backend,
        which declares ``supports_events``).
    classes, streams_per_class:
        Which digit classes to encode and how many streams per class.
    duration, n_bursts, burst_steps, max_probability:
        :class:`~repro.encoding.events.DVSEventStreamEncoder` knobs; the
        defaults give a sub-1 % density, 600-step horizon.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    config = scale.config(scale.network_sizes[0], backend=backend)
    encoder = DVSEventStreamEncoder(
        duration=duration,
        dt=config.dt,
        n_bursts=n_bursts,
        burst_steps=burst_steps,
        max_probability=max_probability,
        rng=ensure_rng(scale.seed),
    )
    source = EventStreamDigitSource(default_digit_source(scale), encoder)
    samples, labels = source.labelled_streams(
        streams_per_class, classes=classes, rng=ensure_rng(scale.seed + 1)
    )

    # Two identically seeded models: both engines start from bit-identical
    # weights and adaptation state, so any result difference is the engine's.
    stepped_model = build_model(model, config)
    event_model = build_model(model, config)

    result = EventStreamStudyResult(
        scale=scale,
        backend=event_model.backend_name,
        horizon_steps=encoder.timesteps,
    )

    stepped_responses = np.zeros((len(samples), config.n_exc))
    event_responses = np.zeros((len(samples), config.n_exc))
    for index, sample in enumerate(samples):
        dense = sample.stream.to_dense()

        before = stepped_model.counter.copy()
        stepped_responses[index] = stepped_model.network.run_sample(
            dense, learning=False
        ).counts("excitatory")
        stepped_delta = stepped_model.counter - before

        before = event_model.counter.copy()
        event_responses[index] = event_model.respond_events(sample.stream)
        event_delta = event_model.counter - before

        counts_match = bool(np.array_equal(stepped_responses[index],
                                           event_responses[index]))
        result.streams.append({
            "label": int(sample.label),
            "n_events": int(sample.stream.n_events),
            "density": float(sample.stream.density),
            "steps_skipped": int(event_delta.steps_skipped),
            "executed_fraction": float(
                1.0 - event_delta.steps_skipped / encoder.timesteps
            ),
            "counts_match": counts_match,
            "stepped_ops": int(stepped_delta.total_ops()),
            "event_ops": int(event_delta.total_ops()),
        })

    assignments = assign_neuron_labels(stepped_responses, labels, N_CLASSES)
    stepped_pred = predict_from_responses(stepped_responses, assignments,
                                          N_CLASSES)
    event_pred = predict_from_responses(event_responses, assignments,
                                        N_CLASSES)
    result.equivalence = {
        "counts_match": all(r["counts_match"] for r in result.streams),
        "predictions_match": bool(np.array_equal(stepped_pred, event_pred)),
    }

    device = default_devices()[0]
    energy_model = EnergyModel(device)
    stepped_joules = energy_model.estimate(stepped_model.counter).joules
    event_joules = energy_model.estimate(event_model.counter).joules
    counter = event_model.counter
    total_steps = encoder.timesteps * len(samples)
    result.event_ops = {
        "events_processed": float(counter.events_processed),
        "steps_skipped": float(counter.steps_skipped),
        "executed_step_fraction": float(
            1.0 - counter.steps_skipped / total_steps
        ),
        "stepped_total_ops": float(stepped_model.counter.total_ops()),
        "event_total_ops": float(counter.total_ops()),
        "device": device.name,
        "stepped_joules": float(stepped_joules),
        "event_joules": float(event_joules),
        "energy_ratio": float(stepped_joules / event_joules)
        if event_joules else float("inf"),
    }
    return result
