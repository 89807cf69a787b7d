"""Bit-exactness fixture of the whole simulation engine.

Where :mod:`tests.snn.test_golden_trace` pins a tiny network, this fixture
pins every engine entry point at a size where all of SpikeDyn's mechanisms
fire: a 196x40 SpikeDyn network (T=100) is trained through ``run_sample``
long enough to commit both potentiation and depression windows, weight
decay and theta drift; it then answers a ``run_batch`` (B=3, with rest)
inference and two bursty event streams through ``run_events`` on the
``eventqueue`` backend, where silent gaps are jumped; finally a Diehl-Cook
network (inhibitory layer, pairwise STDP) trains on two samples.  After each
phase the spike counts, weights, theta and every ``OperationCounter`` field
are recorded, and all of them must match the committed fixture bit for bit.

The fixture was generated by the engine *before* it was compiled into a step
plan, so it pins that refactor (and any later one) to the old arithmetic.
Regenerate it only after an intentional numerical change::

    PYTHONPATH=src python tests/snn/test_engine_fixture.py --regenerate
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.encoding.events import DVSEventStreamEncoder
from repro.models import DiehlCookModel, SpikeDynModel
from repro.snn.simulation import OperationCounter

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "engine_fixture.npz"

#: Fixed geometry; changing any of these invalidates the fixture.
IMAGE_SIZE = 14
N_EXC = 40
T_SIM = 100.0
T_REST = 20.0
SEED = 77
TRAIN_SAMPLES = 6
BATCH = 3
STREAM_MS = 300.0
DC_SAMPLES = 2

COUNTER_FIELDS = tuple(OperationCounter().as_dict())


def _config() -> SpikeDynConfig:
    return SpikeDynConfig(n_input=IMAGE_SIZE ** 2, n_exc=N_EXC, t_sim=T_SIM,
                          t_rest=T_REST, seed=SEED, intensity_scale=1.0)


def _record(trace: Dict[str, np.ndarray], phase: str, model, counts) -> None:
    trace[f"{phase}/counts"] = np.asarray(counts)
    trace[f"{phase}/weights"] = np.array(model.input_weights)
    trace[f"{phase}/theta"] = np.array(model.network.group("excitatory").theta)
    counter = model.counter.as_dict()
    trace[f"{phase}/counter"] = np.array([counter[name] for name in COUNTER_FIELDS],
                                         dtype=np.int64)


def compute_trace() -> Dict[str, np.ndarray]:
    """Every phase of the fixture, recomputed from the fixed seeds."""
    source = SyntheticDigits(IMAGE_SIZE, seed=SEED)
    images, _ = source.sample(TRAIN_SAMPLES + BATCH + 2, rng=SEED + 1)
    images = images.reshape(len(images), -1)
    trace: Dict[str, np.ndarray] = {}

    model = SpikeDynModel(_config())
    counts = [model.train_sample(image) for image in images[:TRAIN_SAMPLES]]
    _record(trace, "train", model, counts)

    trains = model.encode_batch(list(images[TRAIN_SAMPLES:TRAIN_SAMPLES + BATCH]))
    results = model.network.run_batch(trains, learning=False, include_rest=True)
    _record(trace, "batch", model, [result.counts("excitatory") for result in results])

    model.set_backend("eventqueue")
    encoder = DVSEventStreamEncoder(duration=STREAM_MS, n_bursts=3, burst_steps=6,
                                    max_probability=0.3, rng=SEED + 2)
    streams = [encoder.encode_events(image) for image in images[-2:]]
    results = [model.network.run_events(streams[0], learning=False),
               model.network.run_events(streams[1], learning=False, include_rest=True)]
    _record(trace, "events", model, [result.counts("excitatory") for result in results])

    baseline = DiehlCookModel(_config())
    counts = [baseline.train_sample(image) for image in images[:DC_SAMPLES]]
    _record(trace, "diehl_cook", baseline, counts)
    trace["diehl_cook/inhibitory_v"] = np.array(baseline.network.group("inhibitory").v)
    return trace


def test_fixture_exists():
    assert FIXTURE.exists(), (
        f"engine fixture missing at {FIXTURE}; regenerate with "
        "'PYTHONPATH=src python tests/snn/test_engine_fixture.py --regenerate'"
    )


def test_engine_reproduces_the_fixture_bit_for_bit():
    expected = dict(np.load(FIXTURE))
    actual = compute_trace()
    assert set(actual) == set(expected)
    for key in sorted(expected):
        np.testing.assert_array_equal(
            actual[key], expected[key],
            err_msg=f"engine-fixture field {key!r} diverged",
        )


def test_fixture_exercises_every_mechanism():
    # Guards the guard: the phases must actually reach the paths they pin.
    trace = dict(np.load(FIXTURE))
    field = {name: index for index, name in enumerate(COUNTER_FIELDS)}
    train = trace["train/counter"]
    events = trace["events/counter"] - trace["batch/counter"]
    assert train[field["weight_updates"]] > 0
    assert np.any(trace["train/theta"] > 0.0)
    assert trace["train/counts"].sum() > 0
    assert events[field["steps_skipped"]] > 0
    assert events[field["events_processed"]] > 0
    assert trace["diehl_cook/counts"].sum() > 0


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(FIXTURE, **compute_trace())
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
