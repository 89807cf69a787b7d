"""The four benchmark workloads, their inputs, checks and shared artifact.

Each workload function takes ``(root, size, seed, seconds, traced)`` and
returns an :class:`Outcome`.  ``seed`` draws every image that is predicted or
evaluated.  What a model learns from is fixed, because at this scale
learning from a different draw moves accuracy more than any bound allows:
continual_train's task stream and the labelling sets are seeded with
constants, and so is the trained model that ``batch_infer``,
``event_stream`` and ``serve_http`` share.  That model is scaffolding:
trained once per source tree, cached under ``.bench_build/`` (see
:func:`ensure_artifact`) and kept outside every clock.

Every timed phase first runs one full pass over the workload's labelled
inputs (accuracy and the correctness checks come from that pass, so they do
not depend on machine speed), then keeps cycling over the same inputs until
``seconds`` have been measured and at least ``MIN_UNITS`` units are done.
Evaluation, read-out, checks and ``gc.collect()`` all happen with the clock
stopped.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.streams import dynamic_task_stream, nondynamic_stream
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.encoding.events import DVSEventStreamEncoder
from repro.estimation.energy import EnergyModel
from repro.evaluation.labeling import assign_neuron_labels, predict_from_responses
from repro.models import SpikeDynModel
from repro.observability.ledger import RunLedger
from repro.serving import (
    ModelRouter,
    ModelServer,
    ReplicaPool,
    ShardProcessPool,
    load_artifact,
    offline_predictions,
)
from repro.snn.simulation import OperationCounter

import hostspeed
import layers

from common import ARTIFACT_SEED, EXECUTORS, Size, artifact_dir, cpu_ticks, steal_share

#: Seed of continual_train's task stream and network (see continual_train).
CURRICULUM_SEED = 1021

#: Seed of the fixed labelling sets that assign neuron labels in
#: batch_infer and event_stream.  Label assignment from a few hundred
#: samples is itself noisy; drawing it per run would swing accuracy between
#: seeds by about 40 %, so only the predicted half comes from ``--seed``.
LABEL_SEED = 3021

#: Fewest timed units a run ends with; the tail latency needs ten beyond it.
MIN_UNITS = 11

N_CLASSES = 10

#: Serving knobs: the ``repro serve`` defaults.
SERVE_WORKERS = 2
SERVE_SHARDS = 2
SERVE_MAX_BATCH = 32
SERVE_MAX_WAIT_MS = 5.0
SERVE_CALLERS = 2


def model_config(size: Size, seed: int) -> SpikeDynConfig:
    return SpikeDynConfig(n_input=size.image_size ** 2, n_exc=size.n_exc,
                          t_sim=size.t_sim, seed=seed)


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Per-unit times of the timed phase, ms: thread CPU time scaled to the
    #: nominal host speed for the in-process workloads (see
    #: :class:`UnitTimer`), wall time for serve_http.
    latencies_ms: List[float] = field(default_factory=list)
    #: Samples (train/inference samples, streams, requests) completed, and
    #: how many each unit carries (every sample of a batch sees its latency).
    samples: int = 0
    samples_per_unit: int = 1
    timed_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    energy_j_per_sample: float = 0.0
    accuracy: float = 0.0
    acc_recent: float = 0.0
    #: Traced runs only: per-layer metrics, table rows and the overhead.
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    layer_rows: List[tuple] = field(default_factory=list)
    row_unit: str = ""
    #: Mean time of a traced unit; the layer rows add up to it.
    unit_ms: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and all(self.checks.values())


class UnitTimer:
    """Times units, alternating traced/untraced ones in a traced run.

    Units run on this thread alone (BLAS is pinned to one thread), so they
    are timed on the thread's CPU clock.  On an idle machine that equals
    their wall time; on a shared virtual machine it also leaves out the
    time the hypervisor took the CPU away (steal), which otherwise moves
    wall times between runs by far more than any bound.

    With a ``probe`` (see :mod:`hostspeed`) a calibration loop runs between
    consecutive units and after the last, and :meth:`finish` reports unit
    times at the nominal host speed.  Run length stays on the measured
    times, and traced runs take no probe: their layer rows add up to
    measured times.
    """

    def __init__(self, seconds: float, clock: Optional[layers.LayerClock],
                 probe: Optional[hostspeed.Probe] = None) -> None:
        self.seconds = seconds
        self.clock = clock
        self.probe = probe
        self.probe_ms: List[float] = []
        self.latencies_ms: List[float] = []
        self.traced_ms: List[float] = []
        self.untraced_ms: List[float] = []
        self.elapsed_s = 0.0

    def run(self, function, *args):
        traced = self.clock is not None and len(self.latencies_ms) % 2 == 0
        if traced:
            self.clock.enabled = True
        if self.probe is not None:
            self.probe_ms.append(self.probe())
        started = time.thread_time()
        result = function(*args)
        elapsed = time.thread_time() - started
        if traced:
            self.clock.enabled = False
        self.elapsed_s += elapsed
        self.latencies_ms.append(elapsed * 1e3)
        (self.traced_ms if traced else self.untraced_ms).append(elapsed * 1e3)
        return result

    @property
    def units(self) -> int:
        return len(self.latencies_ms)

    def done(self) -> bool:
        return self.elapsed_s >= self.seconds and len(self.latencies_ms) >= MIN_UNITS

    def finish(self, outcome: Outcome, samples_per_unit: int = 1) -> None:
        outcome.latencies_ms = self.latencies_ms
        outcome.timed_s = self.elapsed_s
        outcome.attempted = len(self.latencies_ms)
        outcome.samples = outcome.attempted * samples_per_unit
        outcome.samples_per_unit = samples_per_unit
        if self.probe is None:
            return
        self.probe_ms.append(self.probe())
        factors = self.probe.scales(self.probe_ms)
        outcome.latencies_ms = [ms * factor for ms, factor in zip(self.latencies_ms, factors)]
        outcome.timed_s = sum(outcome.latencies_ms) / 1e3
        outcome.notes.append(
            f"host speed: calibration loop median {statistics.median(self.probe_ms):.3f} ms "
            f"(nominal {self.probe.NOMINAL_MS} ms); unit times scaled by "
            f"{min(factors):.2f}-{max(factors):.2f}; measured throughput "
            f"{outcome.samples / self.elapsed_s:.6g}/s, "
            f"p50 {statistics.median(self.latencies_ms):.6g} ms")

    def overhead_pct(self) -> float:
        if not self.traced_ms or not self.untraced_ms:
            return 0.0
        traced = statistics.fmean(self.traced_ms)
        return 100.0 * (traced / statistics.fmean(self.untraced_ms) - 1.0)


def quiet_gc() -> None:
    """Collect garbage outside the clock so no collection lands mid-unit."""
    gc.collect()


def timed_setup(build, repeats: int, outcome: Outcome):
    """Run ``build`` ``repeats`` times, recording each CPU time scaled to the
    nominal host speed (:class:`hostspeed.SetupProbe`); keep the last build."""
    probe = hostspeed.SetupProbe()
    built = None
    for _ in range(repeats):
        built = None  # let the previous build go before timing the next
        quiet_gc()
        built, seconds = probe.measure(build)
        outcome.setup_s.append(seconds)
    return built


def energy_per_sample(counter: OperationCounter, samples: int) -> float:
    return EnergyModel().estimate(counter).joules / max(samples, 1)


def count_metrics(counter: OperationCounter, samples: int) -> Dict[str, float]:
    """Exact operation counts per sample (the ``estimation`` layer)."""
    samples = max(samples, 1)
    return {
        f"estimation.{name}_per_sample": getattr(counter, name) / samples
        for name in ("synaptic_events", "neuron_updates", "spike_events", "weight_updates")
    }


def valid_counts(counts, n_exc: int) -> bool:
    counts = np.asarray(counts)
    return counts.shape[-1] == n_exc and bool(np.all(counts >= 0)) and bool(
        np.all(np.isfinite(counts)))


def labelled_images(source: SyntheticDigits, per_class: int, rng) -> tuple:
    """``per_class`` images of every digit, interleaved by class."""
    images = np.stack([source.generate(digit, per_class, rng=rng)
                       for digit in range(N_CLASSES)], axis=1)
    labels = np.tile(np.arange(N_CLASSES), per_class)
    return images.reshape(-1, source.n_pixels), labels


def labelled_subset(seed: int, size: Size, count: int) -> tuple:
    """``count`` class-interleaved images drawn from ``seed``."""
    images, labels = labelled_images(SyntheticDigits(size.image_size, seed=seed),
                                     count // N_CLASSES + 1, np.random.default_rng(seed + 1))
    return images[:count], labels[:count]


# -- the shared artifact ------------------------------------------------------


def ensure_artifact(root: Path, size: Size) -> Path:
    """The shared trained artifact, trained and cached on first use.

    Training is seeded with :data:`ARTIFACT_SEED` on a class-interleaved
    stream; neuron labels come from a separate assignment set.  The cache is
    keyed by :func:`common.artifact_dir`, so a changed program retrains.
    """
    target = artifact_dir(root, size)
    if (target / "model.json").exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    model = SpikeDynModel(model_config(size, ARTIFACT_SEED))
    source = SyntheticDigits(size.image_size, seed=ARTIFACT_SEED)
    model.train_stream(nondynamic_stream(source, n_samples=size.artifact_samples,
                                         rng=ARTIFACT_SEED + 1))
    images, labels = source.sample(size.artifact_assign, rng=ARTIFACT_SEED + 2)
    model.assign_labels(list(images.reshape(len(images), -1)), labels)
    staging = Path(tempfile.mkdtemp(dir=target.parent, prefix="staging-"))
    try:
        model.save(staging)
        os.replace(staging, target)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)
        if not (target / "model.json").exists():
            raise
    return target


# -- continual_train ----------------------------------------------------------


def continual_train(root: Path, size: Size, seed: int, seconds: float,
                    traced: bool) -> Outcome:
    """SpikeDyn learns tasks 0..9 one ``train_sample`` at a time.

    The task stream and the network's seed are fixed (:data:`CURRICULUM_SEED`);
    ``seed`` draws the held-out evaluation images.  With ten samples per
    task the learned network, and with it the accuracy, swings by about
    30 % between training draws, far beyond any regression bound; with the
    stream fixed, accuracy differs between seeds only by evaluation sampling.
    """
    outcome = Outcome()
    clock = layers.LayerClock() if traced else None
    config = model_config(size, CURRICULUM_SEED)

    def build():
        rule = layers.timed_spikedyn_rule(config, clock) if traced else None
        return SpikeDynModel(config, learning_rule=rule)

    model = timed_setup(build, size.setup_repeats, outcome)
    # Warm-up on a throwaway network so the measured one starts untrained.
    build().train_sample(np.zeros(config.n_input))
    if traced:
        layers.instrument(model, clock)

    stream = dynamic_task_stream(SyntheticDigits(size.image_size, seed=CURRICULUM_SEED),
                                 samples_per_task=size.samples_per_task,
                                 rng=CURRICULUM_SEED + 1)
    source = SyntheticDigits(size.image_size, seed=seed)
    rng = np.random.default_rng(seed + 1)
    recent = {digit: source.generate(digit, size.recent_per_task, rng=rng).reshape(
        size.recent_per_task, -1) for digit in range(N_CLASSES)}
    final_images, final_labels = labelled_images(source, size.final_per_class, rng)

    timer = UnitTimer(seconds, clock, None if traced else hostspeed.TrainProbe())
    responses, labels, recent_acc = [], [], []
    train_ops = OperationCounter()
    weights_ok = True
    quiet_gc()
    for index, sample in enumerate(stream):
        before = model.counter.copy()
        counts = timer.run(model.train_sample, sample.image.reshape(-1))
        train_ops = train_ops + (model.counter - before)
        responses.append(counts)
        labels.append(sample.label)
        outcome.failed += not valid_counts(counts, config.n_exc)
        if (index + 1) % size.samples_per_task == 0:
            weights = model.input_weights
            weights_ok &= bool(np.all(np.isfinite(weights)) and weights.min() >= config.w_min
                               and weights.max() <= config.w_max)
            test = recent[sample.label]
            recent_acc.append(accuracy_from_training(model, responses, labels, test,
                                                     [sample.label] * len(test)))
            quiet_gc()
    outcome.accuracy = accuracy_from_training(model, responses, labels, final_images,
                                              final_labels)
    outcome.acc_recent = float(np.mean(recent_acc))
    quiet_gc()
    while not timer.done():
        timer.run(model.train_sample, stream[timer.units % len(stream)].image.reshape(-1))
    timer.finish(outcome)

    # Repeatability: a fresh network fed the same first samples must spike
    # identically.
    twin = SpikeDynModel(config)
    repeat = all(np.array_equal(twin.train_sample(sample.image.reshape(-1)), responses[i])
                 for i, sample in enumerate(stream[:2]))
    outcome.checks.update(weights_in_bounds=weights_ok, training_repeats=repeat,
                          counts_valid=outcome.failed == 0)
    samples = len(stream)
    outcome.energy_j_per_sample = energy_per_sample(train_ops, samples)
    if traced:
        engine_layer_metrics(outcome, clock, timer, samples_per_unit=1)
        outcome.layer_metrics.update(count_metrics(train_ops, samples))
        outcome.layer_metrics["learning.weight_updates_per_sample"] = \
            train_ops.weight_updates / samples
    return outcome


def accuracy_from_training(model, responses, labels, images, truth) -> float:
    """Accuracy on ``images`` with neuron labels assigned from the training
    responses so far (Diehl & Cook's read-out)."""
    assignments = assign_neuron_labels(np.asarray(responses, float), np.asarray(labels),
                                       N_CLASSES)
    predicted = predict_from_responses(model.respond_batch(list(images)), assignments,
                                       N_CLASSES)
    return float(np.mean(predicted == np.asarray(truth)))


def engine_layer_metrics(outcome: Outcome, clock: layers.LayerClock, timer: UnitTimer,
                         samples_per_unit: int) -> None:
    """Layer table and metrics of the traced units of an in-process run."""
    traced_units = len(timer.traced_ms)
    wall_ms = sum(timer.traced_ms)
    outcome.layer_metrics.update(layers.engine_metrics(clock, traced_units * samples_per_unit))
    outcome.layer_rows = [(name, ms / traced_units)
                          for name, ms in layers.engine_rows(clock, wall_ms)]
    outcome.row_unit = "ms per unit"
    outcome.unit_ms = wall_ms / traced_units
    outcome.layer_metrics["perfbench.unattributed_pct"] = \
        100.0 * outcome.layer_rows[-1][1] / outcome.unit_ms
    outcome.layer_metrics["perfbench.tracing_overhead_pct"] = timer.overhead_pct()


# -- batch_infer ----------------------------------------------------------------


def batch_infer(root: Path, size: Size, seed: int, seconds: float,
                traced: bool) -> Outcome:
    """Label and predict a labelled set through ``respond_batch`` at B=32."""
    outcome = Outcome()
    clock = layers.LayerClock() if traced else None
    artifact_dir = ensure_artifact(root, size)
    model = timed_setup(lambda: load_artifact(artifact_dir).build_model(),
                        size.setup_repeats, outcome)
    load_artifact(artifact_dir).build_model().respond_batch(
        [np.zeros(model.n_input)] * size.batch, batch_size=size.batch)
    if traced:
        layers.instrument(model, clock)

    # The labelling half is the deployment's fixed calibration set; the seed
    # draws the half that is predicted.
    half = size.infer_batches // 2 * size.batch
    label_images, label_labels = labelled_subset(LABEL_SEED, size, half)
    test_images, test_labels = labelled_subset(seed, size, half)
    images = np.concatenate([label_images, test_images])
    chunks = [list(images[start:start + size.batch])
              for start in range(0, len(images), size.batch)]

    timer = UnitTimer(seconds, clock, None if traced else hostspeed.MatvecProbe())
    quiet_gc()
    before = model.counter.copy()
    first_pass = [timer.run(model.respond_batch, chunk, size.batch) for chunk in chunks]
    infer_ops = model.counter - before
    later = []
    while not timer.done():
        later.append(timer.run(model.respond_batch, chunks[timer.units % len(chunks)],
                               size.batch))
    timer.finish(outcome, samples_per_unit=size.batch)
    outcome.failed = sum(not valid_counts(responses, model.n_exc) or len(responses) != size.batch
                         for responses in first_pass + later)

    responses = np.concatenate(first_pass)
    assignments = assign_neuron_labels(responses[:half], label_labels, N_CLASSES)
    predicted = predict_from_responses(responses[half:], assignments, N_CLASSES)
    outcome.accuracy = outcome.acc_recent = float(np.mean(predicted == test_labels))
    outcome.notes.append("acc_recent: no task sequence here, reported equal to accuracy")

    twin = load_artifact(artifact_dir).build_model()
    repeat = np.array_equal(twin.respond_batch(chunks[0], batch_size=size.batch),
                            first_pass[0])
    outcome.checks.update(predictions_repeat=repeat, counts_valid=outcome.failed == 0)
    outcome.energy_j_per_sample = energy_per_sample(infer_ops, len(images))
    if traced:
        engine_layer_metrics(outcome, clock, timer, samples_per_unit=size.batch)
        outcome.layer_metrics.update(count_metrics(infer_ops, len(images)))
    return outcome


# -- event_stream -------------------------------------------------------------


def event_stream(root: Path, size: Size, seed: int, seconds: float,
                 traced: bool) -> Outcome:
    """DVS-style bursty streams through ``predict_events`` on ``eventqueue``."""
    outcome = Outcome()
    clock = layers.LayerClock() if traced else None
    artifact = load_artifact(ensure_artifact(root, size))

    def build():
        model = artifact.build_model(backend="eventqueue")
        model.encoder = DVSEventStreamEncoder(duration=size.stream_ms, rng=LABEL_SEED)
        return model

    model = timed_setup(build, size.stream_setup_repeats, outcome)
    warm = build()
    warm.respond_events(warm.encode_events(np.full(model.n_input, 0.5)))
    if traced:
        layers.instrument(model, clock)

    label_images, label_labels = labelled_subset(
        LABEL_SEED, size, size.streams_label_per_class * N_CLASSES)
    test_images, test_labels = labelled_subset(
        seed, size, size.streams_test_per_class * N_CLASSES)

    def label_unit(image):
        return model.respond_events(model.encode_events(image))

    def test_unit(image):
        return model.predict_events([model.encode_events(image)])[0]

    timer = UnitTimer(seconds, clock, None if traced else hostspeed.EventProbe())
    quiet_gc()
    before = model.counter.copy()
    label_counts = [timer.run(label_unit, image) for image in label_images]
    outcome.failed += sum(not valid_counts(c, model.n_exc) for c in label_counts)
    model.assignments = assign_neuron_labels(np.asarray(label_counts, float), label_labels,
                                             N_CLASSES)
    predicted = np.array([timer.run(test_unit, image) for image in test_images])
    event_ops = model.counter - before
    streams = len(label_images) + len(test_images)
    outcome.accuracy = outcome.acc_recent = float(np.mean(predicted == test_labels))
    outcome.notes.append("acc_recent: no task sequence here, reported equal to accuracy")
    everything = list(label_images) + list(test_images)
    while not timer.done():
        timer.run(label_unit, everything[timer.units % streams])
    timer.finish(outcome)

    # Equivalence and repeatability on fresh twins fed the first streams.
    check_encoder = DVSEventStreamEncoder(duration=size.stream_ms, rng=LABEL_SEED)
    checked = [check_encoder.encode_events(image)
               for image in label_images[:size.stream_checks]]
    event_twin, stepped_twin = build(), build()
    repeat = all(np.array_equal(event_twin.respond_events(stream), label_counts[i])
                 for i, stream in enumerate(checked))
    stepped = all(np.array_equal(
        stepped_twin.network.run_sample(stream.to_dense(), learning=False)
        .counts("excitatory"), label_counts[i]) for i, stream in enumerate(checked))
    outcome.checks.update(predictions_repeat=repeat, events_match_stepped=stepped,
                          counts_valid=outcome.failed == 0)
    outcome.energy_j_per_sample = energy_per_sample(event_ops, streams)
    if traced:
        engine_layer_metrics(outcome, clock, timer, samples_per_unit=1)
        outcome.layer_metrics.update(count_metrics(event_ops, streams))
        outcome.layer_metrics["snn.events.steps_skipped_frac"] = \
            event_ops.steps_skipped / (streams * model.encoder.timesteps)
        outcome.layer_metrics["snn.events.events_per_stream"] = \
            event_ops.events_processed / streams
    return outcome


# -- serve_http ---------------------------------------------------------------


class Deployment:
    """A ModelServer over a router pinning the artifact on both executors."""

    def __init__(self, artifact_dir: Path, scratch: Path) -> None:
        self.ledger_dirs = {name: Path(tempfile.mkdtemp(dir=scratch, prefix=f"ledger-{name}-"))
                            for name in EXECUTORS}
        ledgers = {name: RunLedger(path) for name, path in self.ledger_dirs.items()}
        self.router = ModelRouter()
        self.server = None
        self.pools = {}
        try:
            self.pools["thread"] = ReplicaPool.from_artifact(
                load_artifact(artifact_dir), workers=SERVE_WORKERS,
                max_batch=SERVE_MAX_BATCH, max_wait_ms=SERVE_MAX_WAIT_MS,
                ledger=ledgers["thread"])
            self.pools["shard"] = ShardProcessPool(
                artifact_dir, shards=SERVE_SHARDS, max_batch=SERVE_MAX_BATCH,
                max_wait_ms=SERVE_MAX_WAIT_MS, ledger=ledgers["shard"])
            for name, pool in self.pools.items():
                self.router.add_pool(name, pool)
            self.server = ModelServer(self.router)
            self.server.start()
            host, port = self.server.address
            status, _ = http_call(host, port, "GET", "/v1/healthz")
            if status != 200:
                raise RuntimeError(f"server answered /v1/healthz with {status}")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        try:
            if self.server is not None:
                self.server.stop()  # stops the router and the pools it pins
        finally:
            # Also reaches a pool built before a failed start; stop() is
            # idempotent.
            for pool in self.pools.values():
                pool.stop(timeout=5.0, cancel_pending=True)

    def ledger_bytes(self, executor: str) -> int:
        return sum(path.stat().st_size for path in self.ledger_dirs[executor].iterdir())


def http_call(host: str, port: int, method: str, path: str, body: Optional[bytes] = None,
              headers: Optional[dict] = None) -> tuple:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def serve_http(root: Path, size: Size, seed: int, seconds: float,
               traced: bool) -> Outcome:
    """Two closed-loop callers post predictions to both executors.

    The callers, the server and both pools span threads and processes, so
    no thread CPU clock covers a request.  Its wall time is scaled by the
    share of CPU time the hypervisor did not steal during the timed phase
    (set-up: during that set-up), read from ``/proc/stat``: on the shared
    2-vCPU machines the benchmark was built on, steal of 20 % for minutes at
    a time otherwise cut throughput by a third between identical runs.
    """
    outcome = Outcome()
    artifact_dir = ensure_artifact(root, size)
    scratch = Path(tempfile.mkdtemp(dir=root / ".bench_build" / "perfbench", prefix="serve-"))
    try:
        return _serve_http(outcome, artifact_dir, scratch, size, seed, seconds, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _serve_http(outcome: Outcome, artifact_dir: Path, scratch: Path, size: Size,
                seed: int, seconds: float, traced: bool) -> Outcome:
    images, labels = labelled_subset(seed, size, size.serve_requests)
    seeds = [int(value) for value in
             np.random.default_rng(seed + 2).integers(0, 2 ** 31, size=len(images))]
    bodies = [json.dumps({"image": image.tolist(), "seed": request_seed}).encode()
              for image, request_seed in zip(images, seeds)]

    # The offline twin: expected predictions of the first requests and the
    # exact operation counts of one request.
    checked = size.serve_checks
    offline = load_artifact(artifact_dir).build_model()
    before = offline.counter.copy()
    expected = offline_predictions(offline, list(images[:checked]), seeds[:checked])
    serve_ops = offline.counter - before

    # A seeded schedule of (request, executor) pairs; the first len(images)
    # entries visit every request once.
    schedule_rng = np.random.default_rng(seed + 3)
    executors = schedule_rng.integers(0, 2, size=100_000)
    order = np.concatenate([schedule_rng.permutation(len(images)) for _ in range(
        100_000 // len(images) + 1)])

    deployment = None
    try:
        for _ in range(size.serve_setup_repeats):
            if deployment is not None:
                deployment.stop()
                deployment = None
            quiet_gc()
            ticks, started = cpu_ticks(), time.perf_counter()
            deployment = Deployment(artifact_dir, scratch)
            outcome.setup_s.append((time.perf_counter() - started)
                                   * (1.0 - steal_share(ticks, cpu_ticks())))
        host, port = deployment.server.address
        for executor in EXECUTORS:
            http_call(host, port, "POST", f"/v1/models/{executor}/predict", bodies[0],
                      {"Content-Type": "application/json"})
        quiet_gc()
        ticks = cpu_ticks()
        records = closed_loop(host, port, bodies, order, executors, seconds, traced, seed)
        steal = steal_share(ticks, cpu_ticks())
        pools = deployment.pools
        router_entries = {entry.name: entry for entry in deployment.router.entries()}
        snapshots = {name: pool.metrics_snapshot() for name, pool in pools.items()}
        counters = {
            "retries": {name: router_entries[name].retries_total for name in EXECUTORS},
            "respawns": pools["shard"].respawns_total,
        }
    finally:
        if deployment is not None:
            deployment.stop()

    outcome.attempted = len(records)
    served = {}
    for record in records:
        request, prediction = record["request"], record["prediction"]
        first = served.setdefault(request, prediction)
        ok = (record["status"] == 200 and prediction == first
              and (request >= checked or prediction == expected[request]))
        outcome.failed += not ok
    # Wall times count only the share of time the machine was not stolen
    # (see serve_http).
    outcome.latencies_ms = [record["ms"] * (1.0 - steal) for record in records]
    outcome.samples = len(records)
    outcome.timed_s = (max(record["end"] for record in records)
                       - min(record["start"] for record in records)) * (1.0 - steal)
    outcome.notes.append(f"wall times scaled by 1 - steal = {1.0 - steal:.3f}")
    outcome.accuracy = outcome.acc_recent = float(np.mean(
        [served.get(index, -1) == labels[index] for index in range(len(images))]))
    outcome.notes.append("accuracy: served predictions against labels, one per request; "
                         f"the first {checked} requests are checked against the offline path")
    outcome.notes.append("acc_recent: no task sequence here, reported equal to accuracy")
    outcome.checks.update(
        served_equals_offline_and_repeats=outcome.failed == 0,
        every_request_served=len(served) == len(images),
    )
    outcome.energy_j_per_sample = energy_per_sample(serve_ops, checked)
    if traced:
        ledgers = {name: RunLedger(path) for name, path in deployment.ledger_dirs.items()}
        serve_layer_metrics(outcome, records, ledgers, snapshots, counters,
                            {name: deployment.ledger_bytes(name) for name in EXECUTORS})
        outcome.layer_metrics.update(count_metrics(serve_ops, checked))
    return outcome


def closed_loop(host: str, port: int, bodies: List[bytes], order, executors,
                seconds: float, traced: bool, seed: int) -> List[dict]:
    """``SERVE_CALLERS`` callers, each sending its next request on a reply."""
    lock = threading.Lock()
    records: List[dict] = []
    cursor = [0]
    deadline = time.perf_counter() + seconds

    def enough() -> bool:
        return (time.perf_counter() >= deadline and cursor[0] >= len(bodies)
                and len(records) >= MIN_UNITS)

    def caller() -> None:
        while True:
            with lock:
                if enough() or cursor[0] >= len(order):
                    return
                position = cursor[0]
                cursor[0] += 1
            request = int(order[position])
            executor = EXECUTORS[int(executors[position])]
            headers = {"Content-Type": "application/json"}
            trace_id = None
            if traced and position % 2 == 0:
                trace_id = f"pb{seed}-{position}"
                headers["X-Repro-Trace-Id"] = trace_id
            started = time.perf_counter()
            try:
                status, payload = http_call(host, port, "POST",
                                            f"/v1/models/{executor}/predict",
                                            bodies[request], headers)
                prediction = json.loads(payload).get("prediction") if status == 200 else None
            except (OSError, http.client.HTTPException, ValueError):
                status, prediction = 0, None
            ended = time.perf_counter()
            with lock:
                records.append({"request": request, "executor": executor, "status": status,
                                "prediction": prediction, "start": started, "end": ended,
                                "ms": (ended - started) * 1e3, "trace_id": trace_id})

    threads = [threading.Thread(target=caller, name=f"perfbench-caller-{index}")
               for index in range(SERVE_CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def serve_layer_metrics(outcome: Outcome, records: List[dict], ledgers: Dict[str, RunLedger],
                        snapshots: Dict[str, dict], counters: dict,
                        ledger_bytes: Dict[str, int]) -> None:
    """Per-executor self times from the serving spans, and the layer table."""
    metrics = outcome.layer_metrics
    spans: Dict[str, Dict[str, float]] = {}
    for ledger in ledgers.values():
        for entry in ledger.entries(kind="span"):
            per_trace = spans.setdefault(entry["trace_id"], {})
            per_trace[entry["name"]] = per_trace.get(entry["name"], 0.0) + entry["duration_ms"]
    parts: Dict[str, Dict[str, List[float]]] = {executor: {} for executor in EXECUTORS}
    traced_ms = []
    for record in records:
        found = spans.get(record["trace_id"], {})
        if "http_request" not in found:
            continue
        traced_ms.append(record["ms"])
        for name, value in layers.request_self_times(record["ms"], found).items():
            parts[record["executor"]].setdefault(name, []).append(value)
    # Each row sums one layer over the traced requests of one executor, so
    # the rows add up to the total traced request time.
    outcome.layer_rows = [(f"{executor}: {name}", sum(values) / len(traced_ms))
                          for executor in EXECUTORS
                          for name, values in parts[executor].items()]
    outcome.unit_ms = statistics.fmean(traced_ms) if traced_ms else 0.0
    unattributed = outcome.unit_ms - sum(ms for _, ms in outcome.layer_rows)
    outcome.layer_rows.append(("unattributed", unattributed))
    outcome.row_unit = "ms per request"
    metrics["perfbench.unattributed_pct"] = \
        100.0 * unattributed / outcome.unit_ms if outcome.unit_ms else 0.0

    for executor in EXECUTORS:
        def median(name: str) -> float:
            values = parts[executor].get(name)
            return statistics.median(values) if values else 0.0

        for metric, name in (("server.self_ms_p50", "server.self"),
                             ("client_gap_ms_p50", "client_gap"),
                             ("batcher.queue_wait_ms_p50", "batcher.queue_wait"),
                             ("inference.encode_ms_p50", "inference.encode"),
                             ("inference.kernel_ms_p50", "inference.kernel")):
            metrics[f"serving.{metric}.{executor}"] = median(name)
        served = sum(1 for record in records if record["executor"] == executor)
        metrics[f"serving.pool.batch_size_mean.{executor}"] = float(
            snapshots[executor].get("mean_batch_size", 0.0))
        metrics[f"serving.pool.errors_total.{executor}"] = float(
            snapshots[executor].get("errors_total", 0))
        metrics[f"serving.router.retries_total.{executor}"] = float(
            counters["retries"][executor])
        metrics[f"observability.ledger.bytes_per_request.{executor}"] = \
            ledger_bytes[executor] / max(served, 1)
    metrics["serving.shards.rpc_self_ms_p50.shard"] = statistics.median(
        parts["shard"].get("shards.rpc_self") or [0.0])
    metrics["serving.shards.respawns_total.shard"] = float(counters["respawns"])
    # The engine and encoding layers run inside the pools; their spans stand
    # in for the in-process timers.
    for layer, span_metric in (("encoding.ms_per_sample", "inference.encode_ms_p50"),
                               ("snn.engine_ms_per_sample", "inference.kernel_ms_p50")):
        metrics[layer] = statistics.fmean(
            [metrics[f"serving.{span_metric}.{executor}"] for executor in EXECUTORS])
    untraced_ms = [record["ms"] for record in records if record["trace_id"] is None]
    metrics["perfbench.tracing_overhead_pct"] = (
        100.0 * (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0)
        if traced_ms and untraced_ms else 0.0)
