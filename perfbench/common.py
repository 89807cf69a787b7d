"""Benchmark constants shared by the supervisor and the workload process.

Standard library only: the supervisor imports this module without loading
numpy or the program, so it can fail cleanly where the sources are missing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("continual_train", "batch_infer", "event_stream", "serve_http")

#: Workloads that serve the shared trained artifact.
ARTIFACT_WORKLOADS = ("batch_infer", "event_stream", "serve_http")

#: Seed of the shared artifact's training run (independent of ``--seed``).
ARTIFACT_SEED = 2021

#: Where builds, caches and per-run scratch files go inside the checkout.
BUILD_DIR = Path(".bench_build") / "perfbench"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_j_per_sample": "J",
    "accuracy": "fraction",
    "acc_recent": "fraction",
}

KERNELS = (
    "propagate_spikes",
    "propagate_lateral",
    "lif_step",
    "theta_step",
    "decay_state",
    "bump_trace",
    "stdp_potentiation",
    "stdp_depression",
)

EXECUTORS = ("thread", "shard")


def _per_layer() -> dict:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    metrics = {
        "snn.engine_ms_per_sample": "ms",
        "snn.orchestration_pct": "%",
    }
    for kernel in KERNELS:
        metrics[f"backends.{kernel}.ms_per_sample"] = "ms"
        metrics[f"backends.{kernel}.calls_per_sample"] = "count"
    metrics.update({
        "learning.ms_per_sample": "ms",
        "learning.weight_updates_per_sample": "count",
        "encoding.ms_per_sample": "ms",
        "snn.events.steps_skipped_frac": "fraction",
        "snn.events.events_per_stream": "count",
    })
    for counter in ("synaptic_events", "neuron_updates", "spike_events", "weight_updates"):
        metrics[f"estimation.{counter}_per_sample"] = "count"
    for executor in EXECUTORS:
        metrics.update({
            f"serving.server.self_ms_p50.{executor}": "ms",
            f"serving.client_gap_ms_p50.{executor}": "ms",
            f"serving.batcher.queue_wait_ms_p50.{executor}": "ms",
            f"serving.pool.batch_size_mean.{executor}": "count",
            f"serving.inference.encode_ms_p50.{executor}": "ms",
            f"serving.inference.kernel_ms_p50.{executor}": "ms",
            f"serving.router.retries_total.{executor}": "count",
            f"serving.pool.errors_total.{executor}": "count",
            f"observability.ledger.bytes_per_request.{executor}": "B",
        })
    metrics["serving.shards.rpc_self_ms_p50.shard"] = "ms"
    metrics["serving.shards.respawns_total.shard"] = "count"
    metrics["perfbench.unattributed_pct"] = "%"
    metrics["perfbench.tracing_overhead_pct"] = "%"
    return metrics


PER_LAYER = _per_layer()


@dataclass(frozen=True)
class Size:
    """Input and model sizes of one benchmark scale."""

    name: str
    image_size: int
    n_exc: int
    t_sim: float
    #: continual_train: training samples per task, held-out samples of the
    #: just-learned task, final labelled samples per class.
    samples_per_task: int
    recent_per_task: int
    final_per_class: int
    #: Shared artifact: training and label-assignment samples.
    artifact_samples: int
    artifact_assign: int
    #: batch_infer: batch size and labelled set size in batches (the first
    #: half assigns neuron labels, the second half is predicted).
    batch: int
    infer_batches: int
    #: event_stream: horizon, labelling and test streams per class, and how
    #: many streams are re-run for the equivalence check.
    stream_ms: float
    streams_label_per_class: int
    streams_test_per_class: int
    stream_checks: int
    #: serve_http: distinct (image, seed) requests, and how many of them are
    #: checked against the offline path.
    serve_requests: int
    serve_checks: int
    #: Set-up repetitions per run (the median is reported); event_stream's
    #: set-up takes milliseconds, so it repeats more.
    setup_repeats: int
    stream_setup_repeats: int
    serve_setup_repeats: int


SIZES = {
    "paper": Size("paper", image_size=28, n_exc=400, t_sim=350.0,
                  samples_per_task=10, recent_per_task=16, final_per_class=24,
                  artifact_samples=150, artifact_assign=100,
                  batch=32, infer_batches=12,
                  stream_ms=1200.0, streams_label_per_class=50,
                  streams_test_per_class=50, stream_checks=3,
                  serve_requests=192, serve_checks=48, setup_repeats=5,
                  stream_setup_repeats=25, serve_setup_repeats=3),
    "tiny": Size("tiny", image_size=14, n_exc=20, t_sim=40.0,
                 samples_per_task=2, recent_per_task=2, final_per_class=2,
                 artifact_samples=20, artifact_assign=20,
                 batch=4, infer_batches=3,
                 stream_ms=200.0, streams_label_per_class=1,
                 streams_test_per_class=1, stream_checks=2,
                 serve_requests=8, serve_checks=4, setup_repeats=2,
                 stream_setup_repeats=2, serve_setup_repeats=1),
}


def cpu_ticks() -> tuple:
    """``(steal, total)`` ticks of all CPUs so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_share(before: tuple, after: tuple) -> float:
    """Share of all CPU time the hypervisor gave to other machines in between."""
    steal, total = (end - start for end, start in zip(after, before))
    return steal / total if total > 0 else 0.0


def artifact_dir(root: Path, size: Size) -> Path:
    """Cache directory of the shared artifact for this source tree.

    The name carries a digest of the program sources and the scaffolding
    recipe, so a changed program trains a fresh artifact.
    """
    recipe = (size.image_size, size.n_exc, size.t_sim, size.artifact_samples,
              size.artifact_assign, ARTIFACT_SEED)
    digest = hashlib.sha256(repr(recipe).encode())
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return root / BUILD_DIR / f"artifact-{size.name}-{digest.hexdigest()[:16]}"
