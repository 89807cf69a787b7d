"""Train a model, publish it as an artifact, serve it, and query it.

The full serving walkthrough in one script:

1. train a tiny SpikeDyn model on a few synthetic digit classes;
2. publish it into a versioned :class:`~repro.serving.ArtifactRegistry`;
3. boot the micro-batching HTTP server on an ephemeral port (the same
   stack as ``repro serve``), which serves the pool under its model name;
4. query it concurrently over ``/v1`` and check the answers against the
   offline batched evaluation path;
5. print the serving metrics (batch-size histogram, latency quantiles,
   drift state).

Run::

    python examples/serve_and_query.py
    python examples/serve_and_query.py --classes 0 1 2 --requests 24
"""

from __future__ import annotations

import argparse
import json
import tempfile

import numpy as np

from repro.client import ServingClient
from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.evaluation.reporting import format_table
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving import (
    ArtifactRegistry,
    ModelServer,
    ReplicaPool,
    SpikeCountDriftDetector,
    http_sender,
    offline_predictions,
    run_load,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int, nargs="+", default=[0, 1, 2],
                        help="digit classes to train and query")
    parser.add_argument("--n-exc", type=int, default=16,
                        help="excitatory neurons")
    parser.add_argument("--train-per-class", type=int, default=3,
                        help="training samples per class")
    parser.add_argument("--requests", type=int, default=18,
                        help="number of concurrent queries to fire")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads")
    parser.add_argument("--workers", type=int, default=2,
                        help="serving replica workers")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch bound")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    # 1. Train.
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=args.n_exc,
                                        t_sim=40.0, seed=args.seed)
    model = SpikeDynModel(config)
    source = SyntheticDigits(image_size=14, seed=args.seed)
    print(f"training spikedyn ({args.n_exc} neurons) on classes "
          f"{args.classes} ...")
    assign_images, assign_labels = [], []
    for cls in args.classes:
        for image in source.generate(cls, args.train_per_class,
                                     rng=args.seed + 1):
            model.train_sample(image)
        for image in source.generate(cls, 2, rng=args.seed + 2):
            assign_images.append(image)
            assign_labels.append(cls)
    model.assign_labels(assign_images, assign_labels)

    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as tmp:
        # 2. Publish a versioned artifact.
        registry = ArtifactRegistry(tmp)
        path = registry.publish(model, "digits")
        artifact = registry.load("digits")
        print(f"published artifact version v{registry.latest_version('digits')} "
              f"at {path}")

        # 3. Serve it (ephemeral port; `repro serve <dir>` is the CLI twin).
        pool = ReplicaPool.from_artifact(
            artifact, workers=args.workers, max_batch=args.max_batch,
            drift_detector=SpikeCountDriftDetector(window=8),
        )
        with ModelServer(pool, port=0) as server:
            print(f"serving at {server.url} "
                  f"(workers={args.workers}, max_batch={args.max_batch})")

            # 4. Query it concurrently and compare with offline evaluation.
            images, labels = [], []
            per_class = max(1, args.requests // len(args.classes))
            for cls in args.classes:
                for image in source.generate(cls, per_class,
                                             rng=args.seed + 7):
                    images.append(np.asarray(image, dtype=float))
                    labels.append(cls)
            seeds = list(range(len(images)))
            report = run_load(http_sender(server.url, model=pool.model_name),
                              images, seeds, concurrency=args.concurrency)
            reference = offline_predictions(artifact.build_model(),
                                            images, seeds)

            rows = []
            for cls in args.classes:
                mask = np.asarray(labels) == cls
                correct = int((report.predictions[mask] == cls).sum())
                rows.append([f"digit-{cls}", int(mask.sum()), correct])
            print()
            print("Predictions over HTTP")
            print(format_table(["class", "queried", "correct"], rows))
            matches = int((report.predictions == reference).sum())
            print(f"served == offline batched path: {matches}/{len(images)}")
            print(f"throughput: {report.throughput_rps:.0f} req/s at "
                  f"concurrency {args.concurrency} "
                  f"(p95 {report.latency_quantile_ms(95):.1f} ms)")

            # 5. Metrics.
            snapshots = ServingClient(server.url).metrics_json()["models"]
            metrics = snapshots[pool.model_name]
            print()
            print("Serving metrics")
            print(f"  requests     : {metrics['requests_total']}")
            print(f"  micro-batches: {metrics['batches_total']} "
                  f"(histogram {json.dumps(metrics['batch_size_histogram'])})")
            latency = metrics["latency"]
            print(f"  latency ms   : p50 {latency.get('p50_ms', 0.0):.1f}  "
                  f"p95 {latency.get('p95_ms', 0.0):.1f}  "
                  f"p99 {latency.get('p99_ms', 0.0):.1f}")
            drift = metrics.get("drift") or {}
            print(f"  drift        : calibrated={drift.get('calibrated')} "
                  f"alarm={drift.get('alarm')}")


if __name__ == "__main__":
    main()
