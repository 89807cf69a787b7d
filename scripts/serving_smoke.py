#!/usr/bin/env python
"""CI smoke test for the serving subsystem.

Fires concurrent requests at a serving deployment and asserts that **every**
response is valid and that every prediction is bit-identical to the offline
batched evaluation path for the same ``(image, seed)`` pairs.

Two modes:

* ``--url`` given — drive an already-running server (e.g. a backgrounded
  ``repro serve``) over HTTP; ``--artifact`` must point at the artifact it
  serves so the offline reference can be computed locally.  The script
  polls the health endpoint until the server is up.
* no ``--url`` — self-contained: train a tiny model (or load
  ``--artifact``), boot an in-process server on an ephemeral port, and
  hammer that.

All HTTP goes through :class:`repro.client.ServingClient`: the requests
post to ``/v1/models/NAME/predict`` and the script validates that model's
``/v1/metrics.json`` snapshot and the ``/v1/metrics`` exposition.  ``NAME``
is ``--model``, by default the server's ``default_model`` from
``/v1/healthz``.

Exit code 0 only when every response arrived and matched.

Usage::

    python scripts/serving_smoke.py                      # fully self-contained
    python scripts/serving_smoke.py --artifact dir --url http://127.0.0.1:8765
    python scripts/serving_smoke.py --artifact dir --url http://... --model m
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.client import ServingClient
from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel
from repro.observability import parse_prometheus_text
from repro.serving import (
    ModelServer,
    ReplicaPool,
    SpikeCountDriftDetector,
    http_sender,
    load_artifact,
    offline_predictions,
    run_load,
)

#: Series every healthy /v1/metrics exposition must carry.
REQUIRED_METRICS = (
    "repro_serving_requests_total",
    "repro_serving_responses_total",
    "repro_serving_batch_size_bucket",
    "repro_serving_batch_size_count",
    "repro_serving_latency_ms",
    "repro_serving_info",
)


def check_prometheus(text: str, minimum_requests: int) -> list:
    """Validate the /v1/metrics exposition; returns a list of problems.

    Parses every line with the strict text-format parser, asserts the
    required series are present, and cross-checks the request counter
    against the load that was actually generated.
    """
    problems = []
    try:
        families = parse_prometheus_text(text)
    except ValueError as error:
        return [f"/v1/metrics is not valid Prometheus text format: {error}"]
    for name in REQUIRED_METRICS:
        if name not in families:
            problems.append(f"/v1/metrics is missing the {name!r} series")
    samples = families.get("repro_serving_requests_total", {})
    total = sum(samples.values()) if samples else 0.0
    if total < minimum_requests:
        problems.append(
            f"repro_serving_requests_total is {total:g}, expected >= "
            f"{minimum_requests}"
        )
    return problems


def train_tiny_artifact(directory: Path, *, n_exc: int, seed: int) -> Path:
    """Train a seconds-scale model on three classes and save it."""
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=n_exc,
                                        t_sim=40.0, seed=seed)
    model = SpikeDynModel(config)
    source = SyntheticDigits(image_size=14, seed=seed)
    assign_images, assign_labels = [], []
    for cls in (0, 1, 2):
        for image in source.generate(cls, 3, rng=seed + 1):
            model.train_sample(image)
        for image in source.generate(cls, 2, rng=seed + 2):
            assign_images.append(image)
            assign_labels.append(cls)
    model.assign_labels(assign_images, assign_labels)
    return model.save(directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", type=Path, default=None,
                        help="artifact directory (trained fresh when omitted)")
    parser.add_argument("--url", default=None,
                        help="base URL of a running server (in-process "
                             "server on an ephemeral port when omitted)")
    parser.add_argument("--model", default=None,
                        help="model to drive through POST "
                             "/v1/models/<MODEL>/predict (default: the "
                             "server's default_model)")
    parser.add_argument("--requests", type=int, default=64,
                        help="number of requests to fire (default: 64)")
    parser.add_argument("--concurrency", type=int, default=16,
                        help="client threads (default: 16)")
    parser.add_argument("--workers", type=int, default=2,
                        help="replica workers of the in-process server")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="micro-batch bound of the in-process server")
    parser.add_argument("--n-exc", type=int, default=16,
                        help="excitatory neurons of the freshly trained model")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--startup-timeout", type=float, default=60.0,
                        help="seconds to wait for --url to become healthy")
    args = parser.parse_args(argv)

    if args.url is not None and args.artifact is None:
        # A freshly trained model would be an unrelated reference and every
        # prediction comparison against the real server would fail.
        parser.error("--url requires --artifact (the artifact the server "
                     "at that URL is serving)")

    with tempfile.TemporaryDirectory(prefix="repro-serving-smoke-") as tmp:
        if args.artifact is None:
            print("training a tiny artifact ...", flush=True)
            artifact_dir = train_tiny_artifact(
                Path(tmp) / "artifact", n_exc=args.n_exc, seed=args.seed
            )
        else:
            artifact_dir = args.artifact
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model()

        source = SyntheticDigits(image_size=int(np.sqrt(artifact.n_input)),
                                 seed=args.seed)
        per_class = max(1, args.requests // 3 + 1)
        images = []
        for cls in (0, 1, 2):
            images.extend(source.generate(cls, per_class, rng=args.seed + 7))
        images = [np.asarray(image, dtype=float)
                  for image in images[:args.requests]]
        seeds = list(range(len(images)))

        print(f"computing the offline reference for {len(images)} "
              "requests ...", flush=True)
        reference = offline_predictions(model, images, seeds)

        def hammer(url: str):
            client = ServingClient(url, retries=0)
            model = args.model or client.health()["default_model"]
            report = run_load(http_sender(url, model=model),
                              images, seeds, concurrency=args.concurrency)
            snapshots = client.metrics_json()["models"]
            key = next(
                (key for key in snapshots
                 if key == model or key.startswith(f"{model}@")),
                None,
            )
            if key is None:
                raise SystemExit(
                    f"/v1/metrics.json has no snapshot for model "
                    f"{model!r} (got: {sorted(snapshots)})"
                )
            return report, snapshots[key], client.metrics_text()

        if args.url is not None:
            print(f"waiting for {args.url} ...", flush=True)
            health = ServingClient(args.url, retries=0).wait_until_healthy(
                timeout=args.startup_timeout
            )
            print(f"healthz: {json.dumps(health)}", flush=True)
            report, metrics, prometheus_text = hammer(args.url)
        else:
            pool = ReplicaPool.from_artifact(
                artifact, workers=args.workers, max_batch=args.max_batch,
                max_queue=4 * len(images),
                drift_detector=SpikeCountDriftDetector(
                    window=max(len(images) // 2, 8)
                ),
            )
            with ModelServer(pool, port=0) as server:
                print(f"in-process server at {server.url}", flush=True)
                report, metrics, prometheus_text = hammer(server.url)

    print(json.dumps(report.summary(), indent=2))
    failures = 0
    if report.errors:
        failures += 1
        for index, message in report.errors[:10]:
            print(f"request {index} failed: {message}", file=sys.stderr)
        print(f"error: {len(report.errors)}/{report.n_requests} requests "
              "failed", file=sys.stderr)
    mismatches = np.flatnonzero(report.predictions != reference)
    if mismatches.size:
        failures += 1
        print(f"error: {mismatches.size} predictions differ from the "
              f"offline batched path (first: request {mismatches[0]}, "
              f"served {report.predictions[mismatches[0]]}, offline "
              f"{reference[mismatches[0]]})", file=sys.stderr)
    histogram = metrics.get("batch_size_histogram", {})
    print(f"batch-size histogram: {json.dumps(histogram)}")
    print(f"latency: {json.dumps(metrics.get('latency', {}))}")
    problems = check_prometheus(prometheus_text, minimum_requests=report.ok)
    if problems:
        failures += 1
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
    else:
        lines = len(prometheus_text.strip().splitlines())
        print(f"GET /v1/metrics: valid Prometheus text exposition "
              f"({lines} lines)")
    if failures:
        return 1
    print(f"OK: {report.ok}/{report.n_requests} responses valid and "
          "prediction-identical to offline evaluation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
