"""Wire fixture of every metrics exposition: serving, multi-model and runner.

A scripted sequence of requests, batches, errors, rejections, drift,
retries, rate limits, sheds and runner job outcomes is fed through the
public recording APIs, and each exposition is fetched over HTTP exactly as
a scraper sees it:

* ``router``: a two-model :class:`~repro.serving.router.ModelRouter`
  (``alpha``, a thread pool with a drift detector, and ``beta``, a one-shard
  process pool) served by a :class:`~repro.serving.server.ModelServer` —
  ``/v1/metrics`` and ``/v1/metrics.json``;
* ``empty_pool``: a thread pool that has served nothing yet, through
  ``/v1/metrics`` and ``/v1/metrics.json``;
* ``runner`` and ``empty_runner``: a :class:`RunnerMetrics` sink behind
  :class:`RunnerMetricsServer`.

For every text exposition the fixture records each family's ``# TYPE`` and
each sample's name, labels and value; for every JSON endpoint the whole
payload.  Uptime, the one wall-clock reading, is masked.  The current
expositions must reproduce every recorded family type, sample and JSON
value; the only additions allowed are listed in :data:`ALLOWED_NEW_FAMILIES`
and :data:`ALLOWED_NEW_JSON_KEYS`.  Regenerate only after an intentional
change of the wire format::

    PYTHONPATH=src python tests/observability/test_metrics_fixture.py --regenerate
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import urllib.request
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.observability.prometheus import parse_prometheus_text
from repro.observability.runmetrics import RunnerMetrics, RunnerMetricsServer
from repro.serving import ModelRouter, ModelServer, ReplicaPool, ShardProcessPool
from repro.serving.artifacts import load_artifact
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import ApiError, ShardCrashedError
from repro.serving.inference import PredictResult

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "metrics_fixture.json"

#: Families that may appear in a text exposition without being recorded.
ALLOWED_NEW_FAMILIES = {
    # Rendered without a header of its own before the header fix.
    "repro_runner_job_seconds_count",
    # The router-wide eviction counter, counted but exported nowhere before.
    "repro_serving_evictions_total",
}

#: Top-level JSON keys that may appear in a payload without being recorded.
ALLOWED_NEW_JSON_KEYS = {"v1_metrics_json": {"evictions_total"}}

#: Masked wherever it appears: the one wall-clock reading.
UPTIME_NAMES = ("uptime_s", "repro_serving_uptime_seconds", "repro_runner_uptime_seconds")


def _mask(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: (None if key in UPTIME_NAMES else _mask(item)) for key, item in value.items()}
    return value


def _text_record(text: str) -> Dict[str, Any]:
    """Each family's ``# TYPE`` and each sample's labels and value."""
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
    samples = {}
    for name, series in parse_prometheus_text(text).items():
        samples[name] = sorted(
            (
                [dict(labels), None if name in UPTIME_NAMES else value]
                for labels, value in series.items()
            ),
            key=lambda sample: json.dumps(sample[0], sort_keys=True),
        )
    return {"types": types, "samples": samples}


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


def _get_json(url: str) -> Dict[str, Any]:
    return _mask(json.loads(_get(url)))


def _scripted_predict(script):
    """A ``predict`` that raises the next scripted error, else succeeds."""

    def predict(image, seed=None, timeout=None):
        error = script.pop(0) if script else None
        if error is not None:
            raise error
        return PredictResult(prediction=1, seed=0, spike_count=1.0, scores=np.zeros(10))

    return predict


def _job(status="completed", source="run", experiment="fig5", elapsed=0.5):
    return SimpleNamespace(status=status, source=source, experiment=experiment, elapsed=elapsed)


def _serving_outputs(artifact_dir: Path) -> Dict[str, Any]:
    artifact = load_artifact(artifact_dir)
    outputs: Dict[str, Any] = {}

    empty = ReplicaPool.from_artifact(artifact, workers=1)
    with ModelServer(empty) as server:
        outputs["empty_pool_v1_metrics"] = _text_record(_get(f"{server.url}/v1/metrics"))
        outputs["empty_pool_v1_metrics_json"] = _get_json(f"{server.url}/v1/metrics.json")

    detector = SpikeCountDriftDetector(window=4, threshold=1.0)
    alpha = ReplicaPool.from_artifact(artifact, workers=1, drift_detector=detector)
    beta = ShardProcessPool(artifact_dir, shards=1)
    router = ModelRouter(
        rate_rps=0.001,
        rate_burst=2,
        breaker_failures=2,
        breaker_reset_s=3600.0,
        retries=2,
        sleep=lambda _seconds: None,
        rng=random.Random(0),
    )
    router.add_pool("alpha", alpha)
    router.add_pool("beta", beta)
    image = np.zeros(alpha.n_input)
    with ModelServer(router) as server:
        # alpha: traffic, a rejection through the real submit path, drift.
        for _ in range(6):
            alpha.metrics.record_request()
        alpha.metrics.record_batch(2, [0.001, 0.004])
        alpha.metrics.record_batch(4, [0.002, 0.002, 0.003, 0.008])
        alpha.metrics.record_errors(1)
        try:
            alpha.submit(np.zeros(3))
        except ValueError:
            pass
        for count in (10.0, 12.0, 11.0, 13.0, 30.0, 31.0):
            detector.observe(count)
        # alpha: one retried shard crash, then the tenant's bucket runs dry.
        alpha.predict = _scripted_predict([ShardCrashedError("boom")])
        router.predict("alpha", image, tenant="a")
        router.predict("alpha", image, tenant="a")
        try:
            router.predict("alpha", image, tenant="a")
        except ApiError:
            pass
        # beta: one batch, then two model failures open its breaker, which
        # sheds the next request.
        beta.metrics.record_request()
        beta.metrics.record_batch(1, [0.0025])
        beta.predict = _scripted_predict([RuntimeError("bad"), RuntimeError("bad")])
        for tenant in ("b", "b", "c"):
            try:
                router.predict("beta", image, tenant=tenant)
            except ApiError:
                pass
        outputs["v1_metrics"] = _text_record(_get(f"{server.url}/v1/metrics"))
        outputs["v1_metrics_json"] = _get_json(f"{server.url}/v1/metrics.json")
    return outputs


def _runner_outputs() -> Dict[str, Any]:
    outputs: Dict[str, Any] = {}
    with RunnerMetricsServer(RunnerMetrics()) as server:
        outputs["empty_runner_metrics"] = _text_record(_get(f"{server.url}/metrics"))
        outputs["empty_runner_metrics_json"] = _get_json(f"{server.url}/metrics.json")
    runner = RunnerMetrics()
    runner.set_workers(3)
    for _ in range(5):
        runner.record_started()
    for job in (
        _job("completed", experiment="fig5", elapsed=0.5),
        _job("completed", experiment="fig5", elapsed=1.5),
        _job("failed", experiment="fig5", elapsed=0.25),
        _job("timeout", experiment="alg1", elapsed=2.0),
        _job(source="cache", elapsed=9.0),
        _job(source="manifest", elapsed=9.0),
        _job("completed", experiment="table2", elapsed=0.125),
    ):
        runner.record_finished(job)
    runner.set_progress(queue_depth=2, running=2)
    with RunnerMetricsServer(runner) as server:
        outputs["runner_metrics"] = _text_record(_get(f"{server.url}/metrics"))
        outputs["runner_metrics_json"] = _get_json(f"{server.url}/metrics.json")
    return outputs


def build_outputs(artifact_dir: Path) -> Dict[str, Any]:
    return {**_serving_outputs(artifact_dir), **_runner_outputs()}


def _save_artifact(directory: Path) -> Path:
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=8, t_sim=20.0, seed=0)
    return SpikeDynModel(config).save(directory / "spikedyn")


def _json_round_trip(value: Any) -> Any:
    return json.loads(json.dumps(value))


def _check_text(key: str, recorded: Dict[str, Any], current: Dict[str, Any]) -> None:
    for family, kind in recorded["types"].items():
        assert current["types"].get(family) == kind, f"{key}: # TYPE of {family}"
    extra_types = set(current["types"]) - set(recorded["types"])
    assert extra_types <= ALLOWED_NEW_FAMILIES, f"{key}: new families {extra_types}"
    for name, samples in recorded["samples"].items():
        assert current["samples"].get(name) == samples, f"{key}: samples of {name}"
    extra_samples = set(current["samples"]) - set(recorded["samples"])
    assert extra_samples <= ALLOWED_NEW_FAMILIES, f"{key}: new samples {extra_samples}"


def _check_json(key: str, recorded: Dict[str, Any], current: Dict[str, Any]) -> None:
    allowed = ALLOWED_NEW_JSON_KEYS.get(key, set())
    extra = set(current) - set(recorded)
    assert extra <= allowed, f"{key}: new keys {extra}"
    for name, value in recorded.items():
        assert current.get(name) == value, f"{key}: {name}"


def test_expositions_match_the_wire_fixture(tmp_path):
    recorded = json.loads(FIXTURE.read_text())
    current = _json_round_trip(build_outputs(_save_artifact(tmp_path)))
    assert set(current) == set(recorded)
    for key, output in recorded.items():
        if key.endswith("_json"):
            _check_json(key, output, current[key])
        else:
            _check_text(key, output, current[key])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        outputs = _json_round_trip(build_outputs(_save_artifact(Path(scratch))))
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
