"""Command-line interface for the SpikeDyn reproduction.

The CLI wraps the library's main entry points so the common workflows can be
driven without writing Python:

``spikedyn-repro info``
    Library version, available models, devices, and experiment drivers.
``spikedyn-repro train``
    Train one of the three models on a dynamic (class-sequential) or
    non-dynamic synthetic-digit stream and optionally save it.
``spikedyn-repro evaluate``
    Rebuild a saved model from its artifact alone (model class and
    configuration included) and evaluate its accuracy on fresh samples.
``spikedyn-repro search``
    Run the Alg. 1 memory/energy-constrained model search.
``spikedyn-repro energy``
    Per-sample energy of the three models, normalized to the baseline, on a
    chosen GPU profile.
``spikedyn-repro reproduce``
    Run one of the paper-experiment drivers and print its report, optionally
    through the parallel runner (``--workers``) with result caching.
``spikedyn-repro run-all``
    Run the full experiment suite through the parallel runner, with a
    resumable manifest and content-addressed result caching.
``spikedyn-repro scenarios``
    List the continual-learning scenario catalogue or run one scenario
    through the continual-learning evaluation harness.
``spikedyn-repro serve``
    Serve one or more saved model artifacts over HTTP with micro-batched
    concurrent inference behind the versioned ``/v1`` API
    (``POST /v1/models/<name>/predict``, ``GET /v1/models``,
    ``GET /v1/metrics``), optionally sharded across worker processes
    (``--shards``).
``spikedyn-repro cache``
    Inspect or clear the on-disk result cache.
``spikedyn-repro ledger``
    Query the persistent execution ledger (``list``/``show``/``tail``/
    ``compact``): every runner job, serving batch, and trace span, with
    lineage back to content key, artifact version, config hash, backend,
    and package version.
``spikedyn-repro trace``
    Reconstruct a distributed trace from the ledger as a span tree
    (``show <trace_id>``) or rank the slowest recorded traces
    (``slowest``).

Every subcommand prints plain text to stdout; exit code 0 means success.
Setting ``REPRO_LOG_JSON=1`` additionally streams every internal event
(scheduler, workers, serving) as structured JSON lines on stderr.
Install the package (``pip install -e .``) to get the ``repro`` and
``spikedyn-repro`` entry points, or run ``python -m repro.cli ...`` directly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends import BACKEND_ALIASES, DEFAULT_BACKEND
from repro.core.config import SpikeDynConfig
from repro.core.model_search import search_snn_model
from repro.datasets.streams import dynamic_task_stream, nondynamic_stream
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import default_devices, get_device
from repro.evaluation.reporting import format_table
from repro.experiments.common import MODEL_ORDER, ExperimentScale, build_model
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.models import MODEL_CLASSES
from repro.observability import (
    KIND_JOB,
    KIND_SERVING_BATCH,
    KIND_SERVING_SHARD,
    KIND_SPAN,
    RunLedger,
)
from repro.observability.runmetrics import RunnerMetrics, RunnerMetricsServer
from repro.observability.structlog import configure_from_env
from repro.observability.trace_view import format_trace, slowest_traces
from repro.runner import (
    JobRecord,
    JobSpec,
    ParallelRunner,
    ResultCache,
    RunManifest,
    build_suite,
    default_scale_overrides,
    scales_for_preset,
)
from repro.scenarios import SCENARIOS, get_scenario

#: Experiment drivers exposed by ``spikedyn-repro reproduce`` (name -> report
#: renderer), derived from the registry in :mod:`repro.experiments.registry`.
EXPERIMENT_DRIVERS: Dict[str, Callable[[ExperimentScale], str]] = {
    name: spec.report for name, spec in EXPERIMENTS.items()
}

#: Named experiment scales selectable from the command line.
SCALE_PRESETS = {
    "tiny": ExperimentScale.tiny,
    "small": ExperimentScale.small,
    "paper": ExperimentScale.paper,
}


def _build_config(args: argparse.Namespace, **sizes) -> SpikeDynConfig:
    """Configuration shared by the train / search / energy subcommands."""
    return SpikeDynConfig.scaled_down(
        n_input=args.image_size * args.image_size,
        t_sim=args.t_sim,
        seed=args.seed,
        **sizes,
    )


def _positive_int(text: str) -> int:
    """argparse type for strictly positive integers."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# argparse names the type in its error message ("invalid <name> value").
_positive_int.__name__ = "positive integer"


def _nonnegative_int(text: str) -> int:
    """argparse type for integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_nonnegative_int.__name__ = "non-negative integer"


def _add_network_arguments(parser: argparse.ArgumentParser, *,
                           n_exc: bool = True) -> None:
    """Size, timing and seed flags of the commands that build networks
    (``search`` sweeps the layer size itself, so it takes no ``--n-exc``)."""
    if n_exc:
        parser.add_argument("--n-exc", type=int, default=40,
                            help="number of excitatory neurons")
    parser.add_argument("--image-size", type=int, default=14,
                        help="side length of the synthetic digit images")
    parser.add_argument("--t-sim", type=float, default=60.0,
                        help="presentation window per sample in ms")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Cache/timeout knobs shared by the runner-backed subcommands."""
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro/results)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache")
    parser.add_argument("--force", action="store_true",
                        help="re-execute every job, ignoring cache and manifest")
    _add_ledger_arguments(parser)


def _add_ledger_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger-dir", default=None,
                        help="execution-ledger directory (default: "
                             "$REPRO_LEDGER_DIR or ~/.cache/repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="disable the persistent execution ledger")


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"SpikeDyn reproduction, version {repro.__version__}")
    print()
    print("models     :", ", ".join(sorted(MODEL_CLASSES)))
    print("kernels    :", DEFAULT_BACKEND,
          f"(retired names accepted: {', '.join(BACKEND_ALIASES)})")
    print("devices    :", ", ".join(device.name for device in default_devices()))
    print("experiments:", ", ".join(sorted(EXPERIMENT_DRIVERS)))
    print("scales     :", ", ".join(sorted(SCALE_PRESETS)))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    model = build_model(args.model, _build_config(args, n_exc=args.n_exc))
    source = SyntheticDigits(image_size=args.image_size, seed=args.seed)
    classes = args.classes

    if args.protocol == "dynamic":
        stream = dynamic_task_stream(source, class_sequence=classes,
                                     samples_per_task=args.samples_per_class,
                                     rng=args.seed)
    else:
        stream = nondynamic_stream(source,
                                   n_samples=args.samples_per_class * len(classes),
                                   classes=classes, rng=args.seed)
    print(f"training {args.model!r} on {len(stream)} samples "
          f"({args.protocol} protocol, classes {classes})...")
    model.train_stream(stream)

    # Label the neurons and report training-set accuracy per class.
    rng_seed = args.seed + 1
    assign_images, assign_labels = [], []
    for cls in classes:
        for image in source.generate(cls, args.eval_per_class, rng=rng_seed):
            assign_images.append(image)
            assign_labels.append(cls)
    model.assign_labels(assign_images, assign_labels)

    rows = []
    for cls in classes:
        images = list(source.generate(cls, args.eval_per_class, rng=rng_seed + 1))
        accuracy = model.evaluate_accuracy(images, [cls] * len(images))
        rows.append([f"digit-{cls}", accuracy * 100.0])
    print(format_table(["class", "accuracy_%"], rows))

    if args.save:
        path = model.save(args.save)
        print(f"model saved to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.serving import ArtifactError, load_artifact

    try:
        model = load_artifact(args.model_dir).build_model()
    except ArtifactError as error:
        print(f"error: could not load the model from {args.model_dir!r}: {error}",
              file=sys.stderr)
        return 1
    image_size = math.isqrt(model.n_input)
    if image_size * image_size != model.n_input:
        print(f"error: the model in {args.model_dir!r} takes {model.n_input} "
              "inputs, which is not a square digit image", file=sys.stderr)
        return 1

    print(f"evaluating {model.name!r} ({model.n_exc} excitatory neurons, "
          f"{image_size}x{image_size} images)")
    source = SyntheticDigits(image_size=image_size, seed=args.seed)
    rows = []
    total_correct, total = 0, 0
    for cls in args.classes:
        images = list(source.generate(cls, args.eval_per_class, rng=args.seed + 2))
        predictions = model.predict(images)
        correct = int((predictions == cls).sum())
        rows.append([f"digit-{cls}", correct, len(images),
                     100.0 * correct / len(images)])
        total_correct += correct
        total += len(images)
    print(format_table(["class", "correct", "evaluated", "accuracy_%"], rows))
    print(f"overall accuracy: {100.0 * total_correct / total:.1f}%")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    config = _build_config(args)  # the search sweeps n_exc from --n-add
    device = get_device(args.device)
    result = search_snn_model(
        config,
        memory_budget_bytes=args.memory_kb * 1024.0,
        training_energy_budget_joules=args.train_energy_j,
        inference_energy_budget_joules=args.infer_energy_j,
        n_training_samples=args.n_train,
        n_inference_samples=args.n_infer,
        n_add=args.n_add,
        device=device,
        rng=args.seed,
    )
    rows = []
    for candidate in result.candidates:
        rows.append([
            candidate.n_exc,
            candidate.memory_bytes / 1024.0,
            "yes" if candidate.feasible else f"no ({candidate.rejection_reason})",
        ])
    print(format_table(["n_exc", "memory_KB", "feasible"], rows))
    if result.selected is None:
        print("no candidate satisfies every constraint")
        return 1
    print(f"selected model: {result.selected.n_exc} excitatory neurons")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    config = _build_config(args, n_exc=args.n_exc)
    device = get_device(args.device)
    source = SyntheticDigits(image_size=args.image_size, seed=args.seed)
    images = source.generate(0, args.samples, rng=args.seed)
    energy_model = EnergyModel(device)

    rows = []
    baseline_joules: Optional[float] = None
    for name in ("baseline", "asp", "spikedyn"):
        model = build_model(name, config)
        training = 0.0
        inference = 0.0
        for image in images:
            before = model.counter.copy()
            model.train_sample(image)
            training += energy_model.estimate(model.counter - before).joules
            before = model.counter.copy()
            model.respond(image)
            inference += energy_model.estimate(model.counter - before).joules
        if name == "baseline":
            baseline_joules = training
        rows.append([name, training / len(images), inference / len(images),
                     training / baseline_joules])
    print(f"per-sample energy on the {device.name} "
          f"(averaged over {len(images)} samples)")
    print(format_table(
        ["model", "training_J", "inference_J", "training_vs_baseline"], rows
    ))
    return 0


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache selected by ``--cache-dir`` / ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    # ResultCache(None) resolves to $REPRO_CACHE_DIR / the user cache dir.
    return ResultCache(getattr(args, "cache_dir", None))


def _make_ledger(args: argparse.Namespace) -> Optional[RunLedger]:
    """The execution ledger selected by ``--ledger-dir`` / ``--no-ledger``."""
    if getattr(args, "no_ledger", False):
        return None
    # RunLedger(None) resolves to $REPRO_LEDGER_DIR / the user cache dir.
    return RunLedger(getattr(args, "ledger_dir", None))


def _progress_printer(event: str, record: JobRecord) -> None:
    """One progress line per scheduler event (the runner's on_event hook).

    Progress goes to stderr so stdout stays the pure report text (the
    parallel `reproduce --workers` output is byte-identical to the
    sequential one).
    """
    if event == "start":
        line = f"[runner] {record.experiment}: running ..."
    elif event == "cached":
        line = f"[runner] {record.experiment}: served from cache"
    elif event == "resumed":
        line = f"[runner] {record.experiment}: already completed (manifest)"
    elif event == "done":
        line = f"[runner] {record.experiment}: {record.status} ({record.elapsed:.1f} s)"
    else:  # pragma: no cover - future event kinds
        line = f"[runner] {record.experiment}: {event}"
    print(line, file=sys.stderr, flush=True)


def _write_report(record: JobRecord, out_dir: Path) -> Optional[Path]:
    """Write one completed record's report to ``<out_dir>/<output>.txt``.

    Reports are written as each job completes (not at the end of the run), so
    an interrupted run keeps the reports of every finished job and a resumed
    run never has to re-render them.
    """
    if not record.ok or record.report is None:
        return None
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{record.output}.txt"
    path.write_text(
        record.report + f"\n\n(generated in {record.elapsed:.1f} s, "
        f"source: {record.source})\n",
        encoding="utf-8",
    )
    return path


def _summarize_run(records: Sequence[JobRecord]) -> int:
    """Print the run summary table; return the number of unsuccessful jobs."""
    rows = []
    failures = 0
    for record in records:
        rows.append([record.experiment, record.status, record.source,
                     f"{record.elapsed:.1f}"])
        if not record.ok:
            failures += 1
    print(format_table(["experiment", "status", "source", "seconds"], rows))
    for record in records:
        if record.error:
            last_line = record.error.strip().splitlines()[-1]
            print(f"error in {record.experiment}: {last_line}", file=sys.stderr)
    return failures


def _cmd_reproduce(args: argparse.Namespace) -> int:
    scale = SCALE_PRESETS[args.scale](seed=args.seed)
    if args.workers is None:
        ignored = [flag for flag, value in (
            ("--timeout", args.timeout is not None),
            ("--cache-dir", args.cache_dir is not None),
            ("--no-cache", args.no_cache),
            ("--force", args.force),
            ("--ledger-dir", args.ledger_dir is not None),
            ("--no-ledger", args.no_ledger),
        ) if value]
        if ignored:
            print(f"warning: {', '.join(ignored)} only take effect together "
                  "with --workers; running in-process without them",
                  file=sys.stderr)
        print(EXPERIMENT_DRIVERS[args.experiment](scale))
        return 0

    spec = get_experiment(args.experiment)
    job = JobSpec(experiment=spec.name, scale=scale, output=spec.output,
                  timeout=args.timeout)
    runner = ParallelRunner(args.workers, cache=_make_cache(args),
                            force=args.force, ledger=_make_ledger(args),
                            on_event=_progress_printer)
    record = runner.run([job])[0]
    if not record.ok:
        if record.error:
            print(record.error.strip(), file=sys.stderr)
        print(f"error: {args.experiment} finished with status {record.status!r}",
              file=sys.stderr)
        return 1
    print(record.report)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    scales = scales_for_preset(args.scale, seed=args.seed,
                               paper_networks=args.paper_networks)
    jobs = build_suite(scales, experiments=args.drivers,
                       scale_overrides=default_scale_overrides(args.scale, scales),
                       timeout=args.timeout)

    out_dir = Path(args.out)
    manifest = RunManifest.load_or_create(
        out_dir / "manifest.json",
        metadata={"scale": args.scale, "seed": args.seed, "workers": args.workers},
    )

    def on_event(event: str, record: JobRecord) -> None:
        _progress_printer(event, record)
        if event in ("done", "cached", "resumed"):
            _write_report(record, out_dir)

    metrics = None
    metrics_server = None
    if args.metrics_port is not None:
        metrics = RunnerMetrics()
        metrics_server = RunnerMetricsServer(metrics, port=args.metrics_port)
        metrics_server.start()
        print(f"runner metrics at {metrics_server.url}/metrics")

    runner = ParallelRunner(args.workers, cache=_make_cache(args),
                            manifest=manifest, resume=not args.no_resume,
                            force=args.force, ledger=_make_ledger(args),
                            on_event=on_event, metrics=metrics)
    try:
        records = runner.run(jobs)
    finally:
        if metrics_server is not None:
            metrics_server.stop()

    # A manifest-resumed job carries no report text when caching is off; its
    # report file normally survives from the run that completed it, but if it
    # was deleted there is nothing to rewrite — say so instead of silently
    # claiming success over an empty output directory.
    unwritable = [record.output for record in records
                  if record.ok and record.report is None
                  and not (out_dir / f"{record.output}.txt").exists()]
    if unwritable:
        print(f"warning: no report text available for {', '.join(unwritable)} "
              "(completed in an earlier run, but the report file is gone and "
              "no cached copy exists); re-run with --force or --no-resume to "
              "regenerate",
              file=sys.stderr)

    elapsed = time.perf_counter() - started
    failures = _summarize_run(records)
    print(f"{len(records) - failures}/{len(records)} experiments completed "
          f"in {elapsed:.1f} s (reports in {out_dir}, manifest "
          f"{manifest.path})")
    return 1 if failures else 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.action == "list":
        if args.name is not None:
            print("error: 'scenarios list' takes no scenario name",
                  file=sys.stderr)
            return 2
        scale = SCALE_PRESETS[args.scale](seed=args.seed)
        rows = []
        for name in SCENARIOS:
            spec = get_scenario(name, scale)
            transforms = ", ".join(t["kind"] for t in spec.transforms) or "-"
            rows.append([name, spec.schedule["kind"], len(spec.phases()),
                         transforms, spec.description])
        print(format_table(
            ["scenario", "schedule", "phases", "transforms", "description"], rows
        ))
        return 0

    # action == "run"
    from repro.experiments.scenarios import run_scenario_study

    if args.name is None:
        print("error: 'scenarios run' needs a scenario name "
              f"(known: {', '.join(SCENARIOS)})", file=sys.stderr)
        return 2
    scale = SCALE_PRESETS[args.scale](seed=args.seed)
    models = tuple(args.models) if args.models else MODEL_ORDER
    # Validate the name up front so only the unknown-scenario case is
    # reported as a usage error; a KeyError raised inside the study itself
    # is a library bug and should traceback normally.
    try:
        get_scenario(args.name, scale)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    result = run_scenario_study(scale, scenario=args.name, models=models)
    print(result.to_text())
    return 0


def _parse_model_spec(spec: str) -> "tuple[str, str]":
    """Split a ``NAME=PATH`` (or bare ``PATH``) serve argument.

    Without an explicit name, a registry version directory
    (``<name>/v000N``) serves as ``<name>``; any other directory serves
    under its own basename.
    """
    import re as _re
    from pathlib import Path

    if "=" in spec:
        name, _, path = spec.partition("=")
        if not name:
            raise ValueError(f"empty model name in {spec!r}")
        return name, path
    path = Path(spec)
    if _re.fullmatch(r"v\d{1,9}", path.name) and path.parent.name:
        return path.parent.name, spec
    return path.name or spec, spec


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (
        ArtifactError,
        ArtifactRegistry,
        ModelRouter,
        ModelServer,
        ReplicaPool,
        ShardProcessPool,
        SpikeCountDriftDetector,
        load_artifact,
    )

    if not args.artifacts and args.registry is None:
        print("error: name at least one artifact (NAME=PATH) or pass "
              "--registry", file=sys.stderr)
        return 2
    ledger = _make_ledger(args)

    def pool_factory(artifact_dir: str):
        drift = SpikeCountDriftDetector(window=args.drift_window,
                                        threshold=args.drift_threshold)
        if args.shards > 0:
            return ShardProcessPool(
                artifact_dir,
                shards=args.shards,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                max_queue=args.max_queue,
                drift_detector=drift,
                ledger=ledger,
            )
        return ReplicaPool.from_artifact(
            load_artifact(artifact_dir),
            workers=args.workers,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            drift_detector=drift,
            ledger=ledger,
        )

    registry = ArtifactRegistry(args.registry) if args.registry else None
    try:
        router = ModelRouter(
            pool_factory,
            registry=registry,
            max_models=args.max_models,
            rate_rps=args.rate_rps,
            rate_burst=args.rate_burst,
            breaker_failures=args.breaker_failures or None,
            breaker_window_s=args.breaker_window_s,
            breaker_reset_s=args.breaker_reset_s,
            retries=args.retries,
            retry_backoff_s=args.retry_backoff_s,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    served = []
    try:
        for spec in args.artifacts:
            name, path = _parse_model_spec(spec)
            described = load_artifact(path).describe()
            router.add_model(name, path)
            served.append((name, path, described))
    except (ArtifactError, ValueError) as error:
        router.stop()
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        server = ModelServer(router, host=args.host, port=args.port,
                             quiet=not args.verbose)
    except OSError as error:
        router.stop()
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    host, port = server.address
    for name, path, described in served:
        print(f"serving {name}: {described['model']} "
              f"({described['n_input']}x{described['n_exc']}, "
              f"schema v{described['schema_version']}, "
              f"backend={described['backend']}) from {path}",
              flush=True)
    if registry is not None:
        print(f"registry: {args.registry} "
              f"(lazy-loading up to {args.max_models} models)", flush=True)
    plane = (f"shards={args.shards} processes" if args.shards > 0
             else f"workers={args.workers} threads")
    print(f"listening on http://{host}:{port} "
          f"({plane}, max_batch={args.max_batch}, "
          f"max_wait_ms={args.max_wait_ms:g})", flush=True)
    print("endpoints: POST /v1/models/<name>/predict, GET /v1/models, "
          "GET /v1/models/<name>/healthz, GET /v1/healthz, "
          "GET /v1/metrics[.json]", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining pending requests) ...",
              file=sys.stderr, flush=True)
    finally:
        server.stop()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        stats = cache.stats()
        print(f"cache root : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"size       : {stats['bytes'] / 1024.0:.1f} KiB")
        return 0
    if args.action == "list":
        rows = []
        for key, path in cache.iter_entries():
            record = cache.get(key)
            if record is None:
                continue
            rows.append([key[:16], record.get("experiment", "?"),
                         record.get("status", "?"), record.get("seed", "?"),
                         f"{record.get('elapsed', 0.0):.1f}"])
        if not rows:
            print(f"cache at {cache.root} is empty")
            return 0
        print(format_table(["key", "experiment", "status", "seed", "seconds"], rows))
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def _ledger_row(entry: Dict[str, object]) -> List[object]:
    """One display row for a ledger entry (shared by list/tail)."""
    ts = entry.get("ts")
    when = (time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))
            if isinstance(ts, (int, float)) else "?")
    kind = str(entry.get("kind", "?"))
    if kind == KIND_SERVING_BATCH:
        what = str(entry.get("artifact_name") or entry.get("model") or "?")
        detail = f"batch={entry.get('batch_size', '?')}"
        if "shard" in entry:
            detail += f" shard={entry['shard']}"
    elif kind == KIND_SERVING_SHARD:
        what = str(entry.get("artifact_name") or entry.get("model") or "?")
        detail = f"shard={entry.get('shard', '?')} pid={entry.get('pid', '?')}"
        return [when, kind, what, entry.get("event", "?"),
                entry.get("backend", "?"), entry.get("version", "?"), detail]
    elif kind == KIND_SPAN:
        what = str(entry.get("name", "?"))
        detail = (f"trace={entry.get('trace_id', '?')} "
                  f"{entry.get('duration_ms', '?')} ms")
        return [when, kind, what, f"pid={entry.get('pid', '?')}",
                entry.get("backend", "-"), entry.get("version", "?"), detail]
    else:
        what = str(entry.get("experiment", "?"))
        detail = str(entry.get("key", ""))[:16]
    return [when, kind, what, entry.get("outcome", "?"),
            entry.get("backend", "-"), entry.get("version", "?"), detail]


_LEDGER_COLUMNS = ["when", "kind", "what", "outcome", "backend", "version",
                   "key/detail"]


def _cmd_ledger(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger_dir)
    kind = {"job": KIND_JOB, "serving": KIND_SERVING_BATCH,
            "serving_shard": KIND_SERVING_SHARD, "span": KIND_SPAN,
            "all": None}[args.kind]

    if args.action == "compact":
        summary = ledger.compact()
        saved = summary["bytes_before"] - summary["bytes_after"]
        print(f"compacted {summary['path']}: "
              f"{summary['entries_before']} -> {summary['entries_after']} "
              f"entries, {saved / 1024.0:.1f} KiB reclaimed "
              f"({summary['segments_removed']} rotated segment(s) merged)")
        return 0

    if args.action == "list":
        stats = ledger.stats()
        rows = [_ledger_row(entry) for entry in ledger.entries(kind=kind)]
        if not rows:
            print(f"ledger at {ledger.path} is empty")
            return 0
        print(format_table(_LEDGER_COLUMNS, rows))
        kinds = ", ".join(f"{name}={count}"
                          for name, count in sorted(stats["kinds"].items()))
        print(f"{stats['entries']} entries ({kinds}), "
              f"{stats['bytes'] / 1024.0:.1f} KiB at {stats['path']}")
        return 0

    if args.action == "tail":
        rows = [_ledger_row(entry)
                for entry in ledger.tail(args.limit, kind=kind)]
        if not rows:
            print(f"ledger at {ledger.path} is empty")
            return 0
        print(format_table(_LEDGER_COLUMNS, rows))
        return 0

    # action == "show": full JSON of every entry matching the key prefix.
    if not args.key:
        print("error: 'ledger show' needs a job-key prefix "
              "(see the key/detail column of 'ledger list')", file=sys.stderr)
        return 2
    matches = [entry for entry in ledger.find(args.key)
               if kind is None or entry.get("kind") == kind]
    if not matches:
        print(f"no ledger entry matches key prefix {args.key!r}",
              file=sys.stderr)
        return 1
    for entry in matches:
        print(json.dumps(entry, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger_dir)

    if args.action == "show":
        if not args.trace_id:
            print("error: 'trace show' needs a trace id (header "
                  "X-Repro-Trace-Id, predict response 'trace_id', or the "
                  "detail column of 'ledger list --kind span')",
                  file=sys.stderr)
            return 2
        print(format_trace(ledger, args.trace_id))
        return 0

    # action == "slowest": one row per trace, largest total span time first.
    summaries = slowest_traces(ledger, limit=args.limit)
    if not summaries:
        print(f"no spans recorded in ledger at {ledger.path}")
        return 0
    rows = [[summary["trace_id"], summary["root"],
             f"{summary['total_ms']:.2f}", str(summary["spans"]),
             str(summary["processes"])]
            for summary in summaries]
    print(format_table(["trace", "root span", "total ms", "spans",
                        "processes"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="spikedyn-repro",
        description="SpikeDyn (DAC 2021) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="show library information")
    info.set_defaults(handler=_cmd_info)

    train = subparsers.add_parser("train", help="train a model on synthetic digits")
    train.add_argument("--model", default="spikedyn", choices=sorted(MODEL_CLASSES),
                       help="which comparison partner to use")
    _add_network_arguments(train)
    train.add_argument("--classes", type=int, nargs="+", default=[0, 1, 2],
                       help="digit classes to train on")
    train.add_argument("--protocol", choices=("dynamic", "nondynamic"),
                       default="dynamic", help="task-ordering protocol")
    train.add_argument("--samples-per-class", type=int, default=8,
                       help="training samples per class")
    train.add_argument("--eval-per-class", type=int, default=4,
                       help="evaluation samples per class")
    train.add_argument("--save", default=None,
                       help="directory to save the trained model to")
    train.set_defaults(handler=_cmd_train)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a saved model (its class and configuration "
                         "come from the artifact)"
    )
    evaluate.add_argument("model_dir", help="directory written by 'train --save'")
    evaluate.add_argument("--seed", type=int, default=0,
                          help="seed of the evaluation digits")
    evaluate.add_argument("--classes", type=int, nargs="+", default=[0, 1, 2],
                          help="digit classes to evaluate on")
    evaluate.add_argument("--eval-per-class", type=int, default=4,
                          help="evaluation samples per class")
    evaluate.set_defaults(handler=_cmd_evaluate)

    search = subparsers.add_parser("search",
                                   help="run the Alg. 1 constrained model search")
    _add_network_arguments(search, n_exc=False)
    search.add_argument("--memory-kb", type=float, default=256.0,
                        help="memory budget in kilobytes")
    search.add_argument("--train-energy-j", type=float, default=None,
                        help="training energy budget in joules")
    search.add_argument("--infer-energy-j", type=float, default=None,
                        help="inference energy budget in joules")
    search.add_argument("--n-train", type=int, default=60_000,
                        help="training samples the deployment will process")
    search.add_argument("--n-infer", type=int, default=10_000,
                        help="inference samples the deployment will process")
    search.add_argument("--n-add", type=int, default=25,
                        help="search step in excitatory neurons")
    search.add_argument("--device", default="GTX 1080 Ti",
                        help="target device profile")
    search.set_defaults(handler=_cmd_search)

    energy = subparsers.add_parser("energy",
                                   help="per-sample energy of the three models")
    _add_network_arguments(energy)
    energy.add_argument("--device", default="GTX 1080 Ti",
                        help="target device profile")
    energy.add_argument("--samples", type=int, default=2,
                        help="samples averaged per measurement")
    energy.set_defaults(handler=_cmd_energy)

    reproduce = subparsers.add_parser(
        "reproduce", help="run one paper-experiment driver and print its report"
    )
    reproduce.add_argument("experiment", choices=sorted(EXPERIMENT_DRIVERS),
                           help="which table/figure to reproduce")
    reproduce.add_argument("--scale", choices=sorted(SCALE_PRESETS), default="tiny",
                           help="experiment scale preset")
    reproduce.add_argument("--seed", type=int, default=0,
                           help="base seed of every stochastic component")
    reproduce.add_argument("--workers", type=_positive_int, default=None,
                           help="run through the parallel runner with N worker "
                                "processes and result caching (default: run "
                                "in-process without caching)")
    _add_runner_arguments(reproduce)
    reproduce.set_defaults(handler=_cmd_reproduce)

    run_all = subparsers.add_parser(
        "run-all",
        help="run the full experiment suite through the parallel runner",
    )
    run_all.add_argument("--scale", choices=sorted(SCALE_PRESETS), default="tiny",
                         help="experiment scale preset")
    run_all.add_argument("--seed", type=int, default=0,
                         help="base seed of every stochastic component")
    run_all.add_argument("--workers", type=_nonnegative_int, default=1,
                         help="number of concurrent worker processes, each "
                              "forked from one preloaded server; 0 runs every "
                              "job in-process, one at a time, without crash "
                              "isolation or timeouts")
    run_all.add_argument("--out", default="results",
                         help="output directory for reports and the manifest")
    run_all.add_argument("--drivers", nargs="+", default=None,
                         choices=sorted(EXPERIMENT_DRIVERS), metavar="DRIVER",
                         help="subset of drivers to run (default: all)")
    run_all.add_argument("--paper-networks", action="store_true",
                         help="use N200/N400 for the energy experiments at "
                              "the 'small' scale")
    run_all.add_argument("--no-resume", action="store_true",
                         help="ignore a pre-existing manifest instead of "
                              "resuming from it")
    run_all.add_argument("--metrics-port", type=_nonnegative_int, default=None,
                         metavar="PORT",
                         help="serve runner metrics over HTTP on this port "
                              "for the duration of the run (Prometheus text "
                              "at /metrics, JSON at /metrics.json; 0 picks a "
                              "free port)")
    _add_runner_arguments(run_all)
    run_all.set_defaults(handler=_cmd_run_all)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="list or run the continual-learning scenario catalogue",
    )
    scenarios.add_argument("action", choices=("list", "run"),
                           help="list the catalogue or run one scenario")
    # Validated in the handler rather than via argparse choices: the name is
    # optional (only 'run' needs it), and the handler's error message can
    # list the catalogue without argparse leaking a None sentinel into it.
    scenarios.add_argument("name", nargs="?", default=None, metavar="SCENARIO",
                           help="scenario to run (required for 'run'; see "
                                "'scenarios list')")
    scenarios.add_argument("--scale", choices=sorted(SCALE_PRESETS),
                           default="tiny", help="experiment scale preset")
    scenarios.add_argument("--seed", type=int, default=0,
                           help="base seed of every stochastic component")
    scenarios.add_argument("--models", nargs="+", default=None,
                           choices=sorted(MODEL_CLASSES), metavar="MODEL",
                           help="comparison partners to run (default: all)")
    scenarios.set_defaults(handler=_cmd_scenarios)

    serve = subparsers.add_parser(
        "serve",
        help="serve model artifacts over HTTP (multi-tenant /v1 API, "
             "micro-batched)",
    )
    serve.add_argument("artifacts", nargs="*", metavar="NAME=PATH",
                       help="artifact to pin: NAME=PATH, or a bare PATH "
                            "(served under the directory's name); repeat "
                            "for multiple models")
    serve.add_argument("--registry", default=None, metavar="DIR",
                       help="ArtifactRegistry root to lazy-load further "
                            "models from on first request")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_nonnegative_int, default=8080,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="replica worker threads per model when "
                            "--shards is 0")
    serve.add_argument("--shards", type=_nonnegative_int, default=0,
                       help="worker *processes* per model (crash-isolated, "
                            "GIL-free); 0 serves from threads (default)")
    serve.add_argument("--max-models", type=_positive_int, default=4,
                       help="registry-loaded models resident at once "
                            "before LRU eviction")
    serve.add_argument("--rate-rps", type=float, default=None,
                       help="per-tenant token-bucket rate limit in "
                            "requests/s (default: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       help="token-bucket burst capacity; needs "
                            "--rate-rps (default: max(1, rate))")
    serve.add_argument("--breaker-failures", type=_nonnegative_int, default=5,
                       help="failures within --breaker-window-s that open "
                            "a model's circuit breaker; 0 disables it")
    serve.add_argument("--breaker-window-s", type=float, default=30.0,
                       help="sliding window the breaker counts failures "
                            "over")
    serve.add_argument("--breaker-reset-s", type=float, default=5.0,
                       help="how long an open breaker sheds load before "
                            "probing")
    serve.add_argument("--retries", type=_nonnegative_int, default=2,
                       help="transparent retries for transient shard "
                            "crashes")
    serve.add_argument("--retry-backoff-s", type=float, default=0.05,
                       help="initial jittered backoff between shard "
                            "retries")
    serve.add_argument("--max-batch", type=_positive_int, default=32,
                       help="largest micro-batch coalesced into one "
                            "vectorized engine call")
    serve.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="how long a forming micro-batch waits for "
                            "stragglers (0 disables coalescing waits)")
    serve.add_argument("--max-queue", type=_positive_int, default=1024,
                       help="pending-request bound before 503 backpressure")
    serve.add_argument("--drift-window", type=_positive_int, default=256,
                       help="rolling window (requests) of the online "
                            "spike-count drift detector")
    serve.add_argument("--drift-threshold", type=float, default=3.0,
                       help="drift alarm threshold in reference standard "
                            "deviations")
    serve.add_argument("--verbose", "-v", action="store_true",
                       help="log every HTTP request to stderr")
    _add_ledger_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument("action", choices=("info", "list", "clear"),
                       help="what to do with the cache")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro/results)")
    cache.set_defaults(handler=_cmd_cache)

    ledger = subparsers.add_parser(
        "ledger", help="query the persistent execution ledger"
    )
    ledger.add_argument("action", choices=("list", "show", "tail", "compact"),
                        help="list every entry, show entries matching a "
                             "job-key prefix as JSON, tail the newest, or "
                             "compact the ledger (squash repeated "
                             "cached/resumed entries and merge rotated "
                             "segments)")
    ledger.add_argument("key", nargs="?", default=None, metavar="KEY_PREFIX",
                        help="job-key prefix (required for 'show')")
    ledger.add_argument("--ledger-dir", default=None,
                        help="ledger directory (default: $REPRO_LEDGER_DIR "
                             "or ~/.cache/repro/ledger)")
    ledger.add_argument("--kind",
                        choices=("all", "job", "serving", "serving_shard",
                                 "span"),
                        default="all", help="restrict to one entry kind")
    ledger.add_argument("-n", "--limit", type=_positive_int, default=10,
                        help="entries shown by 'tail' (default: 10)")
    ledger.set_defaults(handler=_cmd_ledger)

    trace = subparsers.add_parser(
        "trace",
        help="reconstruct distributed traces from the execution ledger",
    )
    trace.add_argument("action", choices=("show", "slowest"),
                       help="show one trace as a span tree, or rank the "
                            "slowest traces by total span time")
    trace.add_argument("trace_id", nargs="?", default=None, metavar="TRACE_ID",
                       help="trace id (required for 'show'; returned in the "
                            "X-Repro-Trace-Id response header and the "
                            "predict response body)")
    trace.add_argument("--ledger-dir", default=None,
                       help="ledger directory (default: $REPRO_LEDGER_DIR "
                            "or ~/.cache/repro/ledger)")
    trace.add_argument("-n", "--limit", type=_positive_int, default=10,
                       help="traces ranked by 'slowest' (default: 10)")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # REPRO_LOG_JSON=1 streams structured JSON events on stderr; a no-op
    # otherwise, so report text on stdout is unaffected either way.
    configure_from_env()
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Runner-backed commands persist their manifest after every job, so
        # an interrupted run is resumable — say so instead of tracebacking.
        print("\ninterrupted (completed jobs are recorded; re-run to resume)",
              file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `repro cache list | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
