"""Per-layer timers installed from outside the program, and the layer table.

Nothing here edits the program.  Each timer hooks a public seam:

* :class:`TimedBackend` wraps a :class:`repro.backends.Backend` instance and
  is installed with ``model.set_backend(instance)``;
* :func:`timed_spikedyn_rule` builds a SpikeDyn learning rule whose hooks are
  timed, passed in through ``SpikeDynModel(config, learning_rule=...)``;
* :func:`time_encoder` swaps ``model.encoder`` for a timed copy of itself;
* :func:`time_network` shadows the network's ``run_*`` entry points on the
  instance.

All of them report into one :class:`LayerClock`, which keeps a stack of open
scopes and charges every scope its *self* time (its duration minus the time
of scopes opened inside it).  Self times therefore never overlap, and their
sum plus an explicit "unattributed" remainder equals the wall time measured
around them.  While the clock is switched off every hook is a straight pass
through, so untraced and traced units can alternate inside one run.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.backends import Backend
from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay

from common import KERNELS

#: Scopes are timed on the thread's CPU clock, like the units around them.
_now = time.thread_time_ns


class LayerClock:
    """Self-time and call-count accounting over nested named scopes."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        # Open scopes as [name, start_ns, child_ns].
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, _now(), 0])

    def exit(self) -> None:
        name, started, child = self._stack.pop()
        elapsed = _now() - started
        self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside scope ``name`` when the clock is on."""
        if not self.enabled:
            return function(*args, **kwargs)
        self.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.exit()

    def ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6


class TimedBackend(Backend):
    """A backend that times every kernel of the backend it wraps.

    It takes the wrapped backend's registry name and declarations, so the
    network, the model configuration and saved artifacts see the same
    backend as before.
    """

    def __init__(self, inner: Backend, clock: LayerClock) -> None:
        self.inner = inner
        self.clock = clock
        self.name = inner.name
        self.description = inner.description
        self.equivalence_tier = inner.equivalence_tier
        self.state_rtol = inner.state_rtol
        self.state_atol = inner.state_atol
        self.state_dtype = inner.state_dtype
        self.supports_events = inner.supports_events

    def lif_step(self, *args, **kwargs):
        return self.clock.call("backends.lif_step", self.inner.lif_step, *args, **kwargs)

    def theta_step(self, *args, **kwargs):
        return self.clock.call("backends.theta_step", self.inner.theta_step, *args, **kwargs)

    def decay_state(self, *args, **kwargs):
        return self.clock.call("backends.decay_state", self.inner.decay_state, *args, **kwargs)

    def propagate_spikes(self, *args, **kwargs):
        return self.clock.call(
            "backends.propagate_spikes", self.inner.propagate_spikes, *args, **kwargs
        )

    def propagate_lateral(self, *args, **kwargs):
        return self.clock.call(
            "backends.propagate_lateral", self.inner.propagate_lateral, *args, **kwargs
        )

    def bump_trace(self, *args, **kwargs):
        return self.clock.call("backends.bump_trace", self.inner.bump_trace, *args, **kwargs)

    def stdp_potentiation(self, *args, **kwargs):
        return self.clock.call(
            "backends.stdp_potentiation", self.inner.stdp_potentiation, *args, **kwargs
        )

    def stdp_depression(self, *args, **kwargs):
        return self.clock.call(
            "backends.stdp_depression", self.inner.stdp_depression, *args, **kwargs
        )


def time_backend(model, clock: LayerClock) -> None:
    """Install a :class:`TimedBackend` around the model's current backend."""
    model.set_backend(TimedBackend(model.network.backend, clock))


def timed_spikedyn_rule(config, clock: LayerClock) -> SpikeDynLearningRule:
    """The SpikeDyn rule ``SpikeDynModel(config)`` builds, with timed hooks."""

    class TimedSpikeDynRule(SpikeDynLearningRule):
        def step(self, *args, **kwargs):
            return clock.call("learning", super().step, *args, **kwargs)

        def on_sample_start(self, *args, **kwargs):
            return clock.call("learning", super().on_sample_start, *args, **kwargs)

        def on_sample_end(self, *args, **kwargs):
            return clock.call("learning", super().on_sample_end, *args, **kwargs)

    return TimedSpikeDynRule(
        nu_pre=config.nu_pre,
        nu_post=config.nu_post,
        spike_threshold=config.spike_threshold,
        update_interval=config.update_interval,
        weight_decay=SynapticWeightDecay(config.effective_w_decay, config.tau_decay),
        soft_bounds=config.soft_bounds,
        tau_pre=config.tau_pre,
        tau_post=config.tau_post,
    )


def time_encoder(model, clock: LayerClock) -> None:
    """Replace ``model.encoder`` by a timed copy of the same encoder.

    The copy is an instance of a subclass of the encoder's own class that
    shares its state, so type checks and the random stream are unchanged.
    """
    encoder = model.encoder
    base = type(encoder)
    methods = {}
    for method in ("encode", "encode_batch", "encode_events"):
        if hasattr(base, method):
            methods[method] = _timed_method(base, method, clock)
    timed = type(f"Timed{base.__name__}", (base,), methods)
    copy = timed.__new__(timed)
    copy.__dict__ = encoder.__dict__
    model.encoder = copy


def _timed_method(base, method: str, clock: LayerClock):
    original = getattr(base, method)

    def timed(self, *args, **kwargs):
        return clock.call("encoding", original, self, *args, **kwargs)

    timed.__name__ = method
    return timed


def time_network(model, clock: LayerClock) -> None:
    """Time the network's run entry points as the ``snn`` scope."""
    network = model.network
    for method in ("run_sample", "run_batch", "run_events"):
        original = getattr(network, method)
        setattr(network, method, _scoped(clock, original))


def _scoped(clock: LayerClock, function):
    def scoped(*args, **kwargs):
        return clock.call("snn", function, *args, **kwargs)

    return scoped


def instrument(model, clock: LayerClock) -> None:
    """Install every in-process timer on ``model`` (rule timers come in at
    construction, see :func:`timed_spikedyn_rule`)."""
    time_backend(model, clock)
    time_encoder(model, clock)
    time_network(model, clock)


# -- the engine layer table ---------------------------------------------------


def engine_rows(clock: LayerClock, wall_ms: float) -> List[tuple]:
    """Self-time rows ``(layer, ms)`` of the timed units, plus unattributed.

    The rows sum to ``wall_ms`` exactly: whatever the scopes did not cover
    (the benchmark loop, read-out outside the engine) is unattributed.
    """
    rows = [("encoding", clock.ms("encoding")),
            ("snn (orchestration)", clock.ms("snn")),
            ("learning", clock.ms("learning"))]
    rows += [(f"backends.{kernel}", clock.ms(f"backends.{kernel}")) for kernel in KERNELS]
    rows.append(("unattributed", wall_ms - sum(ms for _, ms in rows)))
    return rows


def engine_metrics(clock: LayerClock, samples: int) -> Dict[str, float]:
    """Per-sample engine, kernel, learning and encoding figures."""
    kernels_ms = sum(clock.ms(f"backends.{kernel}") for kernel in KERNELS)
    engine_ms = clock.ms("snn") + clock.ms("learning") + kernels_ms
    metrics = {
        "snn.engine_ms_per_sample": engine_ms / samples,
        "snn.orchestration_pct": 100.0 * clock.ms("snn") / engine_ms if engine_ms else 0.0,
        "learning.ms_per_sample": clock.ms("learning") / samples,
        "encoding.ms_per_sample": clock.ms("encoding") / samples,
    }
    for kernel in KERNELS:
        name = f"backends.{kernel}"
        metrics[f"{name}.ms_per_sample"] = clock.ms(name) / samples
        metrics[f"{name}.calls_per_sample"] = clock.calls.get(name, 0) / samples
    return metrics


# -- the serving request table ------------------------------------------------


def request_self_times(client_ms: float, spans: Dict[str, float]) -> Dict[str, float]:
    """Split one request's client latency into the self times of its spans.

    ``spans`` maps span name to duration (ms) for one trace.  The span tree
    is ``http_request > queue_wait, serve_batch > encode, kernel`` on the
    thread executor and ``http_request > queue_wait, shard_rpc > shard_batch
    > encode, kernel`` on the shard executor; each row is a span minus its
    children, so the rows add up to the client latency.
    """
    http = spans["http_request"]
    queue_wait = spans.get("queue_wait", 0.0)
    encode = spans.get("encode", 0.0)
    kernel = spans.get("kernel", 0.0)
    rows = {"client_gap": client_ms - http, "batcher.queue_wait": queue_wait}
    if "shard_rpc" in spans:
        outer = spans["shard_rpc"]
        batch = spans.get("shard_batch", 0.0)
        rows["shards.rpc_self"] = outer - batch
    else:
        outer = batch = spans.get("serve_batch", 0.0)
    rows["server.self"] = http - queue_wait - outer
    rows["inference.batch_self"] = batch - encode - kernel
    rows["inference.encode"] = encode
    rows["inference.kernel"] = kernel
    return rows
