"""Turn a workload :class:`~workloads.Outcome` into printed lines and the result."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from typing import Dict, List, Tuple

import numpy as np

from common import END_TO_END, PER_LAYER, cpu_ticks, steal_share

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def tail_latency(latencies_ms: List[float], per_unit: int = 1) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it (the maximum when there are too
    few samples for one).

    Every one of the ``per_unit`` samples of a unit (a batch) waits for the
    whole unit, so each unit latency counts ``per_unit`` times.
    """
    ordered = sorted(latencies_ms * per_unit)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine() -> Dict[str, object]:
    """Machine, Python, numpy and BLAS the run measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def end_to_end(outcome) -> Dict[str, float]:
    latencies = outcome.latencies_ms
    tail, _ = tail_latency(latencies, outcome.samples_per_unit)
    return {
        "throughput_per_s": outcome.samples / outcome.timed_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "ok_frac": (outcome.attempted - failed(outcome)) / outcome.attempted,
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "energy_j_per_sample": outcome.energy_j_per_sample,
        "accuracy": outcome.accuracy,
        "acc_recent": outcome.acc_recent,
    }


def failed(outcome) -> int:
    """Failed units; a failed whole-run check fails every unit."""
    return outcome.failed if outcome.correct else outcome.attempted


def summarize(args, outcome, ticks_before: Tuple[int, int]) -> Tuple[List[str], dict]:
    lines = [
        f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"size={args.size} trace={args.trace}",
        "# machine: " + " ".join(f"{key}={value}" for key, value in machine().items()),
        "# checks: " + " ".join(f"{name}={'ok' if ok else 'FAILED'}"
                                for name, ok in outcome.checks.items()),
    ]
    lines.append(f"# steal: {100.0 * steal_share(ticks_before, cpu_ticks()):.1f} % of all CPU "
                 "time during the run went to other virtual machines")
    lines += [f"# note: {note}" for note in outcome.notes]
    if args.trace:
        values = {name: float(outcome.layer_metrics.get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
        lines += layer_table(outcome, values)
    else:
        values = end_to_end(outcome)
        units = END_TO_END
        _, percentile = tail_latency(outcome.latencies_ms, outcome.samples_per_unit)
        for name, value in values.items():
            suffix = ""
            if name == "latency_tail_ms":
                suffix = (f"  (p{percentile:.1f} of {outcome.samples} samples in "
                          f"{outcome.attempted} units, {TAIL_BEYOND} beyond)")
            lines.append(f"{name:<22} {value:>14.6g} {units[name]}{suffix}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": failed(outcome),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return lines, result


def layer_table(outcome, values: Dict[str, float]) -> List[str]:
    """Self-time rows of the traced units; they sum to the end-to-end time."""
    lines = [f"# layer self time, {outcome.row_unit} (traced units)"]
    total = outcome.unit_ms
    for name, ms in outcome.layer_rows:
        share = 100.0 * ms / total if total else 0.0
        lines.append(f"  {name:<34} {ms:>12.4f}  {share:6.2f} %")
    lines.append(f"  {'end-to-end (mean traced unit)':<34} {total:>12.4f}  100.00 %")
    lines.append(f"# tracing overhead: {values['perfbench.tracing_overhead_pct']:.2f} % "
                 "(traced vs untraced units of this run)")
    lines += [f"{name:<48} {value:>14.6g} {PER_LAYER[name]}" for name, value in values.items()]
    return lines
