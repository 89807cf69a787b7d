"""Worker start-up: a warm shard start must cost a fork, not an interpreter.

Both process pools start their workers from one forkserver that imports the
worker entry modules once (:mod:`repro.utils.processes`).  The first pool
start in a process pays for launching that server; every later start forks
from it and only loads the artifact.  If the preload silently stops working
(the server skips a module it cannot import without a word), every shard
imports the package itself again and a warm start costs about as much as
the cold one.

Method
------
A fresh interpreter (so the first start really is the first in its process)
saves a small artifact, then times :data:`STARTS` start/stop cycles of a
2-shard :class:`~repro.serving.shards.ShardProcessPool`.  Only ``start()``
is timed: it returns once every shard has rebuilt the model and reported
ready.  The first cycle is the cold start; the gate reads the median of the
others, so one preempted start moves it no more than any other.

Gate
----
Median warm start <= :data:`MAX_WARM_RATIO` x the cold start.  A 2-vCPU
host read 0.17x; starting every shard as a fresh interpreter reads about
0.9x.

Run with ``python -m pytest -q benchmarks/bench_worker_startup.py -s``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving.shards import ShardProcessPool

#: Pool starts timed in the fresh interpreter: one cold, then the warm ones.
STARTS = 4

#: Largest accepted median warm start, as a fraction of the cold start.
MAX_WARM_RATIO = 0.35


def measure() -> dict:
    """Cold and warm 2-shard start times (seconds) in this process."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        config = SpikeDynConfig.scaled_down(n_input=196, n_exc=40, t_sim=50.0, seed=0)
        artifact_dir = SpikeDynModel(config).save(Path(tmp_dir) / "artifact")
        starts = []
        for _ in range(STARTS):
            pool = ShardProcessPool(artifact_dir, shards=2)
            started = time.perf_counter()
            pool.start()
            starts.append(time.perf_counter() - started)
            pool.stop()
    cold, warm = starts[0], statistics.median(starts[1:])
    return {"cold_s": cold, "warm_s": starts[1:], "ratio": warm / cold}


def test_warm_shard_start_is_a_fraction_of_the_cold_one():
    completed = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                               timeout=300, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    warm = ", ".join(f"{seconds:.3f}" for seconds in result["warm_s"])
    print(f"\n2-shard pool start: cold {result['cold_s']:.3f} s, warm {warm} s; "
          f"median warm / cold = {result['ratio']:.2f} (gate <= {MAX_WARM_RATIO})")
    assert result["ratio"] <= MAX_WARM_RATIO


if __name__ == "__main__":
    print(json.dumps(measure()))
