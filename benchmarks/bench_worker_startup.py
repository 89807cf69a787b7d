"""Worker start-up: a warm shard start must cost a fork, not an interpreter.

Both process pools start their workers from one forkserver that imports the
worker entry modules once (:mod:`repro.utils.processes`).  The first pool
start in a process pays for launching that server; every later start forks
from it and only loads the artifact.  If the preload silently stops working
(the server skips a module it cannot import without a word), every shard
imports the package itself again and a warm start costs about as much as
the cold one.

Multiprocessing also re-runs the parent's main script in every child.  The
``repro`` console script imports :mod:`repro.cli` at top level, so unless
the server has preloaded the CLI too, every shard and job started from the
CLI imports it again.  The ratio to the cold start cannot see that cost (the
cold start pays it as well), so the benchmark also compares warm starts
under a main script that imports the CLI with warm starts under a bare one.

Method
------
A fresh interpreter (so the first start really is the first in its process)
saves a small artifact, then times :data:`STARTS` start/stop cycles of a
2-shard :class:`~repro.serving.shards.ShardProcessPool`.  Only ``start()``
is timed: it returns once every shard has rebuilt the model and reported
ready.  The first cycle is the cold start; the gates read the median of the
others, so one preempted start moves it no more than any other.  Both
main scripts are written from :data:`MAIN_SCRIPT` to a temporary directory
and differ only in the CLI import, shaped like the console script's.  Each
runs :data:`ROUNDS` times, alternating with the other, and each side pools
its warm starts.

Gates
-----
* Median warm start <= :data:`MAX_WARM_RATIO` x the cold start, under the
  bare main.  A 2-vCPU host read 0.04-0.07x; starting every shard as a
  fresh interpreter reads about 0.9x.
* Median warm start under the CLI main <= :data:`MAX_CLI_RATIO` x the bare
  main's.  A 2-vCPU host read 0.98-1.01x; without :mod:`repro.cli` in the
  preload it reads 1.73-1.89x.  With 2 rounds of 6 starts, one run in five
  read 1.32x on an unchanged tree, hence the longer schedule.

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

import pytest

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving.shards import ShardProcessPool

#: Pool starts timed in each fresh interpreter: one cold, then the warm ones.
STARTS = 11

#: Fresh interpreters run per main script, alternating bare and CLI.
ROUNDS = 4

#: Largest accepted median warm start, as a fraction of the cold start.
MAX_WARM_RATIO = 0.35

#: Largest accepted median warm start under the CLI main, as a multiple of
#: the bare main's.
MAX_CLI_RATIO = 1.25

#: The main script a fresh interpreter runs.  Every child re-runs its top
#: level, which holds the imports and nothing else; ``{cli_import}`` is
#: either empty or the ``repro`` console script's import of the CLI.
MAIN_SCRIPT = """\
import json
import sys
{cli_import}
if __name__ == "__main__":
    sys.path.insert(0, {benchmarks!r})
    from bench_worker_startup import measure

    print(json.dumps(measure()))
"""

#: The import a ``repro`` console script runs at top level.
CLI_IMPORT = "from repro.cli import main\n"


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
    return {"cold_s": starts[0], "warm_s": starts[1:]}


def _run(script: Path) -> dict:
    completed = subprocess.run([sys.executable, str(script)], capture_output=True,
                               text=True, timeout=300, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def starts(tmp_path_factory) -> dict:
    """Every round's start times, per main script."""
    benchmarks = str(Path(__file__).resolve().parent)
    scripts = {}
    for name, cli_import in (("bare", ""), ("cli", CLI_IMPORT)):
        scripts[name] = tmp_path_factory.mktemp(name) / "main.py"
        scripts[name].write_text(MAIN_SCRIPT.format(cli_import=cli_import,
                                                    benchmarks=benchmarks))
    rounds = {"bare": [], "cli": []}
    for _ in range(ROUNDS):
        for name, script in scripts.items():
            rounds[name].append(_run(script))
    return rounds


def _warm(rounds: list) -> list:
    return [seconds for result in rounds for seconds in result["warm_s"]]


def _format(seconds: list) -> str:
    return ", ".join(f"{value:.3f}" for value in seconds)


def test_warm_shard_start_is_a_fraction_of_the_cold_one(starts):
    ratios = [statistics.median(result["warm_s"]) / result["cold_s"]
              for result in starts["bare"]]
    for result, ratio in zip(starts["bare"], ratios):
        print(f"\n2-shard pool start: cold {result['cold_s']:.3f} s, warm "
              f"{_format(result['warm_s'])} s; median warm / cold = {ratio:.2f} "
              f"(gate <= {MAX_WARM_RATIO})")
    assert statistics.median(ratios) <= MAX_WARM_RATIO


def test_a_cli_main_script_starts_shards_as_fast_as_a_bare_one(starts):
    bare, cli = statistics.median(_warm(starts["bare"])), statistics.median(_warm(starts["cli"]))
    print(f"\nwarm 2-shard pool start: bare main {_format(_warm(starts['bare']))} s, "
          f"CLI main {_format(_warm(starts['cli']))} s; median CLI / bare = "
          f"{cli / bare:.2f} (gate <= {MAX_CLI_RATIO})")
    assert cli / bare <= MAX_CLI_RATIO
