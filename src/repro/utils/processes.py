"""The one process context both worker pools start their children from.

:class:`~repro.serving.shards.ShardProcessPool` and
:class:`~repro.runner.scheduler.ParallelRunner` start every worker from
:data:`WORKER_CONTEXT`, a ``forkserver`` context.  The first start in a
process launches one server interpreter that imports :data:`PRELOAD` (the
two worker entry modules, and with them numpy, the engine, the serving stack
and the experiment registry, plus :mod:`repro.cli`); every later shard,
respawn, registry load and runner job is a ``fork`` of that server.  A worker
therefore pays a fork and its own work, not an interpreter start-up and some
0.4 s of imports.

:mod:`repro.cli` is preloaded although no worker runs it: multiprocessing
re-runs the parent's main script (as ``__mp_main__``) in every child before
the target starts.  The ``repro`` console script runs
``from repro.cli import main`` at top level, so without the preload every
shard and job started from the CLI imports the CLI again (about 23 ms each).

What a worker inherits:

* they fork from the server, not from the parent, so they inherit none of
  the parent's threads, locks, open ledgers or model state; its working
  directory and ``sys.path`` are the parent's at the start;
* **environment snapshot** — a forked child inherits the *server's*
  environment, fixed when the server started.  Each start therefore hands
  the child ``dict(os.environ)`` of the parent at that moment, and the
  worker entry points apply it with :func:`adopt_environment` before they
  read any setting;
* **BLAS threads** are the exception: numpy's BLAS reads its thread-count
  variables (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ...) once, when
  the server imports it.  Set them before the first worker starts;
* every child starts from the server's state of numpy's legacy global
  ``RandomState`` (nothing in ``repro`` draws from it); span-id prefixes
  are re-drawn per child by :mod:`repro.observability.tracing`.

The preload needs ``repro`` importable from a fresh interpreter (installed,
or on ``PYTHONPATH``): the server imports :data:`PRELOAD` by name and skips,
without a word, a module it cannot import.  The workers still run correctly
then, but each one imports what it needs itself and starts as slowly as a
fresh interpreter; ``benchmarks/bench_worker_startup.py`` catches that.

The server exits once its parent and every worker it forked have exited.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Mapping

#: The modules the server imports once, before its first fork: the worker
#: entry modules, and the CLI that a child's re-run of the console script
#: imports.
PRELOAD = ("repro.serving.shards", "repro.runner.worker", "repro.cli")

#: The start context of every shard and runner worker.
WORKER_CONTEXT = multiprocessing.get_context("forkserver")
WORKER_CONTEXT.set_forkserver_preload(list(PRELOAD))


def adopt_environment(environment: Mapping[str, str]) -> None:
    """Make this process's environment exactly ``environment``.

    Worker entry points call it first thing, so a worker sees the variables
    its parent had when it started the worker, not those the server had.
    """
    os.environ.clear()
    os.environ.update(environment)
