"""Benchmark entry point: one workload run, supervised, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload continual_train --seed 1 --seconds 15 --trace 0

The command is a supervisor.  It runs the workload in a child process that
leads its own process group, under a hard deadline, then scans ``/proc`` for
anything the run left behind.  A timeout, a crash, a set-up error or a
surviving process fails the run and everything left over is killed and
reaped, so a run never hangs and never leaks.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a run that
produced no result prints no such line and exits non-zero.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer timers on every other unit and reports the per-layer
metrics, the layer table and the tracing overhead.  ``--size tiny`` shrinks
every workload to seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned to one thread before anything can load numpy;
# the workload process and its shard processes inherit the setting.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ARTIFACT_WORKLOADS,
    BUILD_DIR,
    SIZES,
    WORKLOADS,
    artifact_dir,
    cpu_ticks,
)

#: Deadline of a run whose shared artifact is cached, and of one that has to
#: train it first.
DEADLINE_S = 170.0
FIRST_RUN_DEADLINE_S = 870.0

#: How long processes of a finished run get to exit on their own.
GRACE_S = 5.0

PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="paper")
    parser.add_argument("--child", metavar="RESULT_FILE", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the supervisor -----------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be found and reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def group_members(group: int) -> list:
    """PIDs in process group or session ``group`` (the run's leader pid)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode(errors="replace")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and group in (int(fields[2]), int(fields[3])):
            members.append(int(entry))
    return members


def reap() -> None:
    """Collect every exited child (adopted orphans included)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def clear_group(group: int) -> list:
    """Wait for the run's processes to exit; kill and reap any survivor.

    Returns the PIDs that were still alive after the grace period.
    """
    deadline = time.monotonic() + GRACE_S
    while True:
        reap()
        survivors = group_members(group)
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + GRACE_S
    while group_members(group) and time.monotonic() < deadline:
        reap()
        time.sleep(0.05)
    reap()
    return survivors


def supervise(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {root / 'src' / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    size = SIZES[args.size]
    deadline = DEADLINE_S
    if args.workload in ARTIFACT_WORKLOADS and not artifact_dir(root, size).exists():
        deadline = FIRST_RUN_DEADLINE_S
    scratch = root / BUILD_DIR
    scratch.mkdir(parents=True, exist_ok=True)
    result_file = scratch / f"result-{os.getpid()}.json"
    result_file.unlink(missing_ok=True)

    become_subreaper()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "run.py"), "--child", str(result_file),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    # The workload process writes only to stderr: nothing it or its
    # descendants print can land after the result line.
    child = subprocess.Popen(command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                             stdout=2, start_new_session=True)
    problem = None
    try:
        code = child.wait(timeout=deadline)
        if code != 0:
            problem = f"workload process exited with code {code}"
    except subprocess.TimeoutExpired:
        problem = f"workload exceeded its {deadline:.0f} s deadline"
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        clear_group(child.pid)
        raise
    survivors = clear_group(child.pid)

    if problem is None and not result_file.exists():
        problem = "workload process wrote no result"
    if problem is not None:
        result_file.unlink(missing_ok=True)
        print(f"perfbench: run failed: {problem}", file=sys.stderr)
        return 1
    report = json.loads(result_file.read_text())
    result_file.unlink()
    for line in report["lines"]:
        print(line)
    result = report["result"]
    if survivors:
        print(f"perfbench: run failed: processes {survivors} outlived it and were killed",
              file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- the workload process -----------------------------------------------------


def run_child(args: argparse.Namespace) -> int:
    import report
    import workloads

    root = Path.cwd()
    ticks = cpu_ticks()
    outcome = getattr(workloads, args.workload)(
        root, SIZES[args.size], args.seed, args.seconds, bool(args.trace))
    lines, result = report.summarize(args, outcome, ticks)
    Path(args.child).write_text(json.dumps({"lines": lines, "result": result}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
