#!/usr/bin/env python
"""Benchmark history: one perfbench snapshot per release, BENCH_v<version>.json.

For every workload of ``BENCHMARK.json`` the writer runs the benchmark's
``command`` twice with a fixed seed and the file's ``run_seconds``: at
``--trace 0`` for the end-to-end metrics and at ``--trace 1`` for the
per-layer ones.  It keeps the last JSON line of each run and writes every
``end_to_end`` and ``per_layer`` metric that ``BENCHMARK.json`` names to
``BENCH_v<version>.json`` at the repository root.  perfbench already reports
times at a nominal host speed, so values are written as measured.

Usage::

    python scripts/bench_history.py            # run every workload, write the snapshot
    python scripts/bench_history.py --check    # validate the committed snapshot
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Seed of every run, so two snapshots measure the same inputs.
SEED = 1

#: perfbench ``--trace`` value -> the ``BENCHMARK.json`` section it reports.
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def snapshot_path(version: str, root: Path = REPO_ROOT) -> Path:
    return root / f"BENCH_v{version}.json"


def result_line(stdout: str) -> dict:
    """The last JSON line of a perfbench run's standard output."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("the run printed no JSON result line")


def measure(spec: dict, root: Path = REPO_ROOT) -> Dict[str, Dict[int, dict]]:
    """Result line of every workload at every trace setting."""
    results: Dict[str, Dict[int, dict]] = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in SECTIONS:
            command = [*spec["command"], "--workload", name, "--trace", str(trace)]
            command += ["--seed", str(SEED), "--seconds", str(spec["run_seconds"])]
            print(f"running {name} --trace {trace} ...", file=sys.stderr, flush=True)
            run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                raise RuntimeError(f"{name} --trace {trace} failed with code {run.returncode}")
            results.setdefault(name, {})[trace] = result_line(run.stdout)
    return results


def build_snapshot(spec: dict, version: str, results: Dict[str, Dict[int, dict]]) -> dict:
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        workloads[name] = {
            metric["name"]: results[name][trace]["metrics"][metric["name"]]["value"]
            for trace, section in SECTIONS.items()
            for metric in spec[section]
        }
    return {
        "version": version,
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }


def is_number(value) -> bool:
    """A JSON number: ``true``/``false`` load as ints in Python but are not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(path: Path, version: str, spec: dict) -> List[str]:
    """Problems of the snapshot at ``path`` (an empty list means it is valid)."""
    if not path.exists():
        return [f"no snapshot at {path}; write it with scripts/bench_history.py"]
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    found = snapshot.get("version")
    if found != version:
        return [f"{path.name} records version {found!r}, the package is {version!r}"]
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        metrics = snapshot.get("workloads", {}).get(name)
        if metrics is None:
            problems.append(f"workload {name} is missing")
            continue
        for metric in spec["end_to_end"] + spec["per_layer"]:
            value = metrics.get(metric["name"])
            if value is None:
                problems.append(f"{name}: metric {metric['name']} is missing")
            elif not is_number(value) or not math.isfinite(value):
                problems.append(f"{name}: metric {metric['name']} is not finite ({value!r})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the committed snapshot of this version instead of writing one",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    path = snapshot_path(repro.__version__)
    if args.check:
        problems = check(path, repro.__version__, spec)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if not problems:
            print(f"{path.name}: every metric of BENCHMARK.json, finite, for all workloads")
        return 1 if problems else 0
    snapshot = build_snapshot(spec, repro.__version__, measure(spec))
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"snapshot written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
