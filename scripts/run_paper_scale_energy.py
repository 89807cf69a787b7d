"""Paper-network-size follow-up pass for the energy/memory experiments.

``repro run-all`` keeps its default energy experiments at N100/N200
so the whole sweep stays fast.  This script re-runs the experiments whose
cost does not depend on training a full protocol — Fig. 4(b,c), Fig. 5,
Fig. 11, Table II, and the Alg. 1 search — at the paper's own network sizes
(N200 / N400, 28x28 inputs), plus two slower accuracy panels at a larger
scale than the default sweep:

* Fig. 4(d): accuracy-profile parity of the two architectures under the same
  plain-STDP rule;
* Fig. 9 (dynamic, N100): the three-way accuracy comparison with 28x28 inputs
  and more samples per task.

Run with::

    python scripts/run_paper_scale_energy.py [--out results] [--skip-accuracy]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments import (
    run_analytical_validation,
    run_architecture_reduction,
    run_dynamic_accuracy_comparison,
    run_energy_comparison,
    run_model_search_study,
    run_processing_time_study,
)
from repro.experiments.common import ExperimentScale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results",
                        help="output directory for the text reports")
    parser.add_argument("--skip-accuracy", action="store_true",
                        help="only run the (fast) energy/memory experiments")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    energy_scale = ExperimentScale.tiny(
        image_size=28, network_sizes=(200, 400), t_sim=100.0
    )
    parity_scale = ExperimentScale.small(
        network_sizes=(40,), class_sequence=tuple(range(10)),
        samples_per_task=10, eval_samples_per_class=4, t_sim=60.0,
    )
    accuracy_scale = ExperimentScale.tiny(
        image_size=28, network_sizes=(100,), class_sequence=tuple(range(10)),
        samples_per_task=20, eval_samples_per_class=4, t_sim=100.0,
    )

    jobs = [
        ("fig04_arch_reduction_n200_n400",
         lambda: run_architecture_reduction(
             energy_scale, include_accuracy_profile=False).to_text()),
        ("fig05_analytical_models_n200_n400",
         lambda: run_analytical_validation(
             energy_scale, actual_run_samples=2).to_text()),
        ("fig11_energy_n200_n400",
         lambda: run_energy_comparison(energy_scale).to_text()),
        ("table2_processing_time_n200_n400",
         lambda: run_processing_time_study(energy_scale).to_text()),
        ("alg1_model_search_n200_n400",
         lambda: run_model_search_study(energy_scale, n_add=100).to_text()),
    ]
    if not args.skip_accuracy:
        jobs.append(
            ("fig04d_accuracy_parity",
             lambda: run_architecture_reduction(
                 parity_scale, include_accuracy_profile=True).to_text()))
        jobs.append(
            ("fig09_dynamic_accuracy_n100_28px",
             lambda: run_dynamic_accuracy_comparison(accuracy_scale).to_text()))

    for name, job in jobs:
        started = time.time()
        print(f"[run_paper_scale_energy] running {name} ...", flush=True)
        text = job()
        elapsed = time.time() - started
        path = out_dir / f"{name}.txt"
        path.write_text(text + f"\n\n(generated in {elapsed:.1f} s)\n",
                        encoding="utf-8")
        print(f"[run_paper_scale_energy] wrote {path} ({elapsed:.1f} s)", flush=True)

    print("[run_paper_scale_energy] done")


if __name__ == "__main__":
    main()
