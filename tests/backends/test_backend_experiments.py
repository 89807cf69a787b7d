"""Every registered experiment renders the same report on the GEMV oracle.

The acceptance bar for the reference kernel set: running any registered
experiment driver at the tiny (CI) scale must render a report
byte-identical to the one the dense GEMV oracle renders — same predictions,
labels, accuracies, and operation tallies.  The report text is the
experiment's complete observable output, so string equality is the
strongest cheap check.  Drivers build their models by backend *name*, so
the oracle run swaps the registry's shared ``sparse`` instance for an
oracle that answers to that name.
"""

from __future__ import annotations

import pytest
from gemv_oracle import GemvOracle

from repro import backends as backends_module
from repro.backends import SparseEventBackend
from repro.experiments.common import ExperimentScale
from repro.experiments.registry import EXPERIMENTS

#: Drivers whose tiny-scale runs stay fast enough for the unit-test budget;
#: the full registry sweep is the same assertion at every entry.
pytestmark = pytest.mark.integration


class _OracleAsSparse(GemvOracle):
    """The oracle's kernels behind the registered backend's declarations."""

    name = SparseEventBackend.name
    supports_events = SparseEventBackend.supports_events


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_report_is_byte_identical_on_the_oracle(name, monkeypatch):
    spec = EXPERIMENTS[name]
    sparse_report = spec.report(ExperimentScale.tiny(seed=0))
    monkeypatch.setitem(backends_module._INSTANCES, "sparse", _OracleAsSparse())
    oracle_report = spec.report(ExperimentScale.tiny(seed=0))
    assert sparse_report == oracle_report, (
        f"experiment {name!r} renders different reports on the sparse "
        "backend and the GEMV oracle"
    )
