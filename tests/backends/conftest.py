"""Shared fixtures for the backend-conformance suite.

The conformance tests are parametrized over every name a backend may be
selected by — each registered backend that reports itself available in
this environment, then each retired name in
:data:`repro.backends.BACKEND_ALIASES` that resolves to one — plus the
unregistered dense GEMV oracle (:mod:`gemv_oracle`).  A new backend
registered through ``repro.backends`` is picked up automatically, a
configuration or artifact that still names a retired backend is held to
the same contract as one naming its target, and the oracle checks the
suite's own expectations.  Parametrized cases get the instance the name
resolves to through :func:`repro.backends.get_backend` and run a model on
it with ``model.network.set_backend(backend)``, which works for the
unregistered oracle too.

Tolerances come from the backend classes themselves: each backend declares
an equivalence tier (``exact`` or ``tolerance``) plus ``state_rtol`` /
``state_atol`` bounds for its float state, and :func:`assert_state_close`
applies exactly those bounds — bit-for-bit when a backend claims zero
tolerance (the oracle), ``allclose`` otherwise.  Integer results (spike
counts, predictions, operation tallies) are never toleranced; every tier
must reproduce them exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.backends import (
    BACKEND_ALIASES,
    available_backends,
    backend_choices,
    get_backend,
)

#: The shared instance behind every selectable name plus the oracle, by
#: name.  Computed at collection time so the parametrized tests enumerate
#: what ``repro backends list`` reports as available, the aliases that
#: resolve to it, and the oracle.
CONFORMANCE_BACKENDS = {
    name: get_backend(name)
    for name in backend_choices()
    if BACKEND_ALIASES.get(name, name) in available_backends()
}
CONFORMANCE_BACKENDS[GemvOracle.name] = GemvOracle()


@pytest.fixture(params=list(CONFORMANCE_BACKENDS))
def backend_name(request) -> str:
    """Every selectable backend name and the oracle's, one case each."""
    return request.param


@pytest.fixture
def backend(backend_name: str):
    """The instance behind ``backend_name``."""
    return CONFORMANCE_BACKENDS[backend_name]


def assert_state_close(backend, actual, desired, err_msg: str = "") -> None:
    """Assert float state agreement at ``backend``'s declared tolerance.

    A backend declaring zero tolerance (``state_rtol == state_atol == 0.0``,
    i.e. the oracle) is held to bit-for-bit equality; every other backend is
    held to its own ``state_rtol`` / ``state_atol`` bounds.
    """
    rtol = type(backend).state_rtol
    atol = type(backend).state_atol
    if rtol == 0.0 and atol == 0.0:
        np.testing.assert_array_equal(actual, desired, err_msg=err_msg)
    else:
        np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol,
                                   err_msg=err_msg)


@pytest.fixture(name="assert_state_close")
def assert_state_close_fixture():
    """Function-fixture alias so test modules need no conftest import."""
    return assert_state_close
