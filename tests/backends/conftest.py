"""Shared fixtures for the backend-conformance suite.

The conformance tests are parametrized over every name the kernel set may
be reached by — ``"sparse"`` and each retired name in
:data:`repro.backends.BACKEND_ALIASES`, all resolving to the one shared
instance — plus the dense GEMV oracle (:mod:`gemv_oracle`).  A
configuration or artifact that still names a retired backend is thereby
held to the same contract as one naming ``sparse``, and the oracle checks
the suite's own expectations.  Cases run a model on the instance with
``model.network.set_backend(backend)``.

The float-state bounds live here, not in the package: the oracle is held
to itself bit for bit (:data:`ORACLE_BOUNDS`), the sparse kernels to
summation-order rounding (:data:`SPARSE_BOUNDS`).  Integer results (spike
counts, predictions, operation tallies) are never toleranced.
"""

from __future__ import annotations

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.backends import BACKEND_ALIASES, DEFAULT_BACKEND, get_backend

#: ``(rtol, atol)`` of the oracle's float state against itself: bit-exact.
ORACLE_BOUNDS = (0.0, 0.0)

#: ``(rtol, atol)`` of the sparse kernels' float state against the oracle.
SPARSE_BOUNDS = (1e-9, 1e-12)

#: The instance behind every accepted name, plus the oracle, by name.
CONFORMANCE_BACKENDS = {
    name: get_backend(name) for name in [DEFAULT_BACKEND, *BACKEND_ALIASES]
}
CONFORMANCE_BACKENDS[GemvOracle.name] = GemvOracle()


@pytest.fixture(params=list(CONFORMANCE_BACKENDS))
def backend_name(request) -> str:
    """Every accepted backend name and the oracle's, one case each."""
    return request.param


@pytest.fixture
def backend(backend_name: str):
    """The instance behind ``backend_name``."""
    return CONFORMANCE_BACKENDS[backend_name]


def state_bounds(backend) -> tuple:
    """The ``(rtol, atol)`` that ``backend``'s float state is held to.

    The oracle is held to bit-for-bit equality (:data:`ORACLE_BOUNDS`), the
    sparse kernels to :data:`SPARSE_BOUNDS`.
    """
    return ORACLE_BOUNDS if isinstance(backend, GemvOracle) else SPARSE_BOUNDS


def assert_state_close(backend, actual, desired, err_msg: str = "") -> None:
    """Assert float state agreement within :func:`state_bounds`."""
    rtol, atol = state_bounds(backend)
    if rtol == 0.0 and atol == 0.0:
        np.testing.assert_array_equal(actual, desired, err_msg=err_msg)
    else:
        np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol,
                                   err_msg=err_msg)


@pytest.fixture(name="assert_state_close")
def assert_state_close_fixture():
    """Function-fixture alias so test modules need no conftest import."""
    return assert_state_close


@pytest.fixture(name="state_bounds")
def state_bounds_fixture():
    """Function-fixture alias of :func:`state_bounds`."""
    return state_bounds
