"""The compute-kernel seam of the SNN simulation engine.

The engine's state-update kernels (LIF membrane update, conductance/trace
decay, synaptic propagation, STDP weight updates, threshold adaptation) live
behind the :class:`~repro.backends.base.Backend` interface.  One kernel set
ships, :class:`~repro.backends.sparse.SparseEventBackend` (``"sparse"``):
its synaptic work scales with spike events, and it declares
``supports_events``, so :meth:`repro.snn.network.Network.run_events`
advances silent gaps by closed-form exponential decay.  The conformance
suite in ``tests/backends/`` holds it against the dense vector-matrix
(GEMV) oracle in ``tests/gemv_oracle.py``.

>>> from repro.backends import get_backend
>>> get_backend("sparse")
SparseEventBackend(name='sparse')
>>> get_backend("dense") is get_backend()   # a retired name
True

Five earlier backends (``dense``, ``float32``, ``numba``, ``auto``,
``eventqueue``) were folded into it.  :data:`BACKEND_ALIASES` lists them,
so saved artifacts, job specs and callers that name one keep working; every
accepted name resolves to the one shared instance.

``Backend`` stays a substitution seam, not a selection knob: a caller swaps
the kernels of a built network by handing an *instance* to
``Network(backend=...)``, ``Network.set_backend`` or ``model.set_backend``
(the tests install the GEMV oracle, perfbench a timing wrapper).  Nothing
in the configuration, the runner or the CLI chooses among kernel sets.
"""

from __future__ import annotations

from typing import Dict, MutableMapping, Union

from repro.backends.base import Backend
from repro.backends.sparse import SparseEventBackend

#: Name of the one kernel set.
DEFAULT_BACKEND = "sparse"

#: Retired backend names, each resolving to :data:`DEFAULT_BACKEND`.
BACKEND_ALIASES: Dict[str, str] = {
    "dense": "sparse",
    "float32": "sparse",
    "numba": "sparse",
    "auto": "sparse",
    "eventqueue": "sparse",
}

#: The shared stateless instance every accepted name resolves to.
_SHARED = SparseEventBackend()

BackendLike = Union[None, str, Backend]


def normalize_backend_name(name: str) -> str:
    """Check a backend name from outside the program and resolve it.

    Returns ``"sparse"`` for ``"sparse"`` or any retired name in
    :data:`BACKEND_ALIASES`; raises ``ValueError`` naming the accepted
    names otherwise.
    """
    name = str(name)
    if BACKEND_ALIASES.get(name, name) != DEFAULT_BACKEND:
        known = ", ".join([DEFAULT_BACKEND, *BACKEND_ALIASES])
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    return DEFAULT_BACKEND


def drop_legacy_backend(fields: MutableMapping[str, object]) -> None:
    """Remove a legacy ``backend`` key from outside input, checking its name.

    Configurations and experiment scales used to record the backend they ran
    on; saved artifacts and job specs may still carry the key.  An accepted
    name is dropped, an unknown one raises ``ValueError``.
    """
    if "backend" in fields:
        normalize_backend_name(fields.pop("backend"))


def get_backend(backend: BackendLike = None) -> Backend:
    """Resolve ``backend`` to a :class:`Backend` instance.

    An instance is returned as is; ``None``, ``"sparse"`` or a retired name
    returns the one shared :class:`SparseEventBackend`.  Raises
    ``ValueError`` for unknown names.
    """
    if isinstance(backend, Backend):
        return backend
    if backend is not None:
        normalize_backend_name(backend)
    return _SHARED


__all__ = [
    "Backend",
    "SparseEventBackend",
    "BACKEND_ALIASES",
    "DEFAULT_BACKEND",
    "drop_legacy_backend",
    "get_backend",
    "normalize_backend_name",
]
