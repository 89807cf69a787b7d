"""Pluggable compute backends for the SNN simulation engine.

The engine's state-update kernels (LIF membrane update, conductance/trace
decay, synaptic propagation, STDP weight updates, threshold adaptation) live
behind the :class:`~repro.backends.base.Backend` interface, selected by name
through a small registry:

>>> from repro.backends import get_backend
>>> get_backend("sparse")       # event-driven gather/scatter kernels
SparseEventBackend(name='sparse')
>>> get_backend("dense")        # a retired name, resolved by alias
SparseEventBackend(name='sparse')

One backend is registered: ``sparse``, the reference kernel set.  Its
synaptic work scales with spike events, and it declares
``supports_events``, so :meth:`repro.snn.network.Network.run_events`
advances silent gaps by closed-form exponential decay.  The conformance
suite in ``tests/backends/`` holds it to the ``exact`` equivalence tier
against the dense vector-matrix (GEMV) oracle in ``tests/gemv_oracle.py``.

Five earlier backends (``dense``, ``float32``, ``numba``, ``auto``,
``eventqueue``) were folded into it.  :data:`BACKEND_ALIASES` maps each old
name to ``sparse``, and every lookup goes through it, so configurations,
saved artifacts, job specs and CLI invocations that name them keep working.

Backend selection threads through every layer of the system:
``Network(backend=...)``, ``SpikeDynConfig(backend=...)`` (and therefore
model artifacts, schema v3), ``ExperimentScale(backend=...)`` (and therefore
runner cache keys), ``repro serve --backend``, and ``repro backends list``.

Backends are stateless kernel bundles, so :func:`get_backend` hands out one
shared instance per name.  A future accelerator backend (GPU) registers
itself with :func:`register_backend` and reports
:meth:`~repro.backends.base.Backend.available` based on its optional
dependency, without the rest of the system changing.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from repro.backends.base import Backend
from repro.backends.sparse import SparseEventBackend

#: Backend used when nothing selects one explicitly.
DEFAULT_BACKEND = "sparse"

#: Retired backend names and the registered backend each resolves to.
BACKEND_ALIASES: Dict[str, str] = {
    "dense": "sparse",
    "float32": "sparse",
    "numba": "sparse",
    "auto": "sparse",
    "eventqueue": "sparse",
}

#: Registered backend classes by name, in registration order.
_REGISTRY: Dict[str, Type[Backend]] = {}

#: Shared stateless instances handed out by :func:`get_backend`.
_INSTANCES: Dict[str, Backend] = {}

BackendLike = Union[None, str, Backend]


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Register a :class:`Backend` subclass under its ``name`` (decorator).

    Raises ``ValueError`` on an empty, aliased or already-taken name so two
    backends can never silently shadow each other.
    """
    name = getattr(cls, "name", "")
    if not name or name == Backend.name:
        raise ValueError(f"backend class {cls.__name__} must set a name")
    if name in BACKEND_ALIASES:
        raise ValueError(
            f"{name!r} is an alias of the {BACKEND_ALIASES[name]!r} backend"
        )
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(
            f"a backend named {name!r} is already registered "
            f"({_REGISTRY[name].__name__})"
        )
    _REGISTRY[name] = cls
    return cls


def backend_names() -> List[str]:
    """Names of every registered backend, in registration order."""
    return list(_REGISTRY)


def backend_choices() -> List[str]:
    """Every name a backend may be selected by: registered names, then aliases."""
    return backend_names() + list(BACKEND_ALIASES)


def available_backends() -> Dict[str, Type[Backend]]:
    """Registered backends whose dependencies are importable right now."""
    return {name: cls for name, cls in _REGISTRY.items() if cls.available()}


def describe_backend(name: str) -> Dict[str, object]:
    """JSON-safe summary of a registered backend, without instantiating it.

    Works for unavailable backends too (name, description, and availability
    are all class-level), which is what lets ``repro backends list`` show
    ``available: no`` instead of failing on the missing dependency.
    """
    cls = _REGISTRY[normalize_backend_name(name)]
    return {
        "name": cls.name,
        "description": cls.description,
        "available": cls.available(),
        "tier": cls.equivalence_tier,
        "events": cls.supports_events,
    }


def normalize_backend_name(name: str) -> str:
    """Resolve ``name`` through :data:`BACKEND_ALIASES` and validate it.

    Returns the registered name.  Raises ``ValueError`` naming the known
    backends — used by configuration objects that must record a backend
    without instantiating it.
    """
    name = str(name)
    name = BACKEND_ALIASES.get(name, name)
    if name not in _REGISTRY:
        known = ", ".join(backend_choices())
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    return name


def get_backend(backend: BackendLike = None) -> Backend:
    """Resolve ``backend`` to a shared :class:`Backend` instance.

    Accepts a registered name or alias, an existing instance (returned as
    is), or ``None`` for the default (``sparse``).  Raises ``ValueError``
    for unknown names and ``RuntimeError`` for registered-but-unavailable
    backends.
    """
    if isinstance(backend, Backend):
        return backend
    name = normalize_backend_name(DEFAULT_BACKEND if backend is None else backend)
    if name not in _INSTANCES:
        cls = _REGISTRY[name]
        if not cls.available():
            raise RuntimeError(
                f"backend {name!r} is registered but not available in this "
                "environment"
            )
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


register_backend(SparseEventBackend)

__all__ = [
    "Backend",
    "SparseEventBackend",
    "BACKEND_ALIASES",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_choices",
    "backend_names",
    "describe_backend",
    "get_backend",
    "normalize_backend_name",
    "register_backend",
]
