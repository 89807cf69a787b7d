"""Tests for backend name resolution: one kernel set, retired aliases."""

from __future__ import annotations

import pytest

import repro
import repro.backends
from repro.backends import (
    BACKEND_ALIASES,
    DEFAULT_BACKEND,
    Backend,
    SparseEventBackend,
    drop_legacy_backend,
    get_backend,
    normalize_backend_name,
)

RETIRED = ["dense", "float32", "numba", "auto", "eventqueue"]


class TestRegistry:
    def test_the_reference_backend_drives_event_mode(self):
        assert SparseEventBackend.supports_events is True
        assert get_backend().supports_events is True

    def test_get_backend_returns_shared_instances(self):
        assert get_backend("sparse") is get_backend("sparse")

    def test_none_resolves_to_the_sparse_default(self):
        assert DEFAULT_BACKEND == "sparse"
        assert get_backend(None) is get_backend("sparse")
        assert get_backend().name == "sparse"

    def test_instances_pass_through(self):
        instance = SparseEventBackend()
        assert get_backend(instance) is instance

    def test_unknown_name_lists_the_known_backends(self):
        with pytest.raises(ValueError, match="sparse, dense"):
            get_backend("quantum")
        with pytest.raises(ValueError, match="unknown backend"):
            normalize_backend_name("quantum")

    def test_normalize_returns_known_names(self):
        assert normalize_backend_name("sparse") == "sparse"


class TestAliases:
    """Retired backend names resolve to the one kernel set."""

    def test_every_retired_name_is_an_alias_of_sparse(self):
        assert BACKEND_ALIASES == {name: "sparse" for name in RETIRED}

    @pytest.mark.parametrize("name", RETIRED)
    def test_aliases_resolve_everywhere(self, name):
        assert normalize_backend_name(name) == "sparse"
        assert get_backend(name) is get_backend("sparse")


class TestDropLegacyBackend:
    """Outside input may carry a ``backend`` key; it is checked, then dropped."""

    @pytest.mark.parametrize("name", ["sparse", *RETIRED])
    def test_an_accepted_name_is_dropped(self, name):
        fields = {"seed": 3, "backend": name, "n_exc": 4}
        drop_legacy_backend(fields)
        assert fields == {"seed": 3, "n_exc": 4}

    def test_input_without_the_key_is_left_alone(self):
        fields = {"seed": 3}
        drop_legacy_backend(fields)
        assert fields == {"seed": 3}

    @pytest.mark.parametrize("name", ["quantum", "SPARSE", ""])
    def test_an_unknown_name_is_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            drop_legacy_backend({"backend": name})


class TestNoRegistry:
    """Nothing registers, probes or describes kernel sets any more."""

    @pytest.mark.parametrize("attribute", [
        "register_backend", "backend_names", "backend_choices",
        "available_backends", "describe_backend",
    ])
    def test_the_registry_api_is_gone(self, attribute):
        assert not hasattr(repro.backends, attribute)
        assert attribute not in repro.backends.__all__
        assert not hasattr(repro, attribute)

    def test_backends_are_not_probed_or_described(self):
        import repro.backends.base as base

        assert not hasattr(Backend, "available")
        assert not hasattr(Backend, "describe")
        assert not hasattr(base, "EQUIVALENCE_TIERS")
