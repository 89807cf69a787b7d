"""Tests for the compute-backend registry."""

from __future__ import annotations

import pytest

from repro.backends import (
    BACKEND_ALIASES,
    DEFAULT_BACKEND,
    Backend,
    SparseEventBackend,
    available_backends,
    backend_choices,
    backend_names,
    describe_backend,
    get_backend,
    normalize_backend_name,
    register_backend,
)

RETIRED = ["dense", "float32", "numba", "auto", "eventqueue"]


class TestRegistry:
    def test_shipped_backends_are_registered_in_order(self):
        assert backend_names() == ["sparse"]

    def test_always_available_backends(self):
        assert available_backends() == {"sparse": SparseEventBackend}

    def test_the_reference_backend_drives_event_mode(self):
        assert SparseEventBackend.supports_events is True
        assert describe_backend("sparse")["events"] is True

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

    def test_reregistering_the_same_class_is_idempotent(self):
        assert register_backend(SparseEventBackend) is SparseEventBackend

    def test_registering_a_name_clash_fails(self):
        class Impostor(SparseEventBackend):
            name = "sparse"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Impostor)

    def test_registering_an_alias_fails(self):
        class Revenant(SparseEventBackend):
            name = "dense"

        with pytest.raises(ValueError, match="alias"):
            register_backend(Revenant)

    def test_registering_an_unnamed_backend_fails(self):
        class Nameless(Backend):  # pragma: no cover - never instantiated
            pass

        with pytest.raises(ValueError, match="must set a name"):
            register_backend(Nameless)

    def test_unavailable_backend_is_reported_not_instantiated(self):
        class Unavailable(SparseEventBackend):
            name = "unavailable-for-testing"

            @classmethod
            def available(cls):
                return False

        register_backend(Unavailable)
        try:
            assert "unavailable-for-testing" not in available_backends()
            with pytest.raises(RuntimeError, match="not available"):
                get_backend("unavailable-for-testing")
        finally:
            from repro import backends as backends_module

            backends_module._REGISTRY.pop("unavailable-for-testing", None)

    def test_describe_is_json_safe(self):
        info = get_backend("sparse").describe()
        assert info["name"] == "sparse"
        assert info["available"] is True
        assert isinstance(info["description"], str) and info["description"]

    def test_describe_backend_works_without_instantiation(self):
        class Unavailable(SparseEventBackend):
            name = "describe-unavailable"
            description = "never importable"

            @classmethod
            def available(cls):
                return False

            def __init__(self):  # pragma: no cover - must never run
                raise AssertionError("describe_backend must not instantiate")

        register_backend(Unavailable)
        try:
            info = describe_backend("describe-unavailable")
            assert info == {
                "name": "describe-unavailable",
                "description": "never importable",
                "available": False,
                "tier": "exact",
                "events": True,
            }
        finally:
            from repro import backends as backends_module

            backends_module._REGISTRY.pop("describe-unavailable", None)


class TestAliases:
    """Retired backend names resolve to the one registered backend."""

    def test_every_retired_name_is_an_alias_of_sparse(self):
        assert BACKEND_ALIASES == {name: "sparse" for name in RETIRED}
        assert backend_choices() == ["sparse"] + RETIRED

    @pytest.mark.parametrize("name", RETIRED)
    def test_aliases_resolve_everywhere(self, name):
        assert normalize_backend_name(name) == "sparse"
        assert get_backend(name) is get_backend("sparse")
        assert describe_backend(name) == describe_backend("sparse")
