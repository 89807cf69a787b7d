"""Tests for the JSON / npz serialization helpers."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.utils.serialization import (
    atomic_write_json,
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)


class TestAtomicWriteJson:
    def test_writes_complete_json_with_numpy_values(self, tmp_path):
        path = atomic_write_json({"n": np.int64(3), "w": np.arange(2.0)},
                                 tmp_path / "deep" / "record.json")
        assert load_json(path) == {"n": 3, "w": [0.0, 1.0]}
        assert path.read_text().endswith("\n")

    def test_a_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = atomic_write_json({"v": 1}, tmp_path / "record.json")
        with pytest.raises(TypeError):
            atomic_write_json({"v": object()}, path)
        assert load_json(path) == {"v": 1}
        assert [entry.name for entry in tmp_path.iterdir()] == ["record.json"]


class TestJsonRoundTrip:
    def test_plain_dict_round_trip(self, tmp_path):
        data = {"a": 1, "b": [1, 2, 3], "c": {"nested": "value"}}
        path = save_json(data, tmp_path / "data.json")
        assert load_json(path) == data

    def test_numpy_scalars_are_converted(self, tmp_path):
        data = {
            "int": np.int64(3),
            "float": np.float64(2.5),
            "bool": np.bool_(True),
            "array": np.arange(3),
        }
        path = save_json(data, tmp_path / "data.json")
        loaded = load_json(path)
        assert loaded == {"int": 3, "float": 2.5, "bool": True, "array": [0, 1, 2]}

    def test_creates_parent_directories(self, tmp_path):
        path = save_json({"x": 1}, tmp_path / "deep" / "nested" / "data.json")
        assert path.exists()

    def test_output_is_valid_json_text(self, tmp_path):
        path = save_json({"b": 2, "a": 1}, tmp_path / "data.json")
        with open(path, "r", encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert parsed == {"a": 1, "b": 2}

    def test_unserializable_object_raises(self, tmp_path):
        with pytest.raises(TypeError):
            save_json({"x": object()}, tmp_path / "bad.json")


class TestArrayRoundTrip:
    def test_round_trip_preserves_values(self, tmp_path):
        arrays = {
            "weights": np.random.default_rng(0).random((4, 5)),
            "labels": np.array([1, 2, 3]),
        }
        path = save_arrays(arrays, tmp_path / "state.npz")
        loaded = load_arrays(path)
        assert set(loaded) == {"weights", "labels"}
        np.testing.assert_array_equal(loaded["weights"], arrays["weights"])
        np.testing.assert_array_equal(loaded["labels"], arrays["labels"])

    def test_suffix_is_normalized(self, tmp_path):
        path = save_arrays({"a": np.zeros(2)}, tmp_path / "state")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_loaded_arrays_are_copies(self, tmp_path):
        path = save_arrays({"a": np.arange(3)}, tmp_path / "state.npz")
        loaded = load_arrays(path)
        loaded["a"][0] = 99
        reloaded = load_arrays(path)
        assert reloaded["a"][0] == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_arrays(tmp_path / "missing.npz")

    def test_members_are_stored_uncompressed(self, tmp_path):
        path = save_arrays(
            {"weights": np.random.default_rng(0).random((8, 4)),
             "labels": np.arange(4), "empty": np.zeros(0)},
            tmp_path / "state.npz",
        )
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(info.filename for info in members) == [
            "empty.npy", "labels.npy", "weights.npy"
        ]
        assert all(info.compress_type == zipfile.ZIP_STORED for info in members)

    def test_a_compressed_archive_loads_bit_identically(self, tmp_path):
        arrays = {"weights": np.random.default_rng(1).random((6, 3)),
                  "theta": np.linspace(0.0, 1.0, 3)}
        np.savez_compressed(tmp_path / "old.npz", **arrays)
        loaded = load_arrays(tmp_path / "old.npz")
        assert set(loaded) == set(arrays)
        for key, value in arrays.items():
            np.testing.assert_array_equal(loaded[key], value)
            assert loaded[key].dtype == value.dtype
            assert loaded[key].flags.writeable
