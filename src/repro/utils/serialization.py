"""Serialization helpers for model weights and experiment configurations.

Model state is stored as an ``.npz`` archive (arrays) next to a ``.json``
file (scalar configuration), which keeps saved experiments human-inspectable
and free of pickle security concerns.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

PathLike = Union[str, Path]


class ArtifactError(ValueError):
    """A saved model artifact is missing, incompatible, or corrupt.

    Raised with a message that names the offending file and, for shape
    mismatches, the expected-vs-found shapes and the artifact's schema
    version — loading never silently mis-loads state.  Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` handlers keep
    working.
    """


def _json_default(obj: Any):
    """JSON encoder fallback that understands numpy scalars and arrays."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def save_json(data: Mapping[str, Any], path: PathLike) -> Path:
    """Write ``data`` to ``path`` as pretty-printed JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(data), handle, indent=2, sort_keys=True, default=_json_default)
    return path


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON file written by :func:`save_json`."""
    with open(Path(path), "r", encoding="utf-8") as handle:
        return json.load(handle)


def atomic_write_json(data: Mapping[str, Any], path: PathLike) -> Path:
    """Write ``data`` to ``path`` as JSON via a temp file + atomic rename.

    Readers never observe a truncated file: the record is complete or absent.
    The temp file lives in the destination directory (same filesystem, so
    ``os.replace`` is atomic) with a leading dot so directory scans can skip
    in-flight writes; it is removed if anything fails before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(dict(data), handle, indent=2, sort_keys=True, default=_json_default)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_arrays(arrays: Mapping[str, np.ndarray], path: PathLike) -> Path:
    """Save a mapping of named arrays to an ``.npz`` archive.

    Members are stored, not deflated: trained float64 weights compress by
    only ~6 %, while inflating them was most of the time a model load took.
    Archives written compressed (every artifact saved before this format)
    load unchanged, and zipfile still checks each member's CRC on read.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{key: np.asarray(val) for key, val in arrays.items()})
    # numpy appends .npz when missing; normalise the returned path accordingly.
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` archive written by :func:`save_arrays` into a dict.

    Each ``archive[key]`` read returns a fresh, writable array, so the
    result shares no memory with the file or with another load.
    """
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}
