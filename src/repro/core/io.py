"""Macromodel persistence (save/load).

A parametric macromodel is the *product* of the reduction flow -- the
artifact handed from the extraction/reduction team to the
timing/signal-integrity users.  This module serializes a
:class:`~repro.core.model.ParametricReducedModel` to a single
compressed ``.npz`` archive (dense matrices, names, metadata) and loads
it back, bit-exactly, with format versioning for forward compatibility.

The format is deliberately plain NumPy: no pickling (loadable with
``allow_pickle=False``, so archives are safe to exchange), and every
array is stored under a stable key.
"""

from __future__ import annotations

import json
import threading
from typing import Union

import numpy as np

from repro.circuits.statespace import DescriptorSystem
from repro.core.model import ParametricReducedModel

FORMAT_VERSION = 1

# NumPy parses every ``.npy`` header with ``ast.literal_eval``, and the
# AST conversion of CPython 3.11.7 tracks its recursion depth in state
# the interpreter's threads share: two threads deserializing at once
# can raise ``SystemError: AST constructor recursion depth mismatch``.
# The model cache's loads (:func:`load_model`) therefore hold this
# lock.  Chunk archives are read without ``np.load``
# (repro.runtime.store's strict reader) and need none.
DESERIALIZE_LOCK = threading.Lock()


def save_model(model: ParametricReducedModel, path) -> None:
    """Write a parametric macromodel to ``path`` (``.npz``).

    Stores the reduced nominal quadruple, all sensitivity matrices, the
    projection (if kept), names, and a JSON metadata record with the
    format version.
    """
    nominal = model.nominal
    payload = {
        "G0": np.asarray(nominal.G, dtype=float),
        "C0": np.asarray(nominal.C, dtype=float),
        "B": np.asarray(
            nominal.B.toarray() if hasattr(nominal.B, "toarray") else nominal.B,
            dtype=float,
        ),
        "L": np.asarray(
            nominal.L.toarray() if hasattr(nominal.L, "toarray") else nominal.L,
            dtype=float,
        ),
    }
    for i, (gi, ci) in enumerate(zip(model.dG, model.dC)):
        payload[f"dG{i}"] = np.asarray(gi, dtype=float)
        payload[f"dC{i}"] = np.asarray(ci, dtype=float)
    if model.projection is not None:
        payload["projection"] = np.asarray(model.projection, dtype=float)
    metadata = {
        "format_version": FORMAT_VERSION,
        "num_parameters": model.num_parameters,
        "parameter_names": model.parameter_names,
        "input_names": list(nominal.input_names),
        "output_names": list(nominal.output_names),
        "title": nominal.title,
    }
    payload["metadata_json"] = np.array(json.dumps(metadata))
    np.savez_compressed(path, **payload)


def load_model(path) -> ParametricReducedModel:
    """Load a macromodel previously written by :func:`save_model`.

    Raises
    ------
    ValueError
        If the archive is missing required keys or carries an
        unsupported format version.
    """
    # Members parse their headers on access: hold it for the whole read.
    with DESERIALIZE_LOCK, np.load(path, allow_pickle=False) as archive:
        if "metadata_json" not in archive:
            raise ValueError(f"{path}: not a repro macromodel archive")
        metadata = json.loads(str(archive["metadata_json"]))
        version = metadata.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        required = {"G0", "C0", "B", "L"}
        missing = required - set(archive.files)
        if missing:
            raise ValueError(f"{path}: archive missing arrays {sorted(missing)}")
        nominal = DescriptorSystem(
            archive["G0"],
            archive["C0"],
            archive["B"],
            archive["L"],
            input_names=metadata["input_names"],
            output_names=metadata["output_names"],
            title=metadata["title"],
        )
        num_parameters = int(metadata["num_parameters"])
        dg = [archive[f"dG{i}"] for i in range(num_parameters)]
        dc = [archive[f"dC{i}"] for i in range(num_parameters)]
        projection = archive["projection"] if "projection" in archive.files else None
    return ParametricReducedModel(
        nominal,
        dg,
        dc,
        parameter_names=metadata["parameter_names"],
        projection=projection,
    )


def roundtrip_equal(
    a: ParametricReducedModel, b: ParametricReducedModel, tol: float = 0.0
) -> bool:
    """True if two models have identical matrices/names (testing aid)."""

    def close(x, y) -> bool:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            return False
        return bool(np.abs(x - y).max() <= tol) if x.size else True

    if a.parameter_names != b.parameter_names:
        return False
    if not close(a.nominal.G, b.nominal.G) or not close(a.nominal.C, b.nominal.C):
        return False
    if not close(
        a.nominal.B.toarray() if hasattr(a.nominal.B, "toarray") else a.nominal.B,
        b.nominal.B.toarray() if hasattr(b.nominal.B, "toarray") else b.nominal.B,
    ):
        return False
    for ga, gb in zip(a.dG, b.dG):
        if not close(ga, gb):
            return False
    for ca, cb in zip(a.dC, b.dC):
        if not close(ca, cb):
            return False
    return True
