"""Content-addressed macromodel cache.

Reduction is the expensive, rarely-changing half of every workflow;
evaluation is the cheap, hot half.  This cache keys a reduced model by
a SHA-256 fingerprint of *what produced it* -- the full parametric
system's matrices plus the reducer's configuration -- and persists it
through :mod:`repro.core.io`, so a repeated workload (same netlist,
same reducer settings) skips reduction entirely and goes straight to
the batched evaluation kernels.

The fingerprint is content-addressed, not name-addressed: two
different scripts that assemble the same system and reducer hit the
same cache entry, and any change to a matrix entry, a parameter name,
or a reducer knob produces a different key.

Both front ends reach the cache the same way:
:func:`repro.serve.protocol.realize_system` reduces through
:meth:`ModelCache.get_or_reduce`, for a served job and for a CLI study
command's ``--cache`` alike.  A key names what produced its model, so
an entry never goes stale; entries are kept until
:meth:`ModelCache.clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.io import load_model, save_model
from repro.core.model import ParametricReducedModel
from repro.obs import metrics as obs_metrics

_CACHE_HITS = obs_metrics.counter("cache.hits")
_CACHE_MISSES = obs_metrics.counter("cache.misses")


def _hash_matrix(digest, tag: str, matrix) -> None:
    digest.update(tag.encode())
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        digest.update(b"sparse")
        digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(csr.data, dtype=np.float64).tobytes())
        return
    array = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    digest.update(b"dense")
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(array.tobytes())


def system_fingerprint(parametric) -> str:
    """SHA-256 over a parametric system's matrices and parameter names.

    Covers the nominal quadruple ``{G0, C0, B, L}``, every sensitivity
    pair ``(G_i, C_i)``, and the parameter names -- everything reduction
    consumes.  Titles and port labels are deliberately excluded so a
    renamed copy of the same circuit still hits the cache.
    """
    digest = hashlib.sha256()
    nominal = parametric.nominal
    for tag, matrix in (("G0", nominal.G), ("C0", nominal.C), ("B", nominal.B), ("L", nominal.L)):
        _hash_matrix(digest, tag, matrix)
    for i, (gi, ci) in enumerate(zip(parametric.dG, parametric.dC)):
        _hash_matrix(digest, f"dG{i}", gi)
        _hash_matrix(digest, f"dC{i}", ci)
    digest.update(json.dumps(list(parametric.parameter_names)).encode())
    return digest.hexdigest()


def array_fingerprint(array) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes.

    The building block the :class:`~repro.runtime.store.StudyStore`
    manifests use to key sample matrices and frequency axes: two
    studies share a fingerprint component iff the arrays are
    bit-identical, which is exactly the granularity the resumable
    chunk records promise.
    """
    array = np.ascontiguousarray(np.asarray(array))
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _stable_config_value(value):
    if isinstance(value, np.ndarray):
        return ["ndarray", list(value.shape), hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_stable_config_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stable_config_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def reducer_fingerprint(reducer) -> str:
    """SHA-256 over a reducer's class and public configuration.

    Any object with a ``reduce(parametric)`` method works; its
    ``vars()`` (non-underscore entries) form the configuration record,
    so changing e.g. ``num_moments`` or ``rank`` changes the key.
    """
    config = {
        name: _stable_config_value(value)
        for name, value in sorted(vars(reducer).items())
        if not name.startswith("_")
    } if hasattr(reducer, "__dict__") else repr(reducer)
    record = {
        "class": f"{type(reducer).__module__}.{type(reducer).__qualname__}",
        "config": config,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


class ModelCache:
    """Directory-backed, content-addressed cache of reduced macromodels.

    Parameters
    ----------
    directory:
        Cache root; created if missing.  Each entry is one ``.npz``
        archive written by :func:`repro.core.io.save_model`, named by
        its content key.

    The ``hits``/``misses`` counters make cache behaviour observable in
    tests and CLI summaries.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def key(self, parametric, reducer) -> str:
        """Content key for (system, reducer): hash of both fingerprints."""
        digest = hashlib.sha256()
        digest.update(system_fingerprint(parametric).encode())
        digest.update(reducer_fingerprint(reducer).encode())
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        """On-disk location of the entry for ``key``."""
        return self.directory / f"{key}.npz"

    def load(self, key: str) -> Optional[ParametricReducedModel]:
        """The cached model for ``key``, or ``None`` when absent.

        Every lookup is tallied on the process-wide ``cache.hits`` /
        ``cache.misses`` counters of the :mod:`repro.obs` metrics
        registry (the per-instance ``hits``/``misses`` attributes keep
        their historical :meth:`get_or_reduce`-only semantics).
        """
        path = self.path_for(key)
        if not path.exists():
            _CACHE_MISSES.inc()
            return None
        _CACHE_HITS.inc()
        return load_model(path)

    def store(self, key: str, model: ParametricReducedModel) -> Path:
        """Persist ``model`` under ``key``; returns the archive path.

        The archive is written to a temporary sibling and atomically
        renamed into place, so concurrent readers (parallel CI jobs
        sharing a cache directory) never observe a half-written entry.
        The scratch name carries the process *and* thread id: the study
        server realizes concurrent submissions on threads of one
        process, and two of them storing the same key must not write,
        rename and unlink one shared scratch file.
        """
        path = self.path_for(key)
        # Must keep the .npz suffix: numpy appends it to other names.
        scratch = path.with_name(
            f".{key}.{os.getpid()}.{threading.get_ident()}.tmp.npz"
        )
        try:
            save_model(model, scratch)
            os.replace(scratch, path)
        finally:
            scratch.unlink(missing_ok=True)
        return path

    def get_or_reduce(self, parametric, reducer) -> ParametricReducedModel:
        """The reduced model for (system, reducer), reducing on miss.

        On a hit the model is loaded from disk (bit-exact round trip
        through :mod:`repro.core.io`); on a miss ``reducer.reduce`` runs
        and its product is stored before being returned.  An adaptive
        reducer's ``(model, report)`` pair caches and returns the model.
        """
        key = self.key(parametric, reducer)
        cached = self.load(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        model = reducer.reduce(parametric)
        if isinstance(model, tuple):
            model = model[0]
        self.store(key, model)
        return model

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.npz"):
            path.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.npz"))

    def __repr__(self) -> str:
        return (
            f"ModelCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
