"""Chunk payload -> columnar tables.

One verified StudyStore chunk payload (the dict of numpy arrays a
:class:`~repro.runtime.store.StudyCheckpoint` persists) becomes up to
three tables, all carrying the same provenance columns:

``instances`` (wide; one row per instance)
    ``study`` (key16), ``instance`` (global index), optional parameter
    columns ``p_<name>``, per-instance workload metrics (``delay`` /
    ``slew`` / ``steady_<j>`` for transients, ``num_poles`` for pole
    studies).

``poles`` (long; one row per pole)
    ``instance``, ``pole_index``, ``re``, ``im`` -- the exact float64
    components of each complex pole, so ragged per-instance pole sets
    round-trip bitwise.

``envelope`` (long; one row per envelope cell)
    This chunk's contribution to the study envelope: ``pos`` (frequency
    or time index), ``out``, ``inp`` (``-1`` for transients, which have
    no input axis), ``env_min``, ``env_max``, ``env_sum``, and
    ``count`` (instances in the chunk, so means stay derivable after
    any regrouping).

Provenance columns on every table: ``chunk`` (index), ``chunk_sha256``
(the manifest-recorded archive checksum -- re-checkable against the
store), ``worker`` (work-stealing worker id, ``""`` for static runs),
``source`` (``computed`` / ``resumed`` / ``stolen`` when trace lineage
was available at ingest, else ``stored``).

Raw per-instance response grids (``keep_responses`` sweeps) and output
waveforms (``keep_outputs`` transients) deliberately stay in the store:
they are dense rectangular bulk, already durable and checksummed there,
and warehousing them would duplicate gigabytes without adding a single
queryable aggregate.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["chunk_tables"]


def _provenance(n: int, record: dict, source: str) -> Dict[str, np.ndarray]:
    return {
        "chunk": np.full(n, int(record["index"]), dtype=np.int64),
        "chunk_sha256": np.full(n, record["sha256"]),
        "worker": np.full(n, record.get("worker") or ""),
        "source": np.full(n, source),
    }


def _instance_base(
    key16: str, lo: int, hi: int, samples: Optional[np.ndarray],
    parameter_names,
) -> Dict[str, np.ndarray]:
    n = hi - lo
    columns = {
        "study": np.full(n, key16),
        "instance": np.arange(lo, hi, dtype=np.int64),
    }
    if samples is not None:
        block = np.asarray(samples, dtype=float)[lo:hi]
        names = list(parameter_names) if parameter_names is not None else [
            str(j) for j in range(block.shape[1])
        ]
        for j, name in enumerate(names):
            columns[f"p_{name}"] = np.ascontiguousarray(block[:, j])
    return columns


def _envelope_table(payload: dict) -> Optional[Dict[str, np.ndarray]]:
    env_min = payload.get("env_min")
    if env_min is None:
        return None
    env_min = np.asarray(env_min, dtype=float)
    env_max = np.asarray(payload["env_max"], dtype=float)
    env_sum = np.asarray(payload["env_sum"], dtype=float)
    if env_min.ndim == 3:  # sweep: (n_f, n_out, n_in)
        pos, out, inp = np.indices(env_min.shape)
        inp = inp.ravel().astype(np.int64)
    else:  # transient: (n_t + 1, n_out); no input axis
        pos, out = np.indices(env_min.shape)
        inp = np.full(env_min.size, -1, dtype=np.int64)
    return {
        "pos": pos.ravel().astype(np.int64),
        "out": out.ravel().astype(np.int64),
        "inp": inp,
        "env_min": env_min.ravel(),
        "env_max": env_max.ravel(),
        "env_sum": env_sum.ravel(),
    }


def _pole_rows(payload: dict, lo: int):
    """``(instance, pole_index, re, im)`` rows from either pole layout.

    Standalone pole studies persist the zero-padded ``poles_padded`` +
    ``poles_lengths`` pair (ragged sets); sweep-riding poles persist a
    rectangular complex ``poles`` matrix.  Both split into exact
    float64 components.
    """
    padded = payload.get("poles_padded")
    if padded is not None:
        lengths = np.asarray(payload["poles_lengths"], dtype=np.int64)
        padded = np.asarray(padded, dtype=complex)
        instance = np.repeat(np.arange(lo, lo + lengths.size, dtype=np.int64),
                             lengths)
        pole_index = np.concatenate(
            [np.arange(length, dtype=np.int64) for length in lengths]
        ) if lengths.size else np.zeros(0, dtype=np.int64)
        mask = np.arange(padded.shape[1]) < lengths[:, None] if lengths.size \
            else np.zeros(padded.shape, dtype=bool)
        values = padded[mask]
        return instance, pole_index, values, lengths
    poles = payload.get("poles")
    if poles is None:
        return None
    poles = np.atleast_2d(np.asarray(poles, dtype=complex))
    m, width = poles.shape
    instance = np.repeat(np.arange(lo, lo + m, dtype=np.int64), width)
    pole_index = np.tile(np.arange(width, dtype=np.int64), m)
    lengths = np.full(m, width, dtype=np.int64)
    return instance, pole_index, poles.ravel(), lengths


def chunk_tables(
    key16: str,
    record: dict,
    payload: Dict[str, np.ndarray],
    samples: Optional[np.ndarray] = None,
    parameter_names=None,
    source: str = "stored",
) -> Dict[str, Dict[str, np.ndarray]]:
    """All applicable tables for one verified chunk.

    ``record`` is the annotated manifest record
    (:meth:`~repro.runtime.store.StudyStore.iter_chunks`), ``payload``
    the verified archive contents.  Returns ``{table_name: columns}``;
    the ``instances`` table is always present.
    """
    lo, hi = int(record["lo"]), int(record["hi"])
    n = hi - lo
    tables: Dict[str, Dict[str, np.ndarray]] = {}

    instances = _instance_base(key16, lo, hi, samples, parameter_names)
    if "delays" in payload:
        instances["delay"] = np.asarray(payload["delays"], dtype=float)
        instances["slew"] = np.asarray(payload["slews"], dtype=float)
        steady = np.atleast_2d(np.asarray(payload["steady_states"], dtype=float))
        for j in range(steady.shape[1]):
            instances[f"steady_{j}"] = np.ascontiguousarray(steady[:, j])

    pole_rows = _pole_rows(payload, lo)
    if pole_rows is not None:
        instance, pole_index, values, lengths = pole_rows
        instances["num_poles"] = lengths
        tables["poles"] = {
            "study": np.full(instance.size, key16),
            "instance": instance,
            "pole_index": pole_index,
            "re": np.ascontiguousarray(values.real),
            "im": np.ascontiguousarray(values.imag),
            **_provenance(instance.size, record, source),
        }

    instances.update(_provenance(n, record, source))
    envelope = _envelope_table(payload)
    if envelope is not None:
        size = envelope["pos"].size
        envelope["count"] = np.full(size, n, dtype=np.int64)
        envelope["study"] = np.full(size, key16)
        envelope.update(_provenance(size, record, source))
        tables["envelope"] = envelope
    tables["instances"] = instances
    return tables
