"""Exact aggregations read in place from the registered stores.

Every chunk archive a query reads is hashed against its manifest record
by the store's one verify-before-deserialize helper, which then loads
only the members the query needs; a chunk with no copy that verifies
fails the aggregation in one line.  A :class:`QueryEngine` reads each
archive once per content: it keeps the payloads it has verified, keyed
by store directory, archive file, recorded SHA-256 and members, so its
later aggregations take them without another read, hash or unzip,
while catalog records and manifests are read afresh every time.
Tables are derived per chunk, in dataset order (study key16, then
chunk), from the persisted float64 values, so aggregates equal the
in-RAM reductions bit for bit.
"""

from __future__ import annotations

import base64
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.runtime.store import WORKLOAD_MEMBERS, StudyStore
from repro.warehouse.catalog import (WarehouseError, catalog_dir,
                                     check_samples, read_record)

__all__ = ["QueryEngine"]

#: The archive members behind every column: the one table both the
#: member subset a query loads (``_members``) and the per-chunk
#: derivation (``_table_columns``) read.  Pole sets persist either as
#: ``poles_padded`` + ``poles_lengths`` (ragged pole studies) or as a
#: rectangular ``poles`` matrix (poles riding a sweep).
_POLES = ("poles_padded", "poles_lengths", "poles")
_ENVELOPE = ("env_min", "env_max", "env_sum")
_TABLES = {"instances": (), "poles": _POLES, "envelope": _ENVELOPE}
_COLUMNS = {"delay": ("delays",), "slew": ("slews",),
            "steady_": ("steady_states",), "num_poles": _POLES}


def _members(table: str, columns) -> tuple:
    if table not in _TABLES:
        raise WarehouseError(f"no {table!r} table: the tables are "
                             "instances, poles and envelope")
    return _TABLES[table] + tuple(dict.fromkeys(
        member for name in columns for member in _COLUMNS.get(
            "steady_" if name.startswith("steady_") else name, ())))


def _table_columns(table: str, lo: int, hi: int, payload: dict,
                   parameters: dict):
    """One chunk's ``table`` rows as columns (``None``: it has none):
    ``instances`` (``instance``, ``p_<name>``, ``delay``, ``slew``,
    ``steady_<j>``, ``num_poles``), ``poles`` (``instance``,
    ``pole_index``, ``re``, ``im``) or ``envelope`` (``pos``, ``out``,
    ``inp`` -- ``-1`` for transients -- ``env_*`` and ``count``)."""
    padded, lengths, rectangular = map(payload.get, _POLES)
    if padded is None and rectangular is not None:
        # A sweep's poles are nan-padded to the declared count: a row's
        # length is its leading run of non-nan entries.
        padded = np.atleast_2d(rectangular)
        lengths = np.logical_and.accumulate(~np.isnan(padded), axis=1).sum(axis=1)
    if padded is not None:
        padded = np.asarray(padded, dtype=complex)
        lengths = np.asarray(lengths, dtype=np.int64)
        rows, pole_index = np.nonzero(
            np.arange(padded.shape[1]) < lengths[:, None])
    if table == "instances":
        columns = {"instance": np.arange(lo, hi, dtype=np.int64)}
        for name in ("delay", "slew"):
            (member,) = _COLUMNS[name]
            if member in payload:
                columns[name] = np.asarray(payload[member], dtype=float)
        (member,) = _COLUMNS["steady_"]
        if member in payload:
            steady = np.atleast_2d(np.asarray(payload[member], dtype=float))
            columns.update((f"steady_{j}", np.ascontiguousarray(steady[:, j]))
                           for j in range(steady.shape[1]))
        if padded is not None:
            columns["num_poles"] = lengths
        columns.update((name, np.ascontiguousarray(values[lo:hi]))
                       for name, values in parameters.items())
        return columns
    if table == "poles":
        if padded is None:
            return None
        values = padded[rows, pole_index]
        return {"instance": (rows + lo).astype(np.int64),
                "pole_index": pole_index.astype(np.int64),
                "re": np.ascontiguousarray(values.real),
                "im": np.ascontiguousarray(values.imag)}
    if _ENVELOPE[0] not in payload:
        return None
    axes = [a.ravel().astype(np.int64)
            for a in np.indices(payload[_ENVELOPE[0]].shape)]
    if len(axes) == 2:  # transient (t, out); sweeps are (f, out, in)
        axes.append(np.full(axes[0].size, -1, dtype=np.int64))
    columns = dict(zip(("pos", "out", "inp"), axes),
                   count=np.full(axes[0].size, hi - lo, dtype=np.int64))
    columns.update((name, np.asarray(payload[name], dtype=float).ravel())
                   for name in _ENVELOPE)
    return columns


def _unreachable(record: dict) -> WarehouseError:
    return WarehouseError(
        f"study {record['study_key'][:16]} is registered from store "
        f"{record['store']!r}, which holds no checkpoint of it; re-register "
        "it from the store that does: 'repro query ingest DIR STORE'")


def _provenance(record: dict, chunk: dict) -> dict:
    return {"study": record["study_key"][:16], "chunk": chunk["index"],
            "chunk_sha256": chunk["sha256"], "worker": chunk["worker"] or "",
            "source": record["sources"].get(str(chunk["index"]), "stored")}


class QueryEngine:
    """Aggregations over the studies a warehouse catalog (a directory
    or :class:`~repro.warehouse.Warehouse`, only read) registers;
    ``memory_budget`` bounds the column bytes read from one archive.

    Every aggregation reads the catalog records and manifests afresh,
    so new registrations, re-pointed stores and re-recorded chunks are
    seen.  An archive copy is read and verified once per engine per
    content (store directory, file, recorded SHA-256, members loaded):
    the engine keeps the verified payloads, read-only, for as long as
    it lives, and later aggregations that need the same copy take it
    from there.  Their answers are bit-identical to a fresh engine's.
    """

    def __init__(self, warehouse, memory_budget: Optional[int] = None):
        self.directory = Path(getattr(warehouse, "directory", warehouse))
        if memory_budget is not None and int(memory_budget) < 1:
            raise WarehouseError("memory budget must be >= 1 byte")
        self.memory_budget = None if memory_budget is None else int(memory_budget)
        catalog_dir(self.directory)
        #: Column bytes the latest aggregation read: peak archive, total.
        self.last_peak_file_bytes = self.last_total_bytes = 0
        self._verified: dict = {}

    def _registered(self, study: Optional[str]) -> List[dict]:
        """Catalog records matching ``study``, stores opened read-only."""
        paths = sorted(catalog_dir(self.directory).glob(
            f"{(study or '')[:16]}*.json"))  # records are named by key16
        records = [record for record in map(read_record, paths)
                   if record["study_key"].startswith(study or "")]
        for record in records:
            record["_store"] = StudyStore.reader(record["store"])
        return records

    @staticmethod
    def _manifests(record: dict) -> List[dict]:
        manifests = record["_store"].load_manifests(record["study_key"])
        if not manifests:
            raise _unreachable(record)
        return manifests

    def studies(self) -> List[dict]:
        """Registered studies from the catalog and manifests, key16 order."""
        return [{"key16": r["study_key"][:16], "study_key": r["study_key"],
                 "store": r["store"], "parameter_names": r.get("parameter_names"),
                 "workload": m.get("fingerprint", {}).get("workload"),
                 "layout": m.get("layout")}
                for r in self._registered(None) for m in self._manifests(r)[:1]]

    def files(self, table: str, study: Optional[str] = None) -> List[Path]:
        """The chunk archives a query of ``table`` reads, dataset order:
        one (first recorded) copy per chunk, listed without opening it."""
        _members(table, ())
        return [record["_store"].directory / chunk["file"]
                for record in self._registered(study)
                for chunk in record["_store"].lineage(record["study_key"])]

    def _parameters(self, record: dict) -> dict:
        """``p_<name>`` columns from the fingerprint-checked sample block."""
        if record.get("samples") is None:
            return {}
        try:
            block = record["samples"]
            samples = np.frombuffer(base64.b64decode(block["float64"]),
                                    dtype="<f8").reshape(block["shape"]).astype(float)
        except (KeyError, TypeError, ValueError) as exc:
            raise WarehouseError(f"corrupt sample block of study "
                                 f"{record['study_key'][:16]}: {exc}") from None
        check_samples(record["study_key"], samples, self._manifests(
            record)[0].get("fingerprint", {}).get("samples"))
        names = record.get("parameter_names") or range(samples.shape[1])
        return {f"p_{name}": samples[:, j] for j, name in enumerate(names)}

    def _gather(self, table: str, columns, study: Optional[str] = None):
        """``(columns, chunks)``: ``columns`` of ``table`` concatenated in
        dataset order, and per chunk ``(catalog record, chunk record,
        rows)``.  One ``warehouse.query`` span counts the chunks read and
        verified, the archive bytes read and the chunks reused from this
        engine's earlier reads."""
        members, parts = _members(table, columns), {name: [] for name in columns}
        # The table's members each chunk holds, by its study's workload:
        # a chunk without one of them is refused, while a workload that
        # writes none (a sweep's poles, a pole study's envelope) adds no
        # rows.
        persisted = {workload: [name for name in names if name in _TABLES[table]]
                     for workload, names in WORKLOAD_MEMBERS.items()}
        chunks, verified, reused, bytes_read = [], 0, 0, 0
        self.last_peak_file_bytes = 0
        with obs_trace.span("warehouse.query", table=table,
                            study=study or "*") as span:
            for record in self._registered(study):
                key = record["study_key"]
                parameters = self._parameters(record) if any(
                    name.startswith("p_") for name in columns) else {}
                study_chunks = verified + reused
                for chunk, payload in record["_store"].iter_chunks(
                        key, members, self._verified):
                    if chunk["reused"]:
                        reused += 1
                    else:
                        verified += 1
                        bytes_read += chunk["bytes"]
                    missing = [
                        name for name in persisted.get(chunk["workload"], ())
                        if name not in payload]
                    if missing:
                        raise WarehouseError(
                            f"chunk {chunk['index']} of study {key[:16]} has "
                            f"no member {missing[0] + '.npy'!r}, which its "
                            f"{chunk['workload']} workload writes; the store "
                            "is corrupt")
                    derived = _table_columns(table, chunk["lo"], chunk["hi"],
                                             payload, parameters)
                    if derived is None:
                        continue
                    for name in columns:
                        if name not in derived:
                            raise WarehouseError(
                                f"table {table!r} has no column {name!r} "
                                f"(study {key[:16]}, chunk {chunk['index']})")
                        parts[name].append(derived[name])
                    size = sum(derived[name].nbytes for name in columns)
                    self.last_peak_file_bytes = max(self.last_peak_file_bytes,
                                                    size)
                    if self.memory_budget is not None \
                            and size > self.memory_budget:
                        raise WarehouseError(
                            f"chunk {chunk['index']} of study {key[:16]} "
                            f"materializes {size} column bytes, over the "
                            f"{self.memory_budget}-byte memory budget")
                    rows = len(derived.get("instance", derived.get("pos")))
                    chunks.append((record, chunk, rows))
                if verified + reused == study_chunks:
                    raise _unreachable(record)
            span.set(chunks_verified=verified, chunks_reused=reused,
                     bytes_read=bytes_read,
                     rows=sum(rows for _, _, rows in chunks))
        if not chunks:
            raise WarehouseError(
                f"no {table!r} rows" + (f" for study {study!r}" if study else "")
                + f" in {str(self.directory)!r}")
        gathered = {name: np.concatenate(parts[name]) for name in columns}
        self.last_total_bytes = sum(v.nbytes for v in gathered.values())
        return gathered, chunks

    def metric_values(self, metric: str, table: str = "instances",
                      study: Optional[str] = None) -> np.ndarray:
        """All values of one column, dataset order."""
        return np.asarray(self._gather(table, [metric], study)[0][metric],
                          dtype=float)

    def yield_fraction(self, metric: str, limit: float,
                       study: Optional[str] = None,
                       table: str = "instances") -> dict:
        """Fraction of rows with ``metric <= limit``; NaN/Inf rows fail.
        A NaN ``limit`` is refused; ``±inf`` are valid limits."""
        if np.isnan(limit):
            raise WarehouseError(f"yield: limit must be a number, got {limit}")
        values = self.metric_values(metric, table=table, study=study)
        passed = int(np.count_nonzero(np.isfinite(values) & (values <= limit)))
        return {"metric": metric, "limit": float(limit), "passed": passed,
                "total": int(values.size),
                "fraction": passed / values.size if values.size else 0.0}

    def percentile(self, metric: str, q: float,
                   study: Optional[str] = None,
                   table: str = "instances") -> dict:
        """Exact :func:`np.percentile` of the finite ``metric`` values;
        ``q`` must be a finite number in [0, 100]."""
        if not 0 <= q <= 100:  # NaN fails the comparison too
            raise WarehouseError(
                f"percentile: q must be a finite number in [0, 100], got {q}")
        values = self.metric_values(metric, table=table, study=study)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            raise WarehouseError(
                f"percentile({metric!r}): no finite values in the dataset")
        return {"metric": metric, "q": float(q),
                "value": float(np.percentile(finite, q)),
                "count": int(finite.size), "of": int(values.size)}

    def outliers(self, metric: str, k: int = 10,
                 study: Optional[str] = None,
                 largest: bool = True,
                 table: str = "instances") -> List[dict]:
        """The ``k`` (>= 0) most extreme rows with their instance and
        provenance (study, chunk, chunk SHA-256, worker, source)."""
        if k < 0:
            raise WarehouseError(f"outliers: k must be >= 0, got {k}")
        gathered, chunks = self._gather(
            table, list(dict.fromkeys([metric, "instance"])), study)
        values = np.asarray(gathered[metric], dtype=float)
        finite = np.flatnonzero(np.isfinite(values))
        order = np.argsort(values[finite], kind="stable")
        ends = np.cumsum([rows for _, _, rows in chunks])
        out = []
        for i in finite[order[::-1][:k] if largest else order[:k]]:
            record, chunk, _ = chunks[int(np.searchsorted(ends, i, "right"))]
            out.append({**_provenance(record, chunk), metric: float(values[i]),
                        "instance": int(gathered["instance"][i])})
        return out

    def provenance(self, study: Optional[str] = None,
                   table: str = "instances") -> List[dict]:
        """One entry per ``(study, chunk)``, dataset order, with its
        verified ``chunk_sha256``, ``worker``, ``source`` and ``rows``."""
        return [{**_provenance(record, chunk), "rows": rows}
                for record, chunk, rows in self._gather(table, [], study)[1]]
