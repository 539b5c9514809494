"""The result warehouse: partitioned columnar datasets from StudyStores.

A :class:`Warehouse` is a directory of partitioned column tables
converted from :class:`~repro.runtime.store.StudyStore` chunk
checkpoints::

    warehouse/
      key16=<study key16>/
        _study.json                          # fingerprint + layout record
        shard=<origin>/                      # all, w-<worker>, or 01of02 (legacy)
          chunk=00007/
            instances-<sha16>.npz
            poles-<sha16>.npz
            envelope-<sha16>.npz

The partition keys mirror how the data was produced (study fingerprint
/ shard or worker origin / chunk index), and every file name embeds the
first 16 hex digits of the chunk archive's manifest SHA-256, so each
table file is content-addressed back to the exact checkpoint bytes it
was converted from.

**Idempotency is structural, not ledger-based.**  A chunk index is
ingested at most once per study: ingest checks the dataset for an
existing ``chunk=<index>`` partition holding an ``instances`` table
(written last, so a killed ingest re-converts) and skips it otherwise.
There is no side ledger to race on, which is what makes one warehouse
safely shared by concurrent ``repro work`` drainers and the serve
supervisor: the duplicate-suppression unit is the atomic
``os.replace`` of a content-named file, and alternate copies of one
chunk (two workers racing on the same index produce equivalent payloads
by the deterministic-kernel contract) resolve first-ingested-wins.
A study whose partitions still hold ``.parquet`` tables from an older
release is refused (:func:`~repro.warehouse.backend.refuse_parquet`):
their ``instances`` markers would otherwise count as ingested chunks
nobody can read.

Provenance stays verifiable end to end: ``_study.json`` records the
full study fingerprint (target / samples / workload / config hashes),
ingest refuses a ``samples`` matrix whose fingerprint does not match
the manifest's, and every row carries the chunk SHA-256 the store
manifest records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import array_fingerprint
from repro.runtime.store import StudyStore, _durable_replace, _probe_writable
from repro.warehouse import backend
from repro.warehouse.backend import WarehouseError
from repro.warehouse.schema import chunk_tables

__all__ = ["IngestReport", "Warehouse"]

_CHUNKS_INGESTED = obs_metrics.counter("warehouse.chunks_ingested")
_CHUNKS_SKIPPED = obs_metrics.counter("warehouse.chunks_skipped")
_ROWS_INGESTED = obs_metrics.counter("warehouse.rows_ingested")
_BYTES_WRITTEN = obs_metrics.counter("warehouse.bytes_written")

_STUDY_RECORD = "_study.json"
#: ``instances`` is written last, so its presence marks a fully
#: converted chunk partition -- the structural idempotency ledger.
_MARKER_TABLE = "instances"


@dataclass
class IngestReport:
    """What one :meth:`Warehouse.ingest_store` call did."""

    studies: List[str] = field(default_factory=list)
    chunks: int = 0
    skipped: int = 0
    rows: Dict[str, int] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def rows_added(self) -> int:
        """Total rows written across all tables."""
        return sum(self.rows.values())

    def merge(self, other: "IngestReport") -> "IngestReport":
        for key16 in other.studies:
            if key16 not in self.studies:
                self.studies.append(key16)
        self.chunks += other.chunks
        self.skipped += other.skipped
        for name, count in other.rows.items():
            self.rows[name] = self.rows.get(name, 0) + count
        self.files.extend(other.files)
        self.bytes_written += other.bytes_written
        return self

    def __repr__(self) -> str:
        return (
            f"IngestReport(studies={len(self.studies)}, chunks={self.chunks}, "
            f"skipped={self.skipped}, rows={self.rows_added})"
        )


def _shard_label(record: dict) -> str:
    """Partition label for the manifest a chunk record came from.

    ``NNofMM`` labels come only from the shard-named manifests of older
    releases' static shard runs, which stay readable.
    """
    worker = record.get("worker")
    if worker:
        return f"w-{worker}"
    shard = record.get("shard")
    if shard:
        index, of = shard
        return f"{index + 1:02d}of{of:02d}"
    return "all"


class Warehouse:
    """One partitioned columnar dataset directory.

    Parameters
    ----------
    directory:
        Dataset root; created if missing (writability probed up front,
        mirroring :class:`~repro.runtime.store.StudyStore`).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            _probe_writable(self.directory)
        except OSError as exc:
            raise WarehouseError(
                f"warehouse directory {str(self.directory)!r} is not "
                f"writable: {exc}"
            ) from None

    # -- layout --------------------------------------------------------

    def dataset_dir(self, key16: str) -> Path:
        """Partition root for one study."""
        return self.directory / f"key16={key16}"

    def chunk_dir(self, key16: str, shard_label: str, index: int) -> Path:
        return (
            self.dataset_dir(key16)
            / f"shard={shard_label}"
            / f"chunk={index:05d}"
        )

    def _chunk_ingested(self, key16: str, index: int) -> bool:
        """Whether any shard partition already holds chunk ``index``.

        The check spans shard labels on purpose: the same chunk can
        reach the warehouse via a worker's manifest first and a resumed
        merge run's manifest later -- one logical chunk, one set of
        rows, first ingest wins.
        """
        pattern = f"shard=*/chunk={index:05d}/{_MARKER_TABLE}-*"
        return any(self.dataset_dir(key16).glob(pattern))

    def studies(self) -> List[dict]:
        """Every study record (``_study.json``) in the dataset."""
        backend.refuse_parquet(self.directory, self.directory.glob(
            "key16=*/shard=*/chunk=*/*.parquet"
        ))
        records = []
        for path in sorted(self.directory.glob(f"key16=*/{_STUDY_RECORD}")):
            try:
                with open(path) as handle:
                    records.append(json.load(handle))
            except (OSError, json.JSONDecodeError) as exc:
                raise WarehouseError(
                    f"corrupt study record {str(path)!r}: {exc}"
                ) from None
        return records

    def _write_study_record(self, key16: str, record: dict) -> None:
        path = self.dataset_dir(key16) / _STUDY_RECORD
        if path.exists():
            return  # deterministic content; first writer wins
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            _durable_replace(
                path, json.dumps(record, indent=1, sort_keys=True).encode()
            )
        except OSError as exc:
            raise WarehouseError(
                f"cannot write study record {str(path)!r}: {exc}"
            ) from None

    # -- ingest --------------------------------------------------------

    def ingest_store(
        self,
        store,
        key: Optional[str] = None,
        samples=None,
        parameter_names=None,
        lineage: Optional[Dict[int, dict]] = None,
    ) -> IngestReport:
        """Convert a store's chunk checkpoints into dataset partitions.

        Parameters
        ----------
        store:
            Directory or :class:`~repro.runtime.store.StudyStore`.
        key:
            One study key (full or key16 prefix); default ingests every
            study the store holds manifests for.
        samples:
            The study's realized ``(m, n_p)`` sample matrix; when given
            its :func:`~repro.runtime.cache.array_fingerprint` must
            match the manifest's recorded samples hash (a mismatched
            matrix raises -- provenance is verified, not trusted) and
            per-instance parameter columns are emitted.  Omitted (bare
            CLI ingest from a store directory), rows carry metrics and
            provenance but no parameter values.
        parameter_names:
            Names for the parameter columns (``p_<name>``); defaults to
            positional indices.
        lineage:
            ``{chunk_index: {"source": ..., "worker": ...}}`` from
            :func:`repro.obs.lineage_sources`, attributing each chunk
            as ``computed`` / ``resumed`` / ``stolen``.  Without it the
            ``source`` column reads ``"stored"`` (the manifest alone
            cannot distinguish how the producing run obtained a chunk).

        Re-ingesting an already-ingested chunk is a no-op (see the
        module docstring); the returned :class:`IngestReport` counts
        both conversions and skips.
        """
        store = store if isinstance(store, StudyStore) else StudyStore(store)
        keys = self._resolve_keys(store, key)
        report = IngestReport()
        for study_key in keys:
            report.merge(
                self._ingest_study(
                    store, study_key, samples, parameter_names, lineage
                )
            )
        return report

    def _resolve_keys(self, store: StudyStore, key: Optional[str]) -> List[str]:
        keys = store.study_keys()
        if key is None:
            if not keys:
                raise WarehouseError(
                    f"nothing to ingest: no study manifests in "
                    f"{str(store.directory)!r}"
                )
            return keys
        matches = [k for k in keys if k == key or k.startswith(key)]
        if not matches:
            raise WarehouseError(
                f"no study manifest matches key {key!r} in "
                f"{str(store.directory)!r}"
            )
        if len(matches) > 1:
            raise WarehouseError(
                f"study key prefix {key!r} is ambiguous in "
                f"{str(store.directory)!r}: matches {len(matches)} studies"
            )
        return matches

    def _ingest_study(
        self, store, study_key, samples, parameter_names, lineage
    ) -> IngestReport:
        key16 = study_key[:16]
        manifest = store.load_manifests(study_key)[0]
        fingerprint = manifest.get("fingerprint", {})
        if samples is not None:
            declared = fingerprint.get("samples")
            actual = array_fingerprint(np.asarray(samples, dtype=float))
            if declared is not None and actual != declared:
                raise WarehouseError(
                    f"sample matrix does not match study {key16}...: "
                    f"manifest records samples {declared[:12]}..., got "
                    f"{actual[:12]}... (wrong study or altered samples)"
                )
        backend.refuse_parquet(self.directory, self.dataset_dir(key16).glob(
            "shard=*/chunk=*/*.parquet"
        ))
        report = IngestReport(studies=[key16])
        with obs_trace.span("warehouse.ingest", study=key16) as span:
            self._write_study_record(key16, {
                "key16": key16,
                "study_key": study_key,
                "fingerprint": fingerprint,
                "layout": manifest.get("layout"),
                "workload": fingerprint.get("workload"),
                "parameter_names": (
                    None if parameter_names is None
                    else [str(name) for name in parameter_names]
                ),
                "store": str(store.directory),
            })
            for record, payload in store.iter_chunks(study_key):
                index = int(record["index"])
                if self._chunk_ingested(key16, index):
                    report.skipped += 1
                    _CHUNKS_SKIPPED.inc()
                    continue
                entry = (lineage or {}).get(index, {})
                tables = chunk_tables(
                    key16, record, payload,
                    samples=samples, parameter_names=parameter_names,
                    source=entry.get("source", "stored"),
                )
                self._write_chunk(key16, record, tables, report)
                report.chunks += 1
                _CHUNKS_INGESTED.inc()
            span.set(
                chunks=report.chunks, skipped=report.skipped,
                rows=report.rows_added,
            )
        return report

    def _write_chunk(self, key16, record, tables, report) -> None:
        directory = self.chunk_dir(
            key16, _shard_label(record), int(record["index"])
        )
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WarehouseError(
                f"cannot create partition {str(directory)!r}: {exc}"
            ) from None
        sha16 = record["sha256"][:16]
        # The marker table goes down last: a kill between files leaves a
        # partition the next ingest re-converts (same content-addressed
        # names, so the rewrite is idempotent), never a half-counted one.
        names = sorted(tables, key=lambda name: name == _MARKER_TABLE)
        for name in names:
            columns = tables[name]
            path = directory / f"{name}-{sha16}{backend.EXTENSION}"
            size = backend.write(path, columns)
            rows = int(next(iter(columns.values())).shape[0])
            report.rows[name] = report.rows.get(name, 0) + rows
            report.files.append(str(path.relative_to(self.directory)))
            report.bytes_written += size
            _ROWS_INGESTED.inc(rows)
            _BYTES_WRITTEN.inc(size)

    def __repr__(self) -> str:
        datasets = len(list(self.directory.glob("key16=*")))
        return f"Warehouse({str(self.directory)!r}, studies={datasets})"
