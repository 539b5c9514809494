"""The warehouse catalog: ``catalog/<key16>.json``, one record per
registered study -- store path, study key, parameter names, sample block
and per-chunk ``source`` attribution -- and no result rows.  Each record
is its own file, written by the store's crash-durable atomic replace;
registrations serialize across threads and, where the platform has
``flock``, across processes.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.runtime.cache import array_fingerprint
from repro.runtime.store import StoreError, StudyStore, _durable_replace

try:
    import fcntl
except ImportError:  # no flock (Windows): registrations serialize per process
    fcntl = None

__all__ = ["RegisterReport", "Warehouse", "WarehouseError"]

CATALOG_FORMAT = "repro-warehouse-catalog/v1"
_REGISTER_LOCK = threading.Lock()


class WarehouseError(StoreError):
    """A warehouse operation failed; as a :class:`~repro.runtime.store.
    StoreError` the CLI exits 2 with a one-line diagnostic."""


@dataclass
class RegisterReport:
    """What one :meth:`Warehouse.register` did: the studies (key16) and
    chunks it registered, and the records it wrote (none if nothing new)."""

    studies: List[str] = field(default_factory=list)
    chunks: int = 0
    written: List[str] = field(default_factory=list)
    bytes_written: int = 0


def catalog_dir(directory: Path) -> Path:
    """The catalog of an existing warehouse, creating nothing; refuses
    the ``key16=*/shard=*/chunk=*`` row copies of older releases."""
    if any(directory.glob("key16=*/shard=*/chunk=*")):
        raise WarehouseError(
            f"warehouse {str(directory)!r} holds key16=*/shard=*/chunk=* "
            "partitions of an older release, which this release no longer "
            "reads; re-register the store into a fresh directory with "
            "'repro query ingest DIR STORE'")
    if not (directory / "catalog").is_dir():
        raise WarehouseError(
            f"no warehouse catalog in {str(directory)!r}; register a store "
            "with 'repro query ingest DIR STORE' or Study.warehouse(DIR)")
    return directory / "catalog"


def read_record(path: Path) -> dict:
    """One catalog record, shape-checked."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise WarehouseError(f"cannot read catalog record {str(path)!r}: "
                             f"{exc}") from None
    if not (isinstance(record, dict) and record.get("format") == CATALOG_FORMAT
            and all(isinstance(record.get(name), kind) for name, kind in (
                ("study_key", str), ("store", str), ("sources", dict)))):
        raise WarehouseError(f"corrupt catalog record {str(path)!r}")
    return record


def check_samples(study_key: str, samples: np.ndarray, declared) -> None:
    """Refuse a sample block whose fingerprint is not ``declared``."""
    actual = array_fingerprint(samples)
    if declared is not None and actual != declared:
        raise WarehouseError(
            f"sample matrix does not match study {study_key[:16]}...: "
            f"manifest records samples {declared[:12]}..., got "
            f"{actual[:12]}... (wrong study or altered samples)")


@contextmanager
def _catalog_lock(catalog: Path):
    """Hold the catalog's registration lock: a thread lock, plus an
    exclusive ``flock`` on the catalog directory against other processes
    (``repro work`` drainers, the service, ``repro query ingest``)."""
    with _REGISTER_LOCK:
        if fcntl is None:
            yield
            return
        fd = os.open(catalog, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the flock


def _resolve_keys(store: StudyStore, key: Optional[str]) -> List[str]:
    if key is not None and len(key) == 64:  # a full key: no store scan
        return [key]
    matches = [k for k in store.study_keys() if k.startswith(key or "")]
    if not matches or (key is not None and len(matches) > 1):
        what = f"study key prefix {key!r} is ambiguous" if matches else (
            "no study manifests" if key is None
            else f"no study manifest matches key {key!r}")
        raise WarehouseError(f"nothing to register: {what} in "
                             f"{str(store.directory)!r}")
    return matches


class Warehouse:
    """A warehouse directory: the catalog of the studies it answers for.
    ``directory`` and its ``catalog/`` are created if missing."""

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            (self.directory / "catalog").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WarehouseError(f"warehouse directory {str(directory)!r} is "
                                 f"not writable: {exc}") from None

    def register(self, store, key: Optional[str] = None, samples=None,
                 parameter_names=None,
                 lineage: Optional[Dict[int, dict]] = None) -> RegisterReport:
        """Register a store's studies (or the one ``key`` names, full or
        prefix); the store is only read, and nothing new writes nothing.
        A study recorded from another store is re-pointed to this one,
        its attribution restarted.  ``samples`` must match the manifest's
        samples fingerprint and serves ``p_<name>`` columns
        (``parameter_names``, default positional); ``lineage``
        (:func:`repro.obs.lineage_sources`) attributes chunks first-wins,
        uncovered ones read ``stored``."""
        catalog_dir(self.directory)
        store = store if isinstance(store, StudyStore) else \
            StudyStore.reader(store)
        samples = None if samples is None else np.asarray(samples, dtype=float)
        report = RegisterReport()
        for study_key in _resolve_keys(store, key):
            with obs_trace.span("warehouse.register", study=study_key[:16]) \
                    as span:
                chunks = self._register(store, study_key, samples,
                                        parameter_names, lineage or {}, report)
                span.set(chunks=chunks, written=study_key[:16] in report.written)
        return report

    def _register(self, store, study_key, samples, parameter_names, lineage,
                  report) -> int:
        key16 = study_key[:16]
        manifests = [m for m in store.load_manifests(study_key)
                     if m.get("study_key") == study_key]
        if not manifests:
            raise WarehouseError(f"nothing to register: no manifest for study "
                                 f"{key16}... in {str(store.directory)!r}")
        if samples is not None:
            check_samples(study_key, samples,
                          manifests[0].get("fingerprint", {}).get("samples"))
        visible = {str(index) for m in manifests for index in m.get("chunks", {})}
        report.studies.append(key16)
        report.chunks += len(visible)
        path = self.directory / "catalog" / f"{key16}.json"
        here = str(store.directory.resolve())
        try:
            with _catalog_lock(path.parent):
                existing = read_record(path) if path.exists() else None
                record = dict(existing or {
                    "format": CATALOG_FORMAT, "key16": key16,
                    "study_key": study_key, "store": here,
                    "parameter_names": None, "samples": None, "sources": {}})
                if record["store"] != here:  # moved, restored, re-run elsewhere
                    record.update(store=here, sources={})
                record["sources"] = {
                    index: lineage.get(int(index), {}).get("source", "stored")
                    for index in visible} | record["sources"]
                if record["samples"] is None and samples is not None:
                    block = np.ascontiguousarray(samples, dtype="<f8")
                    record["samples"] = {
                        "shape": list(block.shape),
                        "float64": base64.b64encode(block.tobytes()).decode()}
                if record["parameter_names"] is None and parameter_names:
                    record["parameter_names"] = [str(n) for n in parameter_names]
                if record == existing:
                    return len(visible)
                data = json.dumps(record, indent=1, sort_keys=True).encode()
                _durable_replace(path, data)
        except OSError as exc:
            raise WarehouseError(f"cannot write catalog record "
                                 f"{str(path)!r}: {exc}") from None
        report.written.append(key16)
        report.bytes_written += len(data)
        return len(visible)
