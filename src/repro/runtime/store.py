"""Durable studies: the on-disk :class:`StudyStore` under every route.

A 10^5-instance Monte Carlo study only pays off at production scale
when it can survive a crash, be split across machines, and be
re-verified against known-good numerics.  This module is that
durability layer: the chunk loop (:mod:`repro.runtime.stream`) already
advances chunk by chunk, so each chunk becomes a **checkpoint unit**
-- its per-instance results and envelope contributions are persisted
as one ``.npz`` archive and recorded the moment the chunk finishes.  A
re-run of the same study (same target, samples, workload, chunk
layout) loads completed chunks instead of recomputing them, folds them
through the same incremental reducers in the same order, and is
therefore **bit-identical** to an uninterrupted run.

Layout of a store directory::

    store/
      manifest-<key16>.json                 # a Study.run()
      manifest-<key16>.json.journal         # its records since the manifest
      manifest-<key16>.worker-<id>.json     # one Study.work() worker
      manifest-<key16>.shard01of02.json     # legacy static shard (read-only)
      chunks/<key16>/chunk-00007.npz        # one checkpoint unit

A run's first save durably replaces its JSON manifest with every record
it owns; each later save appends its chunk's record as one ``fsync``\\ ed
line to the manifest's **journal**, and :meth:`StudyCheckpoint.close`
folds the journal back into the manifest and removes it, so a finished
or failed run leaves one manifest and only a hard kill leaves a
journal.  Readers merge a journal's complete lines over its manifest's
records; a final line without its newline is an append that never
returned and is ignored.

``<key16>`` is the leading 16 hex digits of the **study key**: a
SHA-256 over the target's content fingerprint (the same
:func:`~repro.runtime.cache.system_fingerprint` the
:class:`~repro.runtime.cache.ModelCache` uses), the realized sample
matrix, and the workload configuration.  Several studies -- e.g. the
full- and reduced-model sides of one Monte Carlo sign-off -- can share
a store directory without touching each other's records.

Following the claim-verification spirit of Proof-Carrying Numbers
(PCN), every manifest carries enough provenance to re-check its
results independently: the full fingerprint components (what was
evaluated), the chunk layout (how it was split), and a SHA-256 per
chunk archive (what was produced).  :meth:`StudyCheckpoint.load`
verifies the recorded checksum on every read, so a bit-rotted or
hand-edited chunk can never silently flow into a merged result.

Splitting a study across processes or machines means work-stealing
workers (:mod:`repro.runtime.scheduler`) over one shared store
directory: each worker writes its *own* manifest
(``manifest-<key16>.worker-<id>.json``) and worker-suffixed chunk
archives (``chunk-00007.w-<id>.npz``), so two workers that race on the
same chunk never write the same file and every manifest stays
single-writer.  Stores written by the static shard runs of older
releases (``manifest-<key16>.shardNNofMM.json``, one per shard) stay
readable: every manifest for a study key is merged, so such a store
resumes and is queried like any other.  Duplicate records for one
chunk index are equivalent by construction (the kernels are
deterministic), and readers keep every record as an alternate: a
checksum-mismatched archive falls back to another worker's copy, and
-- in the scheduler's *lenient* mode -- a chunk whose every copy fails
verification is simply re-queued (recomputed) instead of raising a
fatal :class:`StoreError`.  Every manifest flavor shares one schema,
so pre-scheduler readers merge worker manifests transparently.

Atomic writes are crash-durable: scratch files are flushed and
``fsync``\\ ed before the ``os.replace`` rename, and the containing
directory is synced after it, so a power cut right after a rename can
not surface a truncated checkpoint that passes the rename but fails
its checksum on resume.  A chunk counts as checkpointed once its record
is durable -- in the replaced manifest or in a synced journal line --
and only then does :meth:`StudyCheckpoint.save` return.  The journal is
created before the first save's manifest rename, so that rename's
directory sync makes the journal's entry durable too, and no record
leaves the journal (the first save's truncation, the compaction's
unlink) until a durable manifest holds it.  A kill at any instant thus
loses only chunks without a complete record.

All persistence failures raise :class:`StoreError` -- one exception
type the CLI maps to exit code 2 with a one-line diagnostic.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import array_fingerprint, target_fingerprint

MANIFEST_FORMAT = "repro-study-store/v1"

_CHUNKS_SAVED = obs_metrics.counter("store.chunks_saved")
_CHUNKS_LOADED = obs_metrics.counter("store.chunks_loaded")
_CHUNKS_REQUEUED = obs_metrics.counter("store.chunks_requeued")
_BYTES_WRITTEN = obs_metrics.counter("store.bytes_written")
_BYTES_READ = obs_metrics.counter("store.bytes_read")

_KEY_PREFIX = 16

_JOURNAL_SUFFIX = ".journal"

# NumPy parses every ``.npy`` header with ``ast.literal_eval``, and the
# AST conversion of CPython 3.11.7 tracks its recursion depth in state
# the interpreter's threads share: two threads deserializing at once
# can raise ``SystemError: AST constructor recursion depth mismatch``.
# Readers in several threads (co-draining workers, serve pool threads)
# therefore deserialize archives one at a time.
_DESERIALIZE_LOCK = threading.Lock()


class StoreError(RuntimeError):
    """A study-store operation failed (unwritable directory, missing or
    corrupt manifest, checksum mismatch, invalid CLI value).

    Deliberately *not* a :class:`ValueError`/:class:`OSError` subclass:
    the CLI catches it separately and exits with code 2 and a one-line
    diagnostic instead of a traceback.
    """


class NothingToResumeError(StoreError):
    """``resume`` was requested but the store holds no manifest for the
    study.

    A distinct subclass so multi-study workflows (e.g. the two pole
    studies inside one Monte Carlo sign-off) can fall back to a fresh
    store-backed run for the side that never reached its first
    checkpoint, while genuine store corruption still propagates.
    """


def parse_positive(text, flag: str, kind=float):
    """Parse a strictly positive CLI number (``--ttl``, ``--poll``, ...).

    Malformed or out-of-range values raise :class:`StoreError`, which
    the CLI maps to exit code 2 with a one-line diagnostic instead of a
    traceback.
    """
    try:
        value = kind(str(text).strip())
    except (TypeError, ValueError):
        raise StoreError(
            f"invalid {flag} {text!r}: expected a positive "
            f"{'integer' if kind is int else 'number'}"
        ) from None
    if not value > 0:
        raise StoreError(f"invalid {flag} {text!r}: must be > 0")
    return value


def study_fingerprint(target, workload: str, samples, config: dict) -> Dict[str, str]:
    """Content fingerprint of one study: what, on what, over what.

    ``target`` is fingerprinted through
    :func:`~repro.runtime.cache.target_fingerprint` (shared with the
    :class:`~repro.runtime.cache.ModelCache`, so the manifest key of a
    study over a cached reduction matches a fresh reduction of the same
    system); ``samples`` through
    :func:`~repro.runtime.cache.array_fingerprint`; ``config`` is the
    workload's canonical option record (frequency-axis digest, waveform
    repr, thresholds, ...).  The returned dict carries the components
    *and* the combined ``key`` so manifests stay independently
    re-checkable.
    """
    record = {
        "target": target_fingerprint(target),
        "samples": array_fingerprint(np.asarray(samples, dtype=float)),
        "workload": workload,
        "config": config,
    }
    key = hashlib.sha256(
        json.dumps(record, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return {**record, "key": key}


def _verified_chunk_payload(
    directory: Path, key: str, index: int, record: dict, members=None
):
    """Load one chunk record's archive, verifying its recorded SHA-256.

    The archive is read once; its bytes are hashed against the manifest
    record and only then deserialized -- from those same bytes, so what
    is verified is exactly what is loaded.  ``members`` names the arrays
    to materialize (default: all of them; names the archive lacks are
    left out), so a reader that needs one column touches one member.

    Returns ``((payload, sha256, size), None)`` on success or
    ``(None, StoreError)`` when the archive is missing, unreadable, or
    fails its checksum.  The one verify-before-deserialize helper:
    :meth:`StudyCheckpoint.load` (resume), :meth:`StudyStore.iter_chunks`
    and the warehouse's in-place queries all go through it.
    """
    try:
        data = (directory / record["file"]).read_bytes()
    except FileNotFoundError:
        return None, StoreError(
            f"chunk {index} of study {key[:12]}... is recorded in the "
            f"manifest but its archive {record['file']!r} is missing"
        )
    except OSError as exc:
        return None, StoreError(
            f"cannot read chunk {index} archive {record['file']!r}: {exc}"
        )
    actual = hashlib.sha256(data).hexdigest()
    if actual != record["sha256"]:
        return None, StoreError(
            f"chunk {index} archive {record['file']!r} fails its recorded "
            f"checksum (manifest {record['sha256'][:12]}..., file "
            f"{actual[:12]}...); the store is corrupt"
        )
    with _DESERIALIZE_LOCK, np.load(io.BytesIO(data)) as archive:
        names = archive.files if members is None else [
            name for name in members if name in archive.files
        ]
        payload = {name: archive[name] for name in names}
    return (payload, actual, len(data)), None


def _first_verified(directory: Path, key: str, index: int, records,
                    members=None, memo=None):
    """``((record, payload, sha256, size, reused), None)`` for the first
    of chunk ``index``'s recorded copies that verifies, else
    ``(None, error)`` with the first copy's :class:`StoreError`.

    The one try-the-next-copy loop: :meth:`StudyCheckpoint.load` and
    :meth:`StudyStore.iter_chunks` keep only their own policy around it
    (lenient re-queue and span attributes; annotated records).  A
    verified load counts on ``store.chunks_loaded`` /
    ``store.bytes_read``.

    ``memo`` is the caller's dict of payloads it has already verified,
    keyed by content: ``(directory, file, recorded sha256, members)``
    (``members`` a tuple or ``None``).
    Each copy is looked up there in its turn, so a copy the caller has
    verified is taken without another read (``reused`` is true, nothing
    is counted) and the winner is the copy a read without the memo
    would pick.  A copy read here is stored with its arrays read-only.
    """
    first_error = None
    for record in records:
        content = (directory, record["file"], record["sha256"], members)
        if memo is not None and content in memo:
            payload, size = memo[content]
            return (record, payload, record["sha256"], size, True), None
        loaded, error = _verified_chunk_payload(
            directory, key, index, record, members
        )
        if error is None:
            payload, actual, size = loaded
            _CHUNKS_LOADED.inc()
            _BYTES_READ.inc(size)
            if memo is not None:
                for array in payload.values():
                    array.flags.writeable = False
                memo[content] = (payload, size)
            return (record, payload, actual, size, False), None
        first_error = first_error or error
    return None, first_error


def _chunk_alternates(manifests) -> Dict[int, List[dict]]:
    """``{chunk_index: [record, ...]}`` across parsed ``manifests``, in
    their order (see :meth:`StudyStore.chunk_records`)."""
    records: Dict[int, List[dict]] = {}
    for manifest in manifests:
        for index, record in manifest.get("chunks", {}).items():
            records.setdefault(int(index), []).append(record)
    return records


# What manifest readers index, by field: the type each must have when
# present.  A plain run's manifest records ``"worker": null``.
_MANIFEST_FIELDS = (
    ("study_key", str, "a string"),
    ("fingerprint", dict, "an object"),
    ("layout", dict, "an object"),
    ("chunks", dict, "an object"),
    ("worker", (str, type(None)), "a string or null"),
)


def _check_manifest(path: Path, manifest) -> None:
    """Raise a one-line :class:`StoreError` unless ``manifest`` has the
    shape its readers index.

    That is an object of this format whose fields
    (:data:`_MANIFEST_FIELDS`, the fingerprint's ``samples`` digest)
    have their types, and whose chunk records fit its own layout.
    Readers take a chunk's instance range straight from ``lo``/``hi``
    and open ``file`` relative to the store, so each record must name a
    chunk of the grid -- ``index < num_chunks`` and ``(lo, hi)`` that
    chunk's bounds -- and an archive directly under ``chunks/<key16>/``,
    named for that index as :meth:`StudyStore.chunk_path` names it;
    its optional ``worker`` and ``telemetry`` must have the types the
    lineage and a manifest write read.
    """

    def corrupt(problem: str) -> StoreError:
        return StoreError(f"corrupt manifest {str(path)!r}: {problem} "
                          "(delete it to start over)")

    if not isinstance(manifest, dict):
        raise corrupt("not a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise StoreError(
            f"manifest {str(path)!r} has unsupported format "
            f"{manifest.get('format')!r} (expected {MANIFEST_FORMAT!r})"
        )
    for name, kind, label in _MANIFEST_FIELDS:
        if name in manifest and not isinstance(manifest[name], kind):
            raise corrupt(f"{name!r} is not {label}")
    samples = manifest.get("fingerprint", {}).get("samples")
    if samples is not None and not isinstance(samples, str):
        raise corrupt("the fingerprint's 'samples' is not a string")
    chunks = manifest.get("chunks", {})
    if not chunks:
        return
    layout, key = manifest.get("layout", {}), manifest.get("study_key")
    grid = [layout.get(name) for name in ("chunk_size", "num_samples",
                                          "num_chunks")]
    size, total, count = grid
    if not (isinstance(key, str) and all(isinstance(v, int) for v in grid)
            and size >= 1):
        raise corrupt("chunk records without a study key and chunk layout")
    prefix = f"chunks/{key[:_KEY_PREFIX]}/"
    for index, record in chunks.items():
        # An ASCII index of at most 18 digits: int() takes it without
        # hitting the digit limit or reading a non-ASCII digit.
        if not (index.isascii() and index.isdigit() and len(index) <= 18
                and isinstance(record, dict)
                and isinstance(record.get("file"), str)
                and isinstance(record.get("sha256"), str)
                and isinstance(record.get("lo"), int)
                and isinstance(record.get("hi"), int)
                and isinstance(record.get("worker"), (str, type(None)))
                and isinstance(record.get("telemetry", {}), dict)
                and isinstance(record.get("telemetry", {}).get(
                    "wall_seconds", 0.0), (int, float))):
            raise corrupt(f"malformed record for chunk {index!r}")
        lo = int(index) * size
        bounds = (lo, min(lo + size, total))
        if int(index) >= count:
            raise corrupt(f"chunk {index} lies outside the {count}-chunk "
                          "layout")
        if (record["lo"], record["hi"]) != bounds:
            raise corrupt(f"chunk {index} records instances "
                          f"{record['lo']}..{record['hi']} where the layout "
                          f"grid has {bounds[0]}..{bounds[1]}")
        name = record["file"].replace("\\", "/")
        rest = name[len(prefix):]
        if not name.startswith(prefix) or rest in ("", ".", "..") \
                or "/" in rest:
            raise corrupt(f"chunk {index} archive {record['file']!r} lies "
                          f"outside {prefix}")
        # An archive holds no index: one named for another chunk (two
        # records' file and sha256 swapped) would fold in the wrong place.
        own = f"chunk-{int(index):05d}"
        if rest != f"{own}.npz" and not (
                rest.startswith(f"{own}.w-") and rest.endswith(".npz")):
            raise corrupt(f"chunk {index} archive {record['file']!r} is "
                          f"not named {own}.npz or {own}.w-<worker>.npz")


def _read_journal(path: Path) -> Dict[str, dict]:
    """``{index: record}`` from a journal's complete lines, later lines
    winning.

    Each line is ``{"index": <int>, "record": {...}}``.  The bytes after
    the last newline are an append that never returned and are
    ignored; any other line that is not valid UTF-8 JSON of that shape
    is a one-line :class:`StoreError` (the records themselves are
    checked with their manifest).  A journal gone since the directory
    listing was compacted, and its manifest holds its lines.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise StoreError(f"cannot read journal {str(path)!r}: {exc}") from None
    records: Dict[str, dict] = {}
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        try:
            entry = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            problem = str(exc)
        else:
            index = entry.get("index") if isinstance(entry, dict) else None
            if type(index) is int and index >= 0 \
                    and isinstance(entry.get("record"), dict):
                records[str(index)] = entry["record"]
                continue
            problem = "not an indexed chunk record"
        raise StoreError(f"corrupt journal {str(path)!r}: line {number}: "
                         f"{problem} (delete it to start over)")
    return records


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table to disk, where the platform can.

    After ``os.replace`` the *rename itself* lives in the directory, not
    the file: without this sync a power cut can roll the rename back and
    resurrect the old (or no) entry.  Platforms without ``O_DIRECTORY``
    (e.g. Windows) or that refuse to fsync a directory fd simply skip --
    the rename is still atomic, just not power-cut-durable.
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:
        return
    try:
        fd = os.open(directory, os.O_RDONLY | flag)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _probe_writable(directory: Path) -> None:
    """Create ``directory`` if missing and prove it writable.

    The probe is one empty file, created and removed, named for this
    process *and thread* like :func:`_durable_replace`'s scratch, so two
    threads opening one directory never unlink each other's probe.
    ``OSError`` propagates for the caller to wrap.
    """
    directory.mkdir(parents=True, exist_ok=True)
    probe = directory / f".write-probe-{os.getpid()}.{threading.get_ident()}"
    probe.write_bytes(b"")
    probe.unlink()


def _durable_replace(path: Path, data: bytes) -> None:
    """Atomically and crash-durably replace ``path`` with ``data``.

    The bytes go to a scratch sibling named for this process *and
    thread*, so concurrent writers of one path -- two worker processes,
    or two serve pool threads finishing identical jobs -- never share a
    scratch file.  The scratch is fsync'ed before the ``os.replace``
    rename: without that, a crash shortly after the rename can surface
    a fully named but truncated (even empty) file that fails its
    checksum on resume.  The directory sync afterwards makes the rename
    itself survive a power cut.  The scratch never outlives the call;
    ``OSError`` propagates for the caller to wrap.
    """
    scratch = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(scratch, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    _fsync_directory(path.parent)


class StudyStore:
    """Directory-backed persistence for study results and checkpoints.

    Parameters
    ----------
    directory:
        Store root; created if missing.  The constructor probes
        writability immediately (one empty file, created and removed)
        so a read-only target fails up front with a one-line
        :class:`StoreError` instead of half-way through a study.

    Most callers never touch this class directly: attach it (or just
    the directory path) to a study via
    :meth:`repro.runtime.engine.Study.store` and the engine opens one
    :class:`StudyCheckpoint` per run.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            _probe_writable(self.directory)
        except OSError as exc:
            raise StoreError(
                f"store directory {str(self.directory)!r} is not writable: {exc}"
            ) from None

    @classmethod
    def reader(cls, directory) -> "StudyStore":
        """Open a store for reading only.

        Unlike the constructor this creates, probes and writes nothing,
        so a read-only (or missing) directory can be read -- a missing
        one simply holds no manifests.  The warehouse's registration and
        query side open the stores they read this way.
        """
        store = cls.__new__(cls)
        store.directory = Path(directory)
        return store

    # -- paths ---------------------------------------------------------

    def _key_prefix(self, key: str) -> str:
        return key[:_KEY_PREFIX]

    def manifest_path(self, key: str, worker: Optional[str] = None) -> Path:
        """Manifest location for ``key`` (and worker, if any).

        A work-stealing worker writes ``manifest-<key16>.worker-<id>.json``
        so every manifest file has exactly one writer.
        """
        stem = f"manifest-{self._key_prefix(key)}"
        if worker is not None:
            stem += f".worker-{worker}"
        return self.directory / f"{stem}.json"

    def manifest_paths(self, key: str):
        """Every existing manifest file for ``key`` (workers' and legacy
        shard-named ones included), sorted -- one glob, so every flavor
        merges transparently."""
        return [path for path, _ in self._manifest_files(key)]

    def _manifest_files(self, key: str):
        """``[(manifest, journal or None)]`` for ``key``, sorted by
        manifest name: the one directory listing finds both."""
        found = {path.name: path for path in
                 self.directory.glob(f"manifest-{self._key_prefix(key)}*")}
        return [(path, found.get(name + _JOURNAL_SUFFIX))
                for name, path in sorted(found.items())
                if name.endswith(".json")]

    def chunk_path(self, key: str, index: int, worker: Optional[str] = None) -> Path:
        """On-disk location of checkpoint unit ``index`` for ``key``.

        Worker archives carry a ``.w-<id>`` suffix: npz (zip) bytes
        embed timestamps, so two workers saving the *same* chunk produce
        different bytes -- distinct filenames keep each archive
        single-writer and its manifest SHA-256 stable.
        """
        name = f"chunk-{index:05d}"
        if worker is not None:
            name += f".w-{worker}"
        return self.directory / "chunks" / self._key_prefix(key) / f"{name}.npz"

    # -- manifests -----------------------------------------------------

    def _read_manifest(self, path: Path, journal: Optional[Path] = None) -> dict:
        """Parse ``path`` with ``journal``'s records merged over its
        ``chunks``.  The journal is read first: a writer that compacts
        between the two reads has put its lines in the manifest."""
        journaled = {} if journal is None else _read_journal(journal)
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise StoreError(f"cannot read manifest {str(path)!r}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # Invalid JSON or UTF-8, an integer past the digit limit,
            # or nesting past the recursion limit.
            raise StoreError(
                f"corrupt manifest {str(path)!r}: {exc} (delete it to start over)"
            ) from None
        if journaled and isinstance(manifest, dict) \
                and isinstance(manifest.get("chunks", {}), dict):
            manifest["chunks"] = {**manifest.get("chunks", {}), **journaled}
        # Shape-check what readers index: a JSON-valid but hand-edited
        # or truncated manifest must surface as a one-line StoreError,
        # never an AttributeError deep inside a resumed run or a
        # phantom instance range in a warehouse query.
        _check_manifest(path, manifest)
        return manifest

    def load_manifests(self, key: str):
        """All parsed manifests for ``key``, journals merged (raises on
        corruption)."""
        return [self._read_manifest(path, journal)
                for path, journal in self._manifest_files(key)]

    def study_keys(self) -> List[str]:
        """Every full study key with a manifest in this store.

        Scans all manifest files (every worker and legacy shard flavor) in
        sorted filename order and returns the unique ``study_key``
        values, order-preserving -- the enumeration warehouse
        registration walks when no explicit key is given.
        """
        keys: List[str] = []
        for path in sorted(self.directory.glob("manifest-*.json")):
            key = self._read_manifest(path).get("study_key")
            if isinstance(key, str) and key not in keys:
                keys.append(key)
        return keys

    def chunk_records(self, key: str) -> Dict[int, List[dict]]:
        """``{chunk_index: [record, ...]}`` across every manifest.

        Two workers that race on one chunk each record their own copy;
        the copies are equivalent by construction (deterministic
        kernels), so readers treat later ones as *alternates* to fall
        back to when the first archive fails verification.  Order is
        deterministic: sorted manifest filename, then manifest order.
        """
        return _chunk_alternates(self.load_manifests(key))

    def completed_chunks(self, key: str) -> Dict[int, dict]:
        """Merged ``{chunk_index: record}`` across every manifest."""
        return {
            index: alternates[0]
            for index, alternates in self.chunk_records(key).items()
        }

    def lineage(self, key: str) -> List[dict]:
        """Per-chunk provenance records for study ``key``, chunk order.

        One record per completed chunk -- ``{"index", "lo", "hi",
        "sha256", "file", "worker"}`` -- drawn from the first (winning)
        alternate of each chunk, which is exactly the copy a merge
        loads first.  This is the PCN-style lineage a served result
        carries so clients can independently re-verify the bytes behind
        every row.
        """
        return [
            {
                "index": index,
                "lo": record["lo"],
                "hi": record["hi"],
                "sha256": record["sha256"],
                "file": record["file"],
                "worker": record.get("worker"),
            }
            for index, record in sorted(self.completed_chunks(key).items())
        ]

    def iter_chunks(self, key: str, members=None, memo=None):
        """Yield ``(record, payload)`` per completed chunk, index order.

        Each yielded record is an annotated *copy* of the manifest record
        that verified: ``"index"`` (int), ``"worker"`` (from the record or
        its manifest, ``None`` for a plain run), ``"bytes"`` (archive
        size) and ``"reused"`` (taken from ``memo``, not read) are
        attached so readers need not re-walk manifests.  Every payload is
        verified against its recorded SHA-256 before it is deserialized,
        and holds only ``members`` (default: every array; see
        :func:`_verified_chunk_payload`).  When several workers recorded
        one chunk, a failing copy falls back to the next alternate (same
        winning order as :meth:`completed_chunks`), and a chunk whose
        every copy fails raises the first :class:`StoreError`.  A study
        with no checkpoint here yields nothing.

        The manifests are read on every call.  ``memo`` (see
        :func:`_first_verified`) lets a caller that reads the same
        archives again -- a :class:`~repro.warehouse.QueryEngine` --
        take a copy it has verified without reading, hashing or
        unzipping it again; a re-recorded chunk (a new ``sha256``) or a
        copy in another directory is read afresh.  Payloads from a memo
        are read-only and shared: the caller copies what it hands out.
        """
        alternates: Dict[int, List[dict]] = {}
        for manifest in self.load_manifests(key):
            for index, record in manifest.get("chunks", {}).items():
                annotated = dict(record, index=int(index))
                annotated.setdefault("worker", manifest.get("worker"))
                alternates.setdefault(int(index), []).append(annotated)
        for index in sorted(alternates):
            loaded, error = _first_verified(
                self.directory, key, index, alternates[index], members, memo
            )
            if error is not None:
                raise error
            record, payload, _, size, reused = loaded
            record.update(bytes=size, reused=reused)
            yield record, payload

    def checkpoint(
        self,
        fingerprint: Dict[str, str],
        chunk_size: int,
        num_chunks: int,
        num_samples: int,
        resume: bool = False,
        context: Optional[dict] = None,
        worker: Optional[str] = None,
        lenient: bool = False,
    ) -> "StudyCheckpoint":
        """Open the checkpoint for one study run, validating any history.

        Every existing manifest for the study key is globbed and parsed
        once (corruption raises), and the checkpoint's alternates,
        completed set and own records come from that same parse.  Each
        manifest's recorded chunk layout must match the current
        plan -- a resume with a different ``chunk_size`` would silently
        change the envelope-mean accumulation order, so it is refused
        instead.  ``resume=True`` additionally requires at least one
        manifest to exist.  ``context`` (e.g. the engine's route /
        kernel / executor choice) is recorded verbatim in the
        manifest's telemetry block.

        ``worker`` names a work-stealing worker: its saves go to a
        worker-suffixed manifest and worker-suffixed chunk archives (see
        the module docstring).  ``lenient`` turns load-time verification
        failures into re-queues (``load`` returns ``None`` after trying
        every alternate copy) instead of fatal errors -- the scheduler's
        merge mode, where a corrupt chunk is simply recomputed.
        """
        key = fingerprint["key"]
        layout = {
            "num_samples": int(num_samples),
            "chunk_size": int(chunk_size),
            "num_chunks": int(num_chunks),
        }
        files = self._manifest_files(key)
        manifests = {path: self._read_manifest(path, journal)
                     for path, journal in files}
        if resume and not manifests:
            raise NothingToResumeError(
                f"nothing to resume: no manifest for study {key[:12]}... in "
                f"{str(self.directory)!r} (was it stored with a different "
                "target, sample plan, or workload?)"
            )
        for path, manifest in manifests.items():
            if manifest.get("study_key") != key:
                raise StoreError(
                    f"manifest {str(path)!r} belongs to a "
                    "different study (fingerprint mismatch)"
                )
            if manifest.get("layout") != layout:
                raise StoreError(
                    f"study {key[:12]}... was stored with chunk layout "
                    f"{manifest.get('layout')}, but this run plans {layout}; "
                    "re-run with the original chunk size or use a fresh store"
                )
        own_journal = dict(files).get(self.manifest_path(key, worker))
        return StudyCheckpoint(
            self, key, fingerprint, layout, manifests, context=context,
            worker=worker, lenient=lenient, journaled=own_journal is not None,
        )

    def __repr__(self) -> str:
        manifests = len(list(self.directory.glob("manifest-*.json")))
        return f"StudyStore({str(self.directory)!r}, manifests={manifests})"


class StudyCheckpoint:
    """One run's view of a store: load completed chunks, record new ones.

    ``completed`` merges the chunk records of *every* manifest for the
    study key, so a merge run sees every worker's work; :meth:`save`
    records to this run's own manifest and its journal only (the ones
    named by its worker), keeping concurrent workers independent, and
    :meth:`close` folds the journal into the manifest.  ``manifests`` is
    ``{path: manifest}`` as :meth:`StudyStore.checkpoint` parsed them,
    journals merged; ``journaled`` says the own manifest had a journal
    (a killed run's), which :meth:`close` folds in too.
    """

    def __init__(
        self, store, key, fingerprint, layout, manifests, context=None,
        worker=None, lenient=False, journaled=False,
    ):
        self.store = store
        self.key = key
        self.fingerprint = fingerprint
        self.layout = layout
        self.context = context
        self.worker = worker
        self.lenient = lenient
        self._alternates = _chunk_alternates(manifests.values())
        self.completed = {
            index: records[0] for index, records in self._alternates.items()
        }
        path = store.manifest_path(key, worker)
        own = manifests.get(path, {})
        self._own_records: Dict[int, dict] = {
            int(index): record for index, record in own.get("chunks", {}).items()
        }
        self._journal_path = path.with_name(path.name + _JOURNAL_SUFFIX)
        # The journal's descriptor once this run's first save made it.
        self._journal: Optional[int] = None
        # Whether the journal on disk may hold records (or a torn line)
        # the manifest lacks, and whether it may exist at all.
        self._unfolded = self._journal_exists = journaled
        self.loaded_chunks = 0
        self.saved_chunks = 0
        self.bytes_written = 0

    @property
    def num_completed(self) -> int:
        """How many chunk checkpoints exist across all manifests."""
        return len(self.completed)

    def refresh(self) -> set:
        """Re-scan the store's manifests and return the completed index set.

        Work-stealing workers call this between chunks: other workers'
        manifests grow concurrently, and a chunk someone else finished
        need not be claimed (or, if stolen mid-write, recomputed).
        """
        self._alternates = self.store.chunk_records(self.key)
        for index, records in self._alternates.items():
            self.completed.setdefault(index, records[0])
        return set(self.completed)

    def load(self, index: int) -> Optional[Dict[str, np.ndarray]]:
        """The persisted payload of chunk ``index``, or ``None``.

        Verifies the manifest's recorded SHA-256 against the archive
        bytes before deserializing.  When several workers recorded the
        same chunk, a failing copy falls back to the next alternate.
        If every copy fails: a *strict* checkpoint raises
        :class:`StoreError` (a resumed run must not silently recompute
        what the store claims to hold), while a *lenient* one
        (``lenient=True``, the scheduler's merge mode) drops the chunk
        from ``completed`` and returns ``None`` so the caller re-queues
        it -- corruption costs a recompute, not the study.
        """
        records = self._alternates.get(index) or (
            [self.completed[index]] if index in self.completed else []
        )
        if not records:
            return None
        with obs_trace.span(
            "store.load", index=index, file=records[0]["file"]
        ) as load_span:
            loaded, error = _first_verified(
                self.store.directory, self.key, index, records
            )
            if error is None:
                record, payload, actual, size, _ = loaded
                self.loaded_chunks += 1
                load_span.set(sha256=actual, bytes=size, file=record["file"])
                return payload
            if not self.lenient:
                raise error
            # Every copy is corrupt or missing: forget the chunk so the
            # drain loop claims and recomputes it.
            self.completed.pop(index, None)
            self._alternates.pop(index, None)
            _CHUNKS_REQUEUED.inc()
            load_span.set(requeued=True, error=str(error))
        return None

    def save(
        self,
        index: int,
        lo: int,
        hi: int,
        payload: Dict[str, np.ndarray],
        telemetry: Optional[dict] = None,
    ) -> dict:
        """Persist chunk ``index`` and record it -- the checkpoint unit.

        The archive is written to a temporary sibling and atomically,
        durably renamed; then the record is made durable.  This run's
        first save creates the journal and replaces the manifest (compact
        JSON holding every record this manifest owns) the same way as
        the archive, then empties the journal; every later save appends
        one line to the journal in a single ``write`` and returns only
        after its ``fsync``.  So a kill at any instant leaves either a
        fully recorded chunk or no record at all -- never a half-written
        checkpoint -- and the caller's progress, fold and lease release
        follow a durable record.  ``telemetry`` (the producing run's
        per-chunk wall/CPU/instance numbers) rides along in the chunk's
        record; the record dict is returned so callers can surface the
        recorded SHA-256.
        """
        with obs_trace.span("store.save", index=index, lo=lo, hi=hi) as save_span:
            # Serialize (and hash) in memory so the hot streaming path
            # pays one disk write per checkpoint, not a write plus a
            # read-back.
            buffer = io.BytesIO()
            np.savez(buffer, **{k: v for k, v in payload.items() if v is not None})
            data = buffer.getvalue()
            path = self.store.chunk_path(self.key, index, self.worker)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                _durable_replace(path, data)
            except OSError as exc:
                raise StoreError(
                    f"cannot write chunk {index} of study {self.key[:12]}...: {exc}"
                ) from None
            record = {
                "file": str(path.relative_to(self.store.directory)),
                "lo": int(lo),
                "hi": int(hi),
                "rows": int(hi - lo),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            if telemetry is not None:
                record["telemetry"] = telemetry
            if self.worker is not None:
                record["worker"] = self.worker
            self._own_records[index] = record
            self.completed[index] = record
            self._alternates.setdefault(index, []).insert(0, record)
            self.saved_chunks += 1
            self.bytes_written += len(data)
            _CHUNKS_SAVED.inc()
            _BYTES_WRITTEN.inc(len(data))
            save_span.set(sha256=record["sha256"], bytes=len(data))
            if self._journal is None:
                self._first_record()
            else:
                self._append(index, record)
        return record

    def _first_record(self) -> None:
        """Replace the manifest with every own record, then empty the
        journal: created before the rename, so the rename's directory
        sync covers its entry, and emptied only once the manifest
        durably holds whatever it held."""
        try:
            fd = os.open(self._journal_path,
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        except OSError as exc:
            raise StoreError(f"cannot create journal "
                             f"{str(self._journal_path)!r}: {exc}") from None
        self._journal_exists = True
        try:
            self._write_manifest()
            os.ftruncate(fd, 0)
        except OSError as exc:
            os.close(fd)
            raise StoreError(f"cannot empty journal "
                             f"{str(self._journal_path)!r}: {exc}") from None
        except BaseException:
            os.close(fd)
            raise
        self._journal, self._unfolded = fd, False

    def _append(self, index: int, record: dict) -> None:
        """Append chunk ``index``'s record to the journal, durably.  A
        failed append closes the journal, so a next save starts over
        with a manifest replace instead of writing after a torn line."""
        line = json.dumps({"index": index, "record": record},
                          sort_keys=True).encode() + b"\n"
        self._unfolded = True
        try:
            written = os.write(self._journal, line)
            if written != len(line):
                raise OSError(f"wrote {written} of {len(line)} bytes")
            os.fsync(self._journal)
        except OSError as exc:
            os.close(self._journal)
            self._journal = None
            raise StoreError(f"cannot append chunk {index} to journal "
                             f"{str(self._journal_path)!r}: {exc}") from None

    def close(self) -> None:
        """Fold the journal into the manifest and remove it.

        ``Study.run()`` calls this after its chunk loop and
        ``Study.work()`` after its drain, both on the way out of any
        exception.  When the journal may hold records the manifest
        lacks -- this run's later saves, or the journal of a killed run
        this one reopened -- the manifest is replaced once with every
        own record; only then is the journal unlinked, so a record
        never leaves it before a durable manifest holds it.  A run that
        saved nothing over a store without a journal writes nothing.
        Idempotent.
        """
        fd, self._journal = self._journal, None
        if fd is not None:
            os.close(fd)
        if self._unfolded:
            with obs_trace.span("store.compact",
                                records=len(self._own_records)):
                self._write_manifest()
            self._unfolded = False
        if self._journal_exists:
            try:
                self._journal_path.unlink(missing_ok=True)
            except OSError as exc:
                raise StoreError(f"cannot remove journal "
                                 f"{str(self._journal_path)!r}: {exc}") from None
            self._journal_exists = False

    def _write_manifest(self) -> None:
        records = {
            str(index): self._own_records[index]
            for index in sorted(self._own_records)
        }
        manifest = {
            "format": MANIFEST_FORMAT,
            "study_key": self.key,
            "fingerprint": self.fingerprint,
            "layout": self.layout,
            # Always null: only static shard runs of older releases
            # wrote "shard": [index, of] (see the module docstring).
            "shard": None,
            "worker": self.worker,
            "chunks": records,
            # Run telemetry (see README, "Store layout and manifest
            # schema"): how the most
            # recent writing run produced what the manifest records.
            # Older readers ignore the extra key; the layout-equality
            # resume check never touches it.
            "telemetry": {
                "writer_pid": os.getpid(),
                "context": self.context,
                "chunks_saved": self.saved_chunks,
                "chunks_loaded": self.loaded_chunks,
                "bytes_written": self.bytes_written,
                "wall_seconds": round(
                    sum(
                        record.get("telemetry", {}).get("wall_seconds", 0.0)
                        for record in records.values()
                    ),
                    6,
                ),
            },
        }
        path = self.store.manifest_path(self.key, self.worker)
        try:
            _durable_replace(path, json.dumps(manifest, sort_keys=True).encode())
        except OSError as exc:
            raise StoreError(
                f"cannot write manifest {str(path)!r}: {exc}"
            ) from None

    def __repr__(self) -> str:
        total = self.layout["num_chunks"]
        return (
            f"StudyCheckpoint(study={self.key[:12]}..., "
            f"completed={self.num_completed}/{total}, worker={self.worker})"
        )
