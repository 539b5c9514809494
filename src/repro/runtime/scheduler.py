"""Lease-based work-stealing over a shared :class:`StudyStore` directory.

Splitting one study across processes or machines must survive a slow
or dead participant: a static assignment of chunks to machines would
strand the dead one's chunks and the study would never drain.  This
module turns the store directory itself into the coordination
substrate: any number of heterogeneous workers point at the same
directory and **claim** chunks one at a time through atomic claim
files, so a fast machine simply takes more chunks and a dead worker's
claims expire and are stolen.  No daemon, no socket, no new
dependency -- the filesystem the store already requires is the whole
control plane.

The lease protocol, in full:

``claim``
    A claim is a JSON file ``claims/<key16>/chunk-00007.claim``.  To
    acquire, a worker writes the claim record to a private scratch file
    and ``os.link``\\ s it to the claim name -- a true test-and-set:
    the link fails with ``FileExistsError`` when any claim exists, so
    two workers can never both think they own a chunk.  (``os.replace``
    is *not* used for acquisition precisely because it silently
    overwrites; it is reserved for stealing, below.)

``heartbeat``
    The owner periodically rewrites its claim with an incremented
    ``beats`` counter (the :meth:`LeaseBoard.sustain` context manager
    runs this in a daemon thread while a chunk computes).  A claim's
    **identity** is the pair ``(token, beats)``.

``expire``
    Expiry is judged *observer-side* with a monotonic clock: an
    observer remembers when it first saw a given claim identity, and
    only treats the claim as expired after the identity has stayed
    unchanged for a full TTL on the observer's own clock.  Wall-clock
    skew between machines is therefore irrelevant, and a claim written
    long ago is never insta-stolen -- every observer grants it a fresh
    TTL from first sight.  One fast path: when the claim's recorded
    host matches the observer's and the recorded pid no longer exists,
    the lease is expired immediately (the common single-machine chaos
    case -- a SIGKILLed worker -- drains without waiting out the TTL).

``steal``
    An expired claim is taken over with ``os.replace`` of a fresh
    claim record.  If two observers steal the same claim concurrently
    the last replace wins; the loser either notices (its read-back
    token differs) or computes the chunk redundantly -- which is
    *benign*, because workers write worker-suffixed chunk files and
    per-worker manifests (see :mod:`repro.runtime.store`), so a race
    wastes a little work but can never corrupt a result.

``release``
    After checkpointing a chunk the owner unlinks its claim (checking
    the token first, so a stolen-then-released claim is left alone).

The merge step stays proof-carrying: every chunk's SHA-256 is verified
against its manifest record before folding, and under the scheduler's
lenient mode a chunk whose every copy fails verification is re-queued
and recomputed rather than aborting the study.  The drained-and-merged
result is bit-identical to a one-shot run -- same chunk layout, same
fold order, same reducers.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace
from repro.obs import metrics as obs_metrics
from repro.runtime.store import StoreError, StudyCheckpoint

__all__ = [
    "CLAIM_FORMAT",
    "DrainReport",
    "Lease",
    "LeaseBoard",
    "default_worker_id",
    "drain_chunks",
    "parse_worker_id",
]

CLAIM_FORMAT = "repro-claim/v1"

_LEASES_CLAIMED = obs_metrics.counter("scheduler.leases_claimed")
_LEASES_STOLEN = obs_metrics.counter("scheduler.leases_stolen")

_WORKER_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}", re.ASCII)


def default_worker_id() -> str:
    """A fresh filename-safe worker id: ``<host>-<pid>-<random>``.

    Unique per process *and* per call, so a respawned worker on the
    same pid never collides with its predecessor's manifest.
    """
    host = re.sub(r"[^A-Za-z0-9.-]", "-", socket.gethostname())[:24] or "host"
    return f"{host}-{os.getpid()}-{secrets.token_hex(3)}"


def parse_worker_id(text: str) -> str:
    """Validate a user-supplied ``--worker-id``.

    Worker ids become path components (``manifest-*.worker-<id>.json``,
    ``chunk-*.w-<id>.npz``), so anything beyond ``[A-Za-z0-9._-]`` --
    separators, whitespace, a leading dot -- is refused with the CLI's
    exit-2 one-line :class:`StoreError` contract.
    """
    if not _WORKER_ID.fullmatch(text or ""):
        raise StoreError(
            f"invalid worker id {text!r}: use letters, digits, '.', '_', '-' "
            "(max 64 chars, must not start with a separator)"
        )
    return text


@dataclass
class Lease:
    """One held claim: proof this process may compute chunk ``index``."""

    index: int
    token: str
    path: Path
    stolen: bool = False
    beats: int = 0


@dataclass
class DrainReport:
    """What one :func:`drain_chunks` call accomplished.

    ``drained`` is True when *the study* is complete -- every chunk has
    a checkpoint, whoever computed it -- not merely when this worker
    ran out of claims.  ``computed``/``stolen`` list the chunk indices
    this worker checkpointed and the subset it acquired by stealing an
    expired lease; ``waits`` counts poll sleeps spent watching other
    workers' claims."""

    drained: bool
    computed: List[int] = field(default_factory=list)
    stolen: List[int] = field(default_factory=list)
    waits: int = 0


class LeaseBoard:
    """The claim table for one study inside a store directory.

    Parameters
    ----------
    store:
        The :class:`~repro.runtime.store.StudyStore` being worked.
    key:
        The study key (claims live under ``claims/<key16>/``).
    worker:
        This worker's id, recorded in every claim it writes.
    ttl:
        Seconds a claim identity may stay unchanged before observers
        treat it as expired.  Must comfortably exceed the heartbeat
        interval (``ttl / 4``) plus the slowest chunk's save time; the
        default suits CI-scale chunks, long-running chunks want more.
    clock:
        Monotonic-clock callable, injectable so lease-expiry tests run
        on a fake clock instead of sleeping.
    """

    def __init__(self, store, key: str, worker: Optional[str] = None,
                 ttl: float = 30.0, clock: Callable[[], float] = time.monotonic):
        self.store = store
        self.key = key
        self.worker = worker or default_worker_id()
        self.ttl = float(ttl)
        self.clock = clock
        self.host = socket.gethostname()
        self.directory = store.directory / "claims" / key[:16]
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create claim directory {str(self.directory)!r}: {exc}"
            ) from None
        # Observer state: claim identity -> when this board first saw it
        # (on *our* clock).  Identity change resets the timer.
        self._watch: Dict[int, Tuple[Tuple[str, int], float]] = {}

    # -- claim records -------------------------------------------------

    def claim_path(self, index: int) -> Path:
        return self.directory / f"chunk-{index:05d}.claim"

    def _claim_record(self, index: int, token: str, beats: int) -> dict:
        return {
            "format": CLAIM_FORMAT,
            "index": int(index),
            "worker": self.worker,
            "pid": os.getpid(),
            "host": self.host,
            "token": token,
            "beats": int(beats),
            "wall_time": time.time(),
        }

    def _read_claim(self, path: Path) -> Optional[dict]:
        """Parse a claim file; ``None`` when missing or unreadable.

        A claim that does not decode to an object -- a torn write from
        a dying kernel, a hand-edited file, invalid UTF-8, JSON nested
        past the recursion limit -- has no identity and no live pid: it
        expires and is stolen like any dead one.
        """
        try:
            record = json.loads(path.read_bytes())
        except (OSError, ValueError, RecursionError):
            return None
        return record if isinstance(record, dict) else None

    def _write_claim(self, path: Path, record: dict, replace: bool) -> bool:
        """Write a claim atomically; acquisition links, stealing replaces."""
        scratch = path.with_name(f".{path.name}.{os.getpid()}.{record['token']}.tmp")
        try:
            scratch.write_text(json.dumps(record, sort_keys=True))
            try:
                if replace:
                    os.replace(scratch, path)
                else:
                    os.link(scratch, path)
            except FileExistsError:
                return False
            finally:
                scratch.unlink(missing_ok=True)
        except OSError as exc:
            scratch.unlink(missing_ok=True)
            raise StoreError(
                f"cannot write claim {str(path)!r}: {exc}"
            ) from None
        return True

    # -- expiry --------------------------------------------------------

    def _pid_is_dead(self, record: dict) -> bool:
        """Fast local-host liveness probe; conservative off-host."""
        if record.get("host") != self.host:
            return False
        pid = record.get("pid")
        if type(pid) is not int or pid <= 0:  # a bool is not a pid
            return True
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, OverflowError):
            return True  # no such process, or a pid no process can have
        except OSError:
            pass  # alive but not ours (PermissionError) -- or unknowable
        return False

    def _expired(self, index: int, record: Optional[dict]) -> bool:
        """Observer-side expiry for the claim currently at ``index``."""
        if record is None:
            return True  # unreadable claim: no identity, no heartbeat
        if self._pid_is_dead(record):
            obs_trace.event(
                "lease.expire", index=index, worker=record.get("worker"),
                reason="dead-pid",
            )
            return True
        identity = (record.get("token"), record.get("beats"))
        now = self.clock()
        seen = self._watch.get(index)
        if seen is None or seen[0] != identity:
            self._watch[index] = (identity, now)
            return False
        if now - seen[1] <= self.ttl:
            return False
        obs_trace.event(
            "lease.expire", index=index, worker=record.get("worker"),
            reason="ttl", beats=record.get("beats"),
        )
        return True

    # -- the lease lifecycle -------------------------------------------

    def try_claim(self, index: int) -> Optional[Lease]:
        """Attempt to acquire chunk ``index``; ``None`` while it is held.

        Acquisition of a free chunk is an atomic link (test-and-set);
        a held chunk is watched until its identity goes stale, then
        stolen with a replace.  Either way the caller owns the returned
        lease until :meth:`release`.
        """
        path = self.claim_path(index)
        token = secrets.token_hex(8)
        record = self._claim_record(index, token, beats=0)
        current = self._read_claim(path)
        if current is None:
            if self._write_claim(path, record, replace=False):
                self._watch.pop(index, None)
                _LEASES_CLAIMED.inc()
                obs_trace.event("lease.claim", index=index, worker=self.worker)
                return Lease(index=index, token=token, path=path)
            # Link failed: a claim appeared between our read and the
            # link (or the existing file is corrupt).  Re-read and judge
            # it like any held claim -- never steal a just-made one.
            current = self._read_claim(path)
            if current is not None:
                self._expired(index, current)  # start watching its identity
                return None
        if not self._expired(index, current):
            return None
        self._write_claim(path, record, replace=True)
        # A concurrent stealer may have replaced after us; read back to
        # learn who actually won.  (Losing is benign -- see module doc.)
        final = self._read_claim(path)
        if final is None or final.get("token") != token:
            return None
        self._watch.pop(index, None)
        _LEASES_CLAIMED.inc()
        _LEASES_STOLEN.inc()
        obs_trace.event(
            "lease.steal", index=index, worker=self.worker,
            previous=(current or {}).get("worker"),
        )
        return Lease(index=index, token=token, path=path, stolen=True)

    def heartbeat(self, lease: Lease) -> None:
        """Refresh ``lease`` so observers keep granting it a full TTL."""
        lease.beats += 1
        self._write_claim(
            lease.path,
            self._claim_record(lease.index, lease.token, lease.beats),
            replace=True,
        )

    def release(self, lease: Lease) -> None:
        """Drop ``lease`` (only if still ours -- a stolen claim is left
        to its new owner).  Never raises: by release time the chunk is
        checkpointed, and a stale claim merely expires later."""
        try:
            current = self._read_claim(lease.path)
            if current is not None and current.get("token") == lease.token:
                lease.path.unlink(missing_ok=True)
        except OSError:
            pass

    @contextmanager
    def sustain(self, lease: Lease):
        """Heartbeat ``lease`` from a daemon thread while the body runs.

        The interval is ``ttl / 4``, so even a heartbeat that lands
        just after an observer's poll leaves the identity refreshed
        several times per TTL window.  The thread dies with the
        process -- which is the point: a SIGKILLed worker stops
        beating, its claim's identity freezes, and the lease expires.
        """
        stop = threading.Event()
        interval = max(self.ttl / 4.0, 0.01)

        def beat():
            while not stop.wait(interval):
                try:
                    self.heartbeat(lease)
                except StoreError:
                    return  # claim dir vanished: stop beating, keep computing

        thread = threading.Thread(
            target=beat, name=f"lease-beat-{lease.index}", daemon=True
        )
        thread.start()
        try:
            yield lease
        finally:
            stop.set()
            thread.join(timeout=self.ttl)


def drain_chunks(
    checkpoint: StudyCheckpoint,
    compute: Callable[[int], None],
    board: LeaseBoard,
    poll: float = 0.2,
    max_chunks: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> DrainReport:
    """Work-steal until every chunk of ``checkpoint``'s study is stored.

    ``compute(index)`` must compute chunk ``index`` and checkpoint it
    (the engine's :meth:`~repro.runtime.engine.Study.work` passes a
    closure over the chunk loop's checkpoint unit,
    :func:`repro.runtime.stream._chunk_unit`).  The loop claims unfinished
    chunks through ``board``, sustains a heartbeat around each compute,
    and -- when every remaining chunk is claimed by someone else --
    polls every ``poll`` seconds for other workers' manifests (and
    their journals) to grow or their leases to expire.  ``max_chunks``
    caps this worker's computes (chaos tests use it to stop a worker at
    a known kill point); the returned report then says
    ``drained=False`` and the study is someone else's to finish.
    """
    total = checkpoint.layout["num_chunks"]
    report = DrainReport(drained=False)
    pending = set(range(total)) - checkpoint.refresh()
    while pending:
        progress = False
        for index in sorted(pending):
            if max_chunks is not None and len(report.computed) >= max_chunks:
                return report
            lease = board.try_claim(index)
            if lease is None:
                continue
            try:
                # The previous owner may have finished the chunk in the
                # gap between our manifest scan and the steal.
                if index in checkpoint.refresh():
                    pending.discard(index)
                    progress = True
                    continue
                with obs_trace.span(
                    "scheduler.chunk", index=index, worker=board.worker,
                    stolen=lease.stolen,
                ):
                    with board.sustain(lease):
                        compute(index)
            finally:
                board.release(lease)
            report.computed.append(index)
            if lease.stolen:
                report.stolen.append(index)
            pending.discard(index)
            progress = True
        pending -= checkpoint.refresh()
        if pending and not progress:
            report.waits += 1
            sleep(poll)
    report.drained = True
    return report
