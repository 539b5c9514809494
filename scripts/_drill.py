"""Helpers shared by the end-to-end drills (``scripts/ci_*.py``).

Standard library only: a drill reads manifests and journals, recomputes
chunk checksums and drives ``python -m repro`` without importing the
library, so what it checks about a store does not depend on the code
that wrote it.  The drills run as ``python scripts/ci_<name>.py``,
which puts this directory first on ``sys.path``.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def ladder_netlist(title: str, segments: int) -> str:
    """An RC ladder of ``segments`` 25-ohm / 0.02 pF sections, driven
    through 10 ohm at port ``in`` (node ``n0``)."""
    lines = [f".title {title}", "Rdrv n0 0 10", "C0 n0 0 0.02p"]
    for k in range(1, segments + 1):
        lines.append(f"R{k} n{k - 1} n{k} 25")
        lines.append(f"C{k} n{k} 0 0.02p")
    lines.append(".port in n0")
    return "\n".join(lines) + "\n"


def cli_environment(**extra) -> dict:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, plus ``extra``."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH") else ""
    )
    environment.update(extra)
    return environment


def run_cli(arguments, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m repro *arguments`` to completion (text mode)."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        env=cli_environment(), text=True, **kwargs,
    )


def popen_cli(arguments, **kwargs) -> subprocess.Popen:
    """Start ``python -m repro *arguments`` (text mode)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        env=cli_environment(), text=True, **kwargs,
    )


def csv_lines(text: str) -> list:
    """The non-empty, non-``#`` lines of a CLI's CSV output."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def sha256_file(path: pathlib.Path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def journal_entries(path: pathlib.Path) -> list:
    """The complete lines of manifest ``path``'s ``.journal``, parsed
    (``{"index", "record"}`` each); none without a journal.  Bytes
    after the last newline are an append that never returned."""
    journal = path.with_name(path.name + ".journal")
    try:
        lines = journal.read_bytes().split(b"\n")[:-1]
    except FileNotFoundError:
        return []
    return [json.loads(line) for line in lines]


def read_manifest(path: pathlib.Path) -> dict:
    """Parse a store manifest with its journal's complete lines merged
    over its ``chunks`` (later lines win), independently of the library.

    A run's later checkpoints are lines of ``<manifest>.journal`` until
    the run compacts them, so a killed run's chunks are only there.  The
    journal is read first, as the store does (a compaction in between
    has put its lines in the manifest).
    """
    entries = journal_entries(path)
    manifest = json.loads(path.read_text())
    for entry in entries:
        manifest.setdefault("chunks", {})[str(entry["index"])] = entry["record"]
    return manifest


def saved_chunks(store: pathlib.Path) -> set:
    """``(key16, index)`` of every chunk any manifest in ``store``
    records; manifests caught mid-replace are skipped."""
    saved = set()
    for manifest_path in store.glob("manifest-*.json"):
        key16 = manifest_path.name[len("manifest-"):][:16]
        try:
            manifest = read_manifest(manifest_path)
        except (OSError, ValueError):
            continue
        saved.update((key16, int(index)) for index in manifest.get("chunks", {}))
    return saved


def victim_pending_claim(store: pathlib.Path, victim: str):
    """A ``(key16, index)`` that worker ``victim`` has claimed but no
    manifest records yet, else ``None``."""
    saved = saved_chunks(store)
    for claim in store.glob("claims/*/*.claim"):
        try:
            record = json.loads(claim.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or record.get("worker") != victim:
            continue
        pending = (claim.parent.name, record.get("index"))
        if pending not in saved:
            return pending
    return None
