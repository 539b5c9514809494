"""Columnar ``.npz`` table files for the result warehouse.

Ingest produces plain ``{column_name: numpy array}`` tables; this
module serializes each as one ``.npz`` archive (one numpy array per
column) with no dependency beyond numpy, round-tripping float64 columns
bitwise.  ``np.load`` decompresses members lazily, so :func:`read` with
an explicit column list touches only the requested columns -- the
property the query engine's memory budget relies on.

Writes go through the store's crash-durable atomic-replace idiom
(:func:`repro.runtime.store._durable_replace`), so a killed ingest can
never leave a torn table behind -- the chunk partition either holds a
complete file or none.

Older releases could also write Apache Parquet partitions.  Those
files are not read: ingest of a study whose partitions hold one, and
any query that would read one, raise (:func:`refuse_parquet`), because
skipping such a chunk as already ingested, or aggregating around it,
would silently drop rows.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.runtime.store import StoreError, _durable_replace

__all__ = [
    "EXTENSION",
    "WarehouseError",
    "column_names",
    "read",
    "refuse_parquet",
    "write",
]

#: File suffix of every warehouse table.
EXTENSION = ".npz"


class WarehouseError(StoreError):
    """A warehouse operation failed (unreadable dataset, provenance
    mismatch, unwritable directory, a legacy ``.parquet`` partition).

    Subclasses :class:`~repro.runtime.store.StoreError` so the CLI's
    existing mapping applies unchanged: exit code 2 with a one-line
    diagnostic, never a traceback.
    """


def refuse_parquet(directory, tables) -> None:
    """Raise a one-line :class:`WarehouseError` when any of ``tables``
    (paths inside the dataset root ``directory``) is a ``.parquet``
    table."""
    if any(Path(path).suffix == ".parquet" for path in tables):
        raise WarehouseError(
            f"warehouse {str(directory)!r} holds .parquet partitions, "
            "which this release no longer reads; re-ingest from the store "
            "into a fresh directory"
        )


def write(path: Path, columns: Dict[str, np.ndarray]) -> int:
    """Durably write one table; returns the bytes written."""
    buffer = io.BytesIO()
    np.savez(buffer, **columns)
    data = buffer.getvalue()
    try:
        _durable_replace(Path(path), data)
    except OSError as exc:
        raise WarehouseError(
            f"cannot write warehouse file {str(path)!r}: {exc}"
        ) from None
    return len(data)


def read(
    path: Path, columns: Optional[Sequence[str]] = None
) -> Dict[str, np.ndarray]:
    """The requested columns of one table (default: all of them)."""
    try:
        with np.load(path) as archive:
            names = archive.files if columns is None else list(columns)
            return {name: archive[name] for name in names}
    except (OSError, KeyError, ValueError) as exc:
        raise WarehouseError(
            f"cannot read warehouse file {str(path)!r}: {exc}"
        ) from None


def column_names(path: Path) -> list:
    """Column names of one table, without reading any column."""
    try:
        with np.load(path) as archive:
            return list(archive.files)
    except (OSError, ValueError) as exc:
        raise WarehouseError(
            f"cannot read warehouse file {str(path)!r}: {exc}"
        ) from None
