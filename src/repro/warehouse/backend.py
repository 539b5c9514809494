"""Columnar file backends for the result warehouse.

The warehouse core is format-agnostic: ingest produces plain
``{column_name: numpy array}`` tables and hands them to a backend that
owns serialization.  Two backends exist:

- :class:`ParquetBackend` writes Apache Parquet through ``pyarrow`` --
  the production format, queryable by duckdb/polars out-of-core.
  ``pyarrow`` is an **optional extra**: when it is not installed the
  backend is unavailable and says so in one line.
- :class:`NativeBackend` writes columnar ``.npz`` archives (one numpy
  array per column) with no dependency beyond numpy.  It is the
  fallback ``"auto"`` resolves to when pyarrow is absent, keeps every
  warehouse feature (idempotent ingest, provenance columns, streamed
  aggregation) functional, and round-trips float64 columns bitwise.

Both write through the store's crash-durable atomic-replace idiom
(:func:`repro.runtime.store._durable_replace`), so a killed ingest can
never leave a torn table behind -- the chunk partition either holds a
complete file or none.

Readers dispatch on file extension (:func:`backend_for_file`), so one
dataset directory may legitimately mix formats -- e.g. Parquet written
on a machine with the extras, native archives appended by a bare
worker.  The query layer reads both transparently; only the external
engines (duckdb/polars) require an all-Parquet dataset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.runtime.store import StoreError, _durable_replace

__all__ = [
    "NativeBackend",
    "ParquetBackend",
    "WarehouseError",
    "backend_for_file",
    "have_duckdb",
    "have_polars",
    "have_pyarrow",
    "resolve_backend",
]


class WarehouseError(StoreError):
    """A warehouse operation failed (missing optional dependency,
    unreadable dataset, provenance mismatch, unwritable directory).

    Subclasses :class:`~repro.runtime.store.StoreError` so the CLI's
    existing mapping applies unchanged: exit code 2 with a one-line
    diagnostic, never a traceback.
    """


def _optional(module_name: str):
    try:
        return __import__(module_name)
    except ImportError:
        return None


def have_pyarrow() -> bool:
    """Whether the ``pyarrow`` optional extra is importable."""
    return _optional("pyarrow") is not None


def have_duckdb() -> bool:
    """Whether the ``duckdb`` optional extra is importable."""
    return _optional("duckdb") is not None


def have_polars() -> bool:
    """Whether the ``polars`` optional extra is importable."""
    return _optional("polars") is not None


def _write_durable(path: Path, data: bytes) -> None:
    try:
        _durable_replace(path, data)
    except OSError as exc:
        raise WarehouseError(
            f"cannot write warehouse file {str(path)!r}: {exc}"
        ) from None


class NativeBackend:
    """Dependency-free columnar backend: one numpy array per column.

    Tables are ``.npz`` archives.  ``np.load`` decompresses members
    lazily, so :meth:`read` with an explicit column list touches only
    the requested columns -- the property the streamed query engine's
    memory budget relies on.
    """

    name = "native"
    extension = ".npz"

    def write(self, path: Path, columns: Dict[str, np.ndarray]) -> int:
        import io

        buffer = io.BytesIO()
        np.savez(buffer, **columns)
        data = buffer.getvalue()
        _write_durable(Path(path), data)
        return len(data)

    def read(
        self, path: Path, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        try:
            with np.load(path) as archive:
                names = archive.files if columns is None else list(columns)
                return {name: archive[name] for name in names}
        except (OSError, KeyError, ValueError) as exc:
            raise WarehouseError(
                f"cannot read warehouse file {str(path)!r}: {exc}"
            ) from None

    def column_names(self, path: Path) -> list:
        try:
            with np.load(path) as archive:
                return list(archive.files)
        except (OSError, ValueError) as exc:
            raise WarehouseError(
                f"cannot read warehouse file {str(path)!r}: {exc}"
            ) from None


class ParquetBackend:
    """Parquet through pyarrow (optional extra).

    Construction raises a one-line :class:`WarehouseError` when pyarrow
    is not importable, so ``--backend parquet`` on a bare machine fails
    up front with the remedy, and ``"auto"`` quietly falls back to the
    native backend instead.
    """

    name = "parquet"
    extension = ".parquet"

    def __init__(self):
        if not have_pyarrow():
            raise WarehouseError(
                "the parquet backend needs the optional 'pyarrow' extra "
                "(pip install pyarrow), or use the dependency-free native "
                "backend"
            )

    @staticmethod
    def _arrow(columns: Dict[str, np.ndarray]):
        import pyarrow as pa

        arrays = {}
        for name, values in columns.items():
            array = np.asarray(values)
            # Unicode/object columns go through python lists: arrow's
            # numpy fast path only covers numeric dtypes.
            if array.dtype.kind in ("U", "S", "O"):
                arrays[name] = pa.array([str(v) for v in array.tolist()])
            else:
                arrays[name] = pa.array(array)
        return pa.table(arrays)

    def write(self, path: Path, columns: Dict[str, np.ndarray]) -> int:
        import io

        import pyarrow.parquet as pq

        buffer = io.BytesIO()
        pq.write_table(self._arrow(columns), buffer)
        data = buffer.getvalue()
        _write_durable(Path(path), data)
        return len(data)

    def read(
        self, path: Path, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        import pyarrow.parquet as pq

        try:
            table = pq.read_table(
                path, columns=None if columns is None else list(columns)
            )
        except (OSError, ValueError) as exc:
            raise WarehouseError(
                f"cannot read warehouse file {str(path)!r}: {exc}"
            ) from None
        out = {}
        for name in table.column_names:
            column = table.column(name)
            values = column.to_numpy(zero_copy_only=False)
            out[name] = values
        return out

    def column_names(self, path: Path) -> list:
        import pyarrow.parquet as pq

        try:
            return list(pq.ParquetFile(path).schema_arrow.names)
        except (OSError, ValueError) as exc:
            raise WarehouseError(
                f"cannot read warehouse file {str(path)!r}: {exc}"
            ) from None


def resolve_backend(spec="auto"):
    """Realize a backend spec: ``"auto"``, ``"parquet"``, ``"native"``,
    or an already-constructed backend object (passes through).

    ``"auto"`` prefers Parquet and silently falls back to the native
    backend when pyarrow is missing; an *explicit* ``"parquet"``
    request without pyarrow raises the one-line diagnostic instead --
    asking for a format you cannot write should never quietly produce
    a different one.
    """
    if hasattr(spec, "write") and hasattr(spec, "read"):
        return spec
    if spec == "auto":
        return ParquetBackend() if have_pyarrow() else NativeBackend()
    if spec == "parquet":
        return ParquetBackend()
    if spec == "native":
        return NativeBackend()
    raise WarehouseError(
        f"unknown warehouse backend {spec!r}: use 'auto', 'parquet', or 'native'"
    )


def backend_for_file(path) -> object:
    """The reader backend for one dataset file, by extension."""
    suffix = Path(path).suffix
    if suffix == ".parquet":
        return ParquetBackend()
    if suffix == ".npz":
        return NativeBackend()
    raise WarehouseError(
        f"unrecognized warehouse file {str(path)!r}: expected .parquet or .npz"
    )
