"""Out-of-core aggregation over warehouse datasets.

One engine computes every aggregate: numpy, one partition file at a
time, reading *only* the requested columns of each ``.npz`` table, with
no dependency beyond numpy and an optional per-file memory budget.

Exactness is the contract: ``percentile`` is a true percentile over the
gathered finite values (``np.percentile``), never a sketch; ``yield``
and ``outliers`` reduce the identical float64 values the solvers
persisted.  Every aggregate can therefore be asserted equal --
bitwise -- to the in-RAM result computed from the original study
object, which is what the acceptance tests and the warehouse CI drill
do.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.warehouse import backend
from repro.warehouse.backend import WarehouseError
from repro.warehouse.ingest import Warehouse

__all__ = ["QueryEngine"]


class QueryEngine:
    """Aggregations over one :class:`~repro.warehouse.Warehouse`.

    Parameters
    ----------
    warehouse:
        Dataset directory or :class:`Warehouse`.
    memory_budget:
        Optional bound in bytes on the column bytes materialized from
        any single partition file (the engine's working set).
        Files that would exceed it raise with the measured size, so an
        aggregation's memory footprint is a declared contract rather
        than an accident of dataset growth.
    """

    def __init__(self, warehouse, memory_budget: Optional[int] = None):
        self.warehouse = (
            warehouse if isinstance(warehouse, Warehouse)
            else Warehouse(warehouse)
        )
        self.memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise WarehouseError("memory budget must be >= 1 byte")
        #: Column bytes materialized by the most recent aggregation
        #: (peak per file, and total) -- how tests assert the
        #: out-of-core property instead of trusting it.
        self.last_peak_file_bytes = 0
        self.last_total_bytes = 0

    # -- dataset inventory ---------------------------------------------

    def studies(self) -> List[dict]:
        """Study records of the dataset (see :meth:`Warehouse.studies`)."""
        return self.warehouse.studies()

    def files(self, table: str, study: Optional[str] = None) -> List[Path]:
        """Sorted partition files of ``table`` (optionally one study)."""
        root = self.warehouse.directory
        prefix = f"key16={study[:16]}" if study else "key16=*"
        found = sorted(root.glob(f"{prefix}/shard=*/chunk=*/{table}-*"))
        backend.refuse_parquet(root, found)
        return [path for path in found if path.suffix == backend.EXTENSION]

    # -- column gathering ----------------------------------------------

    def _gather(self, table: str, columns: Sequence[str],
                study: Optional[str] = None) -> Dict[str, np.ndarray]:
        """Concatenated columns of ``table`` across every partition.

        Only the requested columns are materialized, one file at a time
        -- that is the out-of-core story: the dataset may be far larger
        than RAM as long as the projected columns fit.
        """
        files = self.files(table, study)
        if not files:
            raise WarehouseError(
                f"no {table!r} partitions"
                + (f" for study {study!r}" if study else "")
                + f" in {str(self.warehouse.directory)!r}"
            )
        self.last_peak_file_bytes = 0
        self.last_total_bytes = 0
        parts: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        for path in files:
            loaded = backend.read(path, columns=columns)
            file_bytes = sum(
                int(np.asarray(values).nbytes) for values in loaded.values()
            )
            self.last_peak_file_bytes = max(
                self.last_peak_file_bytes, file_bytes
            )
            if self.memory_budget is not None \
                    and file_bytes > self.memory_budget:
                raise WarehouseError(
                    f"partition {path.name!r} materializes {file_bytes} "
                    f"column bytes, over the {self.memory_budget}-byte "
                    "memory budget; raise the budget or re-ingest with a "
                    "smaller chunk size"
                )
            for name in columns:
                parts[name].append(np.asarray(loaded[name]))
        gathered = {name: np.concatenate(parts[name]) for name in columns}
        self.last_total_bytes = sum(
            int(values.nbytes) for values in gathered.values()
        )
        return gathered

    # -- aggregations --------------------------------------------------

    def metric_values(self, metric: str, table: str = "instances",
                      study: Optional[str] = None) -> np.ndarray:
        """All values of one metric column, dataset order."""
        return np.asarray(
            self._gather(table, [metric], study)[metric], dtype=float
        )

    def yield_fraction(self, metric: str, limit: float,
                       study: Optional[str] = None,
                       table: str = "instances") -> dict:
        """Fraction of instances whose ``metric`` passes ``<= limit``.

        Instances whose metric is NaN/Inf (e.g. a transient delay that
        never crossed the threshold) count as failing -- a delay you
        cannot measure is not a passing die.
        """
        values = self.metric_values(metric, table=table, study=study)
        passed = int(np.count_nonzero(
            np.isfinite(values) & (values <= limit)
        ))
        total = int(values.size)
        return {
            "metric": metric,
            "limit": float(limit),
            "passed": passed,
            "total": total,
            "fraction": passed / total if total else 0.0,
        }

    def percentile(self, metric: str, q: float,
                   study: Optional[str] = None,
                   table: str = "instances") -> dict:
        """Exact percentile of the finite values of ``metric``.

        Computed with :func:`np.percentile` over the gathered column,
        so the result is bitwise equal to the same reduction of the
        in-RAM study arrays -- no sketching, no approximation.
        """
        values = self.metric_values(metric, table=table, study=study)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            raise WarehouseError(
                f"percentile({metric!r}): no finite values in the dataset"
            )
        return {
            "metric": metric,
            "q": float(q),
            "value": float(np.percentile(finite, q)),
            "count": int(finite.size),
            "of": int(values.size),
        }

    def outliers(self, metric: str, k: int = 10,
                 study: Optional[str] = None,
                 largest: bool = True,
                 table: str = "instances") -> List[dict]:
        """The ``k`` most extreme instances with full provenance.

        Returns row dicts carrying the instance index and the
        provenance columns (chunk, chunk SHA-256, worker, source), so a
        suspicious corner can be traced to -- and re-verified against
        -- the exact checkpoint bytes that produced it.  ``k = 0``
        returns no rows; a negative ``k`` raises.
        """
        if k < 0:
            raise WarehouseError(f"outliers: k must be >= 0, got {k}")
        columns = [
            metric, "study", "instance",
            "chunk", "chunk_sha256", "worker", "source",
        ]
        gathered = self._gather(table, columns, study)
        values = np.asarray(gathered[metric], dtype=float)
        finite = np.flatnonzero(np.isfinite(values))
        if finite.size == 0:
            return []
        order = np.argsort(values[finite], kind="stable")
        chosen = finite[order[::-1][:k] if largest else order[:k]]
        return [
            {
                "study": str(gathered["study"][i]),
                "instance": int(gathered["instance"][i]),
                metric: float(values[i]),
                "chunk": int(gathered["chunk"][i]),
                "chunk_sha256": str(gathered["chunk_sha256"][i]),
                "worker": str(gathered["worker"][i]),
                "source": str(gathered["source"][i]),
            }
            for i in chosen
        ]

    def provenance(self, study: Optional[str] = None,
                   table: str = "instances") -> List[dict]:
        """Unique chunk provenance rows of a dataset, chunk order.

        Each entry is ``{"chunk", "chunk_sha256", "worker", "source",
        "rows"}``.  Matching these SHA-256 values against
        :meth:`StudyStore.lineage` proves the warehouse rows derive
        from exactly the checkpoint bytes the store manifests record.
        """
        gathered = self._gather(
            table, ["chunk", "chunk_sha256", "worker", "source"], study
        )
        chunks = np.asarray(gathered["chunk"], dtype=np.int64)
        out = {}
        for i in range(chunks.size):
            index = int(chunks[i])
            entry = out.setdefault(index, {
                "chunk": index,
                "chunk_sha256": str(gathered["chunk_sha256"][i]),
                "worker": str(gathered["worker"][i]),
                "source": str(gathered["source"][i]),
                "rows": 0,
            })
            entry["rows"] += 1
        return [out[index] for index in sorted(out)]
