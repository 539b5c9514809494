"""Columnar result warehouse: partitioned datasets from StudyStores.

The warehouse tier turns durable chunk checkpoints into partitioned
columnar datasets (``key16=<study>/shard=<origin>/chunk=<index>/``)
that analytics can query out-of-core, without reloading whole studies
into RAM.  Ingest is idempotent and content-addressed (re-ingesting a
chunk is a structural no-op), every row carries provenance columns
(chunk SHA-256, worker, computed/resumed/stolen source), and
aggregations are exact -- bitwise equal to the same reduction of the
in-RAM study arrays.

Tables are ``.npz`` archives (one numpy array per column) and queries
stream them one partition file at a time, so the tier needs nothing
beyond numpy.

Entry points: :class:`Warehouse` (ingest), :class:`QueryEngine`
(aggregation), ``repro query`` (CLI), and the
:meth:`Study.warehouse() <repro.runtime.engine.Study.warehouse>`
directive (ingest on run completion with live lineage attribution).
"""

from repro.warehouse.backend import WarehouseError
from repro.warehouse.ingest import IngestReport, Warehouse
from repro.warehouse.query import QueryEngine
from repro.warehouse.schema import chunk_tables

__all__ = [
    "IngestReport",
    "QueryEngine",
    "Warehouse",
    "WarehouseError",
    "chunk_tables",
]
