"""Result warehouse: a catalog of registered studies (:class:`Warehouse`)
and exact aggregations (:class:`QueryEngine`) read in place from their
verified StudyStore chunk archives; ``repro query`` is the CLI.
"""

from repro.warehouse.catalog import RegisterReport, Warehouse, WarehouseError
from repro.warehouse.query import QueryEngine

__all__ = ["QueryEngine", "RegisterReport", "Warehouse", "WarehouseError"]
